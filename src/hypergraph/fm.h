// Fiduccia–Mattheyses 2-way refinement with net pin counting, hill climbing
// and best-prefix rollback. For two parts the connectivity-1 metric equals
// the cut-net weight, which is what the pass optimises.
#pragma once

#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace bsio::hg {

// Target/cap weights of the two sides of a bisection. Uneven targets are
// used when recursive bisection splits K into unequal halves.
struct BisectionConstraint {
  double target0 = 0.0;
  double target1 = 0.0;
  double max0 = 0.0;
  double max1 = 0.0;
};

BisectionConstraint make_constraint(double total_weight, double ratio0,
                                    double epsilon);

// Refines side[] (entries 0/1) in place.
void fm_refine(const Hypergraph& h, std::vector<int>& side,
               const BisectionConstraint& c, Rng& rng, int passes);

}  // namespace bsio::hg
