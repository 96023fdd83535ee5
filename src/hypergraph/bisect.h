// Multilevel bisection driver: coarsen to a small hypergraph, bisect it with
// greedy growing, then project back through the levels running FM at each.
#pragma once

#include "hypergraph/fm.h"
#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace bsio::hg {

// Returns side[v] in {0, 1}; ratio0 = desired fraction of total vertex
// weight on side 0, epsilon = allowed imbalance ratio of each side.
std::vector<int> multilevel_bisect(const Hypergraph& h, double ratio0,
                                   double epsilon, Rng& rng);

}  // namespace bsio::hg
