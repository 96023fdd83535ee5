// 0-1 (mixed) integer programming by LP-based branch and bound.
//
// Depth-first search with dual-simplex warm starts: branching only changes
// variable bounds, and a depth-first step changes one bound at a time, so
// every node re-optimises from the previous node's basis in a handful of
// pivots. Branching is pseudo-cost: per-variable per-direction degradation
// estimates start from |objective coefficient| (1.0 when zero, which
// reduces the product score to fractionality) and are refined with each
// observed child-LP bound degradation.
//
// A rounding heuristic probes for incumbents at every node, and the caller
// can seed an incumbent (the IP scheduler seeds the BiPartition solution) so
// time-limited runs are never worse than the heuristic on the model
// objective — mirroring how the paper's lp_solve setup degrades gracefully
// on large instances.
#pragma once

#include <limits>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"

namespace bsio::ip {

struct MipOptions {
  double time_limit_seconds = 30.0;
  long max_nodes = 1000000;
  // Run the rounding heuristic every k-th node (0 disables).
  int heuristic_every = 1;
  // Stop with kFeasible after this many consecutive nodes without an
  // incumbent improvement (0 disables). Only kicks in once an incumbent
  // exists, so it can never cause kNoSolution; with a seeded incumbent it
  // bounds how long B&B polishes a heuristic plan.
  long stall_node_limit = 0;
};

enum class MipStatus {
  kOptimal,     // incumbent proven optimal (within gap)
  kFeasible,    // limit hit with an incumbent in hand
  kInfeasible,  // proven infeasible
  kNoSolution,  // limit hit before any incumbent was found
};

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  std::vector<double> x;  // incumbent values (structural variables)
  double objective = std::numeric_limits<double>::infinity();
  double best_bound = -std::numeric_limits<double>::infinity();
  long nodes = 0;
  long lp_iterations = 0;
  double solve_seconds = 0.0;
  // Simplex kernel counters accumulated over every node LP.
  lp::SolverStats stats;
};

class MipSolver {
 public:
  // `model` must outlive the solver; integer_vars lists the variables
  // required to take integral values (binaries in all of this library's
  // models).
  MipSolver(const lp::Model& model, std::vector<int> integer_vars);

  // Seeds an incumbent. The point is verified against the model; infeasible
  // seeds are ignored (returns false).
  bool set_incumbent(const std::vector<double>& x);

  MipResult solve(const MipOptions& opts = MipOptions());

 private:
  const lp::Model& model_;
  std::vector<int> integer_vars_;
  std::vector<double> incumbent_;
  double incumbent_obj_ = std::numeric_limits<double>::infinity();
};

}  // namespace bsio::ip
