#include "ip/branch_and_bound.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace bsio::ip {

namespace {

// A value within this distance of an integer counts as integral.
constexpr double kIntTol = 1e-6;
// Prune when node bound >= incumbent - max(kGapAbs, |incumbent| * kGapRel).
constexpr double kGapAbs = 1e-9;
constexpr double kGapRel = 1e-6;

struct Frame {
  int var = -1;
  double old_lo = 0.0, old_up = 0.0;
  // Children: fix to [old_lo, floor] and [ceil, old_up]. first_child is the
  // side explored first; tried counts how many were explored.
  double floor_val = 0.0, ceil_val = 0.0;
  int first_child = 0;  // 0 = down (floor) first, 1 = up (ceil) first
  int tried = 0;
  double lp_bound = 0.0;  // LP objective at this node (bound for subtree)
  double frac = 0.0;      // fractional part of x[var] at this node
};

// Per-variable, per-direction pseudo-costs: average objective degradation
// per unit of fractionality removed, learned from solved child LPs.
class PseudoCosts {
 public:
  PseudoCosts(const lp::Model& model, const std::vector<int>& integer_vars)
      : sum_{std::vector<double>(model.num_vars(), 0.0),
             std::vector<double>(model.num_vars(), 0.0)},
        cnt_{std::vector<long>(model.num_vars(), 0),
             std::vector<long>(model.num_vars(), 0)},
        init_(model.num_vars(), 1.0) {
    // Initialise from the objective: a variable with a large |coefficient|
    // moves the bound more when forced integral. Zero coefficients (the
    // common case in the paper's models, where only the makespan variable z
    // carries cost) fall back to 1.0, which reduces the product score to
    // pure fractionality until observations arrive.
    for (int v : integer_vars) {
      const double c = std::abs(model.cost(v));
      if (c > 0.0) init_[v] = c;
    }
  }

  // dir: 0 = down child (distance `frac`), 1 = up child (1 - frac).
  void observe(int var, int dir, double frac, double degradation) {
    const double dist = dir == 0 ? frac : 1.0 - frac;
    if (dist < 1e-9) return;
    sum_[dir][var] += std::max(0.0, degradation) / dist;
    ++cnt_[dir][var];
  }

  double estimate(int var, int dir) const {
    return cnt_[dir][var] > 0 ? sum_[dir][var] / cnt_[dir][var] : init_[var];
  }

  // Product score (Achterberg-style): degradations both ways must be large
  // for a variable to be worth branching on.
  double score(int var, double frac) const {
    const double dn = estimate(var, 0) * frac;
    const double up = estimate(var, 1) * (1.0 - frac);
    return std::max(dn, 1e-6) * std::max(up, 1e-6);
  }

 private:
  std::vector<double> sum_[2];
  std::vector<long> cnt_[2];
  std::vector<double> init_;
};

// Which branch produced the LP that is about to be solved, for pseudo-cost
// attribution once its objective is known.
struct Attr {
  int var = -1;
  int dir = 0;
  double frac = 0.0;
  double parent_obj = 0.0;
};

}  // namespace

MipSolver::MipSolver(const lp::Model& model, std::vector<int> integer_vars)
    : model_(model), integer_vars_(std::move(integer_vars)) {
  for (int v : integer_vars_)
    BSIO_CHECK(v >= 0 && v < model_.num_vars());
}

bool MipSolver::set_incumbent(const std::vector<double>& x) {
  if (!model_.is_feasible(x)) return false;
  for (int v : integer_vars_)
    if (std::abs(x[v] - std::round(x[v])) > 1e-6) return false;
  double obj = model_.objective_value(x);
  if (obj < incumbent_obj_) {
    incumbent_ = x;
    incumbent_obj_ = obj;
  }
  return true;
}

MipResult MipSolver::solve(const MipOptions& opts) {
  WallTimer timer;
  MipResult res;
  lp::DualSimplex lp(model_);
  PseudoCosts pc(model_, integer_vars_);

  double root_bound = -std::numeric_limits<double>::infinity();
  long stall_nodes = 0;  // nodes since the last incumbent improvement

  // Nodes whose LP bound reaches this value cannot beat the incumbent by
  // more than the gap. Before the first incumbent there is nothing to beat:
  // +inf prunes nothing, where inf - inf would make every test NaN.
  auto cutoff = [&]() {
    if (std::isinf(incumbent_obj_))
      return std::numeric_limits<double>::infinity();
    return incumbent_obj_ -
           std::max(kGapAbs, std::abs(incumbent_obj_) * kGapRel);
  };

  auto improve_incumbent = [&](std::vector<double>&& x, double obj) {
    incumbent_obj_ = obj;
    incumbent_ = std::move(x);
    stall_nodes = 0;
  };

  auto try_rounding = [&](const std::vector<double>& x) {
    std::vector<double> r = x;
    for (int v : integer_vars_) {
      r[v] = std::round(r[v]);
      r[v] = std::clamp(r[v], model_.lower(v), model_.upper(v));
    }
    if (!model_.is_feasible(r)) return;
    double obj = model_.objective_value(r);
    if (obj < incumbent_obj_) improve_incumbent(std::move(r), obj);
  };

  // Picks the branching variable for the fractional point `x`; -1 when the
  // point is integral (within kIntTol).
  auto select_branch = [&](const std::vector<double>& x) {
    int best = -1;
    double best_score = -1.0;
    for (int v : integer_vars_) {
      const double f = x[v] - std::floor(x[v]);
      if (std::min(f, 1.0 - f) <= kIntTol) continue;
      const double s = pc.score(v, f);
      if (s > best_score) {
        best_score = s;
        best = v;
      }
    }
    return best;
  };

  // Stall cutoff: with an incumbent in hand, give up on proving optimality
  // after stall_node_limit consecutive non-improving nodes.
  auto stalled = [&]() {
    return opts.stall_node_limit > 0 && stall_nodes >= opts.stall_node_limit &&
           incumbent_obj_ < std::numeric_limits<double>::infinity();
  };

  bool clean = true;  // false if any node LP failed numerically

  // Judges a solved node LP reached through `attr`. Returns the variable to
  // branch on, with the LP point in `x`, or -1 when the subtree is finished.
  auto evaluate = [&](const lp::SolveResult& sr, const Attr& attr,
                      std::vector<double>& x) {
    if (sr.status == lp::SolveStatus::kInfeasible) return -1;
    if (sr.status != lp::SolveStatus::kOptimal) {
      // Numerical trouble / iteration limit: cannot bound the subtree, so
      // prune and downgrade the final status below.
      BSIO_LOG(kWarn) << "B&B node LP did not solve to optimality (status "
                      << static_cast<int>(sr.status) << "); pruning";
      clean = false;
      return -1;
    }
    if (attr.var >= 0)
      pc.observe(attr.var, attr.dir, attr.frac,
                 sr.objective - attr.parent_obj);
    if (sr.objective >= cutoff()) return -1;
    x = lp.values();
    const int var = select_branch(x);
    if (var < 0) {
      // Integral: candidate incumbent.
      for (int v : integer_vars_) x[v] = std::round(x[v]);
      if (model_.is_feasible(x)) {
        const double obj = model_.objective_value(x);
        if (obj < incumbent_obj_) improve_incumbent(std::move(x), obj);
      }
      return -1;
    }
    if (opts.heuristic_every > 0 && res.nodes % opts.heuristic_every == 0)
      try_rounding(x);
    return var;
  };

  // Fixes the frame's next untried child (first_child, then the other) on
  // the solver and returns the branch that produced it.
  auto descend = [&](Frame& f) {
    const int child = f.tried++ == 0 ? f.first_child : 1 - f.first_child;
    if (child == 0)
      lp.set_bounds(f.var, f.old_lo, f.floor_val);
    else
      lp.set_bounds(f.var, f.ceil_val, f.old_up);
    return Attr{f.var, child, f.frac, f.lp_bound};
  };

  std::vector<Frame> stack;
  Attr attr;  // branch that produced the node about to be evaluated
  bool limit_hit = false;
  while (true) {
    // The root node is always evaluated (its LP is still bounded by the
    // remaining-budget floor below): building the simplex can consume a
    // tight budget by itself, and a solve that never computes a root bound
    // reports no best_bound and no stats.
    if (res.nodes > 0 &&
        (res.nodes >= opts.max_nodes ||
         timer.elapsed_seconds() > opts.time_limit_seconds || stalled())) {
      limit_hit = true;
      break;
    }
    ++res.nodes;
    ++stall_nodes;
    // Bound each node's LP by the remaining B&B budget so one large LP
    // cannot blow past the caller's time limit; the floor keeps a nearly
    // exhausted budget from starving the LP of all progress.
    lp.set_time_limit(
        std::max(0.02, opts.time_limit_seconds - timer.elapsed_seconds()));
    const lp::SolveResult sr = lp.solve();
    res.lp_iterations += sr.iterations;
    res.stats.accumulate(sr.stats);
    if (sr.status == lp::SolveStatus::kIterLimit &&
        timer.elapsed_seconds() > opts.time_limit_seconds) {
      // Deadline expired inside the LP: stop cleanly with the incumbent.
      limit_hit = true;
      break;
    }

    std::vector<double> x;
    const int var = evaluate(sr, attr, x);
    if (var >= 0) {
      if (stack.empty()) root_bound = sr.objective;
      Frame f;
      f.var = var;
      f.old_lo = lp.lower(var);
      f.old_up = lp.upper(var);
      f.floor_val = std::floor(x[var]);
      f.ceil_val = f.floor_val + 1.0;
      f.frac = x[var] - f.floor_val;
      // Explore first the side with the smaller estimated degradation.
      const bool down_first = pc.estimate(var, 0) * f.frac <=
                              pc.estimate(var, 1) * (1.0 - f.frac);
      f.first_child = down_first ? 0 : 1;
      f.lp_bound = sr.objective;
      stack.push_back(f);
      attr = descend(stack.back());
      continue;
    }

    // Backtrack to the deepest frame with an untried child that the
    // incumbent does not dominate.
    while (!stack.empty() && (stack.back().tried >= 2 ||
                              stack.back().lp_bound >= cutoff())) {
      lp.set_bounds(stack.back().var, stack.back().old_lo,
                    stack.back().old_up);
      stack.pop_back();
    }
    if (stack.empty()) break;
    attr = descend(stack.back());
  }

  res.solve_seconds = timer.elapsed_seconds();
  res.objective = incumbent_obj_;
  res.x = incumbent_;
  if (!limit_hit) {
    if (incumbent_.empty()) {
      res.status = clean ? MipStatus::kInfeasible : MipStatus::kNoSolution;
      res.best_bound = std::numeric_limits<double>::infinity();
    } else {
      res.status = clean ? MipStatus::kOptimal : MipStatus::kFeasible;
      res.best_bound = incumbent_obj_;
    }
  } else {
    // Bound = min over open subtree bounds and the root relaxation.
    double bound = incumbent_obj_;
    for (const Frame& f : stack) bound = std::min(bound, f.lp_bound);
    if (stack.empty()) bound = std::min(bound, root_bound);
    res.best_bound = bound;
    res.status =
        incumbent_.empty() ? MipStatus::kNoSolution : MipStatus::kFeasible;
  }
  return res;
}

}  // namespace bsio::ip
