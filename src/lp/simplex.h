// Bounded-variable dual simplex with a sparse revised kernel.
//
// Why dual simplex: every structural variable in the paper's IP models is a
// binary (finite bounds), so the all-slack basis — with each nonbasic
// variable parked at whichever bound its cost sign prefers — is always dual
// feasible. That removes the need for a phase-1, and branch-and-bound bound
// changes are exactly the perturbation dual simplex re-optimises from, so
// the depth-first MIP search warm-starts every node from the basis the
// previous node left behind.
//
// The basis is held as a sparse LU factorisation (see basis_lu.h) with
// product-form eta updates between periodic refactorisations; FTRAN/BTRAN
// are hypersparse; the leaving row is picked by devex dual pricing
// (violation^2 / devex weight) instead of a plain most-violated scan; and
// the dual ratio test is a bound-flip ("long-step") test — boxed nonbasics
// whose ratio is passed are flipped to their opposite bound in bulk (one
// combined FTRAN) instead of each costing a full pivot. Nonbasic bound
// changes between solves accumulate into a pending right-hand side, so a
// B&B node re-optimisation starts with one hypersparse FTRAN rather than a
// full primal recompute.
//
// The paper's models minimise a single makespan variable z, so almost all
// reduced costs are exactly zero and the dual simplex stalls on massive
// degeneracy; tiny per-variable cost offsets (hash-derived, so runs stay
// bit-reproducible) break the ties. Optimality is always proven against the
// TRUE costs: once the perturbed problem is optimal the solver removes the
// perturbation and re-optimises the (near-optimal) basis cleanly, so
// reported objectives are exact LP optima usable as B&B bounds.
//
// tests/lp_oracle.h is an independent dense primal simplex that the tests
// check this kernel against.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/basis_lu.h"
#include "lp/model.h"

namespace bsio::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kIterLimit,
  kNumericalFailure,
};

struct SimplexOptions {
  // Pivots between full refactorisations: bounds the eta file, since each
  // eta lengthens every FTRAN/BTRAN while a sparse refactorisation costs
  // roughly a handful of solves. Must be positive.
  int refactor_every = 64;
  // Wall-clock deadline for a single solve() in seconds (0 = none); an
  // expired deadline returns kIterLimit. Checked every few pivots so large
  // models cannot blow a caller's (e.g. B&B) time budget.
  double time_limit_seconds = 0.0;
};

// Per-solve observability counters; aggregated up through MipResult and
// ExecutionStats into the benchmark JSON.
struct SolverStats {
  long factorizations = 0;      // basis refactorisations performed
  long factor_fill_nnz = 0;     // peak nnz(L)+nnz(U) over factorisations
  long pivots = 0;              // basis-changing dual pivots
  long bound_flips = 0;         // nonbasics flipped by the long-step test
  long degenerate_pivots = 0;   // pivots with ~zero dual step
  long pricing_passes = 0;      // BTRAN + pricing row computations

  void accumulate(const SolverStats& o) {
    factorizations += o.factorizations;
    if (o.factor_fill_nnz > factor_fill_nnz)
      factor_fill_nnz = o.factor_fill_nnz;
    pivots += o.pivots;
    bound_flips += o.bound_flips;
    degenerate_pivots += o.degenerate_pivots;
    pricing_passes += o.pricing_passes;
  }
};

struct SolveResult {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  int iterations = 0;
  SolverStats stats;
};

class DualSimplex {
 public:
  // The model must outlive the solver. Variable count and rows are fixed at
  // construction; only bounds may change afterwards.
  explicit DualSimplex(const Model& model,
                       const SimplexOptions& opts = SimplexOptions());

  // (Re-)optimises from the current basis. First call starts from the
  // all-slack basis.
  SolveResult solve();

  // Overrides the per-solve deadline (seconds; 0 disables).
  void set_time_limit(double seconds) { opts_.time_limit_seconds = seconds; }

  // Tighten/relax a structural variable's bounds (B&B branching). Keeps the
  // basis; the next solve() warm-starts.
  void set_bounds(int var, double lo, double up);
  double lower(int var) const { return lo_[var]; }
  double upper(int var) const { return up_[var]; }

  // Value of structural variable `var` in the last solved point.
  double value(int var) const;
  // All structural values.
  std::vector<double> values() const;

 private:
  static constexpr std::uint8_t kAtLower = 0;
  static constexpr std::uint8_t kAtUpper = 1;
  static constexpr std::uint8_t kBasic = 2;

  void build_columns(const Model& model);
  void reset_to_slack_basis();
  void restore_dual_feasible_sides();

  double nonbasic_value(int j) const {
    return state_[j] == kAtLower ? lo_[j] : up_[j];
  }

  bool pivot_step();
  // Refactorises the current basis, then recomputes duals and x_B.
  void refactorize();
  // lu_ <- LU(B); false when singular.
  bool factorize_current_basis();
  // d = c - (c_B B^{-1}) A via BTRAN, against the given cost vector.
  void recompute_duals(const std::vector<double>& c);
  // x_B = B^{-1}(b - N x_N) via FTRAN.
  void recompute_x_basic();
  void apply_pending_bound_deltas();
  void add_nonbasic_delta(int var, double dx);

  const Model& model_;
  SimplexOptions opts_;

  int n_ = 0;  // structural variables
  int m_ = 0;  // rows (and slacks)
  int total_ = 0;

  // Sparse columns (structural + slack).
  std::vector<std::vector<int>> col_idx_;
  std::vector<std::vector<double>> col_val_;

  std::vector<double> cost_, lo_, up_;
  std::vector<double> pcost_;  // perturbed costs
  std::vector<double> b_;

  std::vector<int> basic_;           // basis position -> var
  std::vector<int> basic_pos_;       // var -> basis position or -1
  std::vector<std::uint8_t> state_;  // var -> kAtLower/kAtUpper/kBasic
  std::vector<double> xb_;           // basic values by basis position
  std::vector<double> d_;            // reduced costs (all vars)

  bool x_dirty_ = true;
  int pivots_since_refactor_ = 0;
  SolveStatus result_status_ = SolveStatus::kNumericalFailure;
  SolverStats stats_;

  BasisLu lu_;
  std::vector<double> gamma_;  // devex weights by basis position
  IndexedVector rho_;          // pricing row / BTRAN scratch (m)
  IndexedVector alpha_;        // pivot row alpha_j over all vars (n + m)
  IndexedVector w_;            // FTRAN of the entering column (m)
  IndexedVector rhs_;          // general FTRAN scratch (m)
  IndexedVector pending_rhs_;  // accumulated nonbasic bound deltas (m)
  bool pending_ = false;
  bool duals_perturbed_ = false;  // d_ currently tracks pcost_ (not cost_)
  struct RatioCand {
    double ratio;
    double aabs;
    int j;
  };
  std::vector<RatioCand> cands_;
  std::vector<int> flips_;
  std::vector<double> racc_;  // dense accumulator for full x recompute
  std::vector<std::vector<std::pair<int, double>>> basis_cols_;
};

}  // namespace bsio::lp
