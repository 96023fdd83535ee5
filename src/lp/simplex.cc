#include "lp/simplex.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bsio::lp {

namespace {
// Iteration cap of one solve(); reaching it returns kIterLimit.
constexpr int kMaxIterations = 50000;
// Primal bound violation tolerance.
constexpr double kFeasTol = 1e-7;
// Reduced-cost tolerance.
constexpr double kDualTol = 1e-9;
// Minimum acceptable pivot magnitude.
constexpr double kPivotTol = 1e-8;
// Scale of the deterministic cost perturbation (see simplex.h).
constexpr double kPerturbScale = 1e-7;
// Devex weights above this trigger a reference-framework reset.
constexpr double kDevexResetThreshold = 1e7;

// Which bound a nonbasic variable parks at to be dual feasible under cost c.
bool park_prefers_lower(double c, double lo, double up) {
  bool prefer_lower = c >= 0.0;
  if (prefer_lower && !std::isfinite(lo)) prefer_lower = false;
  if (!prefer_lower && !std::isfinite(up)) prefer_lower = true;
  return prefer_lower;
}
}  // namespace

DualSimplex::DualSimplex(const Model& model, const SimplexOptions& opts)
    : model_(model), opts_(opts) {
  n_ = model.num_vars();
  m_ = model.num_rows();
  total_ = n_ + m_;
  BSIO_CHECK_MSG(opts_.refactor_every > 0, "refactor_every must be positive");
  build_columns(model);
  rho_.resize(m_);
  alpha_.resize(total_);
  w_.resize(m_);
  rhs_.resize(m_);
  pending_rhs_.resize(m_);
  racc_.assign(m_, 0.0);
  basis_cols_.resize(m_);
  reset_to_slack_basis();
}

void DualSimplex::build_columns(const Model& model) {
  col_idx_.assign(total_, {});
  col_val_.assign(total_, {});
  cost_.assign(total_, 0.0);
  lo_.assign(total_, 0.0);
  up_.assign(total_, 0.0);
  b_.assign(m_, 0.0);

  for (int v = 0; v < n_; ++v) {
    cost_[v] = model.cost(v);
    lo_[v] = model.lower(v);
    up_[v] = model.upper(v);
    BSIO_CHECK_MSG(std::isfinite(lo_[v]) || std::isfinite(up_[v]),
                   "free structural variables are not supported");
  }
  for (int r = 0; r < m_; ++r) {
    b_[r] = model.rhs(r);
    for (const auto& e : model.row(r)) {
      if (e.coef == 0.0) continue;
      col_idx_[e.var].push_back(r);
      col_val_[e.var].push_back(e.coef);
    }
    const int s = n_ + r;
    col_idx_[s].push_back(r);
    col_val_[s].push_back(1.0);
    switch (model.sense(r)) {
      case Sense::kLe:
        lo_[s] = 0.0;
        up_[s] = kInf;
        break;
      case Sense::kGe:
        lo_[s] = -kInf;
        up_[s] = 0.0;
        break;
      case Sense::kEq:
        lo_[s] = up_[s] = 0.0;
        break;
    }
  }

  // Deterministic per-variable offsets, pushed toward the variable's parking
  // side so the all-slack basis stays dual feasible.
  pcost_ = cost_;
  for (int v = 0; v < n_; ++v) {
    const double u =
        static_cast<double>(hash_mix(static_cast<std::uint64_t>(v) + 1) >>
                            11) *
        0x1.0p-53;  // [0, 1)
    const double xi = kPerturbScale * (1.0 + std::abs(cost_[v])) * (0.5 + u);
    pcost_[v] = cost_[v] +
                (park_prefers_lower(cost_[v], lo_[v], up_[v]) ? xi : -xi);
  }
}

void DualSimplex::reset_to_slack_basis() {
  basic_.resize(m_);
  basic_pos_.assign(total_, -1);
  state_.assign(total_, kAtLower);
  for (int r = 0; r < m_; ++r) {
    basic_[r] = n_ + r;
    basic_pos_[n_ + r] = r;
    state_[n_ + r] = kBasic;
  }
  for (int v = 0; v < n_; ++v) {
    // Park at the dual-feasible bound: cost >= 0 wants the lower bound.
    state_[v] =
        park_prefers_lower(cost_[v], lo_[v], up_[v]) ? kAtLower : kAtUpper;
  }
  // The slack basis is the identity: its factorisation cannot fail.
  const bool ok = factorize_current_basis();
  BSIO_CHECK_MSG(ok, "identity basis failed to factorise");
  gamma_.assign(m_, 1.0);
  pending_rhs_.clear();
  pending_ = false;
  // Slack basis, slack costs zero: y = 0, d_j = c_j (perturbed).
  duals_perturbed_ = true;
  d_ = pcost_;
  xb_.assign(m_, 0.0);
  x_dirty_ = true;
  pivots_since_refactor_ = 0;
}

double DualSimplex::value(int var) const {
  BSIO_DCHECK(var >= 0 && var < n_);
  switch (state_[var]) {
    case kBasic:
      return xb_[basic_pos_[var]];
    case kAtLower:
      return lo_[var];
    default:
      return up_[var];
  }
}

std::vector<double> DualSimplex::values() const {
  std::vector<double> x(n_);
  for (int v = 0; v < n_; ++v) x[v] = value(v);
  return x;
}

void DualSimplex::set_bounds(int var, double lo, double up) {
  BSIO_CHECK(var >= 0 && var < n_);
  BSIO_CHECK(lo <= up);
  if (state_[var] == kBasic || x_dirty_) {
    // Basic: x_B is untouched; any new violation surfaces at the next
    // pricing. Dirty: the next solve recomputes x_B from scratch anyway, so
    // accumulating a delta against the stale point would be wrong.
    lo_[var] = lo;
    up_[var] = up;
    return;
  }
  const double old_val = nonbasic_value(var);
  lo_[var] = lo;
  up_[var] = up;
  const double new_val = nonbasic_value(var);
  // The value snap shifts b - N x_N by A_var * (new - old); accumulate it so
  // the next solve applies all deltas with a single hypersparse FTRAN.
  if (new_val != old_val) add_nonbasic_delta(var, new_val - old_val);
}

void DualSimplex::add_nonbasic_delta(int var, double dx) {
  BSIO_CHECK_MSG(std::isfinite(dx), "nonbasic variable at infinite bound");
  const auto& idx = col_idx_[var];
  const auto& val = col_val_[var];
  for (std::size_t k = 0; k < idx.size(); ++k)
    pending_rhs_.add(idx[k], val[k] * dx);
  pending_ = true;
}

void DualSimplex::restore_dual_feasible_sides() {
  // After bound relaxations (B&B backtracking) a nonbasic variable can sit
  // on the side its reduced cost forbids; flip it to the other bound, which
  // restores dual feasibility without touching the basis.
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic || lo_[j] == up_[j]) continue;
    if (state_[j] == kAtLower && d_[j] < -kDualTol && std::isfinite(up_[j])) {
      state_[j] = kAtUpper;
      add_nonbasic_delta(j, up_[j] - lo_[j]);
    } else if (state_[j] == kAtUpper && d_[j] > kDualTol &&
               std::isfinite(lo_[j])) {
      state_[j] = kAtLower;
      add_nonbasic_delta(j, lo_[j] - up_[j]);
    }
  }
}

bool DualSimplex::factorize_current_basis() {
  for (int i = 0; i < m_; ++i) {
    auto& col = basis_cols_[i];
    col.clear();
    const int j = basic_[i];
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k)
      col.emplace_back(idx[k], val[k]);
  }
  if (!lu_.factorize(m_, basis_cols_)) return false;
  ++stats_.factorizations;
  if (lu_.fill_nnz() > stats_.factor_fill_nnz)
    stats_.factor_fill_nnz = lu_.fill_nnz();
  pivots_since_refactor_ = 0;
  return true;
}

void DualSimplex::refactorize() {
  if (!factorize_current_basis()) {
    // Accumulated roundoff degraded the basis beyond repair. Recover by
    // restarting from the all-slack basis (always dual feasible here);
    // the caller's solve loop re-optimises from scratch.
    reset_to_slack_basis();
  }
  recompute_duals(duals_perturbed_ ? pcost_ : cost_);
  restore_dual_feasible_sides();
  recompute_x_basic();
}

void DualSimplex::recompute_duals(const std::vector<double>& c) {
  // y^T = c_B^T B^{-1} via one BTRAN; then d_j = c_j - y^T A_j.
  rho_.clear();
  for (int i = 0; i < m_; ++i) {
    const double cb = c[basic_[i]];
    if (cb != 0.0) rho_.set(i, cb);
  }
  lu_.btran(rho_);
  const std::vector<double>& y = rho_.val;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) {
      d_[j] = 0.0;
      continue;
    }
    double s = 0.0;
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k) s += y[idx[k]] * val[k];
    d_[j] = c[j] - s;
  }
  rho_.clear();
}

void DualSimplex::recompute_x_basic() {
  // r = b - sum over nonbasic of A_j x_j; x_B = B^{-1} r via FTRAN.
  for (int i = 0; i < m_; ++i) racc_[i] = b_[i];
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) continue;
    const double xj = nonbasic_value(j);
    BSIO_CHECK_MSG(std::isfinite(xj), "nonbasic variable at infinite bound");
    if (xj == 0.0) continue;
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k) racc_[idx[k]] -= val[k] * xj;
  }
  rhs_.clear();
  for (int i = 0; i < m_; ++i)
    if (racc_[i] != 0.0) rhs_.set(i, racc_[i]);
  lu_.ftran(rhs_);
  std::fill(xb_.begin(), xb_.end(), 0.0);
  for (int i : rhs_.idx) xb_[i] = rhs_.val[i];
  rhs_.clear();
  pending_rhs_.clear();
  pending_ = false;
  x_dirty_ = false;
}

void DualSimplex::apply_pending_bound_deltas() {
  // delta x_B = -B^{-1} (A delta x_N), one FTRAN for all accumulated deltas.
  lu_.ftran(pending_rhs_);
  for (int i : pending_rhs_.idx)
    if (pending_rhs_.val[i] != 0.0) xb_[i] -= pending_rhs_.val[i];
  pending_rhs_.clear();
  pending_ = false;
}

bool DualSimplex::pivot_step() {
  // 1. Leaving row by devex dual pricing: maximise violation^2 / gamma.
  int r = -1;
  bool above = false;  // true: x_B[r] > upper
  double best_score = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int v = basic_[i];
    double viol;
    bool ab;
    if (xb_[i] < lo_[v] - kFeasTol) {
      viol = lo_[v] - xb_[i];
      ab = false;
    } else if (xb_[i] > up_[v] + kFeasTol) {
      viol = xb_[i] - up_[v];
      ab = true;
    } else {
      continue;
    }
    const double score = viol * viol / gamma_[i];
    if (score > best_score) {  // strict ">" keeps the smallest row on ties
      best_score = score;
      r = i;
      above = ab;
    }
  }
  if (r < 0) {
    result_status_ = SolveStatus::kOptimal;
    return false;
  }
  const int leave = basic_[r];

  // 2. Pricing row: rho = e_r^T B^{-1} (one BTRAN), then
  // alpha_j = rho . A_j accumulated row-wise over rho's nonzeros only.
  ++stats_.pricing_passes;
  rho_.clear();
  rho_.set(r, 1.0);
  lu_.btran(rho_);
  alpha_.clear();
  for (int i : rho_.idx) {
    const double ri = rho_.val[i];
    if (ri == 0.0) continue;
    alpha_.add(n_ + i, ri);  // slack column of row i is e_i
    for (const auto& e : model_.row(i)) {
      if (e.coef != 0.0) alpha_.add(e.var, ri * e.coef);
    }
  }

  // 3. Bound-flip ("long-step") dual ratio test. Candidates sorted by
  // ratio |d_j / alpha_j|; while the leaving row's violation survives a
  // candidate's full bound-to-bound flip, flip it (it is cheaper than a
  // pivot) and keep going; the first candidate that cannot be flipped
  // enters the basis.
  cands_.clear();
  for (int j : alpha_.idx) {
    if (state_[j] == kBasic) continue;
    const double a = alpha_.val[j];
    if (std::abs(a) < kPivotTol) continue;
    if (lo_[j] == up_[j]) continue;  // fixed: cannot re-enter usefully
    const bool at_lower = state_[j] == kAtLower;
    const bool eligible =
        above ? ((at_lower && a > 0.0) || (!at_lower && a < 0.0))
              : ((at_lower && a < 0.0) || (!at_lower && a > 0.0));
    if (!eligible) continue;
    cands_.push_back({std::abs(d_[j] / a), std::abs(a), j});
  }
  if (cands_.empty()) {
    result_status_ = SolveStatus::kInfeasible;
    return false;
  }

  // Walk the ratio breakpoints in ascending order: a boxed candidate is
  // passed (flipped) while the leaving row's violation survives its full
  // bound-to-bound swing; the first candidate that cannot be flipped enters.
  // Candidates tied with the entering ratio are NOT flipped — under heavy
  // degeneracy (many zero reduced costs) such flips gain nothing dually and
  // only thrash the primal point.
  //
  // Fast path: a plain min-scan finds the first breakpoint; the heap (whose
  // build cost would dominate iterations that take no flip) is only built
  // when that candidate actually gets flipped.
  const auto before = [](const RatioCand& x, const RatioCand& y) {
    if (x.ratio != y.ratio) return x.ratio < y.ratio;
    if (x.aabs != y.aabs) return x.aabs > y.aabs;
    return x.j < y.j;
  };
  double delta = above ? xb_[r] - up_[leave] : lo_[leave] - xb_[r];
  RatioCand enter;
  flips_.clear();
  {
    std::size_t best = 0;
    for (std::size_t k = 1; k < cands_.size(); ++k)
      if (before(cands_[k], cands_[best])) best = k;
    const RatioCand first = cands_[best];
    const double range = up_[first.j] - lo_[first.j];
    if (cands_.size() == 1 || !std::isfinite(range) ||
        delta - first.aabs * range <= kFeasTol) {
      enter = first;
    } else {
      // Slow path: the first breakpoint flips; heap-walk the rest.
      const auto heap_after = [&before](const RatioCand& x,
                                        const RatioCand& y) {
        return before(y, x);
      };
      flips_.push_back(first.j);
      delta -= first.aabs * range;
      cands_[best] = cands_.back();
      cands_.pop_back();
      std::make_heap(cands_.begin(), cands_.end(), heap_after);
      std::size_t heap_end = cands_.size();
      for (;;) {
        std::pop_heap(cands_.begin(), cands_.begin() + heap_end, heap_after);
        const RatioCand c = cands_[--heap_end];
        const double crange = up_[c.j] - lo_[c.j];
        if (heap_end == 0 || !std::isfinite(crange) ||
            delta - c.aabs * crange <= kFeasTol) {
          enter = c;
          break;
        }
        delta -= c.aabs * crange;
        flips_.push_back(c.j);
      }
    }
  }
  const int q = enter.j;
  // flips_ is in ascending ratio order; ties with the entering ratio sit at
  // the tail. Drop them.
  const double tie_band = enter.ratio - 1e-12;
  while (!flips_.empty()) {
    const int j = flips_.back();
    if (std::abs(d_[j] / alpha_.val[j]) >= tie_band)
      flips_.pop_back();
    else
      break;
  }

  // 4. Apply the flips: combined primal correction with a single FTRAN.
  if (!flips_.empty()) {
    rhs_.clear();
    for (int j : flips_) {
      const double dx = state_[j] == kAtLower ? up_[j] - lo_[j]
                                              : lo_[j] - up_[j];
      state_[j] = state_[j] == kAtLower ? kAtUpper : kAtLower;
      const auto& idx = col_idx_[j];
      const auto& val = col_val_[j];
      for (std::size_t k = 0; k < idx.size(); ++k)
        rhs_.add(idx[k], val[k] * dx);
    }
    lu_.ftran(rhs_);
    for (int i : rhs_.idx)
      if (rhs_.val[i] != 0.0) xb_[i] -= rhs_.val[i];
    rhs_.clear();
    stats_.bound_flips += static_cast<long>(flips_.size());
  }

  // 5. FTRAN of the entering column; pivot element w[r] (== alpha_q up to
  // roundoff).
  w_.clear();
  {
    const auto& idx = col_idx_[q];
    const auto& val = col_val_[q];
    for (std::size_t k = 0; k < idx.size(); ++k) w_.add(idx[k], val[k]);
  }
  lu_.ftran(w_);
  const double wr = w_.val[r];
  if (std::abs(wr) < kPivotTol) {
    // Numerical disagreement with the pricing row: refactorise and let the
    // caller retry this iteration.
    refactorize();
    return true;
  }

  // 6. Dual step over the pricing pattern only.
  const double mu = d_[q] / wr;
  if (std::abs(d_[q]) <= kDualTol) ++stats_.degenerate_pivots;
  for (int j : alpha_.idx) {
    if (state_[j] == kBasic || j == q) continue;
    const double a = alpha_.val[j];
    if (a != 0.0) d_[j] -= mu * a;
  }

  // 7. Primal step: drive x_B[r] exactly to its violated bound.
  const double target = above ? up_[leave] : lo_[leave];
  const double t = (xb_[r] - target) / wr;
  const double xq_old = nonbasic_value(q);
  for (int i : w_.idx) {
    if (i != r && w_.val[i] != 0.0) xb_[i] -= t * w_.val[i];
  }
  xb_[r] = xq_old + t;

  // 8. Devex weight update (reference framework reset on overflow).
  {
    const double gr = gamma_[r];
    const double wr2 = wr * wr;
    double gmax = 0.0;
    for (int i : w_.idx) {
      if (i == r) continue;
      const double wi = w_.val[i];
      if (wi == 0.0) continue;
      const double cand = (wi * wi / wr2) * gr;
      if (cand > gamma_[i]) gamma_[i] = cand;
      if (gamma_[i] > gmax) gmax = gamma_[i];
    }
    gamma_[r] = std::max(gr / wr2, 1.0);
    if (gamma_[r] > gmax) gmax = gamma_[r];
    if (gmax > kDevexResetThreshold) gamma_.assign(m_, 1.0);
  }

  // 9. Basis change: product-form eta append + bookkeeping.
  lu_.update(r, w_);
  basic_[r] = q;
  basic_pos_[q] = r;
  state_[q] = kBasic;
  d_[q] = 0.0;
  basic_pos_[leave] = -1;
  state_[leave] = above ? kAtUpper : kAtLower;
  d_[leave] = -mu;
  ++stats_.pivots;

  if (++pivots_since_refactor_ >= opts_.refactor_every) refactorize();
  return true;
}

SolveResult DualSimplex::solve() {
  stats_ = SolverStats{};
  // The basis carried into this solve (factorised at construction or by a
  // previous call) counts toward this solve's peak fill-in.
  if (lu_.valid()) stats_.factor_fill_nnz = lu_.fill_nnz();
  SolveResult res;
  if (!duals_perturbed_) {
    // Re-arm the perturbation the previous solve's cleanup pass removed.
    duals_perturbed_ = true;
    recompute_duals(pcost_);
  }
  restore_dual_feasible_sides();
  if (x_dirty_)
    recompute_x_basic();
  else if (pending_)
    apply_pending_bound_deltas();
  int iter = 0;
  bool finished = false;
  WallTimer timer;
  while (iter < kMaxIterations) {
    ++iter;
    if (opts_.time_limit_seconds > 0.0 && (iter & 7) == 0 &&
        timer.elapsed_seconds() > opts_.time_limit_seconds)
      break;
    if (!pivot_step()) {
      if (result_status_ == SolveStatus::kOptimal && duals_perturbed_) {
        // Perturbed problem solved: drop the perturbation and re-optimise
        // against the true costs so the reported optimum is exact.
        duals_perturbed_ = false;
        recompute_duals(cost_);
        restore_dual_feasible_sides();
        if (pending_) apply_pending_bound_deltas();
        continue;
      }
      finished = true;
      break;
    }
  }
  res.iterations = iter;
  res.status = finished ? result_status_ : SolveStatus::kIterLimit;
  if (res.status == SolveStatus::kOptimal) {
    double obj = 0.0;
    for (int v = 0; v < n_; ++v) obj += cost_[v] * value(v);
    res.objective = obj;
  }
  res.stats = stats_;
  return res;
}

}  // namespace bsio::lp
