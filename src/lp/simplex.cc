#include "lp/simplex.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace bsio::lp {

namespace {
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
  if (opts_.refactor_every <= 0) {
    if (opts_.use_dense_basis) {
      // Refactorisation costs O(m^3), a pivot update O(m^2): amortise the
      // refactorisation to at most ~one pivot's worth of work, with a floor
      // that keeps small models numerically fresh.
      opts_.refactor_every = std::max(64, m_);
    } else {
      // Bound the eta file: each eta lengthens every FTRAN/BTRAN, while a
      // sparse refactorisation costs roughly a handful of solves.
      opts_.refactor_every = 64;
    }
  }
  perturb_active_ = !opts_.use_dense_basis && opts_.perturb_scale > 0.0;
  build_columns(model);
  if (!opts_.use_dense_basis) {
    rho_s_.resize(m_);
    alpha_s_.resize(total_);
    w_s_.resize(m_);
    rhs_s_.resize(m_);
    pending_rhs_.resize(m_);
    racc_.assign(m_, 0.0);
    basis_cols_.resize(m_);
  }
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

  pcost_ = cost_;
  if (perturb_active_) {
    // Deterministic per-variable offsets, pushed toward the variable's
    // parking side so the all-slack basis stays dual feasible.
    for (int v = 0; v < n_; ++v) {
      const double u =
          static_cast<double>(hash_mix(static_cast<std::uint64_t>(v) + 1) >>
                              11) *
          0x1.0p-53;  // [0, 1)
      const double xi =
          opts_.perturb_scale * (1.0 + std::abs(cost_[v])) * (0.5 + u);
      pcost_[v] = cost_[v] +
                  (park_prefers_lower(cost_[v], lo_[v], up_[v]) ? xi : -xi);
    }
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
  if (opts_.use_dense_basis) {
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int r = 0; r < m_; ++r)
      binv_[static_cast<std::size_t>(r) * m_ + r] = 1.0;
    rho_.assign(m_, 0.0);
    w_.assign(m_, 0.0);
  } else {
    // The slack basis is the identity: its factorisation cannot fail.
    const bool ok = factorize_current_basis();
    BSIO_CHECK_MSG(ok, "identity basis failed to factorise");
    gamma_.assign(m_, 1.0);
    pending_rhs_.clear();
    pending_ = false;
  }
  // Slack basis, slack costs zero: y = 0, d_j = c_j.
  duals_perturbed_ = perturb_active_;
  d_ = duals_perturbed_ ? pcost_ : cost_;
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
  if (opts_.use_dense_basis) {
    lo_[var] = lo;
    up_[var] = up;
    // A nonbasic variable keeps its side; its value snaps to the new bound,
    // which leaves reduced costs (hence dual feasibility) untouched.
    x_dirty_ = true;
    return;
  }
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
    if (state_[j] == kAtLower && d_[j] < -opts_.dual_tol &&
        std::isfinite(up_[j])) {
      state_[j] = kAtUpper;
      if (opts_.use_dense_basis)
        x_dirty_ = true;
      else
        add_nonbasic_delta(j, up_[j] - lo_[j]);
    } else if (state_[j] == kAtUpper && d_[j] > opts_.dual_tol &&
               std::isfinite(lo_[j])) {
      state_[j] = kAtLower;
      if (opts_.use_dense_basis)
        x_dirty_ = true;
      else
        add_nonbasic_delta(j, lo_[j] - up_[j]);
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse revised simplex path.
// ---------------------------------------------------------------------------

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

void DualSimplex::refactorize_sparse() {
  if (!factorize_current_basis()) {
    // Accumulated roundoff degraded the basis beyond repair. Recover by
    // restarting from the all-slack basis (always dual feasible here);
    // the caller's solve loop re-optimises from scratch.
    reset_to_slack_basis();
  }
  recompute_duals_sparse(duals_perturbed_ ? pcost_ : cost_);
  restore_dual_feasible_sides();
  recompute_x_basic_sparse();
}

void DualSimplex::recompute_duals_sparse(const std::vector<double>& c) {
  // y^T = c_B^T B^{-1} via one BTRAN; then d_j = c_j - y^T A_j.
  rho_s_.clear();
  for (int i = 0; i < m_; ++i) {
    const double cb = c[basic_[i]];
    if (cb != 0.0) rho_s_.set(i, cb);
  }
  lu_.btran(rho_s_);
  const std::vector<double>& y = rho_s_.val;
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
  rho_s_.clear();
}

void DualSimplex::recompute_x_basic_sparse() {
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
  rhs_s_.clear();
  for (int i = 0; i < m_; ++i)
    if (racc_[i] != 0.0) rhs_s_.set(i, racc_[i]);
  lu_.ftran(rhs_s_);
  std::fill(xb_.begin(), xb_.end(), 0.0);
  for (int i : rhs_s_.idx) xb_[i] = rhs_s_.val[i];
  rhs_s_.clear();
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

bool DualSimplex::pivot_step_sparse() {
  // 1. Leaving row by devex dual pricing: maximise violation^2 / gamma.
  int r = -1;
  bool above = false;  // true: x_B[r] > upper
  double best_score = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int v = basic_[i];
    double viol;
    bool ab;
    if (xb_[i] < lo_[v] - opts_.feas_tol) {
      viol = lo_[v] - xb_[i];
      ab = false;
    } else if (xb_[i] > up_[v] + opts_.feas_tol) {
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
  rho_s_.clear();
  rho_s_.set(r, 1.0);
  lu_.btran(rho_s_);
  alpha_s_.clear();
  for (int i : rho_s_.idx) {
    const double ri = rho_s_.val[i];
    if (ri == 0.0) continue;
    alpha_s_.add(n_ + i, ri);  // slack column of row i is e_i
    for (const auto& e : model_.row(i)) {
      if (e.coef != 0.0) alpha_s_.add(e.var, ri * e.coef);
    }
  }

  // 3. Bound-flip ("long-step") dual ratio test. Candidates sorted by
  // ratio |d_j / alpha_j|; while the leaving row's violation survives a
  // candidate's full bound-to-bound flip, flip it (it is cheaper than a
  // pivot) and keep going; the first candidate that cannot be flipped
  // enters the basis.
  cands_.clear();
  for (int j : alpha_s_.idx) {
    if (state_[j] == kBasic) continue;
    const double a = alpha_s_.val[j];
    if (std::abs(a) < opts_.pivot_tol) continue;
    if (lo_[j] == up_[j]) continue;  // fixed: cannot re-enter usefully
    const bool at_lower = state_[j] == kAtLower;
    const bool eligible = above ? ((at_lower && a > 0.0) || (!at_lower && a < 0.0))
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
        delta - first.aabs * range <= opts_.feas_tol) {
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
            delta - c.aabs * crange <= opts_.feas_tol) {
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
    if (std::abs(d_[j] / alpha_s_.val[j]) >= tie_band)
      flips_.pop_back();
    else
      break;
  }

  // 4. Apply the flips: combined primal correction with a single FTRAN.
  if (!flips_.empty()) {
    rhs_s_.clear();
    for (int j : flips_) {
      const double dx = state_[j] == kAtLower ? up_[j] - lo_[j]
                                              : lo_[j] - up_[j];
      state_[j] = state_[j] == kAtLower ? kAtUpper : kAtLower;
      const auto& idx = col_idx_[j];
      const auto& val = col_val_[j];
      for (std::size_t k = 0; k < idx.size(); ++k)
        rhs_s_.add(idx[k], val[k] * dx);
    }
    lu_.ftran(rhs_s_);
    for (int i : rhs_s_.idx)
      if (rhs_s_.val[i] != 0.0) xb_[i] -= rhs_s_.val[i];
    rhs_s_.clear();
    stats_.bound_flips += static_cast<long>(flips_.size());
  }

  // 5. FTRAN of the entering column; pivot element w[r] (== alpha_q up to
  // roundoff).
  w_s_.clear();
  {
    const auto& idx = col_idx_[q];
    const auto& val = col_val_[q];
    for (std::size_t k = 0; k < idx.size(); ++k) w_s_.add(idx[k], val[k]);
  }
  lu_.ftran(w_s_);
  const double wr = w_s_.val[r];
  if (std::abs(wr) < opts_.pivot_tol) {
    // Numerical disagreement with the pricing row: refactorise and let the
    // caller retry this iteration.
    refactorize_sparse();
    return true;
  }

  // 6. Dual step over the pricing pattern only.
  const double mu = d_[q] / wr;
  if (std::abs(d_[q]) <= opts_.dual_tol) ++stats_.degenerate_pivots;
  for (int j : alpha_s_.idx) {
    if (state_[j] == kBasic || j == q) continue;
    const double a = alpha_s_.val[j];
    if (a != 0.0) d_[j] -= mu * a;
  }

  // 7. Primal step: drive x_B[r] exactly to its violated bound.
  const double target = above ? up_[leave] : lo_[leave];
  const double t = (xb_[r] - target) / wr;
  const double xq_old = nonbasic_value(q);
  for (int i : w_s_.idx) {
    if (i != r && w_s_.val[i] != 0.0) xb_[i] -= t * w_s_.val[i];
  }
  xb_[r] = xq_old + t;

  // 8. Devex weight update (reference framework reset on overflow).
  {
    const double gr = gamma_[r];
    const double wr2 = wr * wr;
    double gmax = 0.0;
    for (int i : w_s_.idx) {
      if (i == r) continue;
      const double wi = w_s_.val[i];
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
  lu_.update(r, w_s_);
  basic_[r] = q;
  basic_pos_[q] = r;
  state_[q] = kBasic;
  d_[q] = 0.0;
  basic_pos_[leave] = -1;
  state_[leave] = above ? kAtUpper : kAtLower;
  d_[leave] = -mu;
  ++stats_.pivots;

  if (++pivots_since_refactor_ >= opts_.refactor_every) refactorize_sparse();
  return true;
}

// ---------------------------------------------------------------------------
// Dense oracle path (the original implementation, kept for differential
// testing against the sparse kernel).
// ---------------------------------------------------------------------------

void DualSimplex::recompute_x_basic() {
  // r = b - sum over nonbasic of A_j x_j; xb = binv * r.
  std::vector<double> r = b_;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) continue;
    const double xj = nonbasic_value(j);
    BSIO_CHECK_MSG(std::isfinite(xj), "nonbasic variable at infinite bound");
    if (xj == 0.0) continue;
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k) r[idx[k]] -= val[k] * xj;
  }
  for (int i = 0; i < m_; ++i) {
    const double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    double s = 0.0;
    for (int k = 0; k < m_; ++k) s += row[k] * r[k];
    xb_[i] = s;
  }
  x_dirty_ = false;
}

void DualSimplex::recompute_duals() {
  // y^T = c_B^T B^{-1}; d_j = c_j - y^T A_j.
  std::vector<double> y(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basic_[i]];
    if (cb == 0.0) continue;
    const double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    for (int k = 0; k < m_; ++k) y[k] += cb * row[k];
  }
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) {
      d_[j] = 0.0;
      continue;
    }
    double s = 0.0;
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k) s += y[idx[k]] * val[k];
    d_[j] = cost_[j] - s;
  }
}

void DualSimplex::refactorize_dense() {
  // Gauss-Jordan inversion of the basis matrix with partial pivoting.
  const std::size_t mm = static_cast<std::size_t>(m_);
  std::vector<double> a(mm * mm, 0.0);  // basis matrix, row-major
  for (int c = 0; c < m_; ++c) {
    const int j = basic_[c];
    const auto& idx = col_idx_[j];
    const auto& val = col_val_[j];
    for (std::size_t k = 0; k < idx.size(); ++k)
      a[static_cast<std::size_t>(idx[k]) * mm + c] = val[k];
  }
  std::vector<double>& inv = binv_;
  std::fill(inv.begin(), inv.end(), 0.0);
  for (int i = 0; i < m_; ++i) inv[static_cast<std::size_t>(i) * mm + i] = 1.0;

  for (int col = 0; col < m_; ++col) {
    int piv = col;
    double best = std::abs(a[static_cast<std::size_t>(col) * mm + col]);
    for (int i = col + 1; i < m_; ++i) {
      double v = std::abs(a[static_cast<std::size_t>(i) * mm + col]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-12) {
      // Accumulated roundoff degraded the basis beyond repair. Recover by
      // restarting from the all-slack basis (always dual feasible here);
      // the caller's solve loop re-optimises from scratch.
      reset_to_slack_basis();
      return;
    }
    if (piv != col) {
      for (int k = 0; k < m_; ++k) {
        std::swap(a[static_cast<std::size_t>(piv) * mm + k],
                  a[static_cast<std::size_t>(col) * mm + k]);
        std::swap(inv[static_cast<std::size_t>(piv) * mm + k],
                  inv[static_cast<std::size_t>(col) * mm + k]);
      }
    }
    const double p = a[static_cast<std::size_t>(col) * mm + col];
    const double ip = 1.0 / p;
    for (int k = 0; k < m_; ++k) {
      a[static_cast<std::size_t>(col) * mm + k] *= ip;
      inv[static_cast<std::size_t>(col) * mm + k] *= ip;
    }
    for (int i = 0; i < m_; ++i) {
      if (i == col) continue;
      const double f = a[static_cast<std::size_t>(i) * mm + col];
      if (f == 0.0) continue;
      for (int k = 0; k < m_; ++k) {
        a[static_cast<std::size_t>(i) * mm + k] -=
            f * a[static_cast<std::size_t>(col) * mm + k];
        inv[static_cast<std::size_t>(i) * mm + k] -=
            f * inv[static_cast<std::size_t>(col) * mm + k];
      }
    }
  }
  ++stats_.factorizations;
  pivots_since_refactor_ = 0;
  recompute_duals();
  restore_dual_feasible_sides();
  recompute_x_basic();
}

double DualSimplex::col_dot_row(int col, const std::vector<double>& row) const {
  const auto& idx = col_idx_[col];
  const auto& val = col_val_[col];
  double s = 0.0;
  for (std::size_t k = 0; k < idx.size(); ++k) s += row[idx[k]] * val[k];
  return s;
}

void DualSimplex::ftran_dense(int col, std::vector<double>& out) const {
  out.assign(m_, 0.0);
  const auto& idx = col_idx_[col];
  const auto& val = col_val_[col];
  for (int i = 0; i < m_; ++i) {
    const double* row = binv_.data() + static_cast<std::size_t>(i) * m_;
    double s = 0.0;
    for (std::size_t k = 0; k < idx.size(); ++k) s += row[idx[k]] * val[k];
    out[i] = s;
  }
}

bool DualSimplex::pivot_step_dense() {
  if (x_dirty_) recompute_x_basic();

  // 1. Leaving row: most violated basic bound.
  int r = -1;
  double worst = opts_.feas_tol;
  bool above = false;  // true: x_B[r] > upper
  for (int i = 0; i < m_; ++i) {
    const int v = basic_[i];
    if (xb_[i] < lo_[v] - opts_.feas_tol) {
      double viol = lo_[v] - xb_[i];
      if (viol > worst) {
        worst = viol;
        r = i;
        above = false;
      }
    } else if (xb_[i] > up_[v] + opts_.feas_tol) {
      double viol = xb_[i] - up_[v];
      if (viol > worst) {
        worst = viol;
        r = i;
        above = true;
      }
    }
  }
  if (r < 0) {
    result_status_ = SolveStatus::kOptimal;
    return false;
  }

  // 2. rho = e_r^T B^{-1}; alpha_j = rho . A_j.
  const double* brow = binv_.data() + static_cast<std::size_t>(r) * m_;
  rho_.assign(brow, brow + m_);
  ++stats_.pricing_passes;

  // 3. Dual ratio test. mu = d_q / alpha_q; leaving-above wants mu >= 0,
  // leaving-below wants mu <= 0; pick smallest |mu|, then (Harris-style)
  // the largest |alpha| within a relative band of the minimum.
  std::vector<double> alpha(total_, 0.0);
  double best_abs_mu = kInf;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) continue;
    const double a = col_dot_row(j, rho_);
    alpha[j] = a;
    if (std::abs(a) < opts_.pivot_tol) continue;
    const bool at_lower = state_[j] == kAtLower;
    bool eligible;
    if (above)
      eligible = (at_lower && a > 0.0) || (!at_lower && a < 0.0);
    else
      eligible = (at_lower && a < 0.0) || (!at_lower && a > 0.0);
    if (!eligible) continue;
    // Fixed variables (lo == up) cannot re-enter usefully.
    if (lo_[j] == up_[j]) continue;
    const double abs_mu = std::abs(d_[j] / a);
    best_abs_mu = std::min(best_abs_mu, abs_mu);
  }
  if (best_abs_mu == kInf) {
    result_status_ = SolveStatus::kInfeasible;
    return false;
  }
  int q = -1;
  double best_pivot = 0.0;
  const double band = best_abs_mu * (1.0 + 1e-7) + 1e-10;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic) continue;
    const double a = alpha[j];
    if (std::abs(a) < opts_.pivot_tol) continue;
    if (lo_[j] == up_[j]) continue;
    const bool at_lower = state_[j] == kAtLower;
    bool eligible;
    if (above)
      eligible = (at_lower && a > 0.0) || (!at_lower && a < 0.0);
    else
      eligible = (at_lower && a < 0.0) || (!at_lower && a > 0.0);
    if (!eligible) continue;
    if (std::abs(d_[j] / a) <= band && std::abs(a) > best_pivot) {
      best_pivot = std::abs(a);
      q = j;
    }
  }
  BSIO_CHECK(q >= 0);

  // 4. w = B^{-1} A_q; pivot element is w[r] (== alpha[q] up to roundoff).
  ftran_dense(q, w_);
  if (std::abs(w_[r]) < opts_.pivot_tol) {
    // Numerical disagreement with the row computation: refactorise and let
    // the caller retry this iteration.
    refactorize_dense();
    return true;
  }

  // 5. Primal step: drive x_B[r] exactly to its violated bound.
  const int leave = basic_[r];
  const double target = above ? up_[leave] : lo_[leave];
  const double t = (xb_[r] - target) / w_[r];
  const double xq_old = state_[q] == kAtLower ? lo_[q] : up_[q];

  // 6. Dual step.
  const double mu = d_[q] / w_[r];
  if (std::abs(d_[q]) <= opts_.dual_tol) ++stats_.degenerate_pivots;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == kBasic || j == q) continue;
    if (alpha[j] != 0.0) d_[j] -= mu * alpha[j];
  }
  d_[leave] = -mu;
  d_[q] = 0.0;

  // 7. Primal update.
  for (int i = 0; i < m_; ++i)
    if (i != r) xb_[i] -= t * w_[i];
  xb_[r] = xq_old + t;

  // 8. Basis inverse product-form update.
  {
    double* prow = binv_.data() + static_cast<std::size_t>(r) * m_;
    const double ip = 1.0 / w_[r];
    for (int k = 0; k < m_; ++k) prow[k] *= ip;
    for (int i = 0; i < m_; ++i) {
      if (i == r || w_[i] == 0.0) continue;
      double* irow = binv_.data() + static_cast<std::size_t>(i) * m_;
      const double f = w_[i];
      for (int k = 0; k < m_; ++k) irow[k] -= f * prow[k];
    }
  }

  // 9. Bookkeeping.
  basic_[r] = q;
  basic_pos_[q] = r;
  state_[q] = kBasic;
  basic_pos_[leave] = -1;
  state_[leave] = above ? kAtUpper : kAtLower;
  ++stats_.pivots;

  if (++pivots_since_refactor_ >= opts_.refactor_every) refactorize_dense();
  return true;
}

// ---------------------------------------------------------------------------

SolveResult DualSimplex::solve() {
  stats_ = SolverStats{};
  // The basis carried into this solve (factorised at construction or by a
  // previous call) counts toward this solve's peak fill-in.
  if (!opts_.use_dense_basis && lu_.valid())
    stats_.factor_fill_nnz = lu_.fill_nnz();
  SolveResult res;
  if (perturb_active_ && !duals_perturbed_) {
    // Re-arm the perturbation the previous solve's cleanup pass removed.
    duals_perturbed_ = true;
    recompute_duals_sparse(pcost_);
  }
  restore_dual_feasible_sides();
  if (opts_.use_dense_basis) {
    if (x_dirty_) recompute_x_basic();
  } else {
    if (x_dirty_)
      recompute_x_basic_sparse();
    else if (pending_)
      apply_pending_bound_deltas();
  }
  int iter = 0;
  bool finished = false;
  WallTimer timer;
  while (iter < opts_.max_iterations) {
    ++iter;
    if (opts_.time_limit_seconds > 0.0 && (iter & 7) == 0 &&
        timer.elapsed_seconds() > opts_.time_limit_seconds)
      break;
    const bool more =
        opts_.use_dense_basis ? pivot_step_dense() : pivot_step_sparse();
    if (!more) {
      if (result_status_ == SolveStatus::kOptimal && duals_perturbed_) {
        // Perturbed problem solved: drop the perturbation and re-optimise
        // against the true costs so the reported optimum is exact.
        duals_perturbed_ = false;
        recompute_duals_sparse(cost_);
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
