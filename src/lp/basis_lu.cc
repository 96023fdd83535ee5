#include "lp/basis_lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace bsio::lp {

namespace {
// Relative stability threshold of the Markowitz-style row choice: rows
// within kPivotBand of the column maximum are sparsity candidates.
constexpr double kPivotBand = 0.1;
// Below this absolute magnitude a column is considered structurally empty.
constexpr double kSingularTol = 1e-11;
// Entries smaller than this are dropped from L, U and eta vectors.
constexpr double kDropTol = 1e-14;
}  // namespace

bool BasisLu::factorize(
    int m, const std::vector<std::vector<std::pair<int, double>>>& cols) {
  BSIO_CHECK(static_cast<int>(cols.size()) == m);
  m_ = m;
  valid_ = false;

  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  udiag_.assign(m, 0.0);
  p_.assign(m, -1);
  q_.assign(m, -1);
  row_pos_.assign(m, -1);
  eta_r_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_idx_.clear();
  eta_val_.clear();

  // Static approximate-Markowitz ordering: eliminate sparse columns first
  // (slack singletons factor with zero fill before any structural column).
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return cols[a].size() < cols[b].size();
  });

  // Static row counts over the basis matrix for the sparsity tie-break.
  std::vector<int> row_count(m, 0);
  for (const auto& col : cols)
    for (const auto& [i, v] : col)
      if (v != 0.0) ++row_count[i];

  // Gilbert-Peierls working set.
  std::vector<double> x(m, 0.0);       // dense accumulator, by row
  std::vector<int> pattern;            // rows touched in x
  std::vector<unsigned char> xmark(m, 0);
  std::vector<unsigned char> visited(m, 0);  // by elimination step
  std::vector<int> post;               // DFS postorder (steps)
  std::vector<int> dfs_node, dfs_ptr;  // iterative DFS stack

  pattern.reserve(64);
  post.reserve(64);

  for (int k = 0; k < m; ++k) {
    const int bpos = order[k];
    // Scatter the basis column.
    pattern.clear();
    for (const auto& [i, v] : cols[bpos]) {
      if (v == 0.0) continue;
      if (!xmark[i]) {
        xmark[i] = 1;
        pattern.push_back(i);
      }
      x[i] += v;
    }

    // Symbolic reach: DFS over previously eliminated columns whose pivot
    // rows appear in the pattern; reverse postorder is a topological order
    // of the dependencies.
    post.clear();
    for (int rooti = 0, n0 = static_cast<int>(pattern.size()); rooti < n0;
         ++rooti) {
      const int s0 = row_pos_[pattern[rooti]];
      if (s0 < 0 || visited[s0]) continue;
      dfs_node.assign(1, s0);
      dfs_ptr.assign(1, lp_[s0]);
      visited[s0] = 1;
      while (!dfs_node.empty()) {
        const int s = dfs_node.back();
        int& ptr = dfs_ptr.back();
        bool descended = false;
        while (ptr < lp_[s + 1]) {
          const int row = li_[ptr++];
          if (!xmark[row]) {
            // New fill-in row enters the pattern (value starts at 0).
            xmark[row] = 1;
            pattern.push_back(row);
          }
          const int s2 = row_pos_[row];
          if (s2 >= 0 && !visited[s2]) {
            visited[s2] = 1;
            dfs_node.push_back(s2);
            dfs_ptr.push_back(lp_[s2]);
            descended = true;
            break;
          }
        }
        if (!descended && ptr >= lp_[s + 1]) {
          post.push_back(s);
          dfs_node.pop_back();
          dfs_ptr.pop_back();
        }
      }
    }

    // Numeric sparse lower solve in topological order.
    for (auto it = post.rbegin(); it != post.rend(); ++it) {
      const int s = *it;
      visited[s] = 0;
      const double t = x[p_[s]];
      if (t == 0.0) continue;
      for (int e = lp_[s]; e < lp_[s + 1]; ++e) x[li_[e]] -= lx_[e] * t;
    }

    // Pivot choice among unpivoted rows: threshold partial pivoting with a
    // Markowitz sparsity tie-break.
    double amax = 0.0;
    for (int i : pattern)
      if (row_pos_[i] < 0) amax = std::max(amax, std::abs(x[i]));
    if (amax < kSingularTol) {
      for (int i : pattern) {
        x[i] = 0.0;
        xmark[i] = 0;
      }
      for (int s : post) visited[s] = 0;
      return false;  // singular (or numerically so)
    }
    int piv = -1;
    int piv_count = 0;
    for (int i : pattern) {
      if (row_pos_[i] >= 0) continue;
      const double a = std::abs(x[i]);
      if (a < kPivotBand * amax) continue;
      if (piv < 0 || row_count[i] < piv_count ||
          (row_count[i] == piv_count && i < piv)) {
        piv = i;
        piv_count = row_count[i];
      }
    }
    const double xpiv = x[piv];

    // Commit U column k (pivoted entries) and L column k (unpivoted / piv).
    for (int i : pattern) {
      const int s = row_pos_[i];
      if (s >= 0) {
        if (std::abs(x[i]) > kDropTol) {
          ui_.push_back(s);
          ux_.push_back(x[i]);
        }
      } else if (i != piv) {
        const double l = x[i] / xpiv;
        if (std::abs(l) > kDropTol) {
          li_.push_back(i);
          lx_.push_back(l);
        }
      }
      x[i] = 0.0;
      xmark[i] = 0;
    }
    up_.push_back(static_cast<int>(ui_.size()));
    lp_.push_back(static_cast<int>(li_.size()));
    udiag_[k] = xpiv;
    p_[k] = piv;
    row_pos_[piv] = k;
    q_[k] = bpos;
  }

  build_row_mirrors();
  out_.resize(m);
  step_val_.assign(m, 0.0);
  valid_ = true;
  return true;
}

void BasisLu::build_row_mirrors() {
  // CSR mirrors of L (keyed by pivot row's elimination step) and U.
  std::vector<int> cnt(m_, 0);
  for (int i : li_) ++cnt[row_pos_[i]];
  lrp_.assign(m_ + 1, 0);
  for (int s = 0; s < m_; ++s) lrp_[s + 1] = lrp_[s] + cnt[s];
  lri_.assign(li_.size(), 0);
  lrx_.assign(lx_.size(), 0.0);
  std::vector<int> fill = lrp_;
  for (int k = 0; k < m_; ++k)
    for (int e = lp_[k]; e < lp_[k + 1]; ++e) {
      const int s = row_pos_[li_[e]];
      lri_[fill[s]] = k;
      lrx_[fill[s]] = lx_[e];
      ++fill[s];
    }

  cnt.assign(m_, 0);
  for (int s : ui_) ++cnt[s];
  urp_.assign(m_ + 1, 0);
  for (int s = 0; s < m_; ++s) urp_[s + 1] = urp_[s] + cnt[s];
  uri_.assign(ui_.size(), 0);
  urx_.assign(ux_.size(), 0.0);
  fill = urp_;
  for (int k = 0; k < m_; ++k)
    for (int e = up_[k]; e < up_[k + 1]; ++e) {
      const int s = ui_[e];
      uri_[fill[s]] = k;
      urx_[fill[s]] = ux_[e];
      ++fill[s];
    }
}

void BasisLu::ftran(IndexedVector& x) const {
  BSIO_DCHECK(valid_);
  // L solve (push form), in place keyed by row.
  for (int k = 0; k < m_; ++k) {
    const double t = x.val[p_[k]];
    if (t == 0.0) continue;
    for (int e = lp_[k]; e < lp_[k + 1]; ++e) x.add(li_[e], -lx_[e] * t);
  }
  // U backward solve; results keyed by basis position go to out_.
  out_.clear();
  for (int k = m_ - 1; k >= 0; --k) {
    const double t = x.val[p_[k]];
    if (t == 0.0) continue;
    const double yk = t / udiag_[k];
    out_.set(q_[k], yk);
    for (int e = up_[k]; e < up_[k + 1]; ++e)
      x.add(p_[ui_[e]], -ux_[e] * yk);
  }
  x.swap(out_);   // x := solution (basis-position space)
  out_.clear();   // wipe the leftover L-phase values for the next call

  // Eta file, oldest first: x := E_k^{-1} x.
  const int ne = static_cast<int>(eta_r_.size());
  for (int k = 0; k < ne; ++k) {
    const int r = eta_r_[k];
    const double xr = x.val[r];
    if (xr == 0.0) continue;
    const double t = xr / eta_pivot_[k];
    x.set(r, t);
    for (int e = eta_start_[k]; e < eta_start_[k + 1]; ++e)
      x.add(eta_idx_[e], -eta_val_[e] * t);
  }
}

void BasisLu::btran(IndexedVector& x) const {
  BSIO_DCHECK(valid_);
  // Eta transposes, newest first: x := E_k^{-T} x.
  for (int k = static_cast<int>(eta_r_.size()) - 1; k >= 0; --k) {
    const int r = eta_r_[k];
    double s = x.val[r];
    bool touched = s != 0.0;
    for (int e = eta_start_[k]; e < eta_start_[k + 1]; ++e) {
      const double xv = x.val[eta_idx_[e]];
      if (xv != 0.0) {
        s -= eta_val_[e] * xv;
        touched = true;
      }
    }
    if (touched) x.set(r, s / eta_pivot_[k]);
  }

  // Gather the input into elimination-step space: c'[s] = x[q_[s]].
  // step_val_ doubles as c' and then as the intermediate w.
  for (int s = 0; s < m_; ++s) step_val_[s] = x.val[q_[s]];
  x.clear();
  // U^T forward solve (push form).
  for (int s = 0; s < m_; ++s) {
    const double cs = step_val_[s];
    if (cs == 0.0) continue;
    const double ws = cs / udiag_[s];
    step_val_[s] = ws;
    for (int e = urp_[s]; e < urp_[s + 1]; ++e)
      step_val_[uri_[e]] -= urx_[e] * ws;
  }
  // L^T backward solve (push form): u_s final once later steps processed.
  for (int s = m_ - 1; s >= 0; --s) {
    const double us = step_val_[s];
    if (us == 0.0) continue;
    for (int e = lrp_[s]; e < lrp_[s + 1]; ++e)
      step_val_[lri_[e]] -= lrx_[e] * us;
  }
  // Scatter back to constraint-row space.
  for (int s = 0; s < m_; ++s) {
    if (step_val_[s] != 0.0) {
      x.set(p_[s], step_val_[s]);
      step_val_[s] = 0.0;
    }
  }
}

void BasisLu::update(int r, const IndexedVector& w) {
  BSIO_DCHECK(valid_);
  eta_r_.push_back(r);
  eta_pivot_.push_back(w.val[r]);
  for (int i : w.idx) {
    if (i == r) continue;
    const double v = w.val[i];
    if (std::abs(v) <= kDropTol) continue;
    eta_idx_.push_back(i);
    eta_val_.push_back(v);
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
}

}  // namespace bsio::lp
