// An LP oracle for the tests: a dense two-phase primal simplex with Bland's
// rule that reads only lp::Model. It shares no code with lp::DualSimplex —
// not the algorithm, not the model import, not the bound handling — so a
// fault in the solver's column build, slack bounds or warm-start
// bookkeeping shows up as a disagreement instead of passing both sides.
//
// Every variable needs a finite lower bound and is shifted onto y >= 0 as
// x = lo + y; a finite upper bound adds the row y <= up - lo. Rows are
// scaled to a non-negative right-hand side; a <= row gets a slack, a >= row
// a surplus and an artificial, an = row an artificial. Phase 1 minimises the
// sum of the artificials, phase 2 the objective with the artificials barred
// from entering. The tableau is dense, O(rows x columns) per pivot: sized
// for test models.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/model.h"

namespace bsio::lp_oracle {

enum class Status { kOptimal, kInfeasible, kUnbounded };

struct Result {
  Status status = Status::kInfeasible;
  double objective = 0.0;  // c^T x, evaluated on the model
  std::vector<double> x;   // structural values (empty unless optimal)
};

inline Result solve(const lp::Model& m) {
  constexpr double kEps = 1e-9;
  constexpr int kMaxPivots = 100000;
  const int n = m.num_vars();
  for (int v = 0; v < n; ++v)
    if (!std::isfinite(m.lower(v)))
      throw std::invalid_argument("oracle: a lower bound is not finite");

  // Rows over y: the model's rows, then one bound row per finite range.
  struct Row {
    std::vector<double> a;
    lp::Sense sense;
    double b;
  };
  std::vector<Row> rows;
  for (int r = 0; r < m.num_rows(); ++r) {
    Row row{std::vector<double>(n, 0.0), m.sense(r), m.rhs(r)};
    for (const lp::RowEntry& e : m.row(r)) {
      row.a[e.var] += e.coef;
      row.b -= e.coef * m.lower(e.var);
    }
    rows.push_back(std::move(row));
  }
  for (int v = 0; v < n; ++v) {
    const double range = m.upper(v) - m.lower(v);
    if (!std::isfinite(range)) continue;
    Row row{std::vector<double>(n, 0.0), lp::Sense::kLe, range};
    row.a[v] = 1.0;
    rows.push_back(std::move(row));
  }
  int slacks = 0, artificials = 0;
  for (Row& row : rows) {
    if (row.b < 0.0) {
      for (double& a : row.a) a = -a;
      row.b = -row.b;
      if (row.sense != lp::Sense::kEq)
        row.sense = row.sense == lp::Sense::kLe ? lp::Sense::kGe
                                                : lp::Sense::kLe;
    }
    if (row.sense != lp::Sense::kEq) ++slacks;
    if (row.sense != lp::Sense::kLe) ++artificials;
  }

  // Tableau columns: y, slacks and surpluses, artificials, then the rhs.
  const int nr = static_cast<int>(rows.size());
  const int first_art = n + slacks;
  const int rhs = first_art + artificials;
  std::vector<std::vector<double>> t(nr, std::vector<double>(rhs + 1, 0.0));
  std::vector<int> basis(nr);
  for (int i = 0, s = n, a = first_art; i < nr; ++i) {
    for (int j = 0; j < n; ++j) t[i][j] = rows[i].a[j];
    t[i][rhs] = rows[i].b;
    if (rows[i].sense != lp::Sense::kEq) {
      t[i][s] = rows[i].sense == lp::Sense::kLe ? 1.0 : -1.0;
      if (rows[i].sense == lp::Sense::kLe) basis[i] = s;
      ++s;
    }
    if (rows[i].sense != lp::Sense::kLe) {
      t[i][a] = 1.0;
      basis[i] = a++;
    }
  }

  int pivots = 0;
  auto pivot = [&](int r, int q) {
    if (++pivots > kMaxPivots) throw std::runtime_error("oracle: no progress");
    const double p = t[r][q];
    for (double& e : t[r]) e /= p;
    for (int i = 0; i < nr; ++i) {
      const double f = t[i][q];
      if (i == r || f == 0.0) continue;
      for (int j = 0; j <= rhs; ++j) t[i][j] -= f * t[r][j];
    }
    basis[r] = q;
  };
  // Minimises c over the columns below `end`; false when unbounded. Bland's
  // rule: the lowest improving column enters, and the lowest basic column
  // leaves among the rows tied at the minimum ratio.
  auto optimise = [&](const std::vector<double>& c, int end) {
    for (;;) {
      int q = -1;
      for (int j = 0; j < end && q < 0; ++j) {
        double d = c[j];
        for (int i = 0; i < nr; ++i) d -= c[basis[i]] * t[i][j];
        if (d < -kEps) q = j;
      }
      if (q < 0) return true;
      double best = lp::kInf;
      for (int i = 0; i < nr; ++i)
        if (t[i][q] > kEps) best = std::fmin(best, t[i][rhs] / t[i][q]);
      if (!std::isfinite(best)) return false;
      int r = -1;
      for (int i = 0; i < nr; ++i)
        if (t[i][q] > kEps && t[i][rhs] / t[i][q] <= best + kEps &&
            (r < 0 || basis[i] < basis[r]))
          r = i;
      pivot(r, q);
    }
  };

  Result res;
  std::vector<double> c(rhs, 0.0);
  for (int j = first_art; j < rhs; ++j) c[j] = 1.0;
  optimise(c, rhs);
  double infeasibility = 0.0;
  for (int i = 0; i < nr; ++i)
    if (basis[i] >= first_art) infeasibility += t[i][rhs];
  if (infeasibility > 1e-7) return res;
  // Pivot the artificials left at zero out of the basis. A row with no other
  // nonzero is redundant: no later pivot touches it.
  for (int i = 0; i < nr; ++i) {
    if (basis[i] < first_art) continue;
    int q = -1;
    for (int j = 0; j < first_art; ++j)
      if (std::abs(t[i][j]) > kEps &&
          (q < 0 || std::abs(t[i][j]) > std::abs(t[i][q])))
        q = j;
    if (q >= 0) pivot(i, q);
  }

  std::fill(c.begin(), c.end(), 0.0);
  for (int v = 0; v < n; ++v) c[v] = m.cost(v);
  if (!optimise(c, first_art)) {
    res.status = Status::kUnbounded;
    return res;
  }
  std::vector<double> y(rhs, 0.0);
  for (int i = 0; i < nr; ++i) y[basis[i]] = t[i][rhs];
  res.x.resize(n);
  for (int v = 0; v < n; ++v) res.x[v] = m.lower(v) + y[v];
  res.status = Status::kOptimal;
  res.objective = m.objective_value(res.x);
  return res;
}

}  // namespace bsio::lp_oracle
