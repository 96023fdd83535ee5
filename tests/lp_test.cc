#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp_oracle.h"

namespace bsio::lp {
namespace {

// The independent dense oracle (lp_oracle.h) must reach each hand-solved
// optimum too: `values` lists (variable, value) pairs it must match.
void expect_oracle_optimum(const Model& m, double objective,
                           std::vector<std::pair<int, double>> values = {}) {
  const lp_oracle::Result o = lp_oracle::solve(m);
  ASSERT_EQ(o.status, lp_oracle::Status::kOptimal);
  EXPECT_NEAR(o.objective, objective, 1e-8);
  for (const auto& [v, want] : values) EXPECT_NEAR(o.x[v], want, 1e-8);
}

// A copy of m with variable var's bounds replaced.
Model with_bounds(const Model& m, int var, double lo, double up) {
  Model out;
  for (int v = 0; v < m.num_vars(); ++v)
    out.add_var(m.cost(v), v == var ? lo : m.lower(v),
                v == var ? up : m.upper(v));
  for (int r = 0; r < m.num_rows(); ++r)
    out.add_row(m.sense(r), m.rhs(r), m.row(r));
  return out;
}

TEST(Model, RowActivityAndFeasibility) {
  Model m;
  int x = m.add_var(1.0, 0.0, 10.0);
  int y = m.add_var(2.0, 0.0, 10.0);
  m.add_row(Sense::kLe, 5.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kGe, 1.0, {{x, 1.0}});
  EXPECT_DOUBLE_EQ(m.row_activity(0, {2.0, 3.0}), 5.0);
  EXPECT_TRUE(m.is_feasible({2.0, 3.0}));
  EXPECT_FALSE(m.is_feasible({0.0, 3.0}));  // violates row 1
  EXPECT_FALSE(m.is_feasible({4.0, 3.0}));  // violates row 0
  EXPECT_FALSE(m.is_feasible({2.0, 11.0}));  // violates bound
  EXPECT_DOUBLE_EQ(m.objective_value({2.0, 3.0}), 8.0);
}

TEST(Simplex, TrivialBoundsOnlyProblem) {
  // min x - y, 0 <= x <= 2, 0 <= y <= 3: optimum x=0, y=3.
  Model m;
  m.add_var(1.0, 0.0, 2.0);
  m.add_var(-1.0, 0.0, 3.0);
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, -3.0);
  EXPECT_DOUBLE_EQ(s.value(0), 0.0);
  EXPECT_DOUBLE_EQ(s.value(1), 3.0);
  expect_oracle_optimum(m, -3.0, {{0, 0.0}, {1, 3.0}});
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
  // (Dantzig's example): optimum (2, 6), objective 36.
  Model m;
  int x = m.add_var(-3.0, 0.0, 100.0);
  int y = m.add_var(-5.0, 0.0, 100.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}});
  m.add_row(Sense::kLe, 12.0, {{y, 2.0}});
  m.add_row(Sense::kLe, 18.0, {{x, 3.0}, {y, 2.0}});
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.value(x), 2.0, 1e-8);
  EXPECT_NEAR(s.value(y), 6.0, 1e-8);
  expect_oracle_optimum(m, -36.0, {{x, 2.0}, {y, 6.0}});
}

TEST(Simplex, EqualityConstraints) {
  // min x + 2y + 3z s.t. x + y + z = 6, y + z >= 3, 0 <= all <= 4.
  // Optimum: x=3 is capped at 4... x + y + z = 6, prefer x big: x=4,
  // then y+z=2 but y+z>=3 -> x=3, y=3, z=0: obj 3 + 6 = 9.
  Model m;
  int x = m.add_var(1.0, 0.0, 4.0);
  int y = m.add_var(2.0, 0.0, 4.0);
  int z = m.add_var(3.0, 0.0, 4.0);
  m.add_row(Sense::kEq, 6.0, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  m.add_row(Sense::kGe, 3.0, {{y, 1.0}, {z, 1.0}});
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 9.0, 1e-8);
  EXPECT_NEAR(s.value(x), 3.0, 1e-8);
  EXPECT_NEAR(s.value(y), 3.0, 1e-8);
  EXPECT_NEAR(s.value(z), 0.0, 1e-8);
  expect_oracle_optimum(m, 9.0, {{x, 3.0}, {y, 3.0}, {z, 0.0}});
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  int x = m.add_var(1.0, 0.0, 1.0);
  m.add_row(Sense::kGe, 2.0, {{x, 1.0}});  // x >= 2 impossible with x <= 1
  DualSimplex s(m);
  EXPECT_EQ(s.solve().status, SolveStatus::kInfeasible);
  EXPECT_EQ(lp_oracle::solve(m).status, lp_oracle::Status::kInfeasible);
}

TEST(Simplex, InfeasibleSystemOfRows) {
  Model m;
  int x = m.add_var(0.0, 0.0, 10.0);
  int y = m.add_var(0.0, 0.0, 10.0);
  m.add_row(Sense::kLe, 3.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kGe, 5.0, {{x, 1.0}, {y, 1.0}});
  DualSimplex s(m);
  EXPECT_EQ(s.solve().status, SolveStatus::kInfeasible);
  EXPECT_EQ(lp_oracle::solve(m).status, lp_oracle::Status::kInfeasible);
}

TEST(Simplex, WarmRestartAfterBoundChange) {
  // min -x - y s.t. x + y <= 10, x,y in [0, 8].
  Model m;
  int x = m.add_var(-1.0, 0.0, 8.0);
  int y = m.add_var(-1.0, 0.0, 8.0);
  m.add_row(Sense::kLe, 10.0, {{x, 1.0}, {y, 1.0}});
  DualSimplex s(m);
  auto r1 = s.solve();
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r1.objective, -10.0, 1e-8);
  expect_oracle_optimum(m, -10.0);

  // Branch-style fixing: x = 0 -> optimum y = 8, objective -8.
  s.set_bounds(x, 0.0, 0.0);
  auto r2 = s.solve();
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r2.objective, -8.0, 1e-8);
  EXPECT_NEAR(s.value(x), 0.0, 1e-10);
  expect_oracle_optimum(with_bounds(m, x, 0.0, 0.0), -8.0,
                        {{x, 0.0}, {y, 8.0}});

  // Relax back -> original optimum returns.
  s.set_bounds(x, 0.0, 8.0);
  auto r3 = s.solve();
  ASSERT_EQ(r3.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r3.objective, -10.0, 1e-8);
}

TEST(Simplex, DegenerateRhsStillSolves) {
  // Multiple redundant constraints through the same vertex.
  Model m;
  int x = m.add_var(-1.0, 0.0, 5.0);
  int y = m.add_var(-1.0, 0.0, 5.0);
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kLe, 8.0, {{x, 2.0}, {y, 2.0}});
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-8);
  expect_oracle_optimum(m, -4.0);
}

TEST(Simplex, MinMaxLinearisationShape) {
  // The IP model's core shape: min z s.t. z >= load_i, with loads driven by
  // assignment-like variables. 3 items of size {3, 2, 1} onto 2 machines:
  // LP relaxation splits fractionally -> z = 3 (total/2).
  Model m;
  int z = m.add_var(1.0, 0.0, 100.0);
  double sizes[3] = {3.0, 2.0, 1.0};
  int t[3][2];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) t[i][j] = m.add_var(0.0, 0.0, 1.0);
  for (int i = 0; i < 3; ++i)
    m.add_row(Sense::kEq, 1.0, {{t[i][0], 1.0}, {t[i][1], 1.0}});
  for (int j = 0; j < 2; ++j) {
    std::vector<RowEntry> row{{z, -1.0}};
    for (int i = 0; i < 3; ++i) row.push_back({t[i][j], sizes[i]});
    m.add_row(Sense::kLe, 0.0, std::move(row));
  }
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
  expect_oracle_optimum(m, 3.0);
}

TEST(Simplex, LargerRandomLpAgainstActivityCheck) {
  // Random feasible LP: verify the reported optimum is primal feasible and
  // not worse than a known feasible point.
  Model m;
  const int n = 30;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i)
    vars.push_back(m.add_var((i % 5) - 2.0, 0.0, 1.0));
  for (int r = 0; r < 20; ++r) {
    std::vector<RowEntry> row;
    for (int i = r % 3; i < n; i += 3)
      row.push_back({vars[i], 1.0 + (i % 4)});
    m.add_row(Sense::kLe, 6.0, std::move(row));
  }
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  auto x = s.values();
  EXPECT_TRUE(m.is_feasible(x, 1e-6));
  EXPECT_LE(r.objective, m.objective_value(std::vector<double>(n, 0.0)) + 1e-9);
  expect_oracle_optimum(m, r.objective);
}

}  // namespace
}  // namespace bsio::lp
