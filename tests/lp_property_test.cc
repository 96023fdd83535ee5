// Property tests of the dual simplex beyond the hand-checked examples in
// lp_test.cc: optimality against random feasible points, invariance under
// redundant rows and objective scaling, warm-restart consistency, and a
// differential against the independent dense oracle in lp_oracle.h.

#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.h"
#include "lp/simplex.h"
#include "lp_oracle.h"
#include "util/rng.h"

namespace bsio::lp {
namespace {

// Random box-constrained LP with <= rows whose RHS guarantees x = lo is
// feasible (coefs >= 0, rhs >= a^T lo).
Model random_feasible_lp(int n, int rows, std::uint64_t seed) {
  bsio::Rng rng(seed);
  Model m;
  for (int v = 0; v < n; ++v)
    m.add_var(rng.uniform_double(-3.0, 3.0), 0.0,
              rng.uniform_double(0.5, 2.0));
  for (int r = 0; r < rows; ++r) {
    std::vector<RowEntry> row;
    for (int v = 0; v < n; ++v)
      if (rng.bernoulli(0.5)) row.push_back({v, rng.uniform_double(0.1, 2.0)});
    if (row.empty()) row.push_back({0, 1.0});
    double cap = 0.0;
    for (auto& e : row) cap += e.coef * m.upper(e.var);
    m.add_row(Sense::kLe, rng.uniform_double(0.2, 0.9) * cap, std::move(row));
  }
  return m;
}

// Draw a random feasible point by scaling back from a random box point.
std::vector<double> random_feasible_point(const Model& m, bsio::Rng& rng) {
  std::vector<double> x(m.num_vars());
  for (int v = 0; v < m.num_vars(); ++v)
    x[v] = m.lower(v) +
           rng.uniform_double() * (m.upper(v) - m.lower(v));
  // Shrink toward the all-lower point (feasible by construction) until the
  // rows hold.
  for (int tries = 0; tries < 60 && !m.is_feasible(x); ++tries)
    for (auto& xi : x) xi *= 0.8;
  return x;
}

class LpOptimality : public ::testing::TestWithParam<int> {};

TEST_P(LpOptimality, BeatsRandomFeasiblePoints) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Model m = random_feasible_lp(20, 12, seed);
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << seed;
  auto xstar = s.values();
  ASSERT_TRUE(m.is_feasible(xstar, 1e-6));
  EXPECT_NEAR(r.objective, m.objective_value(xstar), 1e-6);

  bsio::Rng rng(seed * 7 + 1);
  for (int i = 0; i < 25; ++i) {
    auto x = random_feasible_point(m, rng);
    if (!m.is_feasible(x)) continue;
    EXPECT_LE(r.objective, m.objective_value(x) + 1e-7)
        << "seed " << seed << " point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpOptimality, ::testing::Range(1, 16));

TEST(LpProperties, RedundantRowDoesNotChangeOptimum) {
  Model m = random_feasible_lp(15, 8, 42);
  DualSimplex s1(m);
  auto r1 = s1.solve();
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);

  // Add a row implied by the bounds: sum x_v <= sum upper.
  std::vector<RowEntry> row;
  double cap = 0.0;
  for (int v = 0; v < m.num_vars(); ++v) {
    row.push_back({v, 1.0});
    cap += m.upper(v);
  }
  m.add_row(Sense::kLe, cap + 1.0, std::move(row));
  DualSimplex s2(m);
  auto r2 = s2.solve();
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-7);
}

TEST(LpProperties, ObjectiveScalingScalesOptimum) {
  Model m = random_feasible_lp(12, 6, 77);
  Model scaled;
  for (int v = 0; v < m.num_vars(); ++v)
    scaled.add_var(3.0 * m.cost(v), m.lower(v), m.upper(v));
  for (int r = 0; r < m.num_rows(); ++r)
    scaled.add_row(m.sense(r), m.rhs(r), m.row(r));
  DualSimplex s1(m), s2(scaled);
  auto r1 = s1.solve();
  auto r2 = s2.solve();
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r2.objective, 3.0 * r1.objective, 1e-6);
}

TEST(LpProperties, TightenRelaxRoundTrip) {
  Model m = random_feasible_lp(10, 6, 99);
  DualSimplex s(m);
  auto base = s.solve();
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  bsio::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    int v = static_cast<int>(rng.uniform(m.num_vars()));
    double mid = 0.5 * (m.lower(v) + m.upper(v));
    s.set_bounds(v, m.lower(v), mid);
    auto tightened = s.solve();
    // Tightening can only worsen (raise) a minimisation optimum.
    if (tightened.status == SolveStatus::kOptimal) {
      EXPECT_GE(tightened.objective, base.objective - 1e-7);
    }
    s.set_bounds(v, m.lower(v), m.upper(v));
    auto restored = s.solve();
    ASSERT_EQ(restored.status, SolveStatus::kOptimal);
    EXPECT_NEAR(restored.objective, base.objective, 1e-6) << "iter " << i;
  }
}

TEST(LpProperties, TimeLimitReturnsIterLimitNotGarbage) {
  Model m = random_feasible_lp(60, 40, 3);
  SimplexOptions opts;
  opts.time_limit_seconds = 1e-9;  // expire immediately
  DualSimplex s(m, opts);
  auto r = s.solve();
  // Either it finished in the first few pivots or it reports the limit.
  EXPECT_TRUE(r.status == SolveStatus::kOptimal ||
              r.status == SolveStatus::kIterLimit);
}

// ---- Sparse-vs-dense differential: the sparse LU kernel of DualSimplex
// against the dense primal simplex of lp_oracle.h, which shares no code
// with it. Both must agree on status and (when optimal) objective on
// general bounded-variable models. ----

// The status DualSimplex must report for a model the oracle solved. The
// differential models bound every variable, so none is unbounded.
SolveStatus oracle_status(const lp_oracle::Result& o) {
  EXPECT_NE(o.status, lp_oracle::Status::kUnbounded);
  return o.status == lp_oracle::Status::kOptimal ? SolveStatus::kOptimal
                                                 : SolveStatus::kInfeasible;
}

// Random bounded-variable LP with negative lower bounds, mixed row senses
// and a fraction of zero costs (degeneracy). Feasibility is guaranteed by
// anchoring every row at an interior point x0.
Model random_bounded_lp(int n, int rows, std::uint64_t seed) {
  bsio::Rng rng(seed);
  Model m;
  std::vector<double> x0;
  for (int v = 0; v < n; ++v) {
    const double lo = rng.uniform_double(-2.0, 0.0);
    const double up = lo + rng.uniform_double(0.5, 3.0);
    const double c =
        rng.bernoulli(0.3) ? 0.0 : rng.uniform_double(-3.0, 3.0);
    m.add_var(c, lo, up);
    x0.push_back(lo + rng.uniform_double(0.1, 0.9) * (up - lo));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<RowEntry> row;
    double ax = 0.0;
    for (int v = 0; v < n; ++v)
      if (rng.bernoulli(0.5)) {
        const double a = rng.uniform_double(-2.0, 2.0);
        row.push_back({v, a});
        ax += a * x0[v];
      }
    if (row.empty()) {
      row.push_back({0, 1.0});
      ax = x0[0];
    }
    const double roll = rng.uniform_double();
    if (roll < 0.4)
      m.add_row(Sense::kLe, ax + rng.uniform_double(0.0, 1.5),
                std::move(row));
    else if (roll < 0.8)
      m.add_row(Sense::kGe, ax - rng.uniform_double(0.0, 1.5),
                std::move(row));
    else
      m.add_row(Sense::kEq, ax, std::move(row));
  }
  return m;
}

class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, RandomBoundedLpsAgree) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Model m = random_bounded_lp(14, 10, seed);
  const lp_oracle::Result oracle = lp_oracle::solve(m);
  DualSimplex sparse(m);
  auto rs = sparse.solve();
  ASSERT_EQ(rs.status, oracle_status(oracle)) << "seed " << seed;
  if (rs.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(oracle.objective, rs.objective, 1e-6) << "seed " << seed;
    EXPECT_TRUE(m.is_feasible(oracle.x, 1e-6)) << "seed " << seed;
    auto x = sparse.values();
    EXPECT_TRUE(m.is_feasible(x, 1e-6)) << "seed " << seed;
    EXPECT_NEAR(m.objective_value(x), rs.objective, 1e-6) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDense, ::testing::Range(1, 25));

TEST(SparseVsDenseEdge, InfeasibleModelAgreedInfeasible) {
  Model m = random_bounded_lp(8, 5, 17);
  // Contradictory pair on var 0: x0 >= upper + 1 is unreachable.
  m.add_row(Sense::kGe, m.upper(0) + 1.0, {{0, 1.0}});
  DualSimplex sparse(m);
  EXPECT_EQ(lp_oracle::solve(m).status, lp_oracle::Status::kInfeasible);
  EXPECT_EQ(sparse.solve().status, SolveStatus::kInfeasible);
}

TEST(SparseVsDenseEdge, DegenerateMakespanModelAgrees) {
  // The paper's model shape: min z with every other cost zero and identical
  // unit loads — almost every reduced cost ties at zero, the worst case for
  // the dual ratio test. 8 tasks x 3 machines.
  Model m;
  const int tasks = 8, machines = 3;
  int z = m.add_var(1.0, 0.0, 100.0);
  std::vector<std::vector<int>> t(tasks, std::vector<int>(machines));
  for (int k = 0; k < tasks; ++k)
    for (int i = 0; i < machines; ++i) t[k][i] = m.add_binary(0.0);
  for (int k = 0; k < tasks; ++k) {
    std::vector<RowEntry> row;
    for (int i = 0; i < machines; ++i) row.push_back({t[k][i], 1.0});
    m.add_row(Sense::kEq, 1.0, std::move(row));
  }
  for (int i = 0; i < machines; ++i) {
    std::vector<RowEntry> row{{z, -1.0}};
    for (int k = 0; k < tasks; ++k) row.push_back({t[k][i], 1.0});
    m.add_row(Sense::kLe, 0.0, std::move(row));
  }
  const lp_oracle::Result oracle = lp_oracle::solve(m);
  DualSimplex sparse(m);
  auto rs = sparse.solve();
  ASSERT_EQ(oracle.status, lp_oracle::Status::kOptimal);
  ASSERT_EQ(rs.status, SolveStatus::kOptimal);
  // LP relaxation spreads the unit loads perfectly: z* = 8/3.
  EXPECT_NEAR(oracle.objective, 8.0 / 3.0, 1e-7);
  EXPECT_NEAR(rs.objective, oracle.objective, 1e-6);
}

TEST(SparseVsDenseEdge, BoundChangeWarmRestartAgrees) {
  // Warm-restart differential: after bound changes that park nonbasic
  // variables on a dual-infeasible side (forcing restore/bound-flip logic),
  // the warm-started sparse solve must match the oracle's solve of the
  // modified model.
  Model m = random_bounded_lp(12, 8, 123);
  DualSimplex sparse(m);
  auto base = sparse.solve();
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  auto x = sparse.values();

  // Shrink each of the first few boxes to the half away from the current
  // optimal value, evicting the variable from its preferred bound.
  std::vector<std::pair<double, double>> new_bounds;
  for (int v = 0; v < m.num_vars(); ++v) {
    double lo = m.lower(v), up = m.upper(v);
    if (v < 5) {
      const double mid = 0.5 * (lo + up);
      if (x[v] <= mid)
        lo = mid;  // current value now below the feasible box
      else
        up = mid;
    }
    new_bounds.push_back({lo, up});
    sparse.set_bounds(v, lo, up);
  }
  auto warm = sparse.solve();

  Model m2;
  for (int v = 0; v < m.num_vars(); ++v)
    m2.add_var(m.cost(v), new_bounds[v].first, new_bounds[v].second);
  for (int r = 0; r < m.num_rows(); ++r)
    m2.add_row(m.sense(r), m.rhs(r), m.row(r));
  const lp_oracle::Result cold = lp_oracle::solve(m2);

  ASSERT_EQ(warm.status, oracle_status(cold));
  if (warm.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  }
}

TEST(SparseVsDenseEdge, SolverStatsPopulated) {
  Model m = random_bounded_lp(40, 30, 7);
  SimplexOptions opts;
  opts.refactor_every = 8;  // force periodic refactorisations mid-solve
  DualSimplex sparse(m, opts);
  auto r = sparse.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GE(r.stats.factorizations, 1);
  EXPECT_GT(r.stats.factor_fill_nnz, 0);
  EXPECT_GT(r.stats.pivots, 0);
  EXPECT_GE(r.stats.pricing_passes, r.stats.pivots);
  // The refactorisations must not move the optimum.
  const lp_oracle::Result oracle = lp_oracle::solve(m);
  ASSERT_EQ(oracle.status, lp_oracle::Status::kOptimal);
  EXPECT_NEAR(r.objective, oracle.objective, 1e-6);
}

TEST(LpProperties, EqualityRowsSatisfiedExactly) {
  bsio::Rng rng(8);
  Model m;
  for (int v = 0; v < 8; ++v) m.add_var(rng.uniform_double(-2, 2), 0.0, 4.0);
  m.add_row(Sense::kEq, 6.0, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
  m.add_row(Sense::kEq, 5.0, {{3, 1.0}, {4, 2.0}});
  DualSimplex s(m);
  auto r = s.solve();
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  auto x = s.values();
  EXPECT_NEAR(x[0] + x[1] + x[2], 6.0, 1e-7);
  EXPECT_NEAR(x[3] + 2.0 * x[4], 5.0, 1e-7);
}

}  // namespace
}  // namespace bsio::lp
