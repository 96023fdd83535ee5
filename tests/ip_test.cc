#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ip/branch_and_bound.h"
#include "lp/model.h"
#include "util/rng.h"

namespace bsio::ip {
namespace {

// Brute-force 0-1 enumeration for cross-checking small MIPs.
double brute_force(const lp::Model& m, const std::vector<int>& bins,
                   std::vector<double>* best_x = nullptr) {
  const std::size_t nb = bins.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> x(m.num_vars(), 0.0);
  // Continuous vars must be absent for this checker.
  for (std::uint64_t mask = 0; mask < (1ULL << nb); ++mask) {
    for (std::size_t i = 0; i < nb; ++i)
      x[bins[i]] = (mask >> i) & 1 ? 1.0 : 0.0;
    if (!m.is_feasible(x)) continue;
    double obj = m.objective_value(x);
    if (obj < best) {
      best = obj;
      if (best_x) *best_x = x;
    }
  }
  return best;
}

TEST(Mip, KnapsackOptimal) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  => min negated.
  lp::Model m;
  int a = m.add_binary(-10.0);
  int b = m.add_binary(-13.0);
  int c = m.add_binary(-7.0);
  m.add_row(lp::Sense::kLe, 6.0, {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  MipSolver solver(m, {a, b, c});
  auto r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, -20.0);  // b + c
  EXPECT_DOUBLE_EQ(r.x[a], 0.0);
  EXPECT_DOUBLE_EQ(r.x[b], 1.0);
  EXPECT_DOUBLE_EQ(r.x[c], 1.0);
}

TEST(Mip, InfeasibleDetected) {
  lp::Model m;
  int a = m.add_binary(1.0);
  int b = m.add_binary(1.0);
  m.add_row(lp::Sense::kGe, 3.0, {{a, 1.0}, {b, 1.0}});
  MipSolver solver(m, {a, b});
  EXPECT_EQ(solver.solve().status, MipStatus::kInfeasible);
}

TEST(Mip, AssignmentWithMakespanObjective) {
  // 4 tasks, 2 machines, sizes {5, 4, 3, 2}; min makespan = 7.
  lp::Model m;
  const double sizes[4] = {5, 4, 3, 2};
  int z = m.add_var(1.0, 0.0, 14.0);
  int t[4][2];
  std::vector<int> bins;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j) bins.push_back(t[i][j] = m.add_binary(0.0));
  for (int i = 0; i < 4; ++i)
    m.add_row(lp::Sense::kEq, 1.0, {{t[i][0], 1.0}, {t[i][1], 1.0}});
  for (int j = 0; j < 2; ++j) {
    std::vector<lp::RowEntry> row{{z, -1.0}};
    for (int i = 0; i < 4; ++i) row.push_back({t[i][j], sizes[i]});
    m.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }
  MipSolver solver(m, bins);
  auto r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
}

TEST(Mip, WarmIncumbentAccepted) {
  lp::Model m;
  int a = m.add_binary(-1.0);
  int b = m.add_binary(-1.0);
  m.add_row(lp::Sense::kLe, 1.0, {{a, 1.0}, {b, 1.0}});
  MipSolver solver(m, {a, b});
  EXPECT_TRUE(solver.set_incumbent({1.0, 0.0}));
  EXPECT_FALSE(solver.set_incumbent({1.0, 1.0}));  // infeasible seed ignored
  auto r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, -1.0);
}

TEST(Mip, NodeLimitReturnsIncumbentAndBound) {
  // A bigger makespan instance; with a 1-node budget we still get the
  // seeded incumbent back with a valid lower bound.
  lp::Model m;
  const int n = 10;
  int z = m.add_var(1.0, 0.0, 100.0);
  std::vector<int> bins;
  std::vector<std::vector<int>> t(n, std::vector<int>(2));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < 2; ++j) bins.push_back(t[i][j] = m.add_binary(0.0));
  for (int i = 0; i < n; ++i)
    m.add_row(lp::Sense::kEq, 1.0, {{t[i][0], 1.0}, {t[i][1], 1.0}});
  for (int j = 0; j < 2; ++j) {
    std::vector<lp::RowEntry> row{{z, -1.0}};
    for (int i = 0; i < n; ++i) row.push_back({t[i][j], 1.0 + i % 3});
    m.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }
  // All tasks on machine 0.
  std::vector<double> seed(m.num_vars(), 0.0);
  double load = 0.0;
  for (int i = 0; i < n; ++i) {
    seed[t[i][0]] = 1.0;
    load += 1.0 + i % 3;
  }
  seed[z] = load;
  MipSolver solver(m, bins);
  ASSERT_TRUE(solver.set_incumbent(seed));
  MipOptions opts;
  opts.max_nodes = 1;
  opts.heuristic_every = 0;
  auto r = solver.solve(opts);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_LE(r.best_bound, r.objective + 1e-9);
  EXPECT_DOUBLE_EQ(r.objective, load);
}

// Size of task k on machine j in branching_model.
double branching_size(int k, int j) { return 1.0 + (k * 7 + j * 3) % 5; }

// A makespan-assignment model with non-uniform sizes: enough branching to
// exercise pseudo-cost selection without brute-force blowing up.
lp::Model branching_model(int tasks, int machines, std::vector<int>* bins) {
  lp::Model m;
  int z = m.add_var(1.0, 0.0, 1e6);
  std::vector<std::vector<int>> t(tasks, std::vector<int>(machines));
  for (int k = 0; k < tasks; ++k)
    for (int j = 0; j < machines; ++j)
      bins->push_back(t[k][j] = m.add_binary(0.0));
  for (int k = 0; k < tasks; ++k) {
    std::vector<lp::RowEntry> row;
    for (int j = 0; j < machines; ++j) row.push_back({t[k][j], 1.0});
    m.add_row(lp::Sense::kEq, 1.0, std::move(row));
  }
  for (int j = 0; j < machines; ++j) {
    std::vector<lp::RowEntry> row{{z, -1.0}};
    for (int k = 0; k < tasks; ++k)
      row.push_back({t[k][j], branching_size(k, j)});
    m.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }
  return m;
}

// branching_model's optimum without an LP: the smallest makespan over all
// machines^tasks assignments.
double enumerated_makespan(int tasks, int machines) {
  std::vector<int> on(tasks, 0);  // machine of each task
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    std::vector<double> load(machines, 0.0);
    for (int k = 0; k < tasks; ++k) load[on[k]] += branching_size(k, on[k]);
    best = std::min(best, *std::max_element(load.begin(), load.end()));
    int k = 0;  // advance `on` as a base-`machines` counter
    while (k < tasks && ++on[k] == machines) on[k++] = 0;
    if (k == tasks) return best;
  }
}

TEST(Mip, BranchingRulesReachTheSameProvenOptimum) {
  // The proven optimum must equal the best of all 3^7 = 2,187 assignments.
  std::vector<int> bins;
  lp::Model m = branching_model(7, 3, &bins);
  MipSolver solver(m, bins);
  auto r = solver.solve();
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, enumerated_makespan(7, 3), 1e-6);
  EXPECT_GT(r.stats.pivots + r.stats.bound_flips, 0);
}

TEST(Mip, StallNodeLimitStopsPolishingWithIncumbent) {
  std::vector<int> bins;
  lp::Model m = branching_model(12, 4, &bins);

  // Unlimited run for the reference optimum and node count.
  MipSolver ref(m, bins);
  auto full = ref.solve();
  ASSERT_EQ(full.status, MipStatus::kOptimal);

  MipOptions opts;
  opts.stall_node_limit = 5;
  MipSolver s(m, bins);
  auto r = s.solve(opts);
  // The stall cutoff can only fire once an incumbent exists, so the result
  // is never worse than feasible; a cut-short proof downgrades to kFeasible.
  ASSERT_TRUE(r.status == MipStatus::kOptimal ||
              r.status == MipStatus::kFeasible);
  EXPECT_TRUE(std::isfinite(r.objective));
  EXPECT_GE(r.objective, full.objective - 1e-9);
  EXPECT_LE(r.nodes, full.nodes);
}

class RandomMipSweep : public ::testing::TestWithParam<int> {};

// Property test: B&B matches brute-force enumeration on random 0-1 models
// with mixed senses and coefficients.
TEST_P(RandomMipSweep, MatchesBruteForce) {
  const int seed = GetParam();
  bsio::Rng rng(static_cast<std::uint64_t>(seed));
  lp::Model m;
  const int nb = 3 + static_cast<int>(rng.uniform(10));  // 3..12 binaries
  std::vector<int> bins;
  for (int i = 0; i < nb; ++i)
    bins.push_back(m.add_binary(rng.uniform_double(-5.0, 5.0)));
  const int nrows = 2 + static_cast<int>(rng.uniform(6));
  for (int r = 0; r < nrows; ++r) {
    std::vector<lp::RowEntry> row;
    for (int i = 0; i < nb; ++i)
      if (rng.bernoulli(0.6))
        row.push_back({bins[i], rng.uniform_double(0.5, 3.0)});
    if (row.empty()) row.push_back({bins[0], 1.0});
    double total = 0.0;
    for (auto& e : row) total += e.coef;
    if (rng.bernoulli(0.7))
      m.add_row(lp::Sense::kLe, rng.uniform_double(0.3, 0.9) * total,
                std::move(row));
    else
      m.add_row(lp::Sense::kGe, rng.uniform_double(0.1, 0.4) * total,
                std::move(row));
  }
  std::vector<double> bx;
  double expect = brute_force(m, bins, &bx);

  MipSolver solver(m, bins);
  auto r = solver.solve();
  if (std::isinf(expect)) {
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "seed " << seed;
  } else {
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(r.objective, expect, 1e-6) << "seed " << seed;
    EXPECT_TRUE(m.is_feasible(r.x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipSweep, ::testing::Range(0, 25));

}  // namespace
}  // namespace bsio::ip
