// Microbenchmarks of the LP / 0-1 IP substrate (google-benchmark): dual
// simplex solves and branch-and-bound on makespan-assignment models of
// growing size — the cost driver behind the IP scheme's Fig 6(b) overhead
// curve — plus root-LP solves of the paper's Section-4 allocation IP.

#include <benchmark/benchmark.h>

#include "ip/branch_and_bound.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "sched/ip_formulation.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace bsio;

// min z s.t. tasks assigned to machines, z >= per-machine load.
lp::Model makespan_model(int tasks, int machines, std::uint64_t seed,
                         std::vector<int>* bins) {
  Rng rng(seed);
  lp::Model m;
  int z = m.add_var(1.0, 0.0, 1e9);
  std::vector<std::vector<int>> t(tasks, std::vector<int>(machines));
  for (int k = 0; k < tasks; ++k)
    for (int i = 0; i < machines; ++i)
      bins->push_back(t[k][i] = m.add_binary(0.0));
  for (int k = 0; k < tasks; ++k) {
    std::vector<lp::RowEntry> row;
    for (int i = 0; i < machines; ++i) row.push_back({t[k][i], 1.0});
    m.add_row(lp::Sense::kEq, 1.0, std::move(row));
  }
  for (int i = 0; i < machines; ++i) {
    std::vector<lp::RowEntry> row{{z, -1.0}};
    for (int k = 0; k < tasks; ++k)
      row.push_back({t[k][i], 1.0 + rng.uniform_double() * 4.0});
    m.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }
  return m;
}

void BM_DualSimplexLpRelaxation(benchmark::State& state) {
  std::vector<int> bins;
  lp::Model m = makespan_model(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)), 3, &bins);
  for (auto _ : state) {
    lp::DualSimplex s(m);
    auto r = s.solve();
    benchmark::DoNotOptimize(r.objective);
  }
  state.counters["rows"] = m.num_rows();
  state.counters["cols"] = m.num_vars();
}
BENCHMARK(BM_DualSimplexLpRelaxation)
    ->Args({50, 4})
    ->Args({200, 4})
    ->Args({200, 16})
    ->Unit(benchmark::kMillisecond);

void BM_BranchAndBound(benchmark::State& state) {
  std::vector<int> bins;
  lp::Model m = makespan_model(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)), 5, &bins);
  ip::MipOptions opts;
  opts.time_limit_seconds = 2.0;
  opts.max_nodes = 2000;
  for (auto _ : state) {
    ip::MipSolver solver(m, bins);
    auto r = solver.solve(opts);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_BranchAndBound)
    ->Args({20, 2})
    ->Args({40, 4})
    ->Unit(benchmark::kMillisecond);

// The Section-4 allocation IP (task mapping + staging + replication over a
// 32-node cluster) at growing task counts — the model class the IP
// scheduler actually solves. arg0 = tasks.
void BM_AllocationRootLp(benchmark::State& state) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = static_cast<std::size_t>(state.range(0));
  cfg.files_per_task = 8;
  cfg.overlap = 0.85;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.num_storage_nodes = 4;
  cfg.seed = 7;
  const wl::Workload w = wl::make_synthetic(cfg);

  sim::ClusterConfig c;
  c.num_compute_nodes = 32;
  c.num_storage_nodes = 4;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  sim::ExecutionEngine eng(c, w, {});

  std::vector<wl::TaskId> tasks;
  for (const auto& t : w.tasks()) tasks.push_back(t.id);
  const sched::AllocationModel alloc(
      w, tasks, sched::coalesce_files(w, tasks, eng.state()), eng.topology(),
      {});

  lp::SimplexOptions so;
  so.time_limit_seconds = 120.0;
  lp::SolveResult last;
  for (auto _ : state) {
    lp::DualSimplex s(alloc.model(), so);
    last = s.solve();
    benchmark::DoNotOptimize(last.objective);
  }
  state.counters["rows"] = alloc.model().num_rows();
  state.counters["cols"] = alloc.model().num_vars();
  state.counters["iters"] = last.iterations;
  state.counters["factorizations"] = static_cast<double>(
      last.stats.factorizations);
  state.counters["fill_nnz"] = static_cast<double>(last.stats.factor_fill_nnz);
  state.counters["bound_flips"] = static_cast<double>(last.stats.bound_flips);
  state.counters["degen_pivots"] = static_cast<double>(
      last.stats.degenerate_pivots);
  state.counters["optimal"] =
      last.status == lp::SolveStatus::kOptimal ? 1.0 : 0.0;
}
BENCHMARK(BM_AllocationRootLp)
    ->ArgName("tasks")
    // The bench sub-batch sizes.
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_WarmRestartAfterBoundChange(benchmark::State& state) {
  std::vector<int> bins;
  lp::Model m = makespan_model(100, 4, 9, &bins);
  lp::DualSimplex s(m);
  s.solve();
  Rng rng(11);
  for (auto _ : state) {
    int v = bins[rng.uniform(bins.size())];
    double fix = rng.bernoulli(0.5) ? 1.0 : 0.0;
    s.set_bounds(v, fix, fix);
    auto r = s.solve();
    benchmark::DoNotOptimize(r.objective);
    s.set_bounds(v, 0.0, 1.0);
    s.solve();
  }
}
BENCHMARK(BM_WarmRestartAfterBoundChange)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
