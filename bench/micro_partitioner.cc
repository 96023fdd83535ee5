// Microbenchmarks of the multilevel hypergraph partitioner (google-
// benchmark): K-way partitioning and BINW sub-batch selection across
// hypergraph sizes. These are the inner loops behind BiPartition's
// near-zero scheduling overhead in Fig 6(b).
//
// K-way partitioning runs on three shapes, each loading another phase:
// - small_nets: 2-7-pin nets, twice as many as vertices. Coarsening works,
//   so FM and growing run on small coarse graphs.
// - zipf_nets: tasks drawing 8 files by Zipf-1.0 popularity from a 2M-file
//   universe, as BiPartition's task/file hypergraphs do. Popular files make
//   nets of hundreds of pins, where FM gain updates and move selection cost
//   the most.
// - sparse_nets: the same draw with uniform popularity, as in scale_sweep.
//   Few files are shared (far fewer nets than vertices), coarsening stalls
//   and greedy growing runs on the whole graph.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "hypergraph/metrics.h"
#include "hypergraph/partitioner.h"
#include "util/rng.h"

namespace {

using namespace bsio;

hg::Hypergraph random_hypergraph(std::size_t nv, std::size_t nn,
                                 std::uint64_t seed) {
  Rng rng(seed);
  hg::HypergraphBuilder b;
  for (std::size_t i = 0; i < nv; ++i)
    b.add_vertex(0.5 + rng.uniform_double());
  for (std::size_t n = 0; n < nn; ++n) {
    std::vector<hg::VertexId> pins;
    std::size_t sz = 2 + rng.uniform(6);
    for (std::size_t p = 0; p < sz; ++p)
      pins.push_back(static_cast<hg::VertexId>(rng.uniform(nv)));
    b.add_net(1.0 + rng.uniform_double() * 4.0, std::move(pins));
  }
  return b.build();
}

// Tasks drawing 8 files each from a 2M-file universe with popularity
// exponent zipf_s; each file shared by two or more tasks is one net.
hg::Hypergraph task_file_hypergraph(std::size_t nv, double zipf_s,
                                    std::uint64_t seed) {
  constexpr std::size_t kUniverse = 2'000'000;
  Rng rng(seed);
  hg::HypergraphBuilder b;
  std::vector<std::pair<std::size_t, hg::VertexId>> draws;
  for (std::size_t v = 0; v < nv; ++v) {
    b.add_vertex(0.5 + rng.uniform_double());
    for (int j = 0; j < 8; ++j)
      draws.push_back({rng.zipf_stream(kUniverse, zipf_s),
                       static_cast<hg::VertexId>(v)});
  }
  std::sort(draws.begin(), draws.end());
  for (std::size_t i = 0; i < draws.size();) {
    std::vector<hg::VertexId> pins;
    const std::size_t file = draws[i].first;
    for (; i < draws.size() && draws[i].first == file; ++i)
      pins.push_back(draws[i].second);
    b.add_net(0.75 + 0.5 * rng.uniform_double(), std::move(pins));
  }
  return b.build();
}

hg::Hypergraph small_nets(std::size_t nv) {
  return random_hypergraph(nv, 2 * nv, 42);
}
hg::Hypergraph zipf_nets(std::size_t nv) {
  return task_file_hypergraph(nv, 1.0, 42);
}
hg::Hypergraph sparse_nets(std::size_t nv) {
  return task_file_hypergraph(nv, 0.0, 42);
}

void BM_PartitionKway(benchmark::State& state,
                      hg::Hypergraph (*make)(std::size_t)) {
  const auto nv = static_cast<std::size_t>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  hg::Hypergraph h = make(nv);
  hg::PartitionerOptions opts;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    opts.seed = ++seed;
    auto parts = hg::partition_kway(h, k, opts);
    benchmark::DoNotOptimize(parts.data());
  }
  state.counters["vertices"] = static_cast<double>(nv);
  state.counters["nets"] = static_cast<double>(h.num_nets());
  state.counters["k"] = k;
}
BENCHMARK_CAPTURE(BM_PartitionKway, small_nets, small_nets)
    ->Args({100, 4})
    ->Args({1000, 4})
    ->Args({1000, 32})
    ->Args({4000, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PartitionKway, zipf_nets, zipf_nets)
    ->Args({2000, 32})
    ->Args({8000, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PartitionKway, sparse_nets, sparse_nets)
    ->Args({2000, 8})
    ->Args({10000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionBinw(benchmark::State& state) {
  const auto nv = static_cast<std::size_t>(state.range(0));
  hg::Hypergraph h = random_hypergraph(nv, 2 * nv, 7);
  const double bound =
      (h.total_net_weight() + h.total_folded_weight()) / state.range(1);
  hg::PartitionerOptions opts;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    opts.seed = ++seed;
    auto r = hg::partition_binw(h, bound, opts);
    benchmark::DoNotOptimize(r.parts.data());
  }
}
BENCHMARK(BM_PartitionBinw)
    ->Args({500, 3})
    ->Args({2000, 3})
    ->Args({2000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ConnectivityMetric(benchmark::State& state) {
  const auto nv = static_cast<std::size_t>(state.range(0));
  hg::Hypergraph h = random_hypergraph(nv, 2 * nv, 13);
  auto parts = hg::partition_kway(h, 8, {});
  for (auto _ : state) {
    double c = hg::connectivity_minus_one(h, parts, 8);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ConnectivityMetric)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
