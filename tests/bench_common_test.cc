// Tests of the bench harness (bench/bench_common.h): the figure benches'
// experiment runner and its tables, and the flag parser's rejection of
// malformed numeric operands and thread lists.

#include <gtest/gtest.h>

#include <vector>

#include "bench_common.h"
#include "workload/synthetic.h"

namespace bsio::bench {
namespace {

wl::Workload tiny_batch(std::uint64_t seed) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 12;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 32.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

TEST(Experiment, RunsCasesAndRendersTables) {
  wl::Workload w = tiny_batch(9);
  const std::vector<SchedulerFactory> schedulers = {
      factory_of<sched::BiPartitionScheduler>(),
      factory_of<sched::MinMinScheduler>()};
  std::vector<ExperimentCase> cases{
      {"case A", w, sim::xio_cluster(2, 2)},
      {"case B", w, sim::osumed_cluster(2, 2)},
  };
  auto results = run_experiment(cases, schedulers, /*echo_progress=*/false);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_EQ(r.runs.size(), 2u);

  Table bt = batch_time_table(results);
  EXPECT_EQ(bt.num_rows(), 2u);
  EXPECT_NE(bt.to_text().find("case A"), std::string::npos);
  EXPECT_NE(bt.to_csv().find("case B"), std::string::npos);
  EXPECT_NE(bt.to_csv().find("BiPartition (s)"), std::string::npos);
  EXPECT_NE(bt.to_csv().find("MinMin (rel)"), std::string::npos);

  Table ot = overhead_table(results);
  EXPECT_EQ(ot.num_rows(), 2u);

  Table tt = transfer_table(results);
  EXPECT_EQ(tt.num_rows(), 4u);  // 2 cases x 2 schedulers
}

TEST(Experiment, OsumedSlowerThanXio) {
  // Same workload, storage an order of magnitude slower: batch time must
  // reflect it.
  wl::Workload w = tiny_batch(17);
  auto results = run_experiment({{"xio", w, sim::xio_cluster(2, 2)},
                                 {"osumed", w, sim::osumed_cluster(2, 2)}},
                                {factory_of<sched::BiPartitionScheduler>()},
                                /*echo_progress=*/false);
  EXPECT_GT(results[1].runs[0].batch_time, results[0].runs[0].batch_time);
}

// Parses `args` (argv[0] excluded) the way a bench main does: query
// `flag` as a number, then reject leftovers.
double parse_number(std::vector<const char*> args, const char* flag,
                    double def) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  ParseArgs p(static_cast<int>(argv.size()), argv.data(), "bench [flags]");
  const double v = p.number(flag, def);
  p.reject_unknown();
  return v;
}

// Parses `args` the way perf_makespan does: query `--threads` as a thread
// list with default {1, 2}, then reject leftovers. No runtime is built.
std::vector<std::size_t> parse_threads(std::vector<const char*> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  ParseArgs p(static_cast<int>(argv.size()), argv.data(), "bench [flags]");
  std::vector<std::size_t> v = p.thread_list("--threads", {1, 2});
  p.reject_unknown();
  return v;
}

TEST(BenchFlags, NumbersParseInFull) {
  EXPECT_EQ(parse_number({}, "--min-speedup", 0.0), 0.0);
  EXPECT_EQ(parse_number({"--min-speedup", "1.2"}, "--min-speedup", 0.0),
            1.2);
  EXPECT_EQ(parse_number({"--min-slo", "0.75"}, "--min-slo", 0.5), 0.75);
  EXPECT_EQ(parse_number({"--max-rss-mb", "1e3"}, "--max-rss-mb", 0.0),
            1000.0);
}

TEST(BenchFlags, ThreadListsParseInFull) {
  using V = std::vector<std::size_t>;
  EXPECT_EQ(parse_threads({}), (V{1, 2}));
  EXPECT_EQ(parse_threads({"--threads", "1,4"}), (V{1, 4}));
  EXPECT_EQ(parse_threads({"--threads", "4096"}), (V{4096}));
}

// A malformed or over-cap entry used to run (`2x` as 2 threads) or to
// start that many threads; it must print usage and exit 2 instead.
TEST(BenchFlagsDeathTest, MalformedThreadListExitsWithUsage) {
  for (const char* bad : {"2x", "0", "1,2x", "4097", "", "1,", ",1", "-1"})
    EXPECT_EXIT(parse_threads({"--threads", bad}),
                ::testing::ExitedWithCode(2), "usage: bench")
        << "operand '" << bad << "'";
}

// A malformed operand used to read as 0, which every gate treats as "off";
// it must now print usage and exit 2 instead.
TEST(BenchFlagsDeathTest, MalformedMinSpeedupExitsWithUsage) {
  for (const char* bad : {"x", "1.2x", "", "-1", "nan", "inf"})
    EXPECT_EXIT(parse_number({"--min-speedup", bad}, "--min-speedup", 0.0),
                ::testing::ExitedWithCode(2), "usage: bench")
        << "operand '" << bad << "'";
}

TEST(BenchFlagsDeathTest, MalformedMinSloExitsWithUsage) {
  for (const char* bad : {"abc", "0.5%", "1e999"})
    EXPECT_EXIT(parse_number({"--min-slo", bad}, "--min-slo", 0.5),
                ::testing::ExitedWithCode(2), "--min-slo")
        << "operand '" << bad << "'";
}

TEST(BenchFlagsDeathTest, UnknownArgumentExitsWithUsage) {
  EXPECT_EXIT(parse_number({"--min-sped", "1.2"}, "--min-speedup", 0.0),
              ::testing::ExitedWithCode(2), "unknown argument '--min-sped'");
}

}  // namespace
}  // namespace bsio::bench
