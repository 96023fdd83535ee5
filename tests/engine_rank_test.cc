// Invalidation tests for the engine's task ranking (sim/rank.h, DESIGN.md
// §7), and tests of the order in which a committed task stages its inputs.
//
// Each node's pending group keeps every task's compiled ECT terms and
// bound row, and recompiles an entry only when one of its files gained or
// lost a copy: ClusterState logs every such file, and execute() marks the
// entries that read it dirty before the next pick. Every scenario here
// changes a pending task's input residency in the middle of one execute():
// a first holder appears, an eviction, a write invalidation, a crash, a
// speculative cancel. In the first three an entry left stale picks a
// different task, so they fail when a gained copy (first holder) or a lost
// copy (eviction, write) is missing from the residency log. Each run's
// per-task completion instants are pinned bit for bit; they were captured
// from the engine that re-estimated every pending task afresh on every
// commit, printed with %.17g (which round-trips a double exactly).

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace bsio {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Task {
  wl::NodeId node = 0;
  double compute_seconds = 0.0;
  std::vector<wl::FileId> files;
  std::vector<wl::FileId> outputs = {};
};

// Remote fetch 1 s, replica copy 0.25 s and local read 0.1 s per file.
sim::ClusterConfig cluster(std::size_t compute_nodes) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 100.0 * sim::kMB;
  c.storage_net_bw = 1000.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 1000.0 * sim::kMB;
  return c;
}

// Files homed round-robin on the two storage nodes, of `size_mb` MB each
// (100 MB each when empty).
wl::Workload workload(std::size_t num_files, const std::vector<Task>& tasks,
                      const std::vector<double>& size_mb = {}) {
  std::vector<wl::FileInfo> files(num_files);
  for (std::size_t f = 0; f < num_files; ++f) {
    files[f].size_bytes = (size_mb.empty() ? 100.0 : size_mb[f]) * sim::kMB;
    files[f].home_storage_node = static_cast<wl::NodeId>(f % 2);
  }
  std::vector<wl::TaskInfo> infos(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    infos[t].compute_seconds = tasks[t].compute_seconds;
    infos[t].files = tasks[t].files;
    infos[t].outputs = tasks[t].outputs;
  }
  return wl::Workload(std::move(infos), std::move(files));
}

struct Outcome {
  std::vector<double> completion;  // -1 for a task the run orphaned
  sim::ExecutionStats stats;
  std::vector<sim::TraceEvent> trace;  // when EngineOptions::trace is set
};

// Runs every task in one execute() on its node, after caching each
// (node, file) of `cached` at t = 0. `plan` may carry staging directives
// and a release floor; the tasks and their assignment are added here.
Outcome run(const sim::ClusterConfig& c, std::size_t num_files,
            const std::vector<Task>& tasks,
            const sim::EngineOptions& options = {},
            const std::vector<std::pair<wl::NodeId, wl::FileId>>& cached = {},
            sim::SubBatchPlan plan = {},
            const std::vector<double>& size_mb = {}) {
  const wl::Workload w = workload(num_files, tasks, size_mb);
  sim::ExecutionEngine eng(c, w, options);
  for (const auto& [node, file] : cached)
    eng.state().add(node, file, w.file_size(file), 0.0);
  for (wl::TaskId t = 0; t < tasks.size(); ++t) {
    plan.tasks.push_back(t);
    plan.assignment[t] = tasks[t].node;
  }
  Outcome r;
  r.stats = eng.execute(plan).value();
  std::vector<bool> orphaned(tasks.size(), false);
  for (wl::TaskId t : eng.take_orphaned()) orphaned[t] = true;
  for (wl::TaskId t = 0; t < tasks.size(); ++t)
    r.completion.push_back(orphaned[t] ? -1.0 : eng.task_completion(t));
  r.trace = eng.trace();
  return r;
}

void expect_completions(const Outcome& r, const std::vector<double>& want) {
  ASSERT_EQ(r.completion.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t)
    EXPECT_EQ(r.completion[t], want[t]) << "task " << t;
}

// One successful copy of the trace: its file, source, start and end.
struct Staged {
  wl::FileId file;
  wl::NodeId src;
  double start;
  double end;
};

// The run's successful copies in commit order.
void expect_staged(const Outcome& r, const std::vector<Staged>& want) {
  std::vector<Staged> got;
  for (const sim::TraceEvent& e : r.trace)
    if (e.kind == sim::TraceEvent::Kind::kRemoteTransfer ||
        e.kind == sim::TraceEvent::Kind::kReplication)
      got.push_back({e.file, e.src, e.start, e.end});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].file, want[i].file) << "copy " << i;
    EXPECT_EQ(got[i].src, want[i].src) << "copy " << i;
    EXPECT_EQ(got[i].start, want[i].start) << "copy " << i;
    EXPECT_EQ(got[i].end, want[i].end) << "copy " << i;
  }
}

TEST(EngineRank, PendingInputGainsItsFirstHolder) {
  // Task 3 stages file 1 on node 1, which makes node 1 its first holder.
  // Node 0's task 1 then reads it as a 0.25 s replica instead of a 1 s
  // remote fetch, and must run before task 2.
  const std::vector<Task> tasks = {
      {0, 0.05, {0}},  // 0
      {0, 2.5, {1}},   // 1
      {0, 2.0, {2}},   // 2
      {1, 0.05, {1}},  // 3
  };
  const Outcome r = run(cluster(2), 3, tasks);
  EXPECT_EQ(r.stats.replications, 1u);
  // clang-format off
  expect_completions(r, {1.1499999999999999, 4.0, 7.0999999999999996,
                         1.1499999999999999});
  // clang-format on
}

TEST(EngineRank, CachedInputEvictedOnSmallDisk) {
  // A 250 MB disk holds two files. Task 2's staging evicts file 1, which
  // task 0 cached for task 1; task 1 now pays a 1 s fetch and yields to
  // task 3, whose input task 2 just cached.
  sim::ClusterConfig c = cluster(1);
  c.disk_capacity = 250.0 * sim::kMB;
  const std::vector<Task> tasks = {
      {0, 0.05, {1, 2}},  // 0
      {0, 10.0, {1}},     // 1
      {0, 0.1, {3, 4}},   // 2
      {0, 10.5, {3}},     // 3
  };
  const Outcome r = run(c, 5, tasks);
  EXPECT_GE(r.stats.evictions, 2u);
  expect_completions(r, {2.25, 26.25, 4.5499999999999998, 15.149999999999999});
}

TEST(EngineRank, WriteInvalidatesACachedReplica) {
  // Node 0 caches file 1 for task 0. Task 5 on node 1 rewrites it, which
  // drops node 0's copy; node 0's task 2 must fetch the new version from
  // node 1 and yields to task 3.
  const std::vector<Task> tasks = {
      {0, 0.05, {1, 2}},   // 0
      {0, 1.2, {3}},       // 1
      {0, 10.0, {1}},      // 2
      {0, 10.2, {2}},      // 3
      {1, 1.0, {1}},       // 4
      {1, 5.0, {1}, {1}},  // 5: read-modify-write
  };
  const Outcome r = run(cluster(2), 4, tasks);
  EXPECT_EQ(r.stats.replicas_invalidated, 1u);
  // clang-format off
  expect_completions(r, {2.25, 4.5499999999999998, 25.199999999999996,
                         14.849999999999998, 3.1000000000000001,
                         8.1999999999999993});
  // clang-format on
}

TEST(EngineRank, CrashClearsAReplicaSource) {
  // Node 2 caches files 1 and 2 for task 4, and node 0 ranks its readers
  // of those files against that copy. Node 2 then crashes at t = 5 running
  // task 5 and loses both copies, so the readers fall back to remote
  // fetches. Task 6 never starts.
  sim::EngineOptions options;
  options.faults.compute_crashes = {{2, 5.0}};
  const std::vector<Task> tasks = {
      {0, 0.05, {0}},     // 0
      {0, 3.0, {1}},      // 1
      {0, 3.2, {3}},      // 2
      {0, 2.9, {2}},      // 3
      {2, 0.05, {1, 2}},  // 4
      {2, 20.0, {4}},     // 5
      {2, 30.0, {5}},     // 6
  };
  const Outcome r = run(cluster(3), 6, tasks, options);
  EXPECT_EQ(r.stats.node_crashes, 1u);
  // clang-format off
  expect_completions(r, {1.1499999999999999, 5.25, 13.550000000000001, 9.25,
                         2.25, -1.0, -1.0});
  // clang-format on
}

TEST(EngineRank, SpeculativeCancelDropsAStagedCopy) {
  // Node 0 is degraded x10. Task 0, assigned to node 0, is duplicated onto
  // node 1 (which caches file 0), and node 1 wins. Node 0's remote staging
  // of file 0 is still in flight at the cut, so that copy is dropped and
  // node 0's task 1, which reads file 0, must fetch it again.
  sim::ClusterConfig c = cluster(2);
  c.allow_replication = false;
  sim::EngineOptions options;
  options.faults.compute_slowdowns = {{0, 0.0, kInf, 10.0}};
  options.speculation.enabled = true;
  options.speculation.straggler_ratio = 1.5;
  options.speculation.max_speculative_tasks = 1;
  const std::vector<Task> tasks = {
      {0, 0.2, {0}},  // 0
      {0, 0.3, {0}},  // 1
      {0, 0.2, {1}},  // 2
      {1, 0.5, {2}},  // 3
  };
  const Outcome r = run(c, 3, tasks, options, {{1, 0}});
  EXPECT_EQ(r.stats.speculative_cancels, 1u);
  // clang-format off
  expect_completions(r, {0.30000000000000004, 9.3000000000000007,
                         4.3000000000000007, 1.8999999999999999});
  // clang-format on
}


// Staging (DESIGN.md §7): commit_task stages a task's missing inputs
// earliest completion first, ties to the task's file order. An input whose
// only source is its home keeps a lower bound between commits; any other
// input is re-priced after every commit. The pins below were captured from
// the engine that re-priced every remaining input after each commit.

TEST(EngineStaging, DirectiveFallsThroughToACheaperHome) {
  // A replica copy takes 2.5 s per 100 MB, a home fetch 1 s. Node 1 caches
  // file 0 and is due to crash at t = 3, and the plan directs node 0 to copy
  // file 0 from it: 2.5 s, so file 1 stages first, in [0, 1). From t = 1
  // that copy would end past the crash, so the directive falls through and
  // file 0's price drops to a home fetch in [1, 2), ahead of file 2
  // (120 MB, [1, 2.2)). Keeping file 0's first price as a bound would
  // stage file 2 before it.
  sim::ClusterConfig c = cluster(2);
  c.compute_net_bw = 40.0 * sim::kMB;
  sim::EngineOptions options;
  options.trace = true;
  options.faults.compute_crashes = {{1, 3.0}};
  sim::SubBatchPlan plan;
  plan.staging[{0, 0}] = {sim::SourceKind::kReplica, 1};
  const Outcome r = run(c, 3, {{0, 0.1, {0, 1, 2}}}, options, {{1, 0}}, plan,
                        {100.0, 100.0, 120.0});
  EXPECT_EQ(r.stats.remote_transfers, 3u);
  expect_staged(r, {{1, 1, 0.0, 1.0}, {0, 0, 1.0, 2.0},
                    {2, 0, 2.0, 3.2000000000000002}});
  expect_completions(r, {3.6200000000000001});
}

TEST(EngineStaging, EqualCompletionsStageInTheTasksFileOrder) {
  // A task's file list is in id order (wl::Workload sorts it). Node 1
  // caches a 400 MB file, a 1 s replica copy; the other inputs are home
  // fetches of 100 MB (1 s) and, as file 2, 50 MB (0.5 s). File 2 stages
  // first, in [0, 0.5); the other two then both complete at 1.5, and the
  // lower id stages first, whether it is the home fetch (its price a bound
  // at the tie) or the replica (the bound's position is the later one).
  sim::EngineOptions options;
  options.trace = true;
  const Outcome home_first =
      run(cluster(2), 3, {{0, 0.1, {0, 1, 2}}}, options, {{1, 1}}, {},
          {100.0, 400.0, 50.0});
  expect_staged(home_first,
                {{2, 0, 0.0, 0.5}, {0, 0, 0.5, 1.5}, {1, 1, 1.5, 2.5}});
  const Outcome replica_first =
      run(cluster(2), 3, {{0, 0.1, {0, 1, 2}}}, options, {{1, 0}}, {},
          {400.0, 100.0, 50.0});
  expect_staged(replica_first,
                {{2, 0, 0.0, 0.5}, {0, 1, 0.5, 1.5}, {1, 1, 1.5, 2.5}});
}

TEST(EngineStaging, RetriesAndAReleaseFloor) {
  // Transfers fail at random and retry after a backoff, and the plan's
  // release floor lies above every node's horizon. Replicas of the files
  // the first tasks stage compete with home fetches for the later ones.
  sim::EngineOptions options;
  options.faults.transfer_failure_prob = 0.4;
  sim::SubBatchPlan plan;
  plan.release_time = 5.0;
  const std::vector<Task> tasks = {
      {0, 0.5, {0, 1, 2}},     // 0
      {1, 0.3, {1, 3, 4}},     // 1
      {0, 0.2, {2, 3, 5}},     // 2
      {1, 0.1, {0, 4, 5, 6}},  // 3
      {2, 0.4, {6, 1, 0}},     // 4
  };
  const Outcome r = run(cluster(3), 7, tasks, options, {{2, 6}}, plan);
  EXPECT_EQ(r.stats.transfer_retries, 16u);
  // clang-format off
  expect_completions(r, {29.550000000000001, 24.600000000000001, 23.0, 13.0,
                         11.949999999999999});
  // clang-format on
}

}  // namespace
}  // namespace bsio
