// Invalidation tests for the engine's task ranking (sim/rank.h, DESIGN.md
// §7).
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

// 100 MB files, homed round-robin on the two storage nodes.
wl::Workload workload(std::size_t num_files, const std::vector<Task>& tasks) {
  std::vector<wl::FileInfo> files(num_files);
  for (std::size_t f = 0; f < num_files; ++f) {
    files[f].size_bytes = 100.0 * sim::kMB;
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
};

// Runs every task in one execute() on its node, after caching each
// (node, file) of `cached` at t = 0.
Outcome run(const sim::ClusterConfig& c, std::size_t num_files,
            const std::vector<Task>& tasks,
            const sim::EngineOptions& options = {},
            const std::vector<std::pair<wl::NodeId, wl::FileId>>& cached = {}) {
  const wl::Workload w = workload(num_files, tasks);
  sim::ExecutionEngine eng(c, w, options);
  for (const auto& [node, file] : cached)
    eng.state().add(node, file, w.file_size(file), 0.0);
  sim::SubBatchPlan plan;
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
  return r;
}

void expect_completions(const Outcome& r, const std::vector<double>& want) {
  ASSERT_EQ(r.completion.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t)
    EXPECT_EQ(r.completion[t], want[t]) << "task " << t;
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

}  // namespace
}  // namespace bsio
