// Speculative task replication tests (DESIGN.md §10): degraded-node
// progress model, straggler trigger, first-finish-wins cancellation with
// Timeline/disk rollback, wasted-work accounting, budget enforcement, and
// the determinism contract (speculation off == bit-identical to the
// retry-only engine; fixed seed == bit-identical replay).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "sched/driver.h"
#include "sched/minmin.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/stats.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

sim::ClusterConfig spec_cluster(std::size_t compute = 2,
                                std::size_t storage = 2) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 100.0 * sim::kMB;  // remote: 1 s per 100 MB file
  c.storage_net_bw = 1000.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;   // replica: 0.25 s per file
  c.local_disk_bw = 1000.0 * sim::kMB;   // read: 0.1 s per file
  return c;
}

// One task per file, every file 100 MB on storage node 0.
wl::Workload disjoint_workload(std::size_t tasks, double compute_seconds) {
  std::vector<wl::FileInfo> files(tasks);
  for (auto& f : files) {
    f.size_bytes = 100.0 * sim::kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> ts(tasks);
  for (std::size_t k = 0; k < tasks; ++k) {
    ts[k].files = {static_cast<wl::FileId>(k)};
    ts[k].compute_seconds = compute_seconds;
  }
  return wl::Workload(std::move(ts), std::move(files));
}

wl::Workload shared_workload(std::uint64_t seed = 23) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 20;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

// --- Configuration validation. ---

TEST(Speculation, ConfigValidation) {
  sim::SpeculationConfig s;
  EXPECT_TRUE(s.validate().ok());
  s.straggler_ratio = 0.5;
  EXPECT_FALSE(s.validate().ok());
  s.straggler_ratio = kInf;
  EXPECT_FALSE(s.validate().ok());
  s.straggler_ratio = 2.0;
  EXPECT_TRUE(s.validate().ok());
}

TEST(Speculation, SlowdownValidation) {
  const sim::ClusterConfig c = spec_cluster();
  sim::FaultConfig f;
  f.compute_slowdowns = {{0, 0.0, 10.0, 2.0}};
  EXPECT_TRUE(f.validate(c).ok());
  f.compute_slowdowns = {{9, 0.0, 10.0, 2.0}};  // node out of range
  EXPECT_FALSE(f.validate(c).ok());
  f.compute_slowdowns = {{0, 5.0, 2.0, 2.0}};  // end before start
  EXPECT_FALSE(f.validate(c).ok());
  f.compute_slowdowns = {{0, 0.0, 10.0, 0.5}};  // factor < 1
  EXPECT_FALSE(f.validate(c).ok());
  // Overlapping windows of one node are rejected, disjoint ones pass.
  f.compute_slowdowns = {{0, 0.0, 5.0, 2.0}, {0, 4.0, 8.0, 3.0}};
  EXPECT_FALSE(f.validate(c).ok());
  f.compute_slowdowns = {{0, 0.0, 5.0, 2.0}, {0, 5.0, 8.0, 3.0}};
  EXPECT_TRUE(f.validate(c).ok());
}

TEST(Speculation, InvalidConfigSurfacesThroughDriver) {
  const wl::Workload w = disjoint_workload(1, 1.0);
  sched::MinMinScheduler sched;
  sched::BatchRunOptions options;
  options.speculation.enabled = true;
  options.speculation.straggler_ratio = 0.0;
  const auto r = run_batch(sched, w, spec_cluster(), options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.tasks_stranded, w.num_tasks());
}

// --- Degraded-node progress model. ---

TEST(Speculation, StretchedExecDurationPiecewise) {
  sim::FaultConfig cfg;
  cfg.compute_slowdowns = {{0, 1.0, 3.0, 2.0}};
  sim::FaultModel m(cfg, 2, 2);
  ASSERT_TRUE(m.has_slowdowns());

  // Entirely before the window: full speed.
  EXPECT_DOUBLE_EQ(m.stretched_exec_duration(0, 0.0, 0.5), 0.5);
  // 1 s of work before the window, the rest inside at half speed.
  EXPECT_DOUBLE_EQ(m.stretched_exec_duration(0, 0.0, 2.0), 3.0);
  // Starting inside the window: 0.5 s of work burns the window's remaining
  // second, the other 0.5 s runs at full speed after it.
  EXPECT_DOUBLE_EQ(m.stretched_exec_duration(0, 2.0, 1.0), 1.5);
  // Past the window: untouched.
  EXPECT_DOUBLE_EQ(m.stretched_exec_duration(0, 3.0, 2.0), 2.0);
  // Other nodes: untouched.
  EXPECT_DOUBLE_EQ(m.stretched_exec_duration(1, 0.0, 2.0), 2.0);

  sim::FaultConfig forever;
  forever.compute_slowdowns = {{0, 0.0, kInf, 3.0}};
  sim::FaultModel mf(forever, 1, 1);
  EXPECT_DOUBLE_EQ(mf.stretched_exec_duration(0, 5.0, 2.0), 6.0);
}

TEST(Speculation, SlowdownStretchesEngineExecution) {
  // Remote transfer [0, 1), then a 2.1 s read+compute block stretched x10.
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_slowdowns = {{0, 0.0, kInf, 10.0}};
  sim::ExecutionEngine eng(spec_cluster(), w, opts);
  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  ASSERT_TRUE(eng.execute(p).ok());
  EXPECT_NEAR(eng.makespan(), 1.0 + 10.0 * (0.1 + 2.0), 1e-9);
}

// --- First-finish-wins duplicate execution. ---

TEST(Speculation, DuplicateWinsAndLoserIsCancelled) {
  // Node 0 is degraded x10 but the planners are blind: the task lands
  // there. Node 1 already caches the input, so the straggler trigger
  // duplicates the task and the healthy copy wins; the loser's in-progress
  // execution is cut at the winning instant.
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_slowdowns = {{0, 0.0, kInf, 10.0}};
  opts.speculation.enabled = true;
  opts.speculation.straggler_ratio = 1.5;
  sim::ExecutionEngine eng(spec_cluster(), w, opts);
  eng.state().add(1, 0, w.file_size(0), 0.0);  // cached on node 1 at t = 0

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  const auto stats = eng.execute(p).value();

  // The primary staged via a 0.25 s replica copy from node 1, whose port
  // pushes the backup's exec to [0.25, 2.35); the primary's stretched exec
  // would have ended at 21.25.
  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.speculative_launches, 1u);
  EXPECT_EQ(stats.speculative_wins, 1u);
  EXPECT_EQ(stats.speculative_cancels, 1u);
  EXPECT_NEAR(eng.makespan(), 2.35, 1e-9);
  // The loser's compute timeline kept only the elapsed occupancy...
  EXPECT_NEAR(eng.compute_timeline(0).horizon(), 2.35, 1e-9);
  // ...and that burnt time is the wasted work (0.25 staging + truncated
  // exec).
  EXPECT_NEAR(stats.wasted_seconds, 2.35, 1e-9);
  // The copy that completed before the cut stays: node 0 legitimately
  // holds a replica now, and the replication stays counted.
  EXPECT_TRUE(eng.state().has(0, 0));
  EXPECT_EQ(stats.replications, 1u);
  EXPECT_EQ(eng.take_orphaned().size(), 0u);
}

TEST(Speculation, InFlightTransferIsTruncatedAndRolledBack) {
  // Replication off: the primary must stage remotely ([0, 1)), while the
  // cached backup finishes at 0.3 — the staging is still in flight at the
  // cut, so the transfer is truncated on every timeline, the never-usable
  // copy is dropped, and its counters are backed out.
  wl::Workload w = disjoint_workload(1, 0.2);
  sim::ClusterConfig c = spec_cluster();
  c.allow_replication = false;
  sim::EngineOptions opts;
  opts.trace = true;
  opts.speculation.enabled = true;
  opts.speculation.straggler_ratio = 1.5;
  sim::ExecutionEngine eng(c, w, opts);
  eng.state().add(1, 0, w.file_size(0), 0.0);  // cached on node 1 at t = 0

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  const auto stats = eng.execute(p).value();

  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.speculative_wins, 1u);
  EXPECT_NEAR(eng.makespan(), 0.3, 1e-9);
  // The remote transfer never delivered: counters rolled back, pro-rated
  // in-flight bytes charged as waste, the partial copy dropped.
  EXPECT_EQ(stats.remote_transfers, 0u);
  EXPECT_DOUBLE_EQ(stats.remote_bytes, 0.0);
  EXPECT_NEAR(stats.wasted_bytes, 0.3 * 100.0 * sim::kMB, 1.0);
  EXPECT_FALSE(eng.state().has(0, 0));
  // Both endpoint timelines were truncated at the cancellation instant.
  EXPECT_NEAR(eng.storage_timeline(0).horizon(), 0.3, 1e-9);
  EXPECT_NEAR(eng.compute_timeline(0).horizon(), 0.3, 1e-9);
  EXPECT_EQ(eng.storage_timeline(0).num_reservations(), 1u);
  eng.storage_timeline(0).validate();
  eng.compute_timeline(0).validate();

  // Trace carries the launch and the cancellation; the loser's never-run
  // exec block was erased.
  std::size_t launches = 0, cancels = 0, execs = 0;
  for (const auto& e : eng.trace()) {
    launches += e.kind == sim::TraceEvent::Kind::kSpeculativeLaunch;
    cancels += e.kind == sim::TraceEvent::Kind::kSpeculativeCancel;
    execs += e.kind == sim::TraceEvent::Kind::kExec;
  }
  EXPECT_EQ(launches, 1u);
  EXPECT_EQ(cancels, 1u);
  EXPECT_EQ(execs, 1u);  // only the winner's block
  const std::string csv = trace_to_csv(eng.trace());
  EXPECT_NE(csv.find("spec_launch"), std::string::npos);
  EXPECT_NE(csv.find("spec_cancel"), std::string::npos);
}

TEST(Speculation, PrimaryCrashBackupCompletes) {
  // The primary node fail-stops mid-execution; the duplicate on the cached
  // backup still finishes, so the task is NOT orphaned and nothing is
  // cancelled (the crash losses are real).
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 1.5}};
  opts.speculation.enabled = true;
  opts.speculation.straggler_ratio = 1.2;
  sim::ClusterConfig c = spec_cluster();
  c.allow_replication = false;  // primary stages remotely: est 3.1 vs 2.1
  sim::ExecutionEngine eng(c, w, opts);
  eng.state().add(1, 0, w.file_size(0), 0.0);  // cached on node 1 at t = 0

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  const auto stats = eng.execute(p).value();

  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.speculative_launches, 1u);
  EXPECT_EQ(stats.speculative_wins, 1u);
  EXPECT_EQ(stats.speculative_cancels, 0u);  // a crashed loser is charged
  EXPECT_EQ(stats.node_crashes, 1u);
  EXPECT_EQ(stats.task_reexecutions, 0u);
  EXPECT_TRUE(eng.take_orphaned().empty());
  EXPECT_FALSE(eng.node_alive(0));
  EXPECT_NEAR(eng.makespan(), 2.1, 1e-9);
}

TEST(Speculation, BothAttemptsCrashOrphansTaskOnce) {
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 0.5}, {1, 0.5}};
  opts.speculation.enabled = true;
  opts.speculation.straggler_ratio = 1.2;
  sim::ClusterConfig c = spec_cluster();
  c.allow_replication = false;
  sim::ExecutionEngine eng(c, w, opts);
  eng.state().add(1, 0, w.file_size(0), 0.0);  // cached on node 1 at t = 0

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  const auto stats = eng.execute(p).value();

  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.speculative_launches, 1u);
  EXPECT_EQ(stats.speculative_wins, 0u);
  EXPECT_EQ(stats.node_crashes, 2u);
  EXPECT_EQ(stats.task_reexecutions, 1u);  // one task, killed once
  const auto orphaned = eng.take_orphaned();
  ASSERT_EQ(orphaned.size(), 1u);
  EXPECT_EQ(orphaned[0], 0u);
  EXPECT_EQ(eng.alive_count(), 0u);
}

TEST(Speculation, BudgetBoundsDuplicateLaunches) {
  // Two straggling tasks but a budget of one duplicate: only the first
  // trigger fires.
  wl::Workload w = disjoint_workload(2, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_slowdowns = {{0, 0.0, kInf, 10.0}};
  opts.speculation.enabled = true;
  opts.speculation.straggler_ratio = 1.5;
  opts.speculation.min_cached_inputs = 0;
  opts.speculation.max_speculative_tasks = 1;
  sim::ExecutionEngine eng(spec_cluster(), w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 0;
  const auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.tasks_executed, 2u);
  EXPECT_EQ(stats.speculative_launches, 1u);
}

// --- Determinism contract. ---

TEST(Speculation, DisabledIsBitIdenticalToRetryOnlyDriver) {
  const wl::Workload w = shared_workload(61);
  const sim::ClusterConfig c = spec_cluster(3, 2);
  sched::MinMinScheduler a, b;
  const auto base = run_batch(a, w, c);
  sched::BatchRunOptions options;
  options.speculation = sim::SpeculationConfig{};  // explicit off
  const auto replay = run_batch(b, w, c, options);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(base.batch_time, replay.batch_time);  // bit-identical
  EXPECT_EQ(base.stats.remote_transfers, replay.stats.remote_transfers);
  EXPECT_EQ(base.stats.replications, replay.stats.replications);
  EXPECT_EQ(replay.stats.speculative_launches, 0u);
  EXPECT_EQ(replay.stats.wasted_seconds, 0.0);
}

TEST(Speculation, FixedSeedReplayIsBitIdentical) {
  const wl::Workload w = shared_workload(67);
  const sim::ClusterConfig c = spec_cluster(3, 2);
  sched::BatchRunOptions options;
  options.faults.transfer_failure_prob = 0.2;
  options.faults.seed = 99;
  options.faults.compute_slowdowns = {{0, 0.0, kInf, 6.0}};
  options.speculation.enabled = true;
  options.speculation.straggler_ratio = 1.3;
  options.speculation.min_cached_inputs = 0;

  sched::MinMinScheduler a, b;
  const auto r1 = run_batch(a, w, c, options);
  const auto r2 = run_batch(b, w, c, options);
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r1.batch_time, r2.batch_time);  // bit-identical
  EXPECT_EQ(r1.stats.speculative_launches, r2.stats.speculative_launches);
  EXPECT_EQ(r1.stats.speculative_wins, r2.stats.speculative_wins);
  EXPECT_EQ(r1.stats.wasted_seconds, r2.stats.wasted_seconds);
  ASSERT_EQ(r1.task_completion_times.size(), r2.task_completion_times.size());
  for (std::size_t i = 0; i < r1.task_completion_times.size(); ++i)
    EXPECT_EQ(r1.task_completion_times[i], r2.task_completion_times[i]);
}

// --- Tail latency: replication beats retry on a degraded node. ---

TEST(Speculation, ImprovesTailLatencyUnderDegradedNode) {
  const wl::Workload w = disjoint_workload(8, 2.0);
  const sim::ClusterConfig c = spec_cluster(4, 2);
  sched::BatchRunOptions options;
  options.faults.compute_slowdowns = {{0, 0.0, kInf, 8.0}};

  sched::MinMinScheduler retry_sched;
  const auto retry = run_batch(retry_sched, w, c, options);
  ASSERT_TRUE(retry.ok()) << retry.error;

  options.speculation.enabled = true;
  options.speculation.straggler_ratio = 1.5;
  options.speculation.min_cached_inputs = 0;
  sched::MinMinScheduler spec_sched;
  const auto spec = run_batch(spec_sched, w, c, options);
  ASSERT_TRUE(spec.ok()) << spec.error;

  ASSERT_EQ(retry.task_completion_times.size(), w.num_tasks());
  ASSERT_EQ(spec.task_completion_times.size(), w.num_tasks());
  const double p99_retry = percentile(retry.task_completion_times, 99.0);
  const double p99_spec = percentile(spec.task_completion_times, 99.0);
  EXPECT_GT(spec.stats.speculative_launches, 0u);
  EXPECT_GT(spec.stats.wasted_seconds, 0.0);
  EXPECT_LT(p99_spec, p99_retry) << "duplicating stragglers must cut p99";
  EXPECT_EQ(spec.stats.tasks_executed, w.num_tasks());
}

}  // namespace
}  // namespace bsio
