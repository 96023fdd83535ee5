// Fault injection & failure recovery tests: deterministic seeded faults,
// transfer retries with backoff and a forced final success, compute-node
// crashes with driver-level re-scheduling, storage outages, and the
// typed-error surface (ClusterConfig::validate, FaultConfig::validate,
// ExecutionEngine::execute's plan validation).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

sim::ClusterConfig fault_cluster(std::size_t compute = 2,
                                 std::size_t storage = 2) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 100.0 * sim::kMB;   // remote: 1 s per 100 MB file
  c.storage_net_bw = 1000.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;    // replica: 0.25 s per file
  c.local_disk_bw = 1000.0 * sim::kMB;    // read: 0.1 s per file
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

// --- FaultConfig validation. ---

TEST(FaultConfig, ValidateCatchesBadValues) {
  const sim::ClusterConfig c = fault_cluster();
  sim::FaultConfig f;
  EXPECT_TRUE(f.validate(c).ok());

  f.transfer_failure_prob = 1.5;
  EXPECT_FALSE(f.validate(c).ok());
  f.transfer_failure_prob = 0.1;
  EXPECT_TRUE(f.validate(c).ok());

  f.compute_crashes.push_back({99, 1.0});  // node out of range
  EXPECT_FALSE(f.validate(c).ok());
  f.compute_crashes.clear();

  f.storage_outages.push_back({0, 5.0, 2.0});  // end before start
  EXPECT_FALSE(f.validate(c).ok());
  f.storage_outages = {{7, 0.0, 1.0}};  // storage node out of range
  EXPECT_FALSE(f.validate(c).ok());
}

TEST(FaultConfig, ClusterValidateReturnsTypedErrors) {
  sim::ClusterConfig c = fault_cluster();
  c.num_compute_nodes = 0;
  const auto v = c.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("compute"), std::string::npos);
}

// --- Determinism: same seed -> same draws; zero faults -> no draws. ---

TEST(FaultModel, SameSeedSameDraws) {
  sim::FaultConfig cfg;
  cfg.seed = 42;
  cfg.transfer_failure_prob = 0.3;
  sim::FaultModel a(cfg, 2, 2), b(cfg, 2, 2);
  for (std::uint64_t t = 0; t < 200; ++t)
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(a.transfer_attempt_fails(t, k), b.transfer_attempt_fails(t, k));
}

TEST(FaultModel, LastAttemptNeverFails) {
  sim::FaultConfig cfg;
  cfg.transfer_failure_prob = 1.0;
  sim::FaultModel m(cfg, 2, 2);
  for (std::uint64_t t = 0; t < 50; ++t) {
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_TRUE(m.transfer_attempt_fails(t, k));
    EXPECT_FALSE(m.transfer_attempt_fails(t, 4));  // forced success
  }
}

TEST(FaultModel, ZeroFaultConfigReproducesSeedMakespans) {
  // A default FaultConfig must leave every scheduler's simulation
  // bit-identical to the engine without fault plumbing.
  const wl::Workload w = shared_workload();
  const sim::ClusterConfig c = fault_cluster(3, 2);
  // Make the IP solves node-limited rather than wall-clock-limited so the
  // comparison is deterministic under arbitrary machine load.
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.selection_mip.max_nodes = 2000;
  ip.selection_mip.time_limit_seconds = 300.0;
  ip.allocation_mip.max_nodes = 5000;
  ip.allocation_mip.time_limit_seconds = 300.0;
  sched::IpScheduler ip_sched(ip);
  sched::BiPartitionScheduler bipartition;
  sched::MinMinScheduler minmin;
  sched::JobDataPresentScheduler jdp;
  sched::Scheduler* const all[] = {&ip_sched, &bipartition, &minmin, &jdp};
  for (sched::Scheduler* s : all) {
    SCOPED_TRACE(s->name());
    auto baseline = sched::run_batch(*s, w, c);
    s->reset_run_stats();
    auto replay = sched::run_batch(*s, w, c, sim::FaultConfig{});
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(baseline.batch_time, replay.batch_time);  // bit-identical
    EXPECT_EQ(baseline.stats.remote_transfers, replay.stats.remote_transfers);
    EXPECT_EQ(baseline.stats.replications, replay.stats.replications);
    EXPECT_EQ(replay.stats.transfer_retries, 0u);
    EXPECT_EQ(replay.stats.node_crashes, 0u);
  }
}

// --- Forced final success. ---

TEST(FaultInjection, GiveUpDisabledKeepsForcedFinalSuccess) {
  // Probability 1: every attempt but the fifth fails, the fifth succeeds
  // and the batch drains — a transfer never fails for good.
  wl::Workload w = disjoint_workload(1, 1.0);
  sim::EngineOptions opts;
  opts.faults.transfer_failure_prob = 1.0;
  sim::ExecutionEngine eng(fault_cluster(), w, opts);
  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  ASSERT_TRUE(eng.execute(p).ok());
  EXPECT_EQ(eng.totals().tasks_executed, 1u);
  EXPECT_EQ(eng.totals().transfer_retries, 4u);
}

// --- Transient transfer failures & retry backoff. ---

TEST(FaultInjection, TransferRetriesAppearInTraceWithBackoffSpacing) {
  // prob = 1: attempts 0-3 fail, attempt 4 succeeds. Each retry starts
  // backoff_after(k) = 0.5 × 2^k seconds after the failed attempt's
  // deadline.
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.trace = true;
  opts.faults.transfer_failure_prob = 1.0;
  sim::ExecutionEngine eng(fault_cluster(), w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.transfer_retries, 4u);
  EXPECT_EQ(stats.remote_transfers, 1u);
  // Four failed 1 s windows plus 0.5 + 1 + 2 + 4 s of backoff.
  EXPECT_NEAR(stats.recovery_seconds, 4.0 + 7.5, 1e-9);

  std::vector<sim::TraceEvent> failed, ok;
  for (const auto& e : eng.trace()) {
    if (e.kind == sim::TraceEvent::Kind::kFailedTransfer) failed.push_back(e);
    if (e.kind == sim::TraceEvent::Kind::kRemoteTransfer) ok.push_back(e);
  }
  ASSERT_EQ(failed.size(), 4u);
  ASSERT_EQ(ok.size(), 1u);
  // Attempt 0: [0, 1); waits 0.5 -> attempt 1: [1.5, 2.5); waits 1 ->
  // attempt 2: [3.5, 4.5); waits 2 -> attempt 3: [6.5, 7.5); waits 4 ->
  // attempt 4: [11.5, 12.5).
  EXPECT_NEAR(failed[0].start, 0.0, 1e-9);
  EXPECT_NEAR(failed[1].start - failed[0].end, 0.5, 1e-9);
  EXPECT_NEAR(failed[2].start - failed[1].end, 1.0, 1e-9);
  EXPECT_NEAR(failed[3].start - failed[2].end, 2.0, 1e-9);
  EXPECT_NEAR(ok[0].start - failed[3].end, 4.0, 1e-9);
  // Exec after the successful transfer: 12.5 + 0.1 read + 2.0 compute.
  EXPECT_NEAR(eng.makespan(), 12.5 + 0.1 + 2.0, 1e-9);
}

TEST(FaultInjection, RetriesDegradeButCompleteUnderModerateRates) {
  wl::Workload w = shared_workload(29);
  const sim::ClusterConfig c = fault_cluster(3, 2);
  sched::MinMinScheduler sched;
  auto clean = sched::run_batch(sched, w, c);
  sim::FaultConfig faults;
  faults.transfer_failure_prob = 0.2;
  auto faulty = sched::run_batch(sched, w, c, faults);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(faulty.ok());
  EXPECT_EQ(faulty.stats.tasks_executed, w.num_tasks());
  EXPECT_GT(faulty.stats.transfer_retries, 0u);
  EXPECT_GE(faulty.batch_time, clean.batch_time);  // failures cost time
}

// --- Compute-node crashes. ---

TEST(FaultInjection, CrashDropsReplicasAndOrphansTasks) {
  // Two tasks on node 0; the first one's exec block crosses the crash at
  // t = 2.0 (it would finish at 3.1), so both are orphaned, the cache is
  // lost, and re-running them on node 1 completes the batch.
  wl::Workload w = disjoint_workload(2, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 2.0}};
  sim::ExecutionEngine eng(fault_cluster(), w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 0;
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.node_crashes, 1u);
  EXPECT_EQ(stats.task_reexecutions, 1u);  // one task was killed mid-run
  EXPECT_GT(stats.lost_replica_bytes, 0.0);
  EXPECT_FALSE(eng.node_alive(0));
  EXPECT_TRUE(eng.node_alive(1));
  EXPECT_EQ(eng.alive_count(), 1u);
  EXPECT_TRUE(eng.state().files_on(0).empty());  // replicas gone

  auto orphaned = eng.take_orphaned();
  ASSERT_EQ(orphaned.size(), 2u);
  EXPECT_TRUE(eng.take_orphaned().empty());  // drained

  sim::SubBatchPlan recovery;
  recovery.tasks = orphaned;
  for (wl::TaskId t : orphaned) recovery.assignment[t] = 1;
  auto stats2 = eng.execute(recovery).value();
  EXPECT_EQ(stats2.tasks_executed, 2u);
  EXPECT_EQ(eng.totals().tasks_executed, 2u);
}

TEST(FaultInjection, ExecutePlacingWorkOnCrashedNodeIsRecoverableError) {
  wl::Workload w = disjoint_workload(2, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 0.5}};
  sim::ExecutionEngine eng(fault_cluster(), w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  ASSERT_TRUE(eng.execute(p).ok());  // crash fires, task orphaned
  ASSERT_FALSE(eng.node_alive(0));
  eng.take_orphaned();

  sim::SubBatchPlan bad;
  bad.tasks = {1};
  bad.assignment[1] = 0;  // dead node
  const auto r = eng.execute(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("crashed"), std::string::npos);
}

TEST(FaultInjection, MalformedPlansAreRecoverableErrors) {
  wl::Workload w = disjoint_workload(2, 1.0);
  sim::ExecutionEngine eng(fault_cluster(), w);

  sim::SubBatchPlan missing;
  missing.tasks = {0};  // no assignment
  EXPECT_FALSE(eng.execute(missing).ok());

  sim::SubBatchPlan unknown;
  unknown.tasks = {9};
  unknown.assignment[9] = 0;
  EXPECT_FALSE(eng.execute(unknown).ok());

  sim::SubBatchPlan good;
  good.tasks = {0};
  good.assignment[0] = 0;
  ASSERT_TRUE(eng.execute(good).ok());
  EXPECT_FALSE(eng.execute(good).ok());  // already executed

  // Failed validation must not have mutated anything: task 1 still runs.
  sim::SubBatchPlan rest;
  rest.tasks = {1};
  rest.assignment[1] = 1;
  EXPECT_TRUE(eng.execute(rest).ok());
  EXPECT_EQ(eng.totals().tasks_executed, 2u);
}

TEST(FaultInjection, DriverReschedulesAcrossCrashForAllSchedulers) {
  const wl::Workload w = shared_workload(31);
  const sim::ClusterConfig c = fault_cluster(3, 2);
  sim::FaultConfig faults;
  faults.compute_crashes = {{1, 3.0}};
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.selection_mip.time_limit_seconds = 1.0;
  ip.allocation_mip.time_limit_seconds = 2.0;
  sched::IpScheduler ip_sched(ip);
  sched::BiPartitionScheduler bipartition;
  sched::MinMinScheduler minmin;
  sched::JobDataPresentScheduler jdp;
  sched::Scheduler* const all[] = {&ip_sched, &bipartition, &minmin, &jdp};
  for (sched::Scheduler* s : all) {
    SCOPED_TRACE(s->name());
    auto r = sched::run_batch(*s, w, c, faults);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
    EXPECT_EQ(r.stats.node_crashes, 1u);
    EXPECT_GT(r.batch_time, 0.0);
  }
}

TEST(FaultInjection, TwoOverlappingCrashesLoseNoTasks) {
  // Six tasks spread over three nodes; nodes 0 and 1 crash with their work
  // mid-flight. Every task must either execute or surface exactly once as
  // an orphan — none lost, none run twice.
  wl::Workload w = disjoint_workload(6, 2.0);
  const sim::ClusterConfig c = fault_cluster(3, 2);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 2.0}, {1, 2.5}};
  sim::ExecutionEngine eng(c, w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0, 1, 2, 3, 4, 5};
  for (wl::TaskId t = 0; t < 6; ++t)
    p.assignment[t] = static_cast<wl::NodeId>(t % 3);
  const auto stats = eng.execute(p).value();

  EXPECT_EQ(stats.node_crashes, 2u);
  EXPECT_FALSE(eng.node_alive(0));
  EXPECT_FALSE(eng.node_alive(1));
  EXPECT_TRUE(eng.node_alive(2));

  const auto orphaned = eng.take_orphaned();
  EXPECT_EQ(stats.tasks_executed + orphaned.size(), 6u);
  // No orphan duplicates, and no orphan was executed.
  std::set<wl::TaskId> seen(orphaned.begin(), orphaned.end());
  EXPECT_EQ(seen.size(), orphaned.size());

  // The recovery plan on the survivor drains everything exactly once.
  sim::SubBatchPlan recovery;
  recovery.tasks = orphaned;
  for (wl::TaskId t : orphaned) recovery.assignment[t] = 2;
  ASSERT_TRUE(eng.execute(recovery).ok());
  EXPECT_EQ(eng.totals().tasks_executed, 6u);
  EXPECT_GE(eng.totals().task_reexecutions, 1u);
  EXPECT_TRUE(eng.take_orphaned().empty());
}

TEST(FaultInjection, DriverSurvivesTwoOverlappingCrashes) {
  const wl::Workload w = shared_workload(43);
  const sim::ClusterConfig c = fault_cluster(4, 2);
  sim::FaultConfig faults;
  faults.compute_crashes = {{0, 2.0}, {1, 2.5}};
  sched::MinMinScheduler sched;
  const auto r = sched::run_batch(sched, w, c, faults);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
  EXPECT_EQ(r.stats.node_crashes, 2u);
}

TEST(FaultInjection, CrashDuringInFlightTransferOrphansCleanly) {
  // Node 0 dies at t = 0.5 while its input transfer occupies [0, 1): the
  // transfer was in flight at the failure (its reservation stands, the
  // bytes are charged), the task is orphaned without any partial exec, and
  // the re-run executes it exactly once.
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{0, 0.5}};
  sim::ExecutionEngine eng(fault_cluster(), w, opts);

  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  const auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.remote_transfers, 1u);  // in flight when the node died
  EXPECT_EQ(stats.task_reexecutions, 1u);
  EXPECT_TRUE(eng.state().files_on(0).empty());  // the copy died with it

  const auto orphaned = eng.take_orphaned();
  ASSERT_EQ(orphaned.size(), 1u);
  sim::SubBatchPlan recovery;
  recovery.tasks = orphaned;
  recovery.assignment[orphaned[0]] = 1;
  const auto stats2 = eng.execute(recovery).value();
  EXPECT_EQ(stats2.tasks_executed, 1u);
  EXPECT_EQ(stats2.remote_transfers, 1u);  // re-staged onto the survivor
  EXPECT_EQ(eng.totals().tasks_executed, 1u);
  EXPECT_TRUE(eng.take_orphaned().empty());
}

TEST(FaultInjection, AllNodesCrashedReportsErrorNotAbort) {
  const wl::Workload w = shared_workload(37);
  const sim::ClusterConfig c = fault_cluster(2, 2);
  sim::FaultConfig faults;
  faults.compute_crashes = {{0, 0.25}, {1, 0.25}};
  sched::MinMinScheduler sched;
  auto r = sched::run_batch(sched, w, c, faults);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("crashed"), std::string::npos);
  EXPECT_GT(r.tasks_stranded, 0u);
}

TEST(FaultInjection, InvalidFaultConfigSurfacesThroughDriver) {
  const wl::Workload w = disjoint_workload(2, 1.0);
  const sim::ClusterConfig c = fault_cluster();
  sim::FaultConfig faults;
  faults.transfer_failure_prob = -0.5;
  sched::MinMinScheduler sched;
  auto r = sched::run_batch(sched, w, c, faults);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.tasks_stranded, w.num_tasks());
}

// --- Storage outages. ---

TEST(FaultInjection, StorageOutageDelaysRemoteTransfers) {
  // The only storage node is down for [0, 10): the single task's transfer
  // waits the window out.
  wl::Workload w = disjoint_workload(1, 2.0);
  sim::EngineOptions opts;
  opts.faults.storage_outages = {{0, 0.0, 10.0}};
  sim::ExecutionEngine eng(fault_cluster(), w, opts);
  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 0;
  ASSERT_TRUE(eng.execute(p).ok());
  // transfer [10, 11), read 0.1, compute 2.0.
  EXPECT_NEAR(eng.makespan(), 11.0 + 0.1 + 2.0, 1e-9);
}

TEST(FaultInjection, StorageOutageDegradesToReplicaSourcing) {
  // Task 0 stages file 0 onto node 0 before the outage starts; task 1 needs
  // the same file on node 1 during the outage, so it must replicate from
  // node 0 instead of waiting ~100 s for storage.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * sim::kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[0].compute_seconds = 1.0;
  tasks[1].files = {0};
  tasks[1].compute_seconds = 1.0;
  wl::Workload w(std::move(tasks), std::move(files));

  sim::ClusterConfig c = fault_cluster(2, 1);
  sim::EngineOptions opts;
  opts.faults.storage_outages = {{0, 1.5, 100.0}};
  sim::ExecutionEngine eng(c, w, opts);
  sim::SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 1u);  // before the outage
  EXPECT_EQ(stats.replications, 1u);      // degraded sourcing during it
  EXPECT_LT(eng.makespan(), 50.0);
}

// --- Alive-mask plumbing. ---

TEST(FaultInjection, SchedulersAvoidDeadNodes) {
  const wl::Workload w = shared_workload(41);
  const sim::ClusterConfig c = fault_cluster(3, 2);
  sim::EngineOptions opts;
  opts.faults.compute_crashes = {{2, 0.01}};
  sim::ExecutionEngine eng(c, w, opts);

  // Kill node 2 by running one task there.
  sim::SubBatchPlan p;
  p.tasks = {0};
  p.assignment[0] = 2;
  ASSERT_TRUE(eng.execute(p).ok());
  ASSERT_FALSE(eng.node_alive(2));
  eng.take_orphaned();

  sched::SchedulerContext ctx{w, c, eng};
  EXPECT_EQ(ctx.alive_nodes(), (std::vector<wl::NodeId>{0, 1}));
  sched::MinMinScheduler mm;
  std::vector<wl::TaskId> pending;
  for (wl::TaskId t = 0; t < w.num_tasks(); ++t) pending.push_back(t);
  auto plan = mm.plan_sub_batch(pending, ctx);
  for (const auto& [task, node] : plan.assignment) EXPECT_NE(node, 2u);
}

TEST(FaultInjection, LruEvictionSurvivesCrashes) {
  // JobDataPresent pairs with LRU eviction; run it on a tight disk while a
  // node crashes mid-batch. The crash drops the dead node's replicas, so
  // the survivors must re-stage (and keep evicting) their way to a full
  // drain — the counters have to show both effects.
  const wl::Workload w = shared_workload(51);
  sim::ClusterConfig c = fault_cluster(3, 2);
  c.disk_capacity = 0.3 * w.unique_request_bytes();

  sched::JobDataPresentScheduler jdp;
  ASSERT_EQ(jdp.eviction_policy(), sim::EvictionPolicy::kLru);

  const auto clean = sched::run_batch(jdp, w, c);
  ASSERT_TRUE(clean.ok()) << clean.error;
  EXPECT_EQ(clean.stats.tasks_executed, w.num_tasks());
  EXPECT_GT(clean.stats.evictions, 0u);

  sim::FaultConfig faults;
  faults.compute_crashes = {{2, 0.3}};
  sched::JobDataPresentScheduler jdp2;
  const auto faulty = sched::run_batch(jdp2, w, c, faults);
  ASSERT_TRUE(faulty.ok()) << faulty.error;
  // Orphaned tasks are re-planned on the two survivors, which re-stage the
  // inputs the dead node held; LRU keeps cycling the tight disks.
  EXPECT_EQ(faulty.stats.tasks_executed, w.num_tasks());
  EXPECT_GT(faulty.stats.evictions, 0u);
  EXPECT_GE(faulty.stats.remote_transfers + faulty.stats.replications,
            clean.stats.remote_transfers)
      << "crash recovery cannot shrink total staging work";
}

}  // namespace
}  // namespace bsio
