// Replica lifecycle manager tests (src/replica, DESIGN.md §15).
//
// Part 1 covers the manager itself: tier-table validation and the typed
// errors it surfaces through run_batch and StreamServiceLoop, the residency
// state machine (kSatisfied / kDegraded / kDirty / kLost) driven through
// writes, crashes and repair rounds, and version-epoch correctness of the
// write-back model. Part 2 is the replication-off bit-identity pin: with
// ReplicaConfig left at its default every golden row of the PR 4 topology
// table must reproduce BIT for BIT at 1, 2 and 8 planning threads — the
// epoch/home-validity machinery must be invisible to output-free workloads.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "goldens.h"
#include "replica/replica.h"
#include "sched/driver.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"
#include "workload/types.h"

namespace bsio {
namespace {

sim::ClusterConfig replica_cluster(std::size_t compute = 2,
                                   std::size_t storage = 2) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 100.0 * sim::kMB;  // remote: 1 s per 100 MB file
  c.storage_net_bw = 1000.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;   // replica: 0.25 s per file
  c.local_disk_bw = 1000.0 * sim::kMB;
  return c;
}

// One 100 MB file homed on storage node 0, one task that reads it and
// (when `writes`) writes it back.
wl::Workload one_file_workload(bool writes, double compute_seconds = 1.0) {
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * sim::kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(1);
  tasks[0].files = {0};
  if (writes) tasks[0].outputs = {0};
  tasks[0].compute_seconds = compute_seconds;
  return wl::Workload(std::move(tasks), std::move(files));
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

replica::ReplicaConfig rf_config(std::uint32_t rf) {
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.tiers = {{0.0, rf}};
  return cfg;
}

sim::SubBatchPlan plan_on(std::vector<wl::TaskId> tasks, wl::NodeId node) {
  sim::SubBatchPlan p;
  p.tasks = std::move(tasks);
  for (wl::TaskId t : p.tasks) p.assignment[t] = node;
  return p;
}

// ------------------------------------------------------- config validation

TEST(ReplicaConfig, DisabledValidatesTrivially) {
  replica::ReplicaConfig cfg;  // enabled = false, empty tiers
  EXPECT_TRUE(cfg.validate(2).ok());
}

TEST(ReplicaConfig, ValidateCatchesBadValues) {
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  EXPECT_FALSE(cfg.validate(2).ok());  // empty tier table

  cfg.tiers = {{0.0, 0}};  // zero target
  EXPECT_FALSE(cfg.validate(2).ok());

  cfg.tiers = {{0.0, 4}};  // 2 compute nodes + home = 3 locations max
  EXPECT_FALSE(cfg.validate(2).ok());
  EXPECT_TRUE(cfg.validate(3).ok());

  cfg.tiers = {{-1.0, 1}};  // negative popularity boundary
  EXPECT_FALSE(cfg.validate(2).ok());

  cfg.tiers = {{0.0, 1}, {5.0, 2}, {5.0, 3}};  // overlapping boundaries
  const Status overlap = cfg.validate(4);
  ASSERT_FALSE(overlap.ok());
  EXPECT_NE(overlap.error().message.find("overlap"), std::string::npos);

  cfg.tiers = {{0.0, 1}, {5.0, 2}};
  cfg.repair_bandwidth_cap = -1.0;
  EXPECT_FALSE(cfg.validate(4).ok());
  cfg.repair_bandwidth_cap = 0.0;
  EXPECT_TRUE(cfg.validate(4).ok());
}

TEST(ReplicaConfig, TierLookupPicksLastCoveringTier) {
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.tiers = {{0.0, 1}, {5.0, 2}, {10.0, 3}};
  ASSERT_TRUE(cfg.validate(4).ok());
  EXPECT_EQ(cfg.target_rf(0.0), 1u);
  EXPECT_EQ(cfg.target_rf(4.9), 1u);
  EXPECT_EQ(cfg.target_rf(5.0), 2u);
  EXPECT_EQ(cfg.target_rf(9.0), 2u);
  EXPECT_EQ(cfg.target_rf(100.0), 3u);
}

TEST(ReplicaConfig, InvalidConfigIsTypedThroughRunBatch) {
  const wl::Workload w = shared_workload();
  const sim::ClusterConfig c = replica_cluster();
  sched::MinMinScheduler mm;

  sched::BatchRunOptions opts;
  opts.replication = rf_config(5);  // > 2 compute nodes + home
  auto r = sched::run_batch(mm, w, c, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("compute nodes"), std::string::npos);
  EXPECT_EQ(r.tasks_stranded, w.num_tasks());

  opts.replication = rf_config(2);
  opts.replication.repair_bandwidth_cap = -1.0;
  r = sched::run_batch(mm, w, c, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("repair_bandwidth_cap"), std::string::npos);
}

TEST(ReplicaConfig, InvalidConfigIsTypedThroughStreamLoop) {
  service::SharedCatalogConfig ccfg;
  ccfg.num_files = 16;
  ccfg.num_storage_nodes = 2;
  const std::vector<wl::FileInfo> catalog = service::make_shared_catalog(ccfg);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(1);
  arrivals[0].batch = service::make_service_batch(catalog, bcfg, 1);

  service::StreamOptions opts;
  opts.replication.enabled = true;
  opts.replication.tiers = {{0.0, 1}, {0.0, 2}};  // overlapping boundaries
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, replica_cluster(), catalog, opts);
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("overlap"), std::string::npos);
}

// -------------------------------------------------- residency state machine

TEST(ReplicaManager, ResidencyWalksDegradedDirtySatisfied) {
  const wl::Workload w = one_file_workload(/*writes=*/true);
  const sim::ClusterConfig c = replica_cluster(2, 2);
  sim::ExecutionEngine eng(c, w);
  replica::ReplicaConfig cfg = rf_config(3);  // home + both compute nodes
  ASSERT_TRUE(cfg.validate(c.num_compute_nodes).ok());
  replica::ReplicaManager mgr(w, cfg);

  // Fresh engine: only the home copy exists.
  EXPECT_EQ(mgr.actual_rf(eng, 0), 1u);
  EXPECT_EQ(mgr.desired_rf(eng, 0), 3u);
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kDegraded);
  ASSERT_EQ(mgr.files_below_target(eng), std::vector<wl::FileId>{0});

  // Repair round: fan-out onto both compute nodes.
  replica::RepairReport rep = mgr.run_repairs(eng, 0.0);
  EXPECT_EQ(rep.flushes_scheduled, 0u);
  EXPECT_EQ(rep.replicas_scheduled, 2u);
  EXPECT_EQ(rep.deferred, 0u);
  EXPECT_GT(rep.last_completion, 0.0);
  EXPECT_EQ(mgr.actual_rf(eng, 0), 3u);
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kSatisfied);
  EXPECT_TRUE(mgr.files_below_target(eng).empty());
  EXPECT_EQ(eng.totals().replicas_created, 2u);

  // The write bumps the epoch, drops node 1's copy, and dirties the home.
  ASSERT_TRUE(eng.execute(plan_on({0}, 0)).ok());
  EXPECT_EQ(eng.file_epoch(0), 1u);
  EXPECT_FALSE(eng.home_valid(0));
  EXPECT_EQ(mgr.actual_rf(eng, 0), 1u);  // the writer's copy only
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kDirty);
  EXPECT_EQ(eng.totals().replicas_invalidated, 1u);

  // Next round: write-back first, then re-fan-out.
  rep = mgr.run_repairs(eng, eng.makespan());
  EXPECT_EQ(rep.flushes_scheduled, 1u);
  EXPECT_EQ(rep.replicas_scheduled, 1u);
  EXPECT_TRUE(eng.home_valid(0));
  EXPECT_EQ(mgr.actual_rf(eng, 0), 3u);
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kSatisfied);
  EXPECT_EQ(eng.totals().home_flushes, 1u);
  EXPECT_EQ(eng.totals().replicas_created, 3u);
}

TEST(ReplicaManager, WriterCrashBeforeFlushIsLostAndUnrepairable) {
  // Task 0 writes file 0 on node 0 and completes; task 1 keeps node 0 busy
  // across the crash at t = 4, so the node dies holding the only current
  // copy of file 0's new version.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * sim::kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(3);
  tasks[0].files = {0};
  tasks[0].outputs = {0};
  tasks[0].compute_seconds = 1.0;
  tasks[1].files = {1};
  tasks[1].compute_seconds = 10.0;
  tasks[2].files = {0};
  tasks[2].compute_seconds = 0.5;
  const wl::Workload w(std::move(tasks), std::move(files));

  const sim::ClusterConfig c = replica_cluster(2, 2);
  sim::EngineOptions eopts;
  eopts.faults.compute_crashes = {{0, 4.0}};
  sim::ExecutionEngine eng(c, w, eopts);
  replica::ReplicaConfig cfg = rf_config(2);
  ASSERT_TRUE(cfg.validate(c.num_compute_nodes).ok());
  replica::ReplicaManager mgr(w, cfg);

  ASSERT_TRUE(eng.execute(plan_on({0, 1}, 0)).ok());
  EXPECT_EQ(eng.take_orphaned(), std::vector<wl::TaskId>{1});
  EXPECT_EQ(eng.file_epoch(0), 1u);
  EXPECT_FALSE(eng.home_valid(0));
  EXPECT_EQ(mgr.actual_rf(eng, 0), 0u);
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kLost);

  // Repair cannot resurrect a lost epoch: file 0 stays lost (its fan-out
  // is deferred for lack of any current source) while file 1 — whose home
  // is still valid — is re-replicated normally.
  const replica::RepairReport rep = mgr.run_repairs(eng, eng.makespan());
  EXPECT_EQ(rep.flushes_scheduled, 0u);
  EXPECT_EQ(rep.replicas_scheduled, 1u);
  EXPECT_GT(rep.deferred, 0u);
  EXPECT_EQ(eng.state().num_copies(0), 0u);
  EXPECT_EQ(mgr.residency(eng, 0), replica::Residency::kLost);
  EXPECT_EQ(mgr.files_below_target(eng), std::vector<wl::FileId>{0});

  // A later read rolls back to the stale home copy and counts the loss.
  ASSERT_TRUE(eng.execute(plan_on({2}, 1)).ok());
  EXPECT_EQ(eng.totals().lost_versions, 1u);
}

// ------------------------------------------- write-back epochs and tracing

TEST(ReplicaEpochs, WriteInvalidatesOtherCopiesAndTracesIt) {
  const wl::Workload w = one_file_workload(/*writes=*/true);
  const sim::ClusterConfig c = replica_cluster(2, 2);
  sim::EngineOptions eopts;
  eopts.trace = true;
  sim::ExecutionEngine eng(c, w, eopts);

  // Replicate onto both nodes, then write on node 0.
  ASSERT_TRUE(eng.stage_replica(0, 0, 0.0, 0.0).ok());
  ASSERT_TRUE(eng.stage_replica(0, 1, 0.0, 0.0).ok());
  ASSERT_TRUE(eng.execute(plan_on({0}, 0)).ok());

  EXPECT_EQ(eng.file_epoch(0), 1u);
  EXPECT_FALSE(eng.home_valid(0));
  EXPECT_TRUE(eng.state().has(0, 0));    // the writer keeps the new version
  EXPECT_FALSE(eng.state().has(1, 0));   // the stale copy is gone
  EXPECT_EQ(eng.totals().replicas_invalidated, 1u);

  std::size_t creates = 0, invalidates = 0;
  for (const auto& e : eng.trace()) {
    if (e.kind == sim::TraceEvent::Kind::kReplicaCreate) ++creates;
    if (e.kind == sim::TraceEvent::Kind::kReplicaInvalidate) {
      ++invalidates;
      EXPECT_EQ(e.src, 0u);  // writer
      EXPECT_EQ(e.dst, 1u);  // invalidated holder
      EXPECT_EQ(e.file, 0u);
    }
  }
  EXPECT_EQ(creates, 2u);
  EXPECT_EQ(invalidates, 1u);

  // Write-back re-validates the home exactly once.
  ASSERT_TRUE(eng.flush_to_home(0, eng.makespan(), 0.0).ok());
  EXPECT_TRUE(eng.home_valid(0));
  EXPECT_EQ(eng.totals().home_flushes, 1u);
  EXPECT_FALSE(eng.flush_to_home(0, eng.makespan(), 0.0).ok());

  const std::string csv = sim::trace_to_csv(eng.trace());
  EXPECT_NE(csv.find("replica_create"), std::string::npos);
  EXPECT_NE(csv.find("replica_invalidate"), std::string::npos);
}

TEST(ReplicaEpochs, StageReplicaRejectsBadRequests) {
  const wl::Workload w = one_file_workload(/*writes=*/false);
  sim::ExecutionEngine eng(replica_cluster(2, 2), w);
  EXPECT_FALSE(eng.stage_replica(7, 0, 0.0, 0.0).ok());   // unknown file
  EXPECT_FALSE(eng.stage_replica(0, 9, 0.0, 0.0).ok());   // unknown node
  EXPECT_FALSE(eng.stage_replica(0, 0, -1.0, 0.0).ok());  // negative start
  ASSERT_TRUE(eng.stage_replica(0, 0, 0.0, 0.0).ok());
  EXPECT_FALSE(eng.stage_replica(0, 0, 0.0, 0.0).ok());   // already held
}

TEST(ReplicaEpochs, BandwidthCapLengthensRepairTransfers) {
  const wl::Workload w = one_file_workload(/*writes=*/false);
  sim::ExecutionEngine eng(replica_cluster(2, 2), w);

  // Uncapped: the 100 MB file moves at the 100 MB/s remote path rate.
  auto fast = eng.stage_replica(0, 0, 0.0, 0.0);
  ASSERT_TRUE(fast.ok());
  EXPECT_DOUBLE_EQ(fast.value(), 1.0);

  // Capped at 50 MB/s the same copy takes 2 s; a cap above the path
  // bandwidth is inert.
  auto slow = eng.stage_replica(0, 1, 10.0, 50.0 * sim::kMB);
  ASSERT_TRUE(slow.ok());
  EXPECT_DOUBLE_EQ(slow.value(), 12.0);

  EXPECT_EQ(eng.totals().replicas_created, 2u);
  EXPECT_DOUBLE_EQ(eng.totals().repair_bytes, 200.0 * sim::kMB);
  EXPECT_DOUBLE_EQ(eng.totals().repair_seconds, 3.0);
}

// Repair picks its source by the foreground rule, so a cluster that
// disallows compute-to-compute replication stages every repair copy from
// home too. The completion time tells the sources apart: the trace's `src`
// cannot tell storage node 0 from compute node 0.
TEST(ReplicaEpochs, RepairHonoursDisallowedReplication) {
  const wl::Workload w = one_file_workload(/*writes=*/false);
  for (const bool allow : {true, false}) {
    SCOPED_TRACE(allow);
    sim::ClusterConfig c = replica_cluster(2, 2);
    c.allow_replication = allow;
    sim::ExecutionEngine eng(c, w);
    ASSERT_TRUE(eng.stage_replica(0, 0, 0.0, 0.0).ok());  // node 0 at 1 s
    auto copy = eng.stage_replica(0, 1, 5.0, 0.0);
    ASSERT_TRUE(copy.ok());
    // Node 0's copy takes 0.25 s; the home fetch takes 1 s.
    EXPECT_DOUBLE_EQ(copy.value(), allow ? 5.25 : 6.0);
  }
}

// ---------------------------------------------------- end-to-end pipelines

TEST(ReplicaEndToEnd, RepairRestoresTargetRfAfterFailStopCrash) {
  const wl::Workload w = shared_workload(31);
  const sim::ClusterConfig c = replica_cluster(3, 2);
  sched::BatchRunOptions opts;
  opts.faults.compute_crashes = {{1, 3.0}};
  opts.replication = rf_config(2);
  sched::MinMinScheduler mm;
  const auto r = sched::run_batch(mm, w, c, opts);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
  EXPECT_EQ(r.stats.node_crashes, 1u);
  // The crash dropped node 1's copies; repair re-established every file's
  // tier target before the run reported.
  EXPECT_EQ(r.replica_deficit, 0u);
  EXPECT_GT(r.stats.replicas_created, 0u);
  EXPECT_GT(r.stats.repair_bytes, 0.0);
  EXPECT_GT(r.stats.repair_seconds, 0.0);
}

TEST(ReplicaEndToEnd, StreamLoopRepairsBetweenArrivalsWithWrites) {
  service::SharedCatalogConfig ccfg;
  ccfg.num_files = 24;
  ccfg.num_storage_nodes = 2;
  ccfg.file_size_jitter = 0.0;
  ccfg.mean_file_size_bytes = 32.0 * sim::kMB;
  const std::vector<wl::FileInfo> catalog = service::make_shared_catalog(ccfg);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 6;
  bcfg.files_per_task = 3;
  bcfg.write_fraction = 0.5;  // read-modify-write tasks dirty their files

  std::vector<service::BatchArrival> arrivals(2);
  arrivals[0] = {0.0, 0, {}, service::make_service_batch(catalog, bcfg, 7)};
  arrivals[1] = {200.0, 1, {},
                 service::make_service_batch(catalog, bcfg, 8)};
  bool wrote = false;
  for (const auto& a : arrivals)
    for (const auto& t : a.batch.tasks()) wrote |= !t.outputs.empty();
  ASSERT_TRUE(wrote);  // the write draw must have fired at fraction 0.5

  service::StreamOptions opts;
  opts.replication = rf_config(2);
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, replica_cluster(2, 2), catalog, opts);
  auto res = loop.run(std::move(arrivals));
  ASSERT_TRUE(res.ok()) << res.error().message;
  const service::StreamResult& s = res.value();
  EXPECT_EQ(s.stats.batches_completed, 2u);
  EXPECT_GT(s.stats.repair_rounds, 0u);
  EXPECT_EQ(s.stats.replica_deficit, 0u);
  EXPECT_GT(s.stats.exec.replicas_created, 0u);
  // Writes happened, so write-back flushes must have too.
  EXPECT_GT(s.stats.exec.home_flushes, 0u);
}

// ------------------------------------------- replication-off bit identity

// The topology goldens (tests/goldens.h), re-pinned with the replica
// subsystem COMPILED IN but disabled: all-zero epochs and all-valid homes
// must keep every staging decision, tie-break and counter bit-identical,
// at every thread count.
TEST(ReplicaBitIdentity, ReplicationOffReproducesTopologyGoldens) {
  const wl::Workload w = goldens::golden_workload();

  for (std::size_t threads : {1u, 2u, 8u}) {
    WsRuntime::set_global_threads(threads);
    for (const goldens::GoldenRow& row : goldens::kGolden) {
      SCOPED_TRACE(std::string(row.preset) + "/" + row.scheduler + " @" +
                   std::to_string(threads) + "t");
      const sim::ClusterConfig c =
          goldens::golden_preset(row.preset, w.unique_request_bytes());
      const auto r = sched::run_batch(
          *goldens::make_golden_scheduler(row.scheduler), w, c);
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.batch_time, row.batch_time);
      EXPECT_EQ(r.sub_batches, row.sub_batches);
      EXPECT_EQ(r.stats.remote_transfers, row.remote_transfers);
      EXPECT_EQ(r.stats.replications, row.replications);
      EXPECT_EQ(r.stats.evictions, row.evictions);
      EXPECT_EQ(r.stats.cache_hits, row.cache_hits);
      EXPECT_EQ(r.stats.remote_bytes, row.remote_bytes);
      EXPECT_EQ(r.stats.replica_bytes, row.replica_bytes);
      // The replica counters must stay untouched on the off path.
      EXPECT_EQ(r.stats.replicas_created, 0u);
      EXPECT_EQ(r.stats.replicas_invalidated, 0u);
      EXPECT_EQ(r.stats.home_flushes, 0u);
      EXPECT_EQ(r.stats.lost_versions, 0u);
      EXPECT_EQ(r.stats.repair_bytes, 0.0);
    }
  }
  WsRuntime::set_global_threads(0);
}

}  // namespace
}  // namespace bsio
