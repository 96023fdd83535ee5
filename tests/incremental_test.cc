// Incremental (rolling-horizon) planning tests.
//
// Part 1 is the quiescence contract: a StreamServiceLoop fed ONE batch at
// t = 0 with a drain-all horizon must reproduce the batch driver — and the
// PR 4 topology goldens — BIT for BIT (hexfloat makespans, every engine
// counter), for all four schedulers (MinMin by delta insertion; BiPartition,
// JobDataPresent and IP by part repair, including the limited-disk
// two-round presets), at 1, 2 and 8 planning threads, and under one run
// configuration with a crash, transfer failures, a slowdown, speculation
// and tiered replication. Part 2 unit-tests the planner mechanics:
// delta-extend leaving the earlier wave untouched, the BiPartition
// footprint gate, the commit_horizon freeze rule and its
// release-at-least-one progress rule, and the dirty-set derivation. Part 3
// exercises the streaming loop proper: overlapping batches, SLO accounting,
// a crash mid-stream, and the typed error surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "goldens.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/incremental.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

// ------------------------------------------------------ quiescence goldens

// Every golden row (tests/goldens.h): a mismatch here means the
// incremental path stopped reproducing the batch arithmetic, not that the
// goldens need regenerating.
TEST(StreamQuiescence, BitIdenticalToBatchDriverAtAnyThreadCount) {
  const wl::Workload w = goldens::golden_workload();
  const std::size_t thread_counts[] = {1, 2, 8};
  for (std::size_t threads : thread_counts) {
    WsRuntime::set_global_threads(threads);
    for (const goldens::GoldenRow& row : goldens::kGolden) {
      SCOPED_TRACE(std::string(row.preset) + "/" + row.scheduler + "/" +
                   std::to_string(threads) + "t");
      const sim::ClusterConfig c =
          goldens::golden_preset(row.preset, w.unique_request_bytes());

      auto batch_sched = goldens::make_golden_scheduler(row.scheduler);
      const sched::BatchRunResult r =
          sched::run_batch(*batch_sched, w, c, sched::BatchRunOptions{});
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.batch_time, row.batch_time);
      EXPECT_EQ(r.sub_batches, row.sub_batches);

      auto stream_sched = goldens::make_golden_scheduler(row.scheduler);
      service::StreamOptions sopts;  // drain-all horizon, no admission bound
      service::StreamServiceLoop loop(*stream_sched, c, w.files(), sopts);
      std::vector<service::BatchArrival> arrivals(1);
      arrivals[0] = {0.0, 0, {}, w};
      auto res = loop.run(std::move(arrivals));
      ASSERT_TRUE(res.ok()) << res.error().message;
      const service::StreamResult& s = res.value();

      // Bitwise, not approximate: the quiescence contract.
      EXPECT_EQ(s.stats.completion_time, r.batch_time);
      EXPECT_EQ(s.stats.windows_committed, r.sub_batches);
      EXPECT_EQ(s.stats.exec.remote_transfers, r.stats.remote_transfers);
      EXPECT_EQ(s.stats.exec.replications, r.stats.replications);
      EXPECT_EQ(s.stats.exec.evictions, r.stats.evictions);
      EXPECT_EQ(s.stats.exec.restages, r.stats.restages);
      EXPECT_EQ(s.stats.exec.cache_hits, r.stats.cache_hits);
      EXPECT_EQ(s.stats.exec.remote_bytes, r.stats.remote_bytes);
      EXPECT_EQ(s.stats.exec.replica_bytes, r.stats.replica_bytes);
      ASSERT_EQ(s.batches.size(), 1u);
      EXPECT_TRUE(s.batches[0].completed);
      EXPECT_EQ(s.batches[0].response_time, r.batch_time);
      EXPECT_EQ(s.stats.slo_attainment, 1.0);
      EXPECT_EQ(s.stats.tasks_executed, w.num_tasks());
    }
  }
  WsRuntime::set_global_threads(0);
}

// The stream takes the batch driver's run configuration whole, so faults,
// speculation and replication reach it unchanged: one arrival at t = 0
// under the drain-all horizon still equals run_batch bit for bit.
TEST(StreamQuiescence, FaultyRunBitIdenticalToBatchDriver) {
  WsRuntime::set_global_threads(2);
  const wl::Workload w = goldens::golden_workload();
  std::uint64_t crashes = 0, retries = 0, launches = 0, repairs = 0;
  for (const goldens::GoldenRow& row : goldens::kGolden) {
    SCOPED_TRACE(std::string(row.preset) + "/" + row.scheduler);
    const sim::ClusterConfig c =
        goldens::golden_preset(row.preset, w.unique_request_bytes());

    service::StreamOptions opts;  // drain-all horizon, no admission bound
    opts.faults.compute_crashes = {{1, 0.4 * row.batch_time}};
    opts.faults.transfer_failure_prob = 0.05;
    opts.faults.compute_slowdowns = {
        {0, 0.0, std::numeric_limits<double>::infinity(), 3.0}};
    opts.speculation.enabled = true;
    opts.replication.enabled = true;
    opts.replication.tiers = {{0.0, 1}, {1.0, 2}};

    auto batch_sched = goldens::make_golden_scheduler(row.scheduler);
    const sched::BatchRunResult r = sched::run_batch(*batch_sched, w, c, opts);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());

    auto stream_sched = goldens::make_golden_scheduler(row.scheduler);
    service::StreamServiceLoop loop(*stream_sched, c, w.files(), opts);
    std::vector<service::BatchArrival> arrivals(1);
    arrivals[0] = {0.0, 0, {}, w};
    auto res = loop.run(std::move(arrivals));
    ASSERT_TRUE(res.ok()) << res.error().message;
    const service::StreamStats& s = res.value().stats;

    EXPECT_EQ(s.completion_time, r.batch_time);
    EXPECT_EQ(s.exec.node_crashes, r.stats.node_crashes);
    EXPECT_EQ(s.exec.task_reexecutions, r.stats.task_reexecutions);
    EXPECT_EQ(s.exec.transfer_retries, r.stats.transfer_retries);
    EXPECT_EQ(s.exec.speculative_launches, r.stats.speculative_launches);
    EXPECT_EQ(s.exec.replicas_created, r.stats.replicas_created);
    EXPECT_EQ(s.exec.remote_bytes, r.stats.remote_bytes);
    EXPECT_EQ(s.tasks_executed, w.num_tasks());
    crashes += r.stats.node_crashes;
    retries += r.stats.transfer_retries;
    launches += r.stats.speculative_launches;
    repairs += r.stats.replicas_created;
  }
  // The configuration reaches every recovery path somewhere in the grid.
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(launches, 0u);
  EXPECT_GT(repairs, 0u);
  WsRuntime::set_global_threads(0);
}

// ------------------------------------------------------- planner mechanics

TEST(DeltaMinMin, ExtendLeavesEarlierWaveUntouched) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = goldens::golden_workload();
  const sim::ClusterConfig c =
      goldens::golden_preset("xio", w.unique_request_bytes());
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);

  std::vector<wl::TaskId> first, second;
  for (wl::TaskId t = 0; t < 12; ++t) first.push_back(t);
  for (wl::TaskId t = 12; t < 24; ++t) second.push_back(t);
  planner->extend(first, ctx);
  const std::vector<sched::LiveTask> snap = planner->live();
  ASSERT_EQ(snap.size(), 12u);

  planner->extend(second, ctx);
  ASSERT_EQ(planner->live().size(), 24u);
  // Delta insertion: the first wave's commitments (order AND placement)
  // survive verbatim; the newcomers only append.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(planner->live()[i].task, snap[i].task);
    EXPECT_EQ(planner->live()[i].node, snap[i].node);
  }
  WsRuntime::set_global_threads(0);
}

// Files 0..5 over 2 storage nodes; tasks 2 and 3 differ in whether they
// share a file with the {0, 1} part (task 2 disjoint, task 3 reads file 0).
wl::Workload gate_workload() {
  std::vector<wl::FileInfo> files;
  for (wl::FileId f = 0; f < 6; ++f)
    files.push_back({f, 10.0 * sim::kMB, static_cast<wl::NodeId>(f % 2)});
  std::vector<wl::TaskInfo> tasks;
  tasks.push_back({0, 1.0, {0, 1}, {}});
  tasks.push_back({1, 1.0, {0, 2}, {}});
  tasks.push_back({2, 1.0, {3, 4}, {}});
  tasks.push_back({3, 1.0, {0, 5}, {}});
  return wl::Workload(tasks, files);
}

sim::ClusterConfig small_cluster(std::size_t compute, std::size_t storage) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

TEST(PartRepair, FootprintGateKeepsDisjointPartStanding) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  sched::PartRepairPlanner planner(mm, /*footprint_gate=*/true);

  planner.extend({0, 1}, ctx);
  ASSERT_EQ(planner.live().size(), 2u);
  const std::vector<sched::LiveTask> snap = planner.live();

  // Task 2 shares no file with the live part: the selection stands, the
  // newcomer only queues in the backlog.
  planner.extend({2}, ctx);
  ASSERT_EQ(planner.live().size(), 2u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(planner.live()[i].task, snap[i].task);
    EXPECT_EQ(planner.live()[i].node, snap[i].node);
  }
  ASSERT_EQ(planner.backlog().size(), 1u);
  EXPECT_EQ(planner.backlog()[0], 2u);

  // Task 3 reads file 0, dirtying the part: it dissolves and level-1
  // selection re-runs over everything outstanding.
  planner.extend({3}, ctx);
  EXPECT_EQ(planner.live().size(), 4u);
  EXPECT_TRUE(planner.backlog().empty());
  WsRuntime::set_global_threads(0);
}

TEST(PartRepair, RepairDissolvesOnlyWhenDirtyHitsLive) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  sched::PartRepairPlanner planner(mm, /*footprint_gate=*/true);

  planner.extend({0, 1}, ctx);
  const std::vector<sched::LiveTask> snap = planner.live();
  // Dirty set disjoint from the live part: nothing moves.
  planner.repair({2}, ctx);
  ASSERT_EQ(planner.live().size(), snap.size());
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(planner.live()[i].task, snap[i].task);
  // Dirty set hitting the part: full replan (still both tasks, repriced).
  planner.repair({0}, ctx);
  EXPECT_EQ(planner.live().size(), 2u);
  WsRuntime::set_global_threads(0);
}

TEST(DeltaMinMin, DirtyFromFilesIntersectsLiveFootprints) {
  WsRuntime::set_global_threads(1);
  const wl::Workload w = gate_workload();
  const sim::ClusterConfig c = small_cluster(2, 2);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);
  planner->extend({0, 1, 2, 3}, ctx);

  // File 0 is read by tasks 0, 1 and 3; file 3 only by task 2.
  std::vector<wl::TaskId> d0 = planner->dirty_from_files(w, {0});
  std::vector<wl::TaskId> d3 = planner->dirty_from_files(w, {3});
  EXPECT_EQ(d0, (std::vector<wl::TaskId>{0, 1, 3}));
  EXPECT_EQ(d3, (std::vector<wl::TaskId>{2}));
  EXPECT_TRUE(planner->dirty_from_files(w, {}).empty());
  WsRuntime::set_global_threads(0);
}

TEST(CommitHorizon, FreezeRuleAndEnsureProgress) {
  WsRuntime::set_global_threads(1);
  // One compute node: the three tasks serialize, so their estimated starts
  // strictly increase.
  std::vector<wl::FileInfo> files = {{0, 50.0 * sim::kMB, 0}};
  std::vector<wl::TaskInfo> tasks = {
      {0, 10.0, {0}, {}}, {1, 10.0, {0}, {}}, {2, 10.0, {0}, {}}};
  const wl::Workload w(tasks, files);
  const sim::ClusterConfig c = small_cluster(1, 1);
  sched::MinMinScheduler mm;
  sim::EngineOptions eo;
  eo.eviction = mm.eviction_policy();
  sim::ExecutionEngine eng(c, w, eo);
  sched::SchedulerContext ctx{w, c, eng};
  auto planner = sched::make_incremental_planner(mm);
  planner->extend({0, 1, 2}, ctx);
  ASSERT_EQ(planner->live().size(), 3u);
  EXPECT_EQ(planner->live()[0].est_start, 0.0);
  EXPECT_GT(planner->live()[1].est_start, 1.0);
  EXPECT_GT(planner->live()[2].est_start, planner->live()[1].est_start);

  // A 1-second window contains only the first task's start.
  sched::HorizonOptions h;
  h.window_seconds = 1.0;
  sim::SubBatchPlan p1 = planner->commit_horizon(h);
  ASSERT_EQ(p1.tasks.size(), 1u);
  EXPECT_EQ(p1.tasks[0], 0u);
  EXPECT_EQ(planner->live().size(), 2u);

  // The survivors start past the window; the commit still releases the
  // earliest one.
  sim::SubBatchPlan p2 = planner->commit_horizon(h);
  ASSERT_EQ(p2.tasks.size(), 1u);
  EXPECT_EQ(p2.tasks[0], 1u);
  EXPECT_EQ(planner->live().size(), 1u);

  // Drain-all freezes whatever remains.
  h.window_seconds = 0.0;
  sim::SubBatchPlan p3 = planner->commit_horizon(h);
  ASSERT_EQ(p3.tasks.size(), 1u);
  EXPECT_EQ(p3.tasks[0], 2u);
  EXPECT_TRUE(planner->drained());
  WsRuntime::set_global_threads(0);
}

// --------------------------------------------------------- streaming loop

std::vector<wl::FileInfo> stream_catalog(std::uint64_t seed = 7) {
  service::SharedCatalogConfig cfg;
  cfg.num_files = 32;
  cfg.mean_file_size_bytes = 25.0 * sim::kMB;
  cfg.file_size_jitter = 0.2;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return service::make_shared_catalog(cfg);
}

TEST(StreamService, OverlappingBatchesCompleteWithSloAccounting) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  const sim::ClusterConfig c = small_cluster(4, 2);

  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 6;
  bcfg.files_per_task = 3;
  bcfg.zipf_s = 1.0;
  service::ArrivalConfig acfg;
  acfg.rate = 0.5;  // arrivals land while earlier batches still run
  acfg.num_batches = 4;
  acfg.seed = 3;
  acfg.slo_classes = {{50.0, 4.0}, {200.0, 1.0}};
  service::BatchArrivalProcess process(catalog, bcfg, acfg);
  auto arrivals = process.generate();
  ASSERT_TRUE(arrivals.ok()) << arrivals.error().message;

  service::StreamOptions opts;
  opts.admission.policy = service::AdmissionPolicy::kDeadlineAware;
  opts.admission.aging_weight = 0.1;
  opts.horizon.window_seconds = 20.0;
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c, catalog, opts);
  auto res = loop.run(std::move(arrivals).value());
  ASSERT_TRUE(res.ok()) << res.error().message;
  const service::StreamResult& s = res.value();

  EXPECT_EQ(s.stats.batches_arrived, 4u);
  EXPECT_EQ(s.stats.batches_completed, 4u);
  EXPECT_EQ(s.stats.rejected_batches, 0u);
  EXPECT_EQ(s.stats.shed_batches, 0u);
  EXPECT_EQ(s.stats.tasks_executed, 4u * 6u);
  EXPECT_GE(s.stats.p99_response, s.stats.p50_response);
  EXPECT_GE(s.stats.slo_attainment, 0.0);
  EXPECT_LE(s.stats.slo_attainment, 1.0);
  std::size_t met = 0;
  for (const service::StreamBatchMetrics& m : s.batches) {
    EXPECT_TRUE(m.completed);
    EXPECT_GE(m.admit_time, m.arrival_time);
    EXPECT_GE(m.completion_time, m.admit_time);
    EXPECT_EQ(m.slo_met, m.response_time <= m.deadline_seconds);
    if (m.slo_met) ++met;
  }
  EXPECT_EQ(s.stats.slo_met, met);
  // Determinism: a second identical run reproduces the first bit for bit.
  sched::MinMinScheduler mm2;
  service::StreamServiceLoop loop2(mm2, c, catalog, opts);
  auto again = process.generate();
  ASSERT_TRUE(again.ok());
  auto res2 = loop2.run(std::move(again).value());
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2.value().stats.completion_time, s.stats.completion_time);
  EXPECT_EQ(res2.value().stats.p99_response, s.stats.p99_response);
  WsRuntime::set_global_threads(0);
}

TEST(StreamService, CrashMidStreamCompletesOnSurvivors) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  const sim::ClusterConfig c = small_cluster(4, 2);

  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 6;
  bcfg.files_per_task = 3;
  bcfg.write_fraction = 0.3;
  service::ArrivalConfig acfg;
  acfg.rate = 0.5;
  acfg.num_batches = 6;
  acfg.seed = 5;
  service::BatchArrivalProcess process(catalog, bcfg, acfg);
  auto generated = process.generate();
  ASSERT_TRUE(generated.ok()) << generated.error().message;
  std::vector<service::BatchArrival> arrivals = std::move(generated).value();
  bool wrote = false;
  for (const auto& a : arrivals)
    for (const auto& t : a.batch.tasks()) wrote |= !t.outputs.empty();
  ASSERT_TRUE(wrote);

  service::StreamOptions opts;
  opts.horizon.window_seconds = 20.0;
  opts.faults.compute_crashes = {{1, arrivals[2].time}};
  opts.faults.transfer_failure_prob = 0.1;
  opts.replication.enabled = true;
  opts.replication.tiers = {{0.0, 2}};
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c, catalog, opts);
  auto res = loop.run(std::move(arrivals));
  ASSERT_TRUE(res.ok()) << res.error().message;
  const service::StreamResult& s = res.value();

  EXPECT_EQ(s.stats.batches_completed, 6u);
  EXPECT_EQ(s.stats.tasks_executed, 6u * 6u);
  EXPECT_EQ(s.stats.exec.node_crashes, 1u);
  EXPECT_GT(s.stats.exec.transfer_retries, 0u);
  for (const service::StreamBatchMetrics& m : s.batches) {
    EXPECT_TRUE(m.completed);
    EXPECT_GE(m.completion_time, m.admit_time);
  }
  WsRuntime::set_global_threads(0);
}

// Batch 1 arrives while batch 0 is still live past the first 1 s window,
// so later windows hold both release epochs and execute as two sub-plans,
// batch 0's first. Node 1 crashes at each instant of a grid over the
// fault-free run. Where the crash strikes during batch 0's sub-plan, batch
// 1's tasks already placed on node 1 must be orphaned and re-planned on
// node 0 (at 20/40, for one); where it strikes in an earlier window, so
// must the live tasks still planned on node 1. Either way the run
// completes instead of the engine rejecting the sub-plan.
TEST(StreamService, CrashInEarlierEpochReplansLaterEpochTasks) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  const sim::ClusterConfig c = small_cluster(2, 2);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 8;
  bcfg.files_per_task = 3;
  auto arrivals = [&] {
    std::vector<service::BatchArrival> a(2);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i].time = static_cast<double>(i);
      a[i].index = i;
      a[i].batch = service::make_service_batch(catalog, bcfg, i + 1);
    }
    return a;
  };
  service::StreamOptions opts;
  opts.horizon.window_seconds = 1.0;

  sched::MinMinScheduler clean;
  auto base = service::StreamServiceLoop(clean, c, catalog, opts)
                  .run(arrivals());
  ASSERT_TRUE(base.ok()) << base.error().message;
  const double end = base.value().stats.completion_time;
  ASSERT_GT(base.value().stats.windows_committed, 2u);

  std::size_t crashed_runs = 0;
  for (int k = 1; k < 40; ++k) {
    SCOPED_TRACE("crash at " + std::to_string(k) + "/40 of the run");
    opts.faults.compute_crashes = {{1, end * k / 40.0}};
    sched::MinMinScheduler mm;
    auto res = service::StreamServiceLoop(mm, c, catalog, opts)
                   .run(arrivals());
    ASSERT_TRUE(res.ok()) << res.error().message;
    const service::StreamStats& s = res.value().stats;
    EXPECT_EQ(s.batches_completed, 2u);
    EXPECT_EQ(s.tasks_executed, 16u);
    EXPECT_LE(s.exec.node_crashes, 1u);
    crashed_runs += s.exec.node_crashes;
  }
  EXPECT_GT(crashed_runs, 0u);
  WsRuntime::set_global_threads(0);
}

TEST(StreamService, CatalogueMismatchIsTyped) {
  const std::vector<wl::FileInfo> catalog = stream_catalog(7);
  const std::vector<wl::FileInfo> other = stream_catalog(8);
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(1);
  arrivals[0].time = 0.0;
  arrivals[0].index = 0;
  arrivals[0].batch = service::make_service_batch(other, bcfg, 1);
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("catalogue"), std::string::npos);
}

TEST(StreamService, DuplicateArrivalIndexIsTyped) {
  // Indices {0, 0, 2} are all in range but not dense: batch 1 has no
  // arrival, so its record would never be written. A typed error, not a
  // run that reports three of three batches completed.
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  const std::size_t indices[] = {0, 0, 2};
  std::vector<service::BatchArrival> arrivals(3);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].time = static_cast<double>(i);
    arrivals[i].index = indices[i];
    arrivals[i].batch = service::make_service_batch(catalog, bcfg, i + 1);
  }
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("repeats"), std::string::npos)
      << res.error().message;
}

TEST(StreamService, EmptyBatchIsTyped) {
  // An admitted empty batch would end neither completed, shed nor
  // rejected, so it is refused up front, the trace parser's rule.
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(2);
  arrivals[0].index = 0;
  arrivals[0].batch = service::make_service_batch(catalog, bcfg, 1);
  arrivals[1].time = 1.0;
  arrivals[1].index = 1;
  arrivals[1].batch = wl::Workload({}, catalog);
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, small_cluster(2, 2), catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("num_tasks == 0"), std::string::npos)
      << res.error().message;
}

TEST(StreamService, InfeasibleTaskIsTyped) {
  const std::vector<wl::FileInfo> catalog = stream_catalog();
  service::ServiceBatchConfig bcfg;
  bcfg.tasks_per_batch = 4;
  std::vector<service::BatchArrival> arrivals(1);
  arrivals[0].batch = service::make_service_batch(catalog, bcfg, 1);
  sim::ClusterConfig c = small_cluster(2, 2);
  c.disk_capacity = 1.0;  // nothing fits
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, c, catalog, {});
  auto res = loop.run(std::move(arrivals));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.error().message.find("Section 4.2"), std::string::npos);
}

}  // namespace
}  // namespace bsio
