// Online service layer tests.
//
// Part 1 pins the control loop against a hand-driven loop: run_batch must
// reproduce a manual plan/execute/recover/repair loop bit for bit, with and
// without faults, speculation and replication. Part 2 covers the batch
// generator's Zipf draws, arrivals, admission, the one service loop's
// barrier behaviour (backpressure, cross-batch reuse against a fresh engine
// per batch), and the scheduler stats-reuse guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "replica/replica.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/ws_runtime.h"

namespace bsio {
namespace {

// One shared catalogue for every batch in a test (the service invariant:
// stable file ids across batches).
std::vector<wl::FileInfo> test_catalog() {
  service::SharedCatalogConfig cfg;
  cfg.num_files = 48;
  cfg.mean_file_size_bytes = 25.0 * sim::kMB;
  cfg.file_size_jitter = 0.2;
  cfg.num_storage_nodes = 2;
  cfg.seed = 5;
  return service::make_shared_catalog(cfg);
}

service::ServiceBatchConfig test_batch_cfg(std::size_t tasks = 10) {
  service::ServiceBatchConfig cfg;
  cfg.tasks_per_batch = tasks;
  cfg.files_per_task = 3;
  cfg.zipf_s = 1.0;
  return cfg;
}

sim::ClusterConfig test_cluster(double disk_capacity = sim::kUnlimited) {
  sim::ClusterConfig c;
  c.num_compute_nodes = 4;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  c.disk_capacity = disk_capacity;
  return c;
}

struct SchedulerFactory {
  const char* name;
  std::unique_ptr<sched::Scheduler> (*make)();
};

const SchedulerFactory kSchedulers[] = {
    {"MinMin", [] { return std::unique_ptr<sched::Scheduler>(
                        std::make_unique<sched::MinMinScheduler>()); }},
    {"JobDataPresent",
     [] { return std::unique_ptr<sched::Scheduler>(
              std::make_unique<sched::JobDataPresentScheduler>()); }},
    {"BiPartition",
     [] { return std::unique_ptr<sched::Scheduler>(
              std::make_unique<sched::BiPartitionScheduler>()); }},
    {"IP", [] { return std::unique_ptr<sched::Scheduler>(
                    std::make_unique<sched::IpScheduler>()); }},
};

// Drives `pending` to completion on `eng` with `s` — run_batch's loop
// without its bookkeeping. Tasks a crash
// orphans go back to pending; with a replica manager, one repair round
// follows every sub-batch and at most 8 convergence rounds follow the last.
void drain(sched::Scheduler& s, sim::ExecutionEngine& eng,
           const wl::Workload& w, const sim::ClusterConfig& c,
           std::vector<wl::TaskId> pending,
           replica::ReplicaManager* repair = nullptr) {
  sched::SchedulerContext ctx(w, c, eng);
  while (!pending.empty()) {
    ASSERT_GT(eng.alive_count(), 0u);
    ctx.refresh_alive();
    sim::SubBatchPlan plan = s.plan_sub_batch(pending, ctx);
    auto r = eng.execute(plan);
    ASSERT_TRUE(r.ok()) << r.error().message;
    std::unordered_set<wl::TaskId> done(plan.tasks.begin(), plan.tasks.end());
    std::erase_if(pending, [&](wl::TaskId t) { return done.count(t) > 0; });
    const std::vector<wl::TaskId> orphaned = eng.take_orphaned();
    pending.insert(pending.end(), orphaned.begin(), orphaned.end());
    if (repair != nullptr) repair->run_repairs(eng, eng.makespan());
  }
  if (repair == nullptr) return;
  double floor = eng.makespan();
  for (int round = 0; round < 8; ++round) {
    if (repair->files_below_target(eng).empty()) break;
    const replica::RepairReport rep = repair->run_repairs(eng, floor);
    if (rep.flushes_scheduled + rep.replicas_scheduled == 0) break;
    floor = std::max(floor, rep.last_completion);
  }
}

// ------------------------------------------------ manual-loop differential

// run_batch must be exactly the ordinary loop: a hand-driven loop
// reproduces its makespan and counters bit for bit. The second input adds
// every recovery path the loop owns: a fail-stop mid-run (crash orphans
// re-planned on the survivors), 2 % transfer faults, speculation onto a
// straggler's cached peers, and tiered replica repair with drain-time
// convergence. Its smaller disks make the disk-bounded schedulers split the
// batch from an empty cache (BiPartition into 3 windows, IP into 4), so
// orphans can rejoin a non-empty pending set, where their place in it
// matters.
TEST(ControlLoopDifferential, RunBatchMatchesManualLoop) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = test_catalog();
  const wl::Workload b =
      service::make_service_batch(catalog, test_batch_cfg(10), 32);

  for (const bool hostile : {false, true}) {
    const sim::ClusterConfig c =
        test_cluster((hostile ? 120.0 : 600.0) * sim::kMB);
    for (const auto& spec : kSchedulers) {
      SCOPED_TRACE(std::string(spec.name) +
                   (hostile ? "/faults+speculation+RF" : "/plain"));
      sched::BatchRunOptions opts;
      if (hostile) {
        // Node 1 crashes at 30 % of the fault-free run; node 2 runs 4x
        // slower throughout, a straggler for speculation to race.
        auto sched_probe = spec.make();
        const sched::BatchRunResult probe =
            sched::run_batch(*sched_probe, b, c, opts);
        ASSERT_TRUE(probe.ok()) << probe.error;
        opts.faults.transfer_failure_prob = 0.02;
        opts.faults.compute_crashes = {{1, 0.3 * probe.batch_time}};
        opts.faults.compute_slowdowns = {{2, 0.0, 1e9, 4.0}};
        opts.speculation.enabled = true;
        opts.replication.enabled = true;
        opts.replication.tiers = {{0.0, 1}, {1.0, 2}};
        opts.replication.repair_bandwidth_cap = 100.0 * sim::kMB;
      }
      auto sched_b = spec.make();
      const sched::BatchRunResult rb = sched::run_batch(*sched_b, b, c, opts);
      ASSERT_TRUE(rb.ok()) << rb.error;

      auto sched_manual = spec.make();
      sim::ExecutionEngine eng(c, b,
                               {sched_manual->eviction_policy(), false,
                                opts.faults, opts.speculation});
      std::unique_ptr<replica::ReplicaManager> repair;
      if (hostile)
        repair = std::make_unique<replica::ReplicaManager>(b, opts.replication);
      std::vector<wl::TaskId> pending;
      for (const auto& t : b.tasks()) pending.push_back(t.id);
      drain(*sched_manual, eng, b, c, pending, repair.get());
      const sim::ExecutionStats& m = eng.totals();

      EXPECT_EQ(rb.batch_time, eng.makespan());
      EXPECT_EQ(rb.stats.remote_transfers, m.remote_transfers);
      EXPECT_EQ(rb.stats.replications, m.replications);
      EXPECT_EQ(rb.stats.evictions, m.evictions);
      EXPECT_EQ(rb.stats.cache_hits, m.cache_hits);
      EXPECT_EQ(rb.stats.node_crashes, m.node_crashes);
      EXPECT_EQ(rb.stats.task_reexecutions, m.task_reexecutions);
      EXPECT_EQ(rb.stats.transfer_retries, m.transfer_retries);
      EXPECT_EQ(rb.stats.speculative_launches, m.speculative_launches);
      EXPECT_EQ(rb.stats.replicas_created, m.replicas_created);
      EXPECT_EQ(rb.stats.repair_bytes, m.repair_bytes);
      std::vector<double> times = eng.completed_task_times();
      std::sort(times.begin(), times.end());
      EXPECT_EQ(rb.task_completion_times, times);
      EXPECT_EQ(rb.stats.tasks_executed, b.num_tasks());
      if (hostile) {
        EXPECT_EQ(rb.stats.node_crashes, 1u);
        EXPECT_GT(rb.stats.task_reexecutions, 0u);
        EXPECT_EQ(rb.replica_deficit, repair->files_below_target(eng).size());
      }
    }
  }
  WsRuntime::set_global_threads(0);
}

// --------------------------------------------------------------- arrivals

// The per-draw discrete Zipf loop make_service_batch once called for every
// file draw: both weight sums are recomputed on each draw.
std::size_t per_draw_zipf(Rng& rng, std::size_t n, double s) {
  if (s == 0.0) return rng.uniform(n);
  double total = 0.0;
  for (std::size_t r = 1; r <= n; ++r)
    total += 1.0 / std::pow(static_cast<double>(r), s);
  const double u = rng.uniform_double() * total;
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r), s);
    if (u <= acc) return r - 1;
  }
  return n - 1;
}

TEST(ServiceBatch, CachedZipfDrawsMatchPerDrawWeightSums) {
  for (std::size_t n : {1u, 2u, 37u, 1024u}) {
    service::SharedCatalogConfig ccfg;
    ccfg.num_files = n;
    const std::vector<wl::FileInfo> catalog =
        service::make_shared_catalog(ccfg);
    for (double s : {0.0, 0.6, 1.0, 1.1, 2.5}) {
      for (std::uint64_t seed : {1u, 7u, 99u}) {
        service::ServiceBatchConfig cfg;
        cfg.tasks_per_batch = 24;
        cfg.files_per_task = std::min<std::size_t>(4, n);
        cfg.zipf_s = s;
        const wl::Workload got =
            service::make_service_batch(catalog, cfg, seed);
        Rng rng(seed);
        for (std::size_t t = 0; t < cfg.tasks_per_batch; ++t) {
          std::set<wl::FileId> want;
          while (want.size() < cfg.files_per_task)
            want.insert(static_cast<wl::FileId>(per_draw_zipf(rng, n, s)));
          ASSERT_EQ(got.task(static_cast<wl::TaskId>(t)).files,
                    std::vector<wl::FileId>(want.begin(), want.end()))
              << "n " << n << " s " << s << " seed " << seed << " task " << t;
        }
      }
    }
  }
}

TEST(Arrivals, PoissonDeterministicAndContentStable) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::ArrivalConfig cfg;
  cfg.rate = 0.01;
  cfg.num_batches = 5;
  cfg.seed = 9;
  service::BatchArrivalProcess p(catalog, test_batch_cfg(6), cfg);
  auto a = p.generate();
  auto b = p.generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.value()[i].time, b.value()[i].time);
    EXPECT_EQ(a.value()[i].index, i);
    if (i > 0) {
      EXPECT_GT(a.value()[i].time, a.value()[i - 1].time);
    }
  }

  // The rate moves WHEN batches arrive, never WHAT they contain.
  service::ArrivalConfig fast = cfg;
  fast.rate = 1.0;
  service::BatchArrivalProcess q(catalog, test_batch_cfg(6), fast);
  auto f = q.generate();
  ASSERT_TRUE(f.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(f.value()[i].batch.num_tasks(), a.value()[i].batch.num_tasks());
    for (std::size_t t = 0; t < a.value()[i].batch.num_tasks(); ++t)
      EXPECT_EQ(f.value()[i].batch.task(t).files,
                a.value()[i].batch.task(t).files);
    EXPECT_LT(f.value()[i].time, a.value()[i].time);
  }
}

TEST(Arrivals, TraceErrorsAreTyped) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::ArrivalConfig bad_rate;  // the rate must be positive
  bad_rate.rate = 0.0;
  service::BatchArrivalProcess q(catalog, test_batch_cfg(4), bad_rate);
  EXPECT_FALSE(q.generate().ok());

  // A configured batch size of zero is a typed error, caught before any
  // batch is built.
  service::ArrivalConfig poisson;
  poisson.rate = 1.0;
  poisson.num_batches = 2;
  service::BatchArrivalProcess z(catalog, test_batch_cfg(0), poisson);
  const auto zr = z.generate();
  ASSERT_FALSE(zr.ok());
  EXPECT_NE(zr.error().message.find("num_tasks == 0"), std::string::npos);
}

TEST(Arrivals, SloClassesDrawDeterministicallyAndTraceOverrides) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::ArrivalConfig cfg;
  cfg.rate = 0.1;
  cfg.num_batches = 8;
  cfg.seed = 4;
  cfg.slo_classes = {{30.0, 4.0}, {120.0, 1.0}};
  service::BatchArrivalProcess p(catalog, test_batch_cfg(4), cfg);
  auto a = p.generate();
  auto b = p.generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool saw_premium = false, saw_standard = false;
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.value()[i].slo.deadline_seconds,
              b.value()[i].slo.deadline_seconds);
    EXPECT_EQ(a.value()[i].slo.weight, b.value()[i].slo.weight);
    saw_premium |= a.value()[i].slo.deadline_seconds == 30.0;
    saw_standard |= a.value()[i].slo.deadline_seconds == 120.0;
  }
  EXPECT_TRUE(saw_premium);
  EXPECT_TRUE(saw_standard);

  // The rate moves WHEN batches arrive, never their class.
  service::ArrivalConfig fast = cfg;
  fast.rate = 10.0;
  service::BatchArrivalProcess q(catalog, test_batch_cfg(4), fast);
  auto f = q.generate();
  ASSERT_TRUE(f.ok());
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(f.value()[i].slo.deadline_seconds,
              a.value()[i].slo.deadline_seconds);
}

// -------------------------------------------------------------- admission

service::BatchArrival arrival_of(const std::vector<wl::FileInfo>& catalog,
                                 std::size_t tasks, std::size_t index,
                                 double time) {
  service::BatchArrival a;
  a.time = time;
  a.index = index;
  a.batch = service::make_service_batch(catalog, test_batch_cfg(tasks),
                                        100 + index);
  return a;
}

TEST(Admission, FifoPopsInArrivalOrder) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionQueue q({});
  ASSERT_TRUE(q.offer(arrival_of(catalog, 12, 0, 0.0)).ok());
  ASSERT_TRUE(q.offer(arrival_of(catalog, 2, 1, 1.0)).ok());
  ASSERT_TRUE(q.offer(arrival_of(catalog, 6, 2, 2.0)).ok());
  EXPECT_EQ(q.pop().arrival.index, 0u);
  EXPECT_EQ(q.pop().arrival.index, 1u);
  EXPECT_EQ(q.pop().arrival.index, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(Admission, BoundedQueueRejectsWithTypedError) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionOptions opt;
  opt.max_queue_depth = 2;
  service::AdmissionQueue q(opt);
  ASSERT_TRUE(q.offer(arrival_of(catalog, 4, 0, 0.0)).ok());
  ASSERT_TRUE(q.offer(arrival_of(catalog, 4, 1, 0.0)).ok());
  const Status s = q.offer(arrival_of(catalog, 4, 2, 0.0));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("full"), std::string::npos);
  EXPECT_EQ(q.size(), 2u);
}

service::BatchArrival arrival_with_slo(
    const std::vector<wl::FileInfo>& catalog, std::size_t index, double time,
    double deadline, double weight) {
  service::BatchArrival a = arrival_of(catalog, 4, index, time);
  a.slo.deadline_seconds = deadline;
  a.slo.weight = weight;
  return a;
}

TEST(Admission, DeadlineAwarePopsEarliestEffectiveDeadline) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionOptions opt;
  opt.policy = service::AdmissionPolicy::kDeadlineAware;
  service::AdmissionQueue q(opt);
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 0, 0.0, 100.0, 1.0)).ok());
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 1, 1.0, 20.0, 1.0)).ok());
  // Best-effort (infinite deadline) clamps to a 1e9 s deadline: never
  // ahead of a real deadline, never starved out of the ordering.
  service::BatchArrival be = arrival_of(catalog, 4, 2, 0.5);
  ASSERT_TRUE(q.offer(std::move(be)).ok());
  EXPECT_EQ(q.pop(2.0).arrival.index, 1u);  // due 21
  EXPECT_EQ(q.pop(2.0).arrival.index, 0u);  // due 100
  EXPECT_EQ(q.pop(2.0).arrival.index, 2u);  // best-effort clamp
}

TEST(Admission, AgingPullsOldBatchesAcrossSloClasses) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionOptions opt;
  opt.policy = service::AdmissionPolicy::kDeadlineAware;
  opt.aging_weight = 10.0;  // 10 key-seconds of credit per waiting second
  service::AdmissionQueue q(opt);
  // Pure EDF would pop index 1 (due 30) before index 0 (due 100); with
  // aging, by now = 12 the older batch has earned 120 key-seconds of
  // credit against the newcomer's 20 and overtakes it.
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 0, 0.0, 100.0, 1.0)).ok());
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 1, 10.0, 20.0, 1.0)).ok());
  EXPECT_EQ(q.pop(12.0).arrival.index, 0u);
  EXPECT_EQ(q.pop(12.0).arrival.index, 1u);
}

TEST(Admission, ShedLowestValueEvictsAndSurfacesVictims) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionOptions opt;
  opt.max_queue_depth = 2;
  opt.overload = service::OverloadPolicy::kShedLowestValue;
  service::AdmissionQueue q(opt);
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 0, 0.0, 50.0, 5.0)).ok());
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 1, 0.0, 50.0, 1.0)).ok());
  // Weight 3 beats the queued weight-1 batch: that one is shed, the offer
  // admitted, the bound kept.
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 2, 1.0, 50.0, 3.0)).ok());
  EXPECT_EQ(q.size(), 2u);
  std::vector<service::QueuedBatch> shed = q.take_shed();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].arrival.index, 1u);
  EXPECT_TRUE(q.take_shed().empty());
  // An offer weaker than everything queued is itself the victim: typed
  // rejection, queue untouched.
  const Status s = q.offer(arrival_with_slo(catalog, 3, 2.0, 50.0, 0.5));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("shed"), std::string::npos);
  EXPECT_EQ(q.size(), 2u);
}

TEST(Admission, DegradeAdmitsPastBoundAsBestEffort) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  service::AdmissionOptions opt;
  opt.max_queue_depth = 1;
  opt.overload = service::OverloadPolicy::kDegrade;
  service::AdmissionQueue q(opt);
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 0, 0.0, 10.0, 2.0)).ok());
  ASSERT_TRUE(q.offer(arrival_with_slo(catalog, 1, 0.0, 10.0, 2.0)).ok());
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  const service::QueuedBatch d = q.pop();
  EXPECT_EQ(d.arrival.index, 1u);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.effective_slo.weight, 0.0);
  EXPECT_FALSE(std::isfinite(d.effective_slo.deadline_seconds));
  // The original class survives on the arrival for SLO reporting.
  EXPECT_EQ(d.arrival.slo.deadline_seconds, 10.0);
}

// ------------------------------------------------------------ service loop

// A fresh engine per batch: every arrival, in FIFO order, runs to
// completion on its own empty engine once the previous batch has finished.
struct FreshEngineRun {
  double mean_response = 0.0;
  double cache_hit_bytes = 0.0;
};

FreshEngineRun run_fresh_engines(
    const std::vector<service::BatchArrival>& arrivals,
    const sim::ClusterConfig& c) {
  FreshEngineRun out;
  double clock = 0.0;
  for (const service::BatchArrival& a : arrivals) {
    sched::MinMinScheduler mm;
    const sched::BatchRunResult r = sched::run_batch(mm, a.batch, c);
    EXPECT_TRUE(r.ok()) << r.error;
    clock = std::max(clock, a.time) + r.batch_time;
    out.mean_response += clock - a.time;
    out.cache_hit_bytes += r.stats.cache_hit_bytes;
  }
  out.mean_response /= static_cast<double>(arrivals.size());
  return out;
}

TEST(StreamService, DefaultLoopBeatsFreshEnginePerBatch) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = test_catalog();
  const sim::ClusterConfig c = test_cluster(600.0 * sim::kMB);
  service::ArrivalConfig acfg;
  acfg.rate = 0.02;
  acfg.num_batches = 3;
  acfg.seed = 13;
  service::BatchArrivalProcess arrivals(catalog, test_batch_cfg(8), acfg);

  auto run_once = [&] {
    auto gen = arrivals.generate();
    EXPECT_TRUE(gen.ok());
    sched::MinMinScheduler mm;
    service::StreamServiceLoop loop(mm, c, catalog);
    auto r = loop.run(std::move(gen).value());
    EXPECT_TRUE(r.ok()) << r.error().message;
    return std::move(r).value();
  };
  const service::StreamResult one = run_once();
  const service::StreamResult again = run_once();
  auto gen = arrivals.generate();
  ASSERT_TRUE(gen.ok());
  const FreshEngineRun fresh = run_fresh_engines(gen.value(), c);

  ASSERT_EQ(one.stats.batches_completed, 3u);
  // The one engine keeps the hot files between batches.
  EXPECT_GT(one.stats.exec.cache_hit_bytes, fresh.cache_hit_bytes);
  EXPECT_LT(one.stats.mean_response, fresh.mean_response);
  // Bit-determinism across runs.
  EXPECT_EQ(one.stats.mean_response, again.stats.mean_response);
  EXPECT_EQ(one.stats.completion_time, again.stats.completion_time);
  EXPECT_EQ(one.stats.exec.cache_hit_bytes, again.stats.exec.cache_hit_bytes);
  for (std::size_t i = 0; i < one.batches.size(); ++i)
    EXPECT_EQ(one.batches[i].completion_time, again.batches[i].completion_time);
}

TEST(StreamService, BackpressureCountsRejections) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = test_catalog();
  // Every batch arrives at once; depth 1 must shed load.
  std::vector<service::BatchArrival> arrivals;
  for (std::size_t i = 0; i < 4; ++i)
    arrivals.push_back(arrival_of(catalog, 6, i, 0.0));
  sched::MinMinScheduler mm;
  service::StreamOptions opt;
  opt.admission.max_queue_depth = 1;
  opt.admission.overload = service::OverloadPolicy::kReject;
  service::StreamServiceLoop loop(mm, test_cluster(), catalog, opt);
  auto r = loop.run(std::move(arrivals));
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_GT(r.value().stats.rejected_batches, 0u);
  EXPECT_EQ(r.value().stats.batches_completed +
                r.value().stats.rejected_batches,
            r.value().stats.batches_arrived);
}

TEST(StreamService, RejectsUnsortedArrivals) {
  const std::vector<wl::FileInfo> catalog = test_catalog();
  std::vector<service::BatchArrival> arrivals;
  arrivals.push_back(arrival_of(catalog, 4, 0, 5.0));
  arrivals.push_back(arrival_of(catalog, 4, 1, 1.0));
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, test_cluster(), catalog);
  auto r = loop.run(std::move(arrivals));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("sorted"), std::string::npos);
}

// ------------------------------------------------------- stats-reuse guard

TEST(StatsReuseGuard, IpSchedulerRefusesSecondRunWithoutReset) {
  WsRuntime::set_global_threads(1);
  const std::vector<wl::FileInfo> catalog = test_catalog();
  const wl::Workload w =
      service::make_service_batch(catalog, test_batch_cfg(4), 61);
  const sim::ClusterConfig c = test_cluster();
  sched::IpScheduler ip;
  const auto first = sched::run_batch(ip, w, c);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_GT(first.stats.lp_pivots + first.stats.mip_nodes, 0);

  const auto second = sched::run_batch(ip, w, c);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.error.find("reset_run_stats"), std::string::npos);
  EXPECT_EQ(second.tasks_stranded, w.num_tasks());

  ip.reset_run_stats();
  const auto third = sched::run_batch(ip, w, c);
  ASSERT_TRUE(third.ok()) << third.error;
  // Per-run isolation: the third run reports its own kernel work, not the
  // first run's plus its own.
  EXPECT_EQ(third.stats.lp_pivots, first.stats.lp_pivots);
  EXPECT_EQ(third.stats.mip_nodes, first.stats.mip_nodes);
}

TEST(StatsReuseGuard, ExecutionStatsResetClearsEverything) {
  sim::ExecutionStats s;
  s.tasks_executed = 3;
  s.remote_bytes = 1.0;
  s.cache_hit_bytes = 2.0;
  s.lp_pivots = 7;
  s.reset();
  EXPECT_EQ(s.tasks_executed, 0u);
  EXPECT_EQ(s.remote_bytes, 0.0);
  EXPECT_EQ(s.cache_hit_bytes, 0.0);
  EXPECT_EQ(s.lp_pivots, 0);
}

}  // namespace
}  // namespace bsio
