#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "replica/replica.h"
#include "sched/bipartition.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "service/catalog.h"
#include "sim/faults.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/synthetic.h"

namespace perfbench {

namespace {

using namespace bsio;

// One batch workload: a streaming synthetic batch over the 2M-file
// universe, planned by one scheduler on the scale_sweep cluster.
struct BatchShape {
  const char* name;
  const char* scheduler;
  std::size_t nodes;
  std::size_t tasks;
  std::size_t small_tasks;
  double zipf_s;      // 0 = uniform draws
  double disk_bytes;  // per compute node
  bool faults_and_replication;
};

// Why each shape: see BENCHMARK.json. engine-rank puts its host time in
// the engine's per-commit re-ranking, plan-wide in MinMin's pricing
// sweeps, disk-bipartition in BINW + K-way mapping re-run every round.
constexpr BatchShape kBatchShapes[] = {
    {"engine-rank", "JDP", 16, 8000, 400, 0.0, sim::kUnlimited, false},
    {"plan-wide", "MinMin-lazy", 128, 5000, 300, 1.0, sim::kUnlimited, false},
    {"disk-bipartition", "BiPartition", 32, 2000, 200, 1.0, 2.0 * sim::kGB,
     true},
};

constexpr const char* kStream = "stream-slo";
constexpr std::uint64_t kArrivalScheduleSeed = 3;

// The scale_sweep cluster parameters: slow storage disks behind a faster
// network, max(4, nodes / 8) storage nodes.
sim::ClusterConfig scale_cluster(std::size_t compute_nodes, double disk) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = std::max<std::size_t>(4, compute_nodes / 8);
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  c.disk_capacity = disk;
  return c;
}

// Popularity >= 0 -> one copy, >= 3 -> two; repair at most 100 MB/s.
replica::ReplicaConfig tiered_replication() {
  replica::ReplicaConfig cfg;
  cfg.enabled = true;
  cfg.tiers = {{0.0, 1}, {3.0, 2}};
  cfg.repair_bandwidth_cap = 100.0 * sim::kMB;
  return cfg;
}

std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name) {
  if (name == "JDP") return std::make_unique<sched::JobDataPresentScheduler>();
  // The lazy heap with scale_sweep's refresh-cascade cap.
  if (name == "MinMin-lazy")
    return std::make_unique<sched::MinMinScheduler>(0, 32);
  if (name == "BiPartition")
    return std::make_unique<sched::BiPartitionScheduler>();
  return std::make_unique<sched::MinMinScheduler>();
}

const BatchShape* batch_shape(const std::string& name) {
  for (const BatchShape& s : kBatchShapes)
    if (name == s.name) return &s;
  return nullptr;
}

// Input properties over a set of tasks reading one catalogue.
Values input_properties(const std::vector<const wl::Workload*>& parts,
                        const sim::ClusterConfig& cluster) {
  const std::size_t num_files = parts.front()->num_files();
  std::vector<std::size_t> readers(num_files, 0);
  double tasks = 0.0, requests = 0.0;
  for (const wl::Workload* w : parts) {
    tasks += static_cast<double>(w->num_tasks());
    for (const wl::TaskInfo& t : w->tasks())
      for (wl::FileId f : t.files) {
        ++readers[f];
        requests += 1.0;
      }
  }
  double files = 0.0, shared = 0.0, bytes = 0.0;
  for (std::size_t f = 0; f < num_files; ++f) {
    if (readers[f] == 0) continue;
    files += 1.0;
    bytes += parts.front()->file_size(static_cast<wl::FileId>(f));
    if (readers[f] >= 2) shared += static_cast<double>(readers[f]);
  }
  const double disk = cluster.aggregate_disk_capacity();
  return {
      {"workload.tasks", tasks},
      {"workload.files", files},
      {"workload.shared_request_frac", requests > 0.0 ? shared / requests : 0},
      {"workload.working_set_gb", bytes / sim::kGB},
      // 0 stands for unlimited disks.
      {"workload.aggregate_disk_gb", std::isfinite(disk) ? disk / sim::kGB : 0},
  };
}

// A 52-bit digest of a series, exact as a JSON double: any change to any
// simulated instant changes it.
double digest(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (double x : v) h = hash_mix(h ^ std::bit_cast<std::uint64_t>(x));
  return static_cast<double>(h >> 12);
}

void add_exec_stats(const sim::ExecutionStats& s, Values& v) {
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  v["tasks_executed"] = n(s.tasks_executed);
  v["sim.remote_transfers"] = n(s.remote_transfers);
  v["sim.replications"] = n(s.replications);
  v["sim.cache_hits"] = n(s.cache_hits);
  const double staged = n(s.cache_hits + s.remote_transfers + s.replications);
  v["sim.cache_hit_frac"] = staged > 0.0 ? n(s.cache_hits) / staged : 0.0;
  v["sim.evictions"] = n(s.evictions);
  v["sim.restages"] = n(s.restages);
  v["sim.remote_gb"] = s.remote_bytes / sim::kGB;
  v["sim.replica_gb"] = s.replica_bytes / sim::kGB;
  v["sim.transfer_retries"] = n(s.transfer_retries);
  v["sim.task_reexecutions"] = n(s.task_reexecutions);
  v["sim.node_crashes"] = n(s.node_crashes);
  v["sim.recovery_s"] = s.recovery_seconds;
  v["replica.replicas_created"] = n(s.replicas_created);
  v["replica.home_flushes"] = n(s.home_flushes);
  v["replica.replicas_invalidated"] = n(s.replicas_invalidated);
  v["replica.repair_gb"] = s.repair_bytes / sim::kGB;
  v["replica.lost_versions"] = n(s.lost_versions);
}

Values batch_simulated(const wl::Workload& w,
                       const sched::BatchRunResult& r) {
  Values v;
  add_exec_stats(r.stats, v);
  v["tasks_attempted"] = static_cast<double>(w.num_tasks());
  // One batch arriving at t = 0 with no deadline: its response is the
  // makespan, and it meets its (absent) SLO when it completes.
  v["makespan_s"] = r.batch_time;
  v["p50_response_s"] = r.batch_time;
  v["p95_response_s"] = r.batch_time;
  v["slo_attainment"] = r.ok() ? 1.0 : 0.0;
  v["sim.execute_calls"] = static_cast<double>(r.sub_batches);
  v["replica.deficit"] = static_cast<double>(r.replica_deficit);
  v["completion_digest"] = digest(r.task_completion_times);
  return v;
}

// The output checks every run must pass; the first failure, or "".
std::string check_batch(const std::string& workload, const Values& v) {
  if (v.at("tasks_executed") < v.at("tasks_attempted"))
    return "executed " + std::to_string(v.at("tasks_executed")) + " of " +
           std::to_string(v.at("tasks_attempted")) + " admitted tasks";
  if (workload == "disk-bipartition" && v.at("replica.deficit") > 0.0)
    return "replica deficit " + std::to_string(v.at("replica.deficit")) +
           " after the drain-time repair rounds";
  return "";
}

Inputs build_batch(const BatchShape& shape, const BuildOptions& opt,
                   Tracer& tracer) {
  Inputs in;
  in.scheduler = shape.scheduler;
  in.cluster = scale_cluster(shape.nodes, shape.disk_bytes);
  if (opt.break_disk) in.cluster.disk_capacity = 100.0 * sim::kMB;

  wl::StreamingSyntheticConfig cfg;
  cfg.num_tasks = opt.small ? shape.small_tasks : shape.tasks;
  cfg.files_per_task = 8;
  cfg.universe_files = 2'000'000;
  cfg.zipf_s = shape.zipf_s;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.file_size_jitter = 0.25;
  cfg.num_storage_nodes = in.cluster.num_storage_nodes;
  cfg.seed = opt.seed;
  {
    Span s(tracer, "make_synthetic_streaming", "workload");
    in.batch = wl::make_synthetic_streaming(cfg);
  }

  if (shape.faults_and_replication) {
    in.batch_options.faults.seed = hash_mix(opt.seed ^ 0xfa17ULL);
    in.batch_options.faults.transfer_failure_prob = 0.02;
    in.batch_options.faults.compute_crashes = {{1, 500.0}};
    in.batch_options.replication = tiered_replication();
  }
  in.properties = input_properties({&in.batch}, in.cluster);
  in.shape = std::string(shape.scheduler) + " on " +
             std::to_string(shape.nodes) + " nodes x " +
             std::to_string(cfg.num_tasks) + " tasks x 8 files";
  return in;
}

Inputs build_stream(const BuildOptions& opt, Tracer& tracer) {
  Inputs in;
  in.stream = true;
  in.scheduler = "MinMin";
  in.cluster = scale_cluster(16, opt.break_disk ? 100.0 * sim::kMB
                                                : 8.0 * sim::kGB);

  service::SharedCatalogConfig cat;
  cat.num_files = 1024;
  cat.num_storage_nodes = in.cluster.num_storage_nodes;
  cat.seed = opt.seed;
  {
    Span s(tracer, "make_shared_catalog", "workload");
    in.catalog = service::make_shared_catalog(cat);
  }
  service::ServiceBatchConfig batch;
  batch.tasks_per_batch = opt.small ? 32 : 128;
  batch.files_per_task = 6;
  batch.zipf_s = 1.1;
  batch.write_fraction = 0.2;

  const std::size_t num_batches = opt.small ? 20 : 200;
  {
    Span s(tracer, "make_service_batch x arrivals", "workload");
    in.arrivals.resize(num_batches);
    for (std::size_t i = 0; i < num_batches; ++i) {
      in.arrivals[i].index = i;
      in.arrivals[i].batch = service::make_service_batch(
          in.catalog, batch, hash_mix(opt.seed ^ i));
    }
  }

  // Calibration: m is the median makespan of the first 32 batches, each
  // run cold and alone; every rate and deadline below is a multiple of m.
  // One batch alone varies by about 12 % from seed to seed, the median of
  // 32 by about 2 %.
  std::vector<double> alone;
  for (std::size_t i = 0; i < std::min<std::size_t>(32, num_batches); ++i) {
    Span s(tracer, "run_batch(calibration)", "sched");
    sched::MinMinScheduler mm;
    const sched::BatchRunResult r = sched::run_batch(
        mm, in.arrivals[i].batch, in.cluster, sched::BatchRunOptions{});
    // A broken input fails here first; the stream run reports the error.
    alone.push_back(r.ok() ? r.batch_time : 1.0);
  }
  const double m = percentile(alone, 50.0);

  // The arrival schedule belongs to the workload, like its rate: Poisson
  // gaps at utilisation 0.9 of m and an even premium / standard deal, drawn
  // from one fixed seed. The seed draws the catalogue and every batch's
  // content, so two seeds differ in data, not in the sampling error of 200
  // exponential gaps (about 10 % of the drain time on its own).
  const service::SloClass classes[] = {{0.75 * m, 4.0}, {2.0 * m, 1.0}};
  Rng schedule(kArrivalScheduleSeed);
  double t = 0.0;
  for (service::BatchArrival& a : in.arrivals) {
    t += -std::log(1.0 - schedule.uniform_double()) * m / 0.9;
    a.time = t;
    a.slo = classes[schedule.uniform(2)];
  }

  service::StreamOptions& so = in.stream_options;
  so.admission.policy = service::AdmissionPolicy::kDeadlineAware;
  so.admission.aging_weight = 0.25;
  so.admission.max_queue_depth = 8;
  so.admission.overload = service::OverloadPolicy::kShedLowestValue;
  so.horizon.window_seconds = 0.5 * m;
  so.replication = tiered_replication();

  std::vector<const wl::Workload*> parts;
  for (const service::BatchArrival& a : in.arrivals) parts.push_back(&a.batch);
  in.properties = input_properties(parts, in.cluster);
  char unit[32];
  std::snprintf(unit, sizeof unit, ", m = %.1f s", m);
  in.shape = "MinMin stream on 16 nodes: " + std::to_string(num_batches) +
             " batches x " + std::to_string(batch.tasks_per_batch) +
             " tasks x 6 files" + unit;
  return in;
}

Values stream_simulated(const service::StreamResult& res) {
  const service::StreamStats& s = res.stats;
  Values v;
  add_exec_stats(s.exec, v);
  double attempted = 0.0, admitted = 0.0;
  std::vector<double> responses, waits;
  for (const service::StreamBatchMetrics& b : res.batches) {
    attempted += static_cast<double>(b.tasks);
    if (b.shed || b.rejected) continue;
    admitted += static_cast<double>(b.tasks);
    waits.push_back(b.admit_time - b.arrival_time);
    if (b.completed) responses.push_back(b.response_time);
  }
  v["tasks_attempted"] = attempted;
  v["tasks_admitted"] = admitted;
  v["makespan_s"] = s.completion_time;
  v["p50_response_s"] = responses.empty() ? 0.0 : percentile(responses, 50);
  v["p95_response_s"] = responses.empty() ? 0.0 : percentile(responses, 95);
  v["slo_attainment"] = s.slo_attainment;
  v["batches_arrived"] = static_cast<double>(s.batches_arrived);
  v["batches_completed"] = static_cast<double>(s.batches_completed);
  v["service.shed"] = static_cast<double>(s.shed_batches);
  v["service.rejected"] = static_cast<double>(s.rejected_batches);
  v["service.degraded"] = static_cast<double>(s.degraded_batches);
  v["service.planning_cycles"] = static_cast<double>(s.planning_cycles);
  v["service.windows"] = static_cast<double>(s.windows_committed);
  v["service.queue_wait_p50_s"] = waits.empty() ? 0.0 : percentile(waits, 50);
  v["replica.rounds"] = static_cast<double>(s.repair_rounds);
  v["replica.deficit"] = static_cast<double>(s.replica_deficit);
  v["response_digest"] = digest(responses);
  return v;
}

std::string check_stream(const Values& v) {
  if (v.at("batches_completed") + v.at("service.shed") +
          v.at("service.rejected") !=
      v.at("batches_arrived"))
    return "stream accounting: completed + shed + rejected != arrived";
  if (v.at("tasks_executed") < v.at("tasks_admitted"))
    return "executed " + std::to_string(v.at("tasks_executed")) + " of " +
           std::to_string(v.at("tasks_admitted")) + " admitted tasks";
  return "";
}

RunResult run_stream(const Inputs& in, Tracer& tracer) {
  RunResult out;
  sched::MinMinScheduler mm;
  service::StreamServiceLoop loop(mm, in.cluster, in.catalog,
                                  in.stream_options);
  std::vector<service::BatchArrival> arrivals = in.arrivals;
  WallTimer timer;
  Result<service::StreamResult> res = [&] {
    Span s(tracer, "StreamServiceLoop::run", "service");
    return loop.run(std::move(arrivals));
  }();
  out.wall_s = timer.elapsed_seconds();
  if (!res.ok()) {
    out.error = "stream run failed: " + res.error().message;
    return out;
  }
  out.simulated = stream_simulated(res.value());
  out.error = check_stream(out.simulated);
  const service::StreamStats& s = res.value().stats;
  out.layers["service.plan_s"] = s.total_planning_seconds;
  return out;
}

// run_batch's loop, call for call, with a span around each public call
// into a layer. Must reproduce run_batch's makespan and ExecutionStats. Runs
// only on inputs run_batch accepted, so it skips run_batch's validation.
RunResult traced_batch(const Inputs& in, Tracer& tracer) {
  RunResult out;
  const wl::Workload& w = in.batch;
  const sched::BatchRunOptions& opt = in.batch_options;
  std::unique_ptr<sched::Scheduler> scheduler = make_scheduler(in.scheduler);
  sched::BatchRunResult r;
  double considered = 0.0, planned = 0.0, plan_calls = 0.0, rounds = 0.0;

  WallTimer total;
  {
    Span root(tracer, "run_batch", "sched");
    if (Status b = scheduler->begin_batch(); !b.ok()) r.error = b.error().message;
    std::unique_ptr<sim::ExecutionEngine> engine;
    {
      Span s(tracer, "ExecutionEngine()", "sim");
      engine = std::make_unique<sim::ExecutionEngine>(
          in.cluster, w,
          sim::EngineOptions{scheduler->eviction_policy(), false, opt.faults,
                             opt.speculation});
    }
    sched::SchedulerContext ctx(w, in.cluster, *engine);
    std::unique_ptr<replica::ReplicaManager> repair;
    if (opt.replication.enabled)
      repair = std::make_unique<replica::ReplicaManager>(w, opt.replication);

    std::vector<wl::TaskId> pending;
    if (r.ok())
      for (const wl::TaskInfo& t : w.tasks()) pending.push_back(t.id);

    while (!pending.empty()) {
      if (engine->alive_count() == 0) {
        r.error = "every compute node crashed with tasks still pending";
        break;
      }
      ctx.refresh_alive();
      sim::SubBatchPlan plan;
      {
        Span s(tracer, "Scheduler::plan_sub_batch", "sched");
        plan = scheduler->plan_sub_batch(pending, ctx);
      }
      plan_calls += 1.0;
      considered += static_cast<double>(pending.size());
      planned += static_cast<double>(plan.tasks.size());
      const std::unordered_set<wl::TaskId> in_plan(plan.tasks.begin(),
                                                   plan.tasks.end());
      const std::unordered_set<wl::TaskId> in_pending(pending.begin(),
                                                      pending.end());
      bool valid = !plan.empty() && in_plan.size() == plan.tasks.size();
      for (wl::TaskId t : plan.tasks) valid = valid && in_pending.count(t) > 0;
      if (!valid) {
        r.error = "scheduler returned an invalid sub-batch";
        break;
      }
      Result<sim::ExecutionStats> executed = [&] {
        Span s(tracer, "ExecutionEngine::execute", "sim");
        return engine->execute(plan);
      }();
      if (!executed.ok()) {
        r.error = executed.error().message;
        break;
      }
      ++r.sub_batches;
      std::erase_if(pending,
                    [&](wl::TaskId t) { return in_plan.count(t) > 0; });
      {
        Span s(tracer, "ExecutionEngine::take_orphaned", "sim");
        const std::vector<wl::TaskId> orphaned = engine->take_orphaned();
        pending.insert(pending.end(), orphaned.begin(), orphaned.end());
      }
      if (repair != nullptr) {
        Span s(tracer, "ReplicaManager::run_repairs", "replica");
        repair->run_repairs(*engine, engine->makespan());
        rounds += 1.0;
      }
    }

    if (repair != nullptr && r.ok()) {
      Span s(tracer, "drain-time repair rounds", "replica");
      double floor = engine->makespan();
      for (int round = 0; round < 8; ++round) {
        if (repair->files_below_target(*engine).empty()) break;
        replica::RepairReport rep;
        {
          Span rs(tracer, "ReplicaManager::run_repairs", "replica");
          rep = repair->run_repairs(*engine, floor);
        }
        rounds += 1.0;
        if (rep.flushes_scheduled + rep.replicas_scheduled == 0) break;
        floor = std::max(floor, rep.last_completion);
      }
      r.replica_deficit = repair->files_below_target(*engine).size();
    }
    r.batch_time = engine->makespan();
    r.stats = engine->totals();
    r.task_completion_times = engine->completed_task_times();
    std::sort(r.task_completion_times.begin(), r.task_completion_times.end());
    scheduler->add_solver_stats(r.stats);
  }
  out.wall_s = total.elapsed_seconds();
  if (!r.ok()) {
    out.error = "run failed: " + r.error;
    return out;
  }
  out.simulated = batch_simulated(w, r);
  out.error = check_batch(in.name, out.simulated);
  out.layers = {
      {"sched.plan_calls", plan_calls},
      {"sched.considered_per_planned", planned > 0 ? considered / planned : 0},
      {"replica.rounds", rounds},
  };
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == kStream || batch_shape(name) != nullptr;
}

Inputs build_inputs(const BuildOptions& options, Tracer& tracer) {
  Span root(tracer, "setup", "bench");
  Inputs in = options.workload == kStream
                  ? build_stream(options, tracer)
                  : build_batch(*batch_shape(options.workload), options,
                                tracer);
  in.name = options.workload;
  return in;
}

RunResult run_untraced(const Inputs& in) {
  Tracer off(false);
  if (in.stream) return run_stream(in, off);
  std::unique_ptr<sched::Scheduler> scheduler = make_scheduler(in.scheduler);
  RunResult out;
  WallTimer timer;
  const sched::BatchRunResult r =
      sched::run_batch(*scheduler, in.batch, in.cluster, in.batch_options);
  out.wall_s = timer.elapsed_seconds();
  if (!r.ok()) {
    out.error = "run failed: " + r.error;
    return out;
  }
  out.simulated = batch_simulated(in.batch, r);
  out.error = check_batch(in.name, out.simulated);
  return out;
}

RunResult run_traced(const Inputs& in, Tracer& tracer) {
  return in.stream ? run_stream(in, tracer) : traced_batch(in, tracer);
}

}  // namespace perfbench
