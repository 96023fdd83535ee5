// Online-service throughput bench: the cross-batch cache-reuse study.
//
// A BatchArrivalProcess feeds Zipf-skewed batches over one shared file
// catalogue into the service at a sweep of arrival rates; each of the four
// paper schedulers serves the identical arrival sequence twice — by the
// one service loop (StreamServiceLoop under default StreamOptions: FIFO
// admission, drain-all horizon, one engine whose disk cache persists
// across batches) and by a fresh engine per batch (run_batch on each
// arrival in FIFO order, every engine starting empty) — so the emitted
// BENCH_service.json rows carry a per-(scheduler, rate) ablation of
// cross-batch reuse: mean/max response time, queue wait, cache-hit bytes
// vs remote bytes.
//
//   service_throughput [--smoke] [--out <path>]
//   service_throughput --stream [--smoke] [--out <path>] [--min-slo <frac>]
//
// Exit is non-zero unless, for MinMin and BiPartition, the one loop serves
// strictly more cache-hit bytes than the fresh-engine run and has a
// strictly lower mean response — the CI smoke guards the reason one engine
// serves the whole run.
//
// --stream runs the rolling-horizon study instead: one MinMin batch is run
// cold to calibrate the mean batch makespan m, then Poisson arrivals at
// utilizations {0.5, 0.9, 1.2} (rate = u / m) with two SLO classes
// (premium: deadline 3m, weight 4; standard: 8m, weight 1) are served
// twice over the IDENTICAL arrival sequence by the StreamServiceLoop with
// incremental MinMin — as the batch barrier (default StreamOptions) and as
// the stream proper (deadline-aware admission with aging, horizon window
// m/2). Rows land in BENCH_service.json with p50/p99 batch response and SLO
// attainment per mode. Exit is non-zero when, at u = 0.9, the stream p99 is
// not strictly below the batch-barrier p99, or stream SLO attainment falls
// below the barrier's or below --min-slo (default 0.5) — the
// rolling-horizon subsystem's acceptance gate.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "service/arrival.h"
#include "service/catalog.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/ws_runtime.h"

namespace {

using namespace bsio;

struct SchedulerSpec {
  std::string label;
  std::unique_ptr<sched::Scheduler> (*make)();
};

std::unique_ptr<sched::Scheduler> make_minmin() {
  return std::make_unique<sched::MinMinScheduler>();
}
std::unique_ptr<sched::Scheduler> make_jdp() {
  return std::make_unique<sched::JobDataPresentScheduler>();
}
std::unique_ptr<sched::Scheduler> make_bipartition() {
  return std::make_unique<sched::BiPartitionScheduler>();
}

// Limited disks on a slow-storage cluster: re-staging is expensive and
// copies from earlier batches fit, so cross-batch reuse has room to pay
// off.
sim::ClusterConfig service_cluster(std::size_t compute_nodes) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = 4;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  c.disk_capacity = 2.0 * sim::kGB;
  return c;
}

// One (scheduler, rate, mode) row of the reuse ablation.
struct ServiceRow {
  std::string scheduler;
  double rate = 0.0;
  bool one_loop = false;  // false = a fresh engine per batch
  std::size_t served = 0;
  double mean_queue_wait = 0.0;
  double mean_response = 0.0;
  double max_response = 0.0;
  double planning_seconds = 0.0;
  double completion_seconds = 0.0;
  double cache_hit_bytes = 0.0;
  double remote_bytes = 0.0;
};

// The ablation's baseline: every arrival, in FIFO order, runs to completion
// on its own fresh engine once the previous batch has finished.
Result<ServiceRow> run_fresh_engines(
    sched::Scheduler& scheduler, const sim::ClusterConfig& cluster,
    const std::vector<service::BatchArrival>& arrivals) {
  ServiceRow row;
  double clock = 0.0;
  for (const service::BatchArrival& a : arrivals) {
    scheduler.reset_run_stats();
    const double start = std::max(clock, a.time);
    const sched::BatchRunResult r =
        sched::run_batch(scheduler, a.batch, cluster);
    if (!r.ok())
      return Err("batch " + std::to_string(a.index) + ": " + r.error);
    clock = start + r.batch_time;
    const double wait = start - a.time;
    const double response = wait + r.batch_time;
    row.mean_queue_wait += wait;
    row.mean_response += response;
    row.max_response = std::max(row.max_response, response);
    row.planning_seconds += r.scheduling_seconds;
    row.cache_hit_bytes += r.stats.cache_hit_bytes;
    row.remote_bytes += r.stats.remote_bytes;
    ++row.served;
  }
  if (row.served > 0) {
    row.mean_queue_wait /= static_cast<double>(row.served);
    row.mean_response /= static_cast<double>(row.served);
  }
  row.completion_seconds = clock;
  return row;
}

// The one service loop under default StreamOptions.
Result<ServiceRow> run_one_loop(sched::Scheduler& scheduler,
                                const sim::ClusterConfig& cluster,
                                const std::vector<wl::FileInfo>& catalog,
                                std::vector<service::BatchArrival> arrivals) {
  service::StreamServiceLoop loop(scheduler, cluster, catalog);
  auto run = loop.run(std::move(arrivals));
  if (!run.ok()) return run.error();
  const service::StreamStats& s = run.value().stats;
  ServiceRow row;
  row.one_loop = true;
  row.served = s.batches_completed;
  for (const service::StreamBatchMetrics& b : run.value().batches)
    if (b.completed) row.mean_queue_wait += b.admit_time - b.arrival_time;
  if (row.served > 0) row.mean_queue_wait /= static_cast<double>(row.served);
  row.mean_response = s.mean_response;
  row.max_response = s.max_response;
  row.planning_seconds = s.total_planning_seconds;
  row.completion_seconds = s.completion_time;
  row.cache_hit_bytes = s.exec.cache_hit_bytes;
  row.remote_bytes = s.exec.remote_bytes;
  return row;
}

const char* mode_name(bool one_loop) {
  return one_loop ? "one_loop" : "fresh_engine";
}

// One (mode, utilization) row of the rolling-horizon study.
struct StreamRow {
  std::string mode;  // "batch_barrier" or "stream"
  double utilization = 0.0;
  double rate = 0.0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t degraded = 0;
  double mean_response = 0.0;
  double p50_response = 0.0;
  double p99_response = 0.0;
  double slo_attainment = 0.0;
  double planning_seconds = 0.0;
  std::size_t windows = 0;  // horizon windows executed
  double completion_seconds = 0.0;
};

int run_stream_study(bool smoke, const char* out_path, double min_slo) {
  const std::size_t compute_nodes = smoke ? 4 : 8;
  const std::size_t num_batches = smoke ? 6 : 12;
  const std::vector<double> utilizations =
      smoke ? std::vector<double>{0.9} : std::vector<double>{0.5, 0.9, 1.2};

  service::SharedCatalogConfig cat_cfg;
  cat_cfg.num_files = smoke ? 128 : 256;
  cat_cfg.num_storage_nodes = 4;
  cat_cfg.seed = 11;
  const std::vector<wl::FileInfo> catalog =
      service::make_shared_catalog(cat_cfg);
  service::ServiceBatchConfig batch_cfg;
  batch_cfg.tasks_per_batch = smoke ? 16 : 32;
  batch_cfg.files_per_task = 4;
  batch_cfg.zipf_s = 1.2;
  const sim::ClusterConfig cluster = service_cluster(compute_nodes);

  // Calibration: one cold MinMin batch fixes the utilization unit m.
  double m = 0.0;
  {
    // Same content seed as arrival 0 of the sweeps below.
    const wl::Workload probe =
        service::make_service_batch(catalog, batch_cfg, hash_mix(3 ^ 0));
    sched::MinMinScheduler mm;
    const sched::BatchRunResult r =
        sched::run_batch(mm, probe, cluster, sched::BatchRunOptions{});
    if (!r.ok()) {
      std::fprintf(stderr, "service_throughput: calibration failed: %s\n",
                   r.error.c_str());
      return 1;
    }
    m = r.batch_time;
  }
  const std::vector<service::SloClass> slo_classes = {
      {3.0 * m, 4.0},  // premium
      {8.0 * m, 1.0},  // standard
  };
  std::printf(
      "service_throughput --stream: %zu compute nodes, %zu batches/run, "
      "calibrated batch makespan %.2f s%s\n\n",
      compute_nodes, num_batches, m, smoke ? " (smoke)" : "");
  std::printf("%-14s %5s %10s %10s %10s %6s %6s\n", "mode", "util", "p50",
              "p99", "attain", "shed", "degr");

  std::vector<StreamRow> rows;
  bool acceptance_ok = true;
  for (double u : utilizations) {
    service::ArrivalConfig arrival_cfg;
    arrival_cfg.rate = u / m;
    arrival_cfg.num_batches = num_batches;
    arrival_cfg.seed = 3;
    arrival_cfg.slo_classes = slo_classes;
    service::BatchArrivalProcess arrivals(catalog, batch_cfg, arrival_cfg);

    double barrier_p99 = 0.0, barrier_att = 0.0;
    for (const bool stream_mode : {false, true}) {
      auto gen = arrivals.generate();
      if (!gen.ok()) {
        std::fprintf(stderr, "service_throughput: %s\n",
                     gen.error().message.c_str());
        return 1;
      }
      StreamRow row;
      row.mode = stream_mode ? "stream" : "batch_barrier";
      row.utilization = u;
      row.rate = arrival_cfg.rate;
      // The barrier is the default options: FIFO, drain-all horizon.
      service::StreamOptions opts;
      if (stream_mode) {
        opts.admission.policy = service::AdmissionPolicy::kDeadlineAware;
        opts.admission.aging_weight = 0.25;
        opts.horizon.window_seconds = 0.5 * m;
      }
      sched::MinMinScheduler mm;
      service::StreamServiceLoop loop(mm, cluster, catalog, opts);
      auto run = loop.run(std::move(gen).value());
      if (!run.ok()) {
        std::fprintf(stderr, "service_throughput: %s run failed: %s\n",
                     row.mode.c_str(), run.error().message.c_str());
        return 1;
      }
      const service::StreamStats& s = run.value().stats;
      row.completed = s.batches_completed;
      row.rejected = s.rejected_batches;
      row.shed = s.shed_batches;
      row.degraded = s.degraded_batches;
      row.mean_response = s.mean_response;
      row.p50_response = s.p50_response;
      row.p99_response = s.p99_response;
      row.slo_attainment = s.slo_attainment;
      row.planning_seconds = s.total_planning_seconds;
      row.windows = s.windows_committed;
      row.completion_seconds = s.completion_time;
      std::printf("%-14s %5.2f %10.2f %10.2f %9.0f%% %6zu %6zu\n",
                  row.mode.c_str(), u, row.p50_response, row.p99_response,
                  100.0 * row.slo_attainment, row.shed, row.degraded);
      std::fflush(stdout);
      if (!stream_mode) {
        barrier_p99 = row.p99_response;
        barrier_att = row.slo_attainment;
      } else if (u > 0.85 && u < 0.95) {
        // The acceptance gate: at ~0.9 utilization the incremental planner
        // must cut the tail without giving back SLO attainment.
        if (row.p99_response >= barrier_p99) {
          std::fprintf(stderr,
                       "service_throughput: stream p99 %.2f s is not below "
                       "the batch-barrier p99 %.2f s at u=%.2f\n",
                       row.p99_response, barrier_p99, u);
          acceptance_ok = false;
        }
        if (row.slo_attainment < barrier_att ||
            row.slo_attainment < min_slo) {
          std::fprintf(stderr,
                       "service_throughput: stream SLO attainment %.2f at "
                       "u=%.2f below barrier %.2f or floor %.2f\n",
                       row.slo_attainment, u, barrier_att, min_slo);
          acceptance_ok = false;
        }
      }
      rows.push_back(std::move(row));
    }
  }

  bench::JsonWriter j(out_path);
  j.begin_object();
  j.field("bench", "service_throughput_stream");
  j.begin_object("config");
  j.field("compute_nodes", compute_nodes);
  j.field("num_batches", num_batches);
  j.field("catalog_files", catalog.size());
  j.field("tasks_per_batch", batch_cfg.tasks_per_batch);
  j.field("calibrated_makespan_seconds", m);
  j.field("horizon_window_seconds", 0.5 * m);
  j.field("min_slo", min_slo, 2);
  j.field("smoke", smoke);
  j.end_object();
  j.field("peak_rss_mb", bench::peak_rss_mb(), 1);
  j.begin_array("results");
  for (const StreamRow& r : rows) {
    j.begin_object();
    j.field("mode", r.mode);
    j.field("utilization", r.utilization, 2);
    j.field("arrival_rate", r.rate, 6);
    j.field("batches_completed", r.completed);
    j.field("rejected_batches", r.rejected);
    j.field("shed_batches", r.shed);
    j.field("degraded_batches", r.degraded);
    j.field("mean_response_seconds", r.mean_response);
    j.field("p50_response_seconds", r.p50_response);
    j.field("p99_response_seconds", r.p99_response);
    j.field("slo_attainment", r.slo_attainment, 4);
    j.field("total_planning_seconds", r.planning_seconds);
    j.field("windows", r.windows);
    j.field("completion_seconds", r.completion_seconds);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("\nwrote %s (%zu rows)\n", out_path, rows.size());

  if (!acceptance_ok) {
    std::fprintf(stderr,
                 "service_throughput: rolling-horizon acceptance gate "
                 "failed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs args(argc, argv,
                        "service_throughput [--stream] [--smoke] "
                        "[--out <path>] [--min-slo <frac>]");
  const bool smoke = args.has("--smoke");
  const bool stream = args.has("--stream");
  const char* out_path = args.value("--out", "BENCH_service.json");
  const double min_slo = args.number("--min-slo", 0.5);
  args.reject_unknown();

  WsRuntime::set_global_threads(1);

  if (stream) return run_stream_study(smoke, out_path, min_slo);

  const std::size_t compute_nodes = smoke ? 4 : 8;
  const std::size_t num_batches = smoke ? 4 : 8;
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.02}
            : std::vector<double>{0.005, 0.02, 0.08};

  service::SharedCatalogConfig cat_cfg;
  cat_cfg.num_files = smoke ? 128 : 256;
  cat_cfg.num_storage_nodes = 4;
  cat_cfg.seed = 11;
  const std::vector<wl::FileInfo> catalog =
      service::make_shared_catalog(cat_cfg);

  service::ServiceBatchConfig batch_cfg;
  batch_cfg.tasks_per_batch = smoke ? 16 : 32;
  batch_cfg.files_per_task = 4;
  batch_cfg.zipf_s = 1.2;  // hot files recur across batches

  const sim::ClusterConfig cluster = service_cluster(compute_nodes);

  const std::vector<SchedulerSpec> specs = {
      {"MinMin", &make_minmin},
      {"JobDataPresent", &make_jdp},
      {"BiPartition", &make_bipartition},
      {"IP", &bench::make_ip},
  };

  std::printf("service_throughput: %zu compute nodes, %zu batches/run%s\n\n",
              compute_nodes, num_batches, smoke ? " (smoke)" : "");
  std::printf("%-16s %7s %-12s %10s %10s %12s %12s\n", "scheduler", "rate",
              "mode", "mean-resp", "max-resp", "hits [MB]", "remote [MB]");

  std::vector<ServiceRow> rows;
  bool acceptance_ok = true;
  for (const auto& spec : specs) {
    for (double rate : rates) {
      service::ArrivalConfig arrival_cfg;
      arrival_cfg.rate = rate;
      arrival_cfg.num_batches = num_batches;
      arrival_cfg.seed = 3;
      service::BatchArrivalProcess arrivals(catalog, batch_cfg, arrival_cfg);

      ServiceRow pair[2];
      for (const bool one_loop : {false, true}) {
        auto gen = arrivals.generate();
        if (!gen.ok()) {
          std::fprintf(stderr, "service_throughput: %s\n",
                       gen.error().message.c_str());
          return 1;
        }
        const std::vector<service::BatchArrival> batches =
            std::move(gen).value();
        auto planner = spec.make();
        auto run = one_loop ? run_one_loop(*planner, cluster, catalog, batches)
                            : run_fresh_engines(*planner, cluster, batches);
        if (!run.ok()) {
          std::fprintf(stderr, "service_throughput: %s %s run failed: %s\n",
                       spec.label.c_str(), mode_name(one_loop),
                       run.error().message.c_str());
          return 1;
        }
        ServiceRow& row = pair[one_loop];
        row = std::move(run).value();
        row.scheduler = spec.label;
        row.rate = rate;
        std::printf("%-16s %7.3f %-12s %10.2f %10.2f %12.1f %12.1f\n",
                    spec.label.c_str(), rate, mode_name(one_loop),
                    row.mean_response, row.max_response,
                    row.cache_hit_bytes / sim::kMB,
                    row.remote_bytes / sim::kMB);
        std::fflush(stdout);
        rows.push_back(row);
      }

      // The reuse contract, enforced for the schedulers whose planners
      // exploit residency directly.
      if (spec.label == "MinMin" || spec.label == "BiPartition") {
        const ServiceRow& fresh = pair[0];
        const ServiceRow& one = pair[1];
        if (one.cache_hit_bytes <= fresh.cache_hit_bytes) {
          std::fprintf(stderr,
                       "service_throughput: %s one-loop cache hits %.1f MB "
                       "are not above the fresh-engine run's %.1f MB at "
                       "rate %.3f\n",
                       spec.label.c_str(), one.cache_hit_bytes / sim::kMB,
                       fresh.cache_hit_bytes / sim::kMB, rate);
          acceptance_ok = false;
        }
        if (one.mean_response >= fresh.mean_response) {
          std::fprintf(stderr,
                       "service_throughput: %s one-loop mean response %.2f s "
                       "is not below the fresh-engine run's %.2f s at rate "
                       "%.3f\n",
                       spec.label.c_str(), one.mean_response,
                       fresh.mean_response, rate);
          acceptance_ok = false;
        }
      }
    }
  }

  bench::JsonWriter j(out_path);
  j.begin_object();
  j.field("bench", "service_throughput");
  j.begin_object("config");
  j.field("compute_nodes", compute_nodes);
  j.field("num_batches", num_batches);
  j.field("catalog_files", catalog.size());
  j.field("tasks_per_batch", batch_cfg.tasks_per_batch);
  j.field("files_per_task", batch_cfg.files_per_task);
  j.field("zipf_s", batch_cfg.zipf_s, 2);
  j.field("smoke", smoke);
  j.end_object();
  j.field("peak_rss_mb", bench::peak_rss_mb(), 1);
  j.begin_array("results");
  for (const ServiceRow& r : rows) {
    j.begin_object();
    j.field("scheduler", r.scheduler);
    j.field("arrival_rate", r.rate, 4);
    j.field("mode", mode_name(r.one_loop));
    j.field("batches_served", r.served);
    j.field("mean_queue_wait_seconds", r.mean_queue_wait);
    j.field("mean_response_seconds", r.mean_response);
    j.field("max_response_seconds", r.max_response);
    j.field("total_planning_seconds", r.planning_seconds);
    j.field("completion_seconds", r.completion_seconds);
    j.field("cache_hit_bytes", r.cache_hit_bytes, 0);
    j.field("remote_bytes", r.remote_bytes, 0);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("\nwrote %s (%zu rows)\n", out_path, rows.size());

  if (!acceptance_ok) {
    std::fprintf(stderr,
                 "service_throughput: one-loop vs fresh-engine ablation "
                 "failed the cross-batch reuse contract\n");
    return 1;
  }
  return 0;
}
