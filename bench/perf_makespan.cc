// Planning-performance harness for the parallel scheduling core.
//
// Times every scheduler's planning loop across batch sizes and thread
// counts on a synthetic overlap-controlled workload, verifies that the
// resulting plans are bit-identical to the single-thread run (the pool's
// determinism contract), and emits BENCH_sched.json — the repo's perf
// trajectory record: planning wall-time, simulated makespan, and speedup
// vs 1 thread per (scheduler, batch size, thread count) cell.
//
// A second sweep re-runs the four paper schedulers on increasingly
// heterogeneous clusters (sim::make_skewed_cluster: log-uniform disk / NIC /
// CPU skew around the homogeneous baseline) and records per-skew makespans
// in the same JSON, so scheduler robustness to hardware imbalance is part
// of the perf trajectory.
//
//   perf_makespan [--smoke] [--out <path>] [--max-ip-seconds <s>]
//                 [--min-speedup <x>] [--threads <t1,t2,...>]
//
// --smoke shrinks the grid for CI (small batches, 1-2 threads).
// --threads overrides the thread grid (first entry is the speedup
// baseline); --min-speedup fails the run unless MinMin-exact at 512 tasks
// reaches that planning speedup at the grid's highest thread count, and
// fails it when the grid has no such row.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace {

using namespace bsio;

struct Row {
  std::string scheduler;
  std::size_t tasks = 0;
  std::size_t nodes = 0;
  std::size_t threads = 0;
  double planning_seconds = 0.0;
  double makespan_seconds = 0.0;
  double speedup_vs_1t = 0.0;
  std::uint64_t plan_hash = 0;  // outcome fingerprint (see plan_hash())
  bool bit_identical = true;    // plan outcome matches the 1-thread run
  // Solver kernel counters (IP rows only; zero for the heuristics).
  long lp_factorizations = 0;
  long lp_fill_nnz = 0;
  long lp_pivots = 0;
  long lp_bound_flips = 0;
  long lp_degenerate_pivots = 0;
  long mip_nodes = 0;
};

// One cell of the heterogeneity sweep.
struct HeteroRow {
  std::string scheduler;
  double skew = 0.0;
  std::size_t tasks = 0;
  double planning_seconds = 0.0;
  double makespan_seconds = 0.0;
  double vs_homogeneous = 0.0;  // makespan / the same scheduler's skew-0 run
};

struct SchedulerSpec {
  std::string label;
  // IP solves are only affordable on small instances; cap the batch size.
  std::size_t max_tasks;
  std::unique_ptr<sched::Scheduler> (*make)();
};

std::unique_ptr<sched::Scheduler> make_minmin_exact() {
  // Threshold above any bench size: always the exact O(T^2 N F) path.
  return std::make_unique<sched::MinMinScheduler>(1u << 20);
}
std::unique_ptr<sched::Scheduler> make_minmin_lazy() {
  return std::make_unique<sched::MinMinScheduler>(0);  // always lazy
}
std::unique_ptr<sched::Scheduler> make_jdp() {
  return std::make_unique<sched::JobDataPresentScheduler>();
}
std::unique_ptr<sched::Scheduler> make_bipartition() {
  return std::make_unique<sched::BiPartitionScheduler>();
}

// FNV-1a fingerprint of the simulated outcome: the makespan's bit pattern,
// every task completion instant's bit pattern, and the transfer counters.
// Bit-identical plans hash equal on any host, so CI can compare the
// 1-thread and multi-thread runs by one number.
std::uint64_t plan_hash(const sched::BatchRunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&](double d) {
    std::uint64_t v;
    std::memcpy(&v, &d, sizeof v);
    mix(v);
  };
  mix_double(r.batch_time);
  mix(r.stats.remote_transfers);
  mix(r.stats.replications);
  mix(r.stats.evictions);
  mix(static_cast<std::uint64_t>(r.task_completion_times.size()));
  for (double t : r.task_completion_times) mix_double(t);
  return h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

wl::Workload bench_workload(std::size_t tasks, std::size_t storage_nodes) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = 8;
  cfg.overlap = 0.85;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.num_storage_nodes = storage_nodes;
  cfg.seed = 7;
  return wl::make_synthetic(cfg);
}

sim::ClusterConfig bench_cluster(std::size_t compute_nodes,
                                 std::size_t storage_nodes) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = storage_nodes;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

void write_json(const char* path, const std::vector<Row>& rows,
                const std::vector<HeteroRow>& hetero_rows,
                std::size_t compute_nodes, bool smoke) {
  bench::JsonWriter j(path);
  j.begin_object();
  j.field("bench", "perf_makespan");
  j.begin_object("config");
  j.field("workload", "synthetic overlap=0.85 files_per_task=8 seed=7");
  j.field("compute_nodes", compute_nodes);
  // Speedups are bounded by the host: a 1-core machine shows ~1x at every
  // thread count (plus dispatch overhead), while plans stay bit-identical.
  j.field("host_cpus", std::thread::hardware_concurrency());
  j.field("smoke", smoke);
  j.end_object();
  j.field("peak_rss_mb", bench::peak_rss_mb(), 1);
  j.begin_array("results");
  for (const Row& r : rows) {
    j.begin_object();
    j.field("scheduler", r.scheduler);
    j.field("tasks", r.tasks);
    j.field("nodes", r.nodes);
    j.field("threads", r.threads);
    j.field("planning_seconds", r.planning_seconds);
    j.field("makespan_seconds", r.makespan_seconds);
    j.field("speedup_vs_1t", r.speedup_vs_1t, 3);
    j.field("plan_hash", hash_hex(r.plan_hash));
    j.field("bit_identical", r.bit_identical);
    if (r.scheduler == "IP") {
      j.field("lp_factorizations", r.lp_factorizations);
      j.field("lp_fill_nnz", r.lp_fill_nnz);
      j.field("lp_pivots", r.lp_pivots);
      j.field("lp_bound_flips", r.lp_bound_flips);
      j.field("lp_degenerate_pivots", r.lp_degenerate_pivots);
      j.field("mip_nodes", r.mip_nodes);
    }
    j.end_object();
  }
  j.end_array();
  j.begin_array("hetero_results");
  for (const HeteroRow& r : hetero_rows) {
    j.begin_object();
    j.field("scheduler", r.scheduler);
    j.field("skew", r.skew, 2);
    j.field("tasks", r.tasks);
    j.field("planning_seconds", r.planning_seconds);
    j.field("makespan_seconds", r.makespan_seconds);
    j.field("vs_homogeneous", r.vs_homogeneous, 4);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs args(
      argc, argv,
      "perf_makespan [--smoke] [--out <path>] [--max-ip-seconds <s>] "
      "[--min-speedup <x>] [--threads <t1,t2,...>]");
  const bool smoke = args.has("--smoke");
  const char* out_path = args.value("--out", "BENCH_sched.json");
  const double max_ip_seconds =
      args.number("--max-ip-seconds", 0.0);  // 0 = no ceiling
  // Require the gate cell (below) to reach this planning speedup (0 =
  // don't check). CI's multi-core smoke passes 1.2; single-core hosts
  // should leave it off — there is no parallelism to win.
  const double min_speedup = args.number("--min-speedup", 0.0);
  const std::vector<std::size_t> default_threads =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  // The first entry is the speedup baseline.
  const std::vector<std::size_t> threads =
      args.thread_list("--threads", default_threads);
  args.reject_unknown();

  const std::size_t compute_nodes = smoke ? 8 : 32;
  const std::size_t storage_nodes = 4;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{32, 64}
            : std::vector<std::size_t>{64, 128, 256, 512};

  const std::vector<SchedulerSpec> specs = {
      {"MinMin-exact", static_cast<std::size_t>(-1), &make_minmin_exact},
      {"MinMin-lazy", static_cast<std::size_t>(-1), &make_minmin_lazy},
      {"JobDataPresent", static_cast<std::size_t>(-1), &make_jdp},
      {"BiPartition", static_cast<std::size_t>(-1), &make_bipartition},
      {"IP", 256, &bench::make_ip},
  };

  const sim::ClusterConfig cluster =
      bench_cluster(compute_nodes, storage_nodes);

  std::printf("perf_makespan: %zu compute nodes, thread sweep {",
              compute_nodes);
  for (std::size_t t : threads) std::printf(" %zu", t);
  std::printf(" }%s\n\n", smoke ? " (smoke)" : "");
  std::printf("%-16s %6s %8s %12s %12s %8s %5s\n", "scheduler", "tasks",
              "threads", "plan [s]", "makespan [s]", "speedup", "same");

  std::vector<Row> rows;
  for (const auto& spec : specs) {
    for (std::size_t tasks : sizes) {
      if (tasks > spec.max_tasks) continue;
      const wl::Workload w = bench_workload(tasks, storage_nodes);
      double base_planning = 0.0;
      std::uint64_t base_hash = 0;
      for (std::size_t t : threads) {
        WsRuntime::set_global_threads(t);
        auto scheduler = spec.make();
        const sched::BatchRunResult r =
            sched::run_batch(*scheduler, w, cluster);
        if (!r.ok()) {
          std::fprintf(stderr, "perf_makespan: %s failed: %s\n",
                       spec.label.c_str(), r.error.c_str());
          return 1;
        }
        Row row;
        row.scheduler = spec.label;
        row.tasks = tasks;
        row.nodes = compute_nodes;
        row.threads = t;
        row.planning_seconds = r.scheduling_seconds;
        row.makespan_seconds = r.batch_time;
        row.lp_factorizations = r.stats.lp_factorizations;
        row.lp_fill_nnz = r.stats.lp_factor_fill_nnz;
        row.lp_pivots = r.stats.lp_pivots;
        row.lp_bound_flips = r.stats.lp_bound_flips;
        row.lp_degenerate_pivots = r.stats.lp_degenerate_pivots;
        row.mip_nodes = r.stats.mip_nodes;
        row.plan_hash = plan_hash(r);
        if (t == threads.front()) {
          base_planning = r.scheduling_seconds;
          base_hash = row.plan_hash;
        }
        row.speedup_vs_1t =
            r.scheduling_seconds > 0.0 ? base_planning / r.scheduling_seconds
                                       : 1.0;
        // The determinism contract: same plans => the same outcome
        // fingerprint (makespan bits, every completion instant, transfer
        // counters) at every thread count.
        row.bit_identical = row.plan_hash == base_hash;
        std::printf("%-16s %6zu %8zu %12.4f %12.2f %7.2fx %5s\n",
                    row.scheduler.c_str(), row.tasks, row.threads,
                    row.planning_seconds, row.makespan_seconds,
                    row.speedup_vs_1t, row.bit_identical ? "yes" : "NO");
        std::fflush(stdout);
        rows.push_back(std::move(row));
      }
    }
  }

  // ---- Heterogeneity sweep: same workload, increasingly skewed hardware.
  // Every scheduler plans through sim::Topology, so skewed disk / NIC / CPU
  // rates change both the plans and the simulated outcome; the homogeneous
  // (skew 0) cell doubles as a bit-identity anchor against the main grid.
  WsRuntime::set_global_threads(1);
  const std::size_t hetero_tasks = smoke ? 64 : 256;
  const wl::Workload hw = bench_workload(hetero_tasks, storage_nodes);
  const std::vector<double> skews =
      smoke ? std::vector<double>{0.0, 0.5, 1.0}
            : std::vector<double>{0.0, 0.25, 0.5, 1.0, 2.0};
  const std::vector<SchedulerSpec> hetero_specs = {
      {"MinMin", static_cast<std::size_t>(-1), &make_minmin_exact},
      {"JobDataPresent", static_cast<std::size_t>(-1), &make_jdp},
      {"BiPartition", static_cast<std::size_t>(-1), &make_bipartition},
      {"IP", static_cast<std::size_t>(-1), &bench::make_ip},
  };

  std::printf("\nheterogeneity sweep: %zu tasks, skews {", hetero_tasks);
  for (double sk : skews) std::printf(" %.2f", sk);
  std::printf(" }\n");
  std::printf("%-16s %6s %12s %12s %8s\n", "scheduler", "skew", "plan [s]",
              "makespan [s]", "vs-homog");

  std::vector<HeteroRow> hetero_rows;
  for (const auto& spec : hetero_specs) {
    double homog_makespan = 0.0;
    for (double sk : skews) {
      const sim::ClusterConfig hc =
          sim::make_skewed_cluster(cluster, sk, /*seed=*/5);
      auto scheduler = spec.make();
      const sched::BatchRunResult r = sched::run_batch(*scheduler, hw, hc);
      if (!r.ok()) {
        std::fprintf(stderr, "perf_makespan: hetero %s skew %.2f failed: %s\n",
                     spec.label.c_str(), sk, r.error.c_str());
        return 1;
      }
      HeteroRow row;
      row.scheduler = spec.label;
      row.skew = sk;
      row.tasks = hetero_tasks;
      row.planning_seconds = r.scheduling_seconds;
      row.makespan_seconds = r.batch_time;
      if (sk == 0.0) homog_makespan = r.batch_time;
      row.vs_homogeneous =
          homog_makespan > 0.0 ? r.batch_time / homog_makespan : 1.0;
      std::printf("%-16s %6.2f %12.4f %12.2f %7.3fx\n", row.scheduler.c_str(),
                  row.skew, row.planning_seconds, row.makespan_seconds,
                  row.vs_homogeneous);
      std::fflush(stdout);
      hetero_rows.push_back(std::move(row));
    }
  }

  write_json(out_path, rows, hetero_rows, compute_nodes, smoke);
  std::printf("\nwrote %s (%zu + %zu rows)\n", out_path, rows.size(),
              hetero_rows.size());

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.bit_identical;
  if (!all_identical) {
    std::fprintf(stderr,
                 "perf_makespan: plans diverged across thread counts!\n");
    return 1;
  }

  // CI multi-core gate on one named cell: MinMin-exact at 512 tasks plans
  // for over half a second on one thread, so its speedup is signal, while
  // the small cells plan in milliseconds and their speedups are timing
  // noise. Plans are already known identical from the hash check above, so
  // this certifies the win is free.
  if (min_speedup > 0.0) {
    const char* gate_scheduler = "MinMin-exact";
    const std::size_t gate_tasks = 512;
    const std::size_t top = *std::max_element(threads.begin(), threads.end());
    const Row* gate = nullptr;
    for (const Row& r : rows)
      if (r.scheduler == gate_scheduler && r.tasks == gate_tasks &&
          r.threads == top)
        gate = &r;
    if (gate == nullptr) {
      std::fprintf(stderr,
                   "perf_makespan: --min-speedup reads the %s %zu-task row "
                   "at %zu threads, which this grid does not have\n",
                   gate_scheduler, gate_tasks, top);
      return 1;
    }
    std::printf("%s %zu-task planning speedup at %zu threads: %.2fx\n",
                gate_scheduler, gate_tasks, top, gate->speedup_vs_1t);
    if (gate->speedup_vs_1t < min_speedup) {
      std::fprintf(stderr,
                   "perf_makespan: %s %zu-task speedup %.2fx is under the "
                   "--min-speedup floor of %.2fx\n",
                   gate_scheduler, gate_tasks, gate->speedup_vs_1t,
                   min_speedup);
      return 1;
    }
  }

  // CI perf smoke: the IP scheduler's planning loop must stay under the
  // given ceiling (guards against solver-kernel regressions).
  if (max_ip_seconds > 0.0) {
    for (const Row& r : rows)
      if (r.scheduler == "IP" && r.planning_seconds > max_ip_seconds) {
        std::fprintf(stderr,
                     "perf_makespan: IP planning at %zu tasks took %.3f s, "
                     "over the --max-ip-seconds ceiling of %.3f s\n",
                     r.tasks, r.planning_seconds, max_ip_seconds);
        return 1;
      }
  }
  return 0;
}
