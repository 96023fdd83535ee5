// Fault tolerance: makespan degradation of the four schedulers as the
// injected failure rate grows, plus the speculation crossover. Four
// sweeps on the IMAGE workload:
//
//  1. transient transfer-failure probability 0 -> 0.3 (retries with
//     capped exponential backoff),
//  2. number of compute-node crashes 0 -> 3 (caches lost, orphaned tasks
//     re-scheduled on the survivors),
//  3. a storage-node outage window of growing length,
//  4. a degraded (slowed, not dead) compute node of growing severity,
//     retry-only vs speculative task replication — the sweep that locates
//     the crossover where duplicating stragglers beats waiting them out.
//
// Every sweep reports the makespan relative to the fault-free run of the
// same scheduler, the recovery counters, and the per-task completion-time
// tail (p50 / p95 / p99). All faults replay from one seed, so rows are
// reproducible. Results land in BENCH_faults.json.
//
//   fault_tolerance [--smoke] [--out <path>]
//
// --smoke shrinks every grid for CI. Exit is non-zero if, at the most
// severe point of sweep 4, speculation fails to strictly improve p99 over
// retry-only for any swept scheduler.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/faults.h"
#include "util/stats.h"

namespace {

using namespace bsio;

sched::IpSchedulerOptions tuned_ip() {
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  // Keep the IP solves bounded; the heuristic incumbent keeps quality sane.
  ip.selection_mip.time_limit_seconds = 2.0;
  ip.allocation_mip.time_limit_seconds = 4.0;
  ip.max_subbatch_tasks = 40;
  return ip;
}

struct Tail {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Tail tail_of(const sched::BatchRunResult& r) {
  Tail t;
  t.p50 = percentile(r.task_completion_times, 50.0);
  t.p95 = percentile(r.task_completion_times, 95.0);
  t.p99 = percentile(r.task_completion_times, 99.0);
  return t;
}

// One JSON row shared by the three fault sweeps.
struct FaultRow {
  std::string sweep;
  std::string algorithm;
  double param = 0.0;  // prob / crashes / outage seconds
  double makespan = 0.0;
  double vs_fault_free = 0.0;
  std::size_t retries = 0;
  std::size_t reexecutions = 0;
  double recovery_seconds = 0.0;
  Tail tail;
};

// One (severity, scheduler, mode) cell of the speculation crossover.
struct CrossRow {
  std::string algorithm;
  double slowdown = 0.0;
  bool speculative = false;
  double makespan = 0.0;
  Tail tail;
  std::size_t launches = 0;
  std::size_t wins = 0;
  std::size_t cancels = 0;
  double wasted_fraction = 0.0;  // wasted compute / total compute capacity
};

void write_json(const char* path, bool smoke,
                const std::vector<FaultRow>& fault_rows,
                const std::vector<CrossRow>& cross_rows) {
  bench::JsonWriter j(path);
  j.begin_object();
  j.field("bench", "fault_tolerance");
  j.begin_object("config");
  j.field("workload", "IMAGE overlap=0.85 tasks=60");
  j.field("cluster", "4 compute + 4 XIO storage");
  j.field("smoke", smoke);
  j.end_object();
  j.begin_array("fault_sweeps");
  for (const FaultRow& r : fault_rows) {
    j.begin_object();
    j.field("sweep", r.sweep);
    j.field("algorithm", r.algorithm);
    j.field("param", r.param, 2);
    j.field("makespan_seconds", r.makespan, 2);
    j.field("vs_fault_free", r.vs_fault_free, 3);
    j.field("transfer_retries", r.retries);
    j.field("task_reexecutions", r.reexecutions);
    j.field("recovery_seconds", r.recovery_seconds, 2);
    j.field("p50_completion_seconds", r.tail.p50, 2);
    j.field("p95_completion_seconds", r.tail.p95, 2);
    j.field("p99_completion_seconds", r.tail.p99, 2);
    j.end_object();
  }
  j.end_array();
  j.begin_array("speculation_crossover");
  for (const CrossRow& r : cross_rows) {
    j.begin_object();
    j.field("algorithm", r.algorithm);
    j.field("slowdown_factor", r.slowdown, 1);
    j.field("mode", r.speculative ? "speculative" : "retry-only");
    j.field("makespan_seconds", r.makespan, 2);
    j.field("p50_completion_seconds", r.tail.p50, 2);
    j.field("p95_completion_seconds", r.tail.p95, 2);
    j.field("p99_completion_seconds", r.tail.p99, 2);
    j.field("speculative_launches", r.launches);
    j.field("speculative_wins", r.wins);
    j.field("speculative_cancels", r.cancels);
    j.field("wasted_fraction", r.wasted_fraction, 4);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bsio::bench;

  ParseArgs args(argc, argv, "fault_tolerance [--smoke] [--out <path>]");
  const bool smoke = args.has("--smoke");
  const char* out_path = args.value("--out", "BENCH_faults.json");
  args.reject_unknown();

  banner("Fault tolerance — makespan degradation under injected failures",
         "4 compute + 4 XIO storage nodes, 60-task IMAGE batch, seeded "
         "fault injection (transfer failures / node crashes / storage "
         "outages / degraded nodes)",
         "schedulers that replicate aggressively (IP, BiPartition) lose "
         "less to storage outages; crash recovery costs grow with the "
         "share of work on the dead nodes; under a degraded node, "
         "speculative duplicates cut the p99 completion tail at the cost "
         "of some wasted work");

  const wl::Workload w = image_workload(0.85, /*tasks=*/60);
  const sim::ClusterConfig cluster = sim::xio_cluster(4, 4);
  const std::vector<SchedulerFactory> schedulers = paper_schedulers(tuned_ip());

  std::vector<FaultRow> fault_rows;
  std::vector<CrossRow> cross_rows;

  // Fault-free reference makespans.
  std::vector<double> reference;
  for (const SchedulerFactory& make : schedulers)
    reference.push_back(sched::run_batch(*make(), w, cluster).batch_time);

  // --- Sweep 1: transient transfer failures. ---
  {
    Table t({"failure prob", "algorithm", "makespan (s)", "vs fault-free",
             "retries", "recovery (s)", "p50", "p95", "p99"});
    const std::vector<double> probs =
        smoke ? std::vector<double>{0.0, 0.1}
              : std::vector<double>{0.0, 0.05, 0.1, 0.2, 0.3};
    for (double prob : probs) {
      std::size_t i = 0;
      for (const SchedulerFactory& make : schedulers) {
        sim::FaultConfig faults;
        faults.transfer_failure_prob = prob;
        auto r = sched::run_batch(*make(), w, cluster, faults);
        const Tail tail = tail_of(r);
        t.add_row({format_fixed(prob, 2), r.scheduler,
                   format_fixed(r.batch_time, 1),
                   format_fixed(r.batch_time / reference[i], 2) + "x",
                   std::to_string(r.stats.transfer_retries),
                   format_fixed(r.stats.recovery_seconds, 1),
                   format_fixed(tail.p50, 1), format_fixed(tail.p95, 1),
                   format_fixed(tail.p99, 1)});
        fault_rows.push_back({"transfer_failures", r.scheduler,
                              prob, r.batch_time, r.batch_time / reference[i],
                              r.stats.transfer_retries,
                              r.stats.task_reexecutions,
                              r.stats.recovery_seconds, tail});
        std::fprintf(stderr, "  [flaky p=%.2f %s] %.1fs (%zu retries)%s\n",
                     prob, r.scheduler.c_str(), r.batch_time,
                     r.stats.transfer_retries,
                     r.ok() ? "" : " FAILED");
        ++i;
      }
    }
    t.print("Sweep 1: transient transfer failures (retry + capped backoff)");
  }

  // --- Sweep 2: compute-node crashes. ---
  {
    Table t({"crashes", "algorithm", "makespan (s)", "vs fault-free",
             "re-executed", "lost replica MB", "p99"});
    const std::vector<int> crash_counts =
        smoke ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 3};
    for (int crashes : crash_counts) {
      std::size_t i = 0;
      for (const SchedulerFactory& make : schedulers) {
        sim::FaultConfig faults;
        // Stagger the fail-stops at 30% / 50% / 70% of this scheduler's
        // fault-free makespan so each crash lands mid-run.
        for (int k = 0; k < crashes; ++k)
          faults.compute_crashes.push_back(
              {static_cast<wl::NodeId>(k), (0.3 + 0.2 * k) * reference[i]});
        auto r = sched::run_batch(*make(), w, cluster, faults);
        const Tail tail = tail_of(r);
        t.add_row({std::to_string(crashes), r.scheduler,
                   format_fixed(r.batch_time, 1),
                   format_fixed(r.batch_time / reference[i], 2) + "x",
                   std::to_string(r.stats.task_reexecutions),
                   format_fixed(r.stats.lost_replica_bytes / sim::kMB, 0),
                   format_fixed(tail.p99, 1)});
        fault_rows.push_back({"compute_crashes", r.scheduler,
                              static_cast<double>(crashes), r.batch_time,
                              r.batch_time / reference[i],
                              r.stats.transfer_retries,
                              r.stats.task_reexecutions,
                              r.stats.recovery_seconds, tail});
        std::fprintf(stderr, "  [crashes=%d %s] %.1fs (%zu re-exec)%s\n",
                     crashes, r.scheduler.c_str(), r.batch_time,
                     r.stats.task_reexecutions, r.ok() ? "" : " FAILED");
        ++i;
      }
    }
    t.print("Sweep 2: compute-node crashes (re-schedule on survivors)");
  }

  // --- Sweep 3: storage outage window. ---
  {
    Table t({"outage (s)", "algorithm", "makespan (s)", "vs fault-free",
             "p99"});
    const std::vector<double> lengths =
        smoke ? std::vector<double>{0.0, 60.0}
              : std::vector<double>{0.0, 20.0, 60.0, 120.0};
    for (double len : lengths) {
      std::size_t i = 0;
      for (const SchedulerFactory& make : schedulers) {
        sim::FaultConfig faults;
        if (len > 0.0) faults.storage_outages = {{0, 5.0, 5.0 + len}};
        auto r = sched::run_batch(*make(), w, cluster, faults);
        const Tail tail = tail_of(r);
        t.add_row({format_fixed(len, 0), r.scheduler,
                   format_fixed(r.batch_time, 1),
                   format_fixed(r.batch_time / reference[i], 2) + "x",
                   format_fixed(tail.p99, 1)});
        fault_rows.push_back({"storage_outage", r.scheduler, len,
                              r.batch_time, r.batch_time / reference[i],
                              r.stats.transfer_retries,
                              r.stats.task_reexecutions,
                              r.stats.recovery_seconds, tail});
        std::fprintf(stderr, "  [outage=%.0fs %s] %.1fs%s\n", len,
                     r.scheduler.c_str(), r.batch_time,
                     r.ok() ? "" : " FAILED");
        ++i;
      }
    }
    t.print("Sweep 3: storage-node outage (degraded replica sourcing)");
  }

  // --- Sweep 4: degraded compute node, retry-only vs speculation. ---
  // Node 0 runs at 1/factor speed for the whole batch; the planners are
  // blind to it, so every task placed there becomes a straggler. The
  // speculative runs duplicate stragglers onto faster nodes with
  // first-finish-wins cancellation. The crossover: at factor 1 speculation
  // only wastes work, at high factors it pulls the p99 tail in.
  bool crossover_holds = true;
  {
    Table t({"slowdown", "algorithm", "mode", "makespan (s)", "p50", "p99",
             "dup/win/cxl", "wasted frac"});
    const std::vector<double> factors =
        smoke ? std::vector<double>{1.0, 8.0}
              : std::vector<double>{1.0, 2.0, 4.0, 8.0};
    const std::vector<SchedulerFactory> cross_schedulers = {
        factory_of<sched::MinMinScheduler>(),
        factory_of<sched::BiPartitionScheduler>()};
    const double most_severe = factors.back();
    for (double factor : factors) {
      for (const SchedulerFactory& make : cross_schedulers) {
        double retry_p99 = 0.0;
        for (bool speculative : {false, true}) {
          sched::BatchRunOptions opts;
          if (factor > 1.0)
            opts.faults.compute_slowdowns = {{0, 0.0,
                                              std::numeric_limits<double>::
                                                  infinity(),
                                              factor}};
          if (speculative) {
            opts.speculation.enabled = true;
            opts.speculation.straggler_ratio = 1.5;
            opts.speculation.min_cached_inputs = 0;
          }
          auto r = sched::run_batch(*make(), w, cluster, opts);
          CrossRow row;
          row.algorithm = r.scheduler;
          row.slowdown = factor;
          row.speculative = speculative;
          row.makespan = r.batch_time;
          row.tail = tail_of(r);
          row.launches = r.stats.speculative_launches;
          row.wins = r.stats.speculative_wins;
          row.cancels = r.stats.speculative_cancels;
          // Wasted compute as a share of the whole cluster-time envelope.
          const double envelope =
              r.batch_time *
              static_cast<double>(cluster.num_compute_nodes);
          row.wasted_fraction =
              envelope > 0.0 ? r.stats.wasted_seconds / envelope : 0.0;
          t.add_row({format_fixed(factor, 1), row.algorithm,
                     speculative ? "speculative" : "retry-only",
                     format_fixed(row.makespan, 1),
                     format_fixed(row.tail.p50, 1),
                     format_fixed(row.tail.p99, 1),
                     std::to_string(row.launches) + "/" +
                         std::to_string(row.wins) + "/" +
                         std::to_string(row.cancels),
                     format_fixed(row.wasted_fraction, 3)});
          std::fprintf(stderr,
                       "  [slow x%.0f %s %s] %.1fs p99=%.1fs (%zu dup)\n",
                       factor, row.algorithm.c_str(),
                       speculative ? "spec" : "retry", row.makespan,
                       row.tail.p99, row.launches);
          if (!speculative) {
            retry_p99 = row.tail.p99;
          } else if (factor == most_severe && row.tail.p99 >= retry_p99) {
            std::fprintf(stderr,
                         "fault_tolerance: speculation did not improve p99 "
                         "for %s at slowdown x%.0f (%.2fs vs %.2fs)\n",
                         row.algorithm.c_str(), factor, row.tail.p99,
                         retry_p99);
            crossover_holds = false;
          }
          cross_rows.push_back(std::move(row));
        }
      }
    }
    t.print("Sweep 4: degraded node — retry-only vs speculative duplicates");
  }

  write_json(out_path, smoke, fault_rows, cross_rows);
  std::printf("wrote %s (%zu + %zu rows)\n", out_path, fault_rows.size(),
              cross_rows.size());
  return crossover_holds ? 0 : 1;
}
