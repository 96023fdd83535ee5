// Satellite data processing scenario (the paper's SAT application).
//
// Scientists submit spatio-temporal window queries against 20 days of
// remotely-sensed data (50 MB chunk files, Hilbert-declustered over the
// storage nodes). Queries cluster around hot-spot regions, so tasks share
// files heavily. This example builds the calibrated high-overlap workload,
// then shows how the BiPartition scheduler exploits the sharing compared
// with scheduling each query where it completes earliest (MinMin).
//
//   $ ./satellite_analysis [overlap%]     (default 85)

#include <cstdio>

#include "args.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/minmin.h"
#include "util/table.h"
#include "workload/sat.h"
#include "workload/stats.h"

int main(int argc, char** argv) {
  using namespace bsio;

  const char* usage = "satellite_analysis [overlap%]";
  if (argc > 2) examples::usage_exit(usage);
  const double overlap =
      argc > 1 ? examples::overlap_arg(argv[1], usage) : 0.85;

  wl::SatConfig cfg;
  cfg.num_tasks = 100;
  cfg.num_storage_nodes = 4;
  if (overlap < 0.5) cfg.files_per_task = 14;  // the paper's med/low setting

  std::printf("calibrating SAT workload to %.0f%% file overlap...\n",
              overlap * 100.0);
  wl::CalibrationResult cal = wl::make_sat_calibrated(cfg, overlap);
  wl::WorkloadStats s = wl::measure(cal.workload);
  std::printf("  achieved %.0f%% overlap, %zu distinct chunk files (%s), "
              "%.1f files/task\n",
              s.overlap * 100.0, s.num_requested_files,
              format_bytes(s.unique_bytes).c_str(), s.avg_files_per_task);

  sim::ClusterConfig cluster = sim::xio_cluster(4, 4);

  auto report = [&](sched::Scheduler& scheduler) {
    const sched::BatchRunResult r =
        sched::run_batch(scheduler, cal.workload, cluster);
    std::printf("\n%-12s batch time %-9s  remote %zux (%s)  replicas %zux\n",
                r.scheduler.c_str(), format_seconds(r.batch_time).c_str(),
                r.stats.remote_transfers,
                format_bytes(r.stats.remote_bytes).c_str(),
                r.stats.replications);
  };
  sched::BiPartitionScheduler bipartition;
  report(bipartition);
  sched::MinMinScheduler minmin;
  report(minmin);
  std::printf("\nBiPartition clusters queries that share chunks onto the "
              "same node, so\neach hot chunk crosses the storage network "
              "once instead of once per node.\n");
  return 0;
}
