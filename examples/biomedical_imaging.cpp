// Biomedical image analysis scenario (the paper's IMAGE application).
//
// A researcher sweeps an image-quantification method over follow-up MRI/CT
// studies of a patient cohort. The dataset lives on a slow departmental
// storage cluster behind a shared 100 Mbps uplink (the paper's OSUMED
// system), so how the batch is scheduled — and how aggressively popular
// studies are replicated inside the compute cluster — dominates turnaround
// time. Demonstrates the limited-disk path: per-node disk caches smaller
// than the working set force sub-batching and eviction.
//
//   $ ./biomedical_imaging [num_tasks]    (default 120)

#include <cstdio>

#include "args.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/job_data_present.h"
#include "util/table.h"
#include "workload/image.h"
#include "workload/stats.h"

int main(int argc, char** argv) {
  using namespace bsio;

  const char* usage = "biomedical_imaging [num_tasks]";
  if (argc > 2) examples::usage_exit(usage);
  const std::size_t num_tasks =
      argc > 1 ? examples::count_arg(argv[1], usage) : 120;

  wl::ImageConfig cfg;
  cfg.num_tasks = num_tasks;
  cfg.num_storage_nodes = 4;
  std::printf("calibrating IMAGE workload (%zu analysis tasks, target 85%% "
              "study overlap)...\n",
              num_tasks);
  wl::CalibrationResult cal = wl::make_image_calibrated(cfg, 0.85);
  wl::WorkloadStats s = wl::measure(cal.workload);
  std::printf("  %zu image files requested (%s), overlap %.0f%%\n",
              s.num_requested_files, format_bytes(s.unique_bytes).c_str(),
              s.overlap * 100.0);

  sim::ClusterConfig cluster = sim::osumed_cluster(4, 4);
  // Make the disk caches tight: each node holds ~40% of the working set.
  cluster.disk_capacity = s.unique_bytes * 0.4;
  std::printf("  per-node disk cache: %s\n",
              format_bytes(cluster.disk_capacity).c_str());

  auto report = [&](sched::Scheduler& scheduler) {
    const sched::BatchRunResult r =
        sched::run_batch(scheduler, cal.workload, cluster);
    std::printf("\n%-14s batch %-9s sub-batches %zu evictions %zu "
                "restages %zu\n",
                r.scheduler.c_str(), format_seconds(r.batch_time).c_str(),
                r.sub_batches, r.stats.evictions, r.stats.restages);
  };
  sched::BiPartitionScheduler bipartition;
  report(bipartition);
  sched::JobDataPresentScheduler job_data_present;
  report(job_data_present);
  std::printf("\nBINW sub-batch selection keeps each wave of tasks inside "
              "the aggregate\ncache, so files are evicted between waves "
              "rather than thrashing within one.\n");
  return 0;
}
