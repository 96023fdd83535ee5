// Quickstart: schedule a small batch of data-intensive tasks on a coupled
// compute + storage cluster and print what happened.
//
//   $ ./quickstart
//
// The example builds a synthetic 40-task batch with 70% file overlap, runs
// the BiPartition scheduler (the paper's scalable scheme) on a 4+4 node
// XIO-like cluster, and reports the simulated batch execution time together
// with the transfer statistics.

#include <cstdio>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "util/table.h"
#include "workload/stats.h"
#include "workload/synthetic.h"

int main() {
  using namespace bsio;

  // 1. Describe the batch: 40 independent tasks, 6 input files each, 70%
  //    of file requests hitting already-requested files.
  wl::SyntheticConfig workload_cfg;
  workload_cfg.num_tasks = 40;
  workload_cfg.files_per_task = 6;
  workload_cfg.overlap = 0.70;
  workload_cfg.file_size_bytes = 64.0 * sim::kMB;
  workload_cfg.num_storage_nodes = 4;
  workload_cfg.seed = 2024;
  wl::Workload workload = wl::make_synthetic(workload_cfg);

  wl::WorkloadStats stats = wl::measure(workload);
  std::printf("batch: %zu tasks, %zu distinct files, %.0f%% overlap, %s\n",
              stats.num_tasks, stats.num_requested_files,
              stats.overlap * 100.0,
              format_bytes(stats.unique_bytes).c_str());

  // 2. Describe the cluster: 4 compute nodes next to 4 storage nodes
  //    (210 MB/s disks behind Infiniband — the paper's XIO system).
  sim::ClusterConfig cluster = sim::xio_cluster(/*compute_nodes=*/4,
                                                /*storage_nodes=*/4);

  // 3. Run the full pipeline: scheduling, file staging and simulated
  //    execution.
  sched::BiPartitionScheduler scheduler;
  sched::BatchRunResult result = sched::run_batch(scheduler, workload, cluster);

  std::printf("\nscheduler      : %s\n", result.scheduler.c_str());
  std::printf("batch time     : %s (simulated)\n",
              format_seconds(result.batch_time).c_str());
  std::printf("scheduling time: %s (wall clock)\n",
              format_seconds(result.scheduling_seconds).c_str());
  std::printf("remote transfer: %zu transfers, %s\n",
              result.stats.remote_transfers,
              format_bytes(result.stats.remote_bytes).c_str());
  std::printf("replication    : %zu copies, %s\n", result.stats.replications,
              format_bytes(result.stats.replica_bytes).c_str());
  std::printf("cache hits     : %zu\n", result.stats.cache_hits);
  return 0;
}
