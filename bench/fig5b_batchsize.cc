// Figure 5(b): batch execution time vs batch size under limited disk.
// 4 OSC compute nodes + 4 XIO storage nodes; high-overlap IMAGE batches of
// 500..4000 tasks; 40 GB disk per compute node. Aggregate data demand grows
// from ~40 GB (fits) to ~330 GB (double the 160 GB aggregate disk), so the
// base schemes start thrashing the caches. The IP scheme is excluded, as in
// the paper, because of its scheduling overhead at this scale.

#include "bench_common.h"

int main() {
  using namespace bsio;
  using namespace bsio::bench;

  banner("Fig 5(b) — batch execution time vs batch size",
         "4 compute (40 GB disk each) + 4 XIO storage, high-overlap IMAGE, "
         "500..4000 tasks",
         "all curves grow with batch size, but the base schemes grow faster "
         "once aggregate demand exceeds the 160 GB aggregate disk (more "
         "evictions/re-stages); BiPartition stays lowest");

  // CT-heavy studies reproduce the paper's aggregate demand: 8 x 64 MB
  // files per task -> ~40 GB unique at 500 tasks, ~330 GB at 4000.
  auto make_workload = [](std::size_t tasks) {
    wl::ImageConfig cfg;
    cfg.num_tasks = tasks;
    cfg.num_storage_nodes = 4;
    cfg.ct_per_study = 8;
    cfg.mri_per_study = 0;
    cfg.mri_window = 0;
    return wl::make_image_calibrated(cfg, 0.85).workload;
  };

  const std::vector<SchedulerFactory> schedulers = {
      factory_of<sched::BiPartitionScheduler>(),
      factory_of<sched::MinMinScheduler>(),
      factory_of<sched::JobDataPresentScheduler>()};

  std::vector<ExperimentCase> cases;
  for (std::size_t tasks : {500u, 1000u, 2000u, 4000u}) {
    wl::Workload w = make_workload(tasks);
    sim::ClusterConfig cluster = sim::xio_cluster(4, 4);
    cluster.disk_capacity = 40.0 * sim::kGB;
    char label[48];
    std::snprintf(label, sizeof(label), "%zu tasks (%s demand)", tasks,
                  format_bytes(w.unique_request_bytes()).c_str());
    cases.push_back({label, std::move(w), cluster});
  }
  auto results = run_experiment(cases, schedulers);
  batch_time_table(results).print("Fig 5(b)");
  transfer_table(results).print("Fig 5(b) — evictions and re-stages");
  return 0;
}
