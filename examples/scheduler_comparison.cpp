// Side-by-side comparison of all four scheduling schemes on one workload —
// a miniature of the paper's Figure 3 experiment, run through the figure
// benches' experiment runner (bench/bench_common.h), handy for exploring
// how the algorithms respond to overlap, cluster choice and replication.
//
//   $ ./scheduler_comparison [overlap%] [xio|osumed] [tasks]
//   $ ./scheduler_comparison 85 xio 100

#include <cstdio>
#include <cstring>

#include "args.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace bsio;

  const char* usage = "scheduler_comparison [overlap%] [xio|osumed] [tasks]";
  if (argc > 4) examples::usage_exit(usage);
  const double overlap =
      argc > 1 ? examples::overlap_arg(argv[1], usage) : 0.85;
  bool osumed = false;
  if (argc > 2) {
    osumed = std::strcmp(argv[2], "osumed") == 0;
    if (!osumed && std::strcmp(argv[2], "xio") != 0)
      examples::usage_exit(usage);
  }
  const std::size_t tasks =
      argc > 3 ? examples::count_arg(argv[3], usage) : 100;

  wl::ImageConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_storage_nodes = 4;
  wl::CalibrationResult cal = wl::make_image_calibrated(cfg, overlap);

  bench::ExperimentCase cs{
      "IMAGE " + std::to_string(static_cast<int>(overlap * 100)) + "% on " +
          (osumed ? "OSUMED" : "XIO"),
      cal.workload,
      osumed ? sim::osumed_cluster(4, 4) : sim::xio_cluster(4, 4)};

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 10.0;
  auto results = bench::run_experiment({cs}, bench::paper_schedulers(ip));

  bench::batch_time_table(results).print("batch execution time");
  bench::overhead_table(results).print("scheduling overhead");
  bench::transfer_table(results).print("data movement");
  return 0;
}
