// Figure 3: batch execution time of the four schemes on the IMAGE
// application, (a) OSUMED storage cluster and (b) XIO storage cluster.
// 4 compute + 4 storage nodes, 100-task batches at high (85%), medium
// (40%) and low (0%) file overlap.

#include "bench_common.h"

int main() {
  using namespace bsio;
  using namespace bsio::bench;

  banner("Fig 3 — IMAGE batch execution time",
         "4 compute + 4 storage nodes, 100 tasks, overlap in {85, 40, 0}%",
         "IP <= BiPartition < JobDataPresent <= MinMin; the gap is largest "
         "at high overlap and shrinks as overlap falls; on the shared-uplink "
         "OSUMED system low-overlap times converge to the uplink bound");

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 8.0;
  const std::vector<SchedulerFactory> schedulers = paper_schedulers(ip);

  for (bool osumed : {true, false}) {
    std::vector<ExperimentCase> cases;
    for (double ov : {0.85, 0.40, 0.0}) {
      cases.push_back({overlap_label(ov), image_workload(ov),
                       osumed ? sim::osumed_cluster(4, 4)
                              : sim::xio_cluster(4, 4)});
    }
    auto results = run_experiment(cases, schedulers);
    const char* sys = osumed ? "(a) OSUMED storage" : "(b) XIO storage";
    batch_time_table(results).print(std::string("Fig 3") + sys);
    transfer_table(results).print(std::string("Fig 3") + sys +
                                  " — data movement");
  }
  return 0;
}
