// Figure 4: batch execution time of the four schemes on the SAT
// application, (a) OSUMED storage cluster and (b) XIO storage cluster.
// 4 compute + 4 storage nodes, 100-task batches; high overlap tasks read
// ~8 x 50 MB chunks, medium/low ~14.

#include "bench_common.h"

int main() {
  using namespace bsio;
  using namespace bsio::bench;

  banner("Fig 4 — SAT batch execution time",
         "4 compute + 4 storage nodes, 100 tasks, overlap in {85, 40, 10}%",
         "same ordering as Fig 3 (proposed schemes win, biggest margin at "
         "high overlap); absolute times larger than IMAGE because SAT moves "
         "50 MB chunks");

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 8.0;
  const std::vector<SchedulerFactory> schedulers = paper_schedulers(ip);

  for (bool osumed : {true, false}) {
    std::vector<ExperimentCase> cases;
    for (double ov : {0.85, 0.40, 0.10}) {
      cases.push_back({overlap_label(ov), sat_workload(ov),
                       osumed ? sim::osumed_cluster(4, 4)
                              : sim::xio_cluster(4, 4)});
    }
    auto results = run_experiment(cases, schedulers);
    const char* sys = osumed ? "(a) OSUMED storage" : "(b) XIO storage";
    batch_time_table(results).print(std::string("Fig 4") + sys);
    transfer_table(results).print(std::string("Fig 4") + sys +
                                  " — data movement");
  }
  return 0;
}
