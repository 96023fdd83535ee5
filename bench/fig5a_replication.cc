// Figure 5(a): benefit of compute-node-to-compute-node replication over no
// replication. 8 OSC compute nodes + 4 OSUMED storage nodes, 100-task high
// overlap batches of both applications.

#include "bench_common.h"

int main() {
  using namespace bsio;
  using namespace bsio::bench;

  banner("Fig 5(a) — replication vs no replication",
         "8 compute + 4 OSUMED storage nodes, 100-task high-overlap batches",
         "replication clearly wins: replicas add transfer sources inside "
         "the compute cluster and bypass the congested shared uplink");

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 8.0;
  const std::vector<SchedulerFactory> schedulers = {
      factory_of<sched::IpScheduler>(ip),
      factory_of<sched::BiPartitionScheduler>()};

  Table t({"application", "algorithm", "with replication (s)",
           "no replication (s)", "speedup"});
  for (const char* app : {"IMAGE", "SAT"}) {
    wl::Workload w = app == std::string("IMAGE") ? image_workload(0.85)
                                                 : sat_workload(0.85);
    for (const SchedulerFactory& make : schedulers) {
      sim::ClusterConfig on = sim::osumed_cluster(8, 4);
      sim::ClusterConfig off = on;
      off.allow_replication = false;
      const sched::BatchRunResult r_on = sched::run_batch(*make(), w, on);
      const double t_on = r_on.batch_time;
      const double t_off = sched::run_batch(*make(), w, off).batch_time;
      t.add_row({app, r_on.scheduler, format_fixed(t_on, 1),
                 format_fixed(t_off, 1), format_fixed(t_off / t_on, 2)});
      std::fprintf(stderr, "  [%s/%s] repl=%.1fs norepl=%.1fs\n", app,
                   r_on.scheduler.c_str(), t_on, t_off);
    }
  }
  t.print("Fig 5(a) replication benefit");
  return 0;
}
