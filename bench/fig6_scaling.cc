// Figure 6: scalability with the number of compute nodes.
//  (a) batch execution time of the four schemes, 1000 high-overlap IMAGE
//      tasks, 8 XIO storage nodes, 2..32 compute nodes;
//  (b) per-task scheduling time (ms) of the same runs.
//
// The IP scheme runs with its engineering cap (128-task slices, 5 s solver
// budget per stage) and is skipped beyond 8 compute nodes, where the
// allocation model alone (tasks x nodes^2 replication variables) exceeds
// any sensible bench budget — the paper reports the same blow-up as
// "exponential complexity of the search".

#include "bench_common.h"

int main() {
  using namespace bsio;
  using namespace bsio::bench;

  banner("Fig 6 — scaling with compute nodes",
         "1000 high-overlap IMAGE tasks, 8 XIO storage nodes, 2..32 compute "
         "nodes",
         "(a) batch time falls with more nodes, then rises again at 32 as "
         "storage contention dominates; BiPartition best throughout. "
         "(b) per-task overhead: IP >> MinMin > JobDataPresent ~ "
         "BiPartition; IP grows steeply with node count");

  wl::Workload w = image_workload(0.85, /*tasks=*/1000, /*storage_nodes=*/8);

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.selection_mip.time_limit_seconds = 5.0;
  ip.allocation_mip.time_limit_seconds = 5.0;

  Table fig6a({"compute nodes", "IP (s)", "BiPartition (s)", "MinMin (s)",
               "JobDataPresent (s)"});
  Table fig6b({"compute nodes", "IP (ms/task)", "BiPartition (ms/task)",
               "MinMin (ms/task)", "JobDataPresent (ms/task)"});

  for (std::size_t nodes : {2u, 4u, 8u, 16u, 32u}) {
    const bool run_ip = nodes <= 8;
    // Shrink IP slices as the node count grows: the allocation model holds
    // O(groups x nodes^2) replication variables.
    ip.max_subbatch_tasks = 512 / nodes;
    std::vector<SchedulerFactory> schedulers = paper_schedulers(ip);
    if (!run_ip) schedulers.erase(schedulers.begin());  // IP comes first
    std::vector<ExperimentCase> cases{
        {std::to_string(nodes) + " nodes", w, sim::xio_cluster(nodes, 8)}};
    auto results = run_experiment(cases, schedulers);
    const auto& runs = results.front().runs;

    std::vector<std::string> row_a{std::to_string(nodes)};
    std::vector<std::string> row_b{std::to_string(nodes)};
    std::size_t idx = 0;
    if (run_ip) {
      row_a.push_back(format_fixed(runs[idx].batch_time, 1));
      row_b.push_back(format_fixed(runs[idx].per_task_scheduling_ms, 3));
      ++idx;
    } else {
      row_a.push_back("- (capped)");
      row_b.push_back("- (capped)");
    }
    for (; idx < runs.size(); ++idx) {
      row_a.push_back(format_fixed(runs[idx].batch_time, 1));
      row_b.push_back(format_fixed(runs[idx].per_task_scheduling_ms, 3));
    }
    fig6a.add_row(std::move(row_a));
    fig6b.add_row(std::move(row_b));
  }
  fig6a.print("Fig 6(a) batch execution time");
  fig6b.print("Fig 6(b) per-task scheduling time");
  return 0;
}
