// The 0-1 IP scheduler (paper Section 4).
//
// Unlimited disk: one AllocationModel over all pending tasks, solved by
// branch and bound, yields the mapping and the full staging plan.
//
// Limited disk: the two-stage scheme — SelectionModel picks a maximal
// balanced disk-feasible sub-batch, AllocationModel then optimises that
// sub-batch's mapping and staging, the popularity eviction policy
// (Section 4.3) reclaims space between sub-batches (on demand, inside the
// engine).
//
// Both stages seed the branch and bound with a heuristic incumbent (the
// BiPartition level-2 mapping for allocation, greedy packing for
// selection), so node/time-limited solves degrade gracefully instead of
// failing — mirroring the paper's observation that the IP approach is only
// practical for small workloads while keeping every bench terminating.
#pragma once

#include "ip/branch_and_bound.h"
#include "sched/bipartition.h"
#include "sched/ip_formulation.h"
#include "sched/scheduler.h"

namespace bsio::sched {

// Both models use the default IpFormulationOptions, and the allocation
// warm start is the default BiPartition level-2 mapping.
struct IpSchedulerOptions {
  ip::MipOptions selection_mip;  // defaults tightened in default_options()
  ip::MipOptions allocation_mip;

  // Engineering cap on the number of tasks fed to one IP solve (0 = no
  // cap). When pending exceeds the cap, an affinity-ordered slice is
  // planned per round — the paper instead lets lp_solve run for minutes on
  // large instances; the cap keeps benches bounded while preserving the
  // IP-overhead growth trend (Fig 6b).
  std::size_t max_subbatch_tasks = 0;
};

class IpScheduler : public Scheduler {
 public:
  explicit IpScheduler(IpSchedulerOptions options = default_options());

  static IpSchedulerOptions default_options();

  std::string name() const override { return "IP"; }

  // Per-run stat lifecycle: the solver counters accumulate across every
  // plan_sub_batch call of one batch run. Reusing the instance for another
  // batch without reset_run_stats() would report both batches' kernel work
  // as one — begin_batch() returns a typed error instead of letting that
  // happen (the online service resets between batches).
  Status begin_batch() override;
  void reset_run_stats() override;

  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const SchedulerContext& ctx) override;

  // Kernel counters accumulated over every plan_sub_batch call, folded into
  // the batch driver's ExecutionStats.
  void add_solver_stats(sim::ExecutionStats& stats) const override;

 private:
  IpSchedulerOptions options_;
  lp::SolverStats total_stats_;
  long total_nodes_ = 0;
};

}  // namespace bsio::sched
