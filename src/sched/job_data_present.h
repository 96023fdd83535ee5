// Batch-mode Job Data Present + Data Least Loaded (Ranganathan & Foster
// [13], adapted per paper Section 3).
//
// Scheduling (Job Data Present): a task goes to the node where its expected
// data transfer time is smallest — i.e. the node already holding the
// largest (cheapest-to-complete) share of its inputs — with ties broken by
// the least-loaded node. Because all batch tasks are present at time zero,
// the FIFO order of [13] is replaced by the paper's adaptation: tasks are
// committed in order of least expected earliest completion time.
//
// Replication (Data Least Loaded), decoupled from scheduling: files whose
// popularity (pending request count) strictly exceeds pending tasks / alive
// compute nodes are proactively replicated onto the least-loaded compute
// node before the batch runs. Pairs with LRU eviction, as in [13].
#pragma once

#include <vector>

#include "sched/cost_model.h"
#include "sched/scheduler.h"

namespace bsio::sched {

class JobDataPresentScheduler : public Scheduler {
 public:
  std::string name() const override { return "JobDataPresent"; }
  sim::EvictionPolicy eviction_policy() const override {
    return sim::EvictionPolicy::kLru;
  }
  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const SchedulerContext& ctx) override;

 private:
  PlannerState ps_;  // reused across rounds (epoch-stamped reset)
  // Data Least Loaded's pending requests per file, all zero between calls,
  // and the files it counted in the current call.
  std::vector<double> popularity_;
  std::vector<wl::FileId> requested_;
};

}  // namespace bsio::sched
