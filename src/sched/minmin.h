// MinMin with implicit replication (paper Section 3, the first baseline).
//
// Classic MinMin adapted with data-access costs: at every step, compute for
// each unassigned task its minimum completion time (MCT) over all nodes —
// counting file transfer time from the best of the remote storage node or
// any node already (planned to be) holding the file — then commit the task
// with the smallest MCT. Every staged copy implicitly becomes a replica
// source for later decisions. The whole batch is planned in one sub-batch;
// the engine's popularity eviction handles disk pressure.
//
// Every sweep prices a task against all nodes with one
// estimate_completion_row call. The exact path's per-round rows and the
// lazy heap's initial rows run on the global WsRuntime; the lazy heap's
// one row per pop runs inline. The argmin fold over the rows stays
// sequential and visits candidates in the historical order, so plans are
// bit-identical at any thread count.
#pragma once

#include <limits>

#include "sched/cost_model.h"
#include "sched/scheduler.h"

namespace bsio::sched {

class MinMinScheduler : public Scheduler {
 public:
  // Batches larger than `exact_threshold` use a lazy re-evaluation heap
  // instead of the textbook full re-scan per step: pop the cached-best
  // task, recompute its MCT against the current state, and commit it only
  // if it still beats the next cached entry. MCTs grow as resources fill,
  // so the lazy order matches the exact one except when a fresh replica
  // lowers another task's MCT — a negligible deviation at the scale where
  // the exact O(T^2 C F) scan is unaffordable.
  //
  // `stale_retry_budget` bounds how many stale entries the lazy heap may
  // refresh-and-repush between two commits. Every commit perturbs the
  // shared storage and link ready times, which invalidates the cached key
  // of every task competing for the same ports — on contended workloads
  // the refresh cascade between commits grows linearly with the batch, and
  // unbounded retries turn the lazy path quadratic (thousands of full-row
  // re-evaluations per commit at 10k+ tasks). With a finite budget the
  // cascade stops after that many refreshes and commits the best fresh
  // candidate seen — bounded-staleness MinMin: per-commit cost is
  // O(budget * nodes * files_per_task) and plan quality degrades only by
  // the key drift a single commit can cause. The default keeps the
  // historical unbounded behavior.
  explicit MinMinScheduler(
      std::size_t exact_threshold = 400,
      std::size_t stale_retry_budget = std::numeric_limits<std::size_t>::max())
      : exact_threshold_(exact_threshold),
        stale_retry_budget_(stale_retry_budget) {}

  std::string name() const override { return "MinMin"; }
  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const SchedulerContext& ctx) override;

  std::size_t exact_threshold() const { return exact_threshold_; }
  std::size_t stale_retry_budget() const { return stale_retry_budget_; }

 private:
  std::size_t exact_threshold_;
  std::size_t stale_retry_budget_;
  PlannerState ps_;  // reused across rounds (epoch-stamped reset)
};

// The MinMin planning core: plans `pending` against an already-initialised
// planner state — `ps` is NOT reset here, so callers may pre-load it with
// live placements before the sweep (the incremental planner's delta
// insertion replays its uncommitted plan, then inserts only the new
// arrivals). Commits append to `plan` in commit order. With a freshly reset
// ps this is bit-identical to MinMinScheduler::plan_sub_batch.
void minmin_plan_into(const wl::Workload& w, const sim::Topology& topo,
                      PlannerState& ps, const std::vector<wl::TaskId>& pending,
                      const std::vector<wl::NodeId>& nodes,
                      std::size_t exact_threshold,
                      std::size_t stale_retry_budget, sim::SubBatchPlan& plan);

}  // namespace bsio::sched
