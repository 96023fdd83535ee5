// Incremental plan-repair contract: how the control loop (sched/driver.h)
// drives a Scheduler, for a batch and for the streaming service alike.
//
// The planner keeps a LIVE plan — an ordered list of (task, node)
// commitments that have not been handed to the engine yet — and the loop
// mutates it in place as the world changes:
//
//   extend(new_tasks)   new arrivals and crash orphans join the live plan
//                       (delta insertion for MinMin, footprint-gated
//                       repartition for BiPartition, from-scratch replan
//                       for JDP/IP);
//   repair(dirty_set)   live tasks invalidated by the last executed window
//                       (their file footprint moved) are re-placed against
//                       the engine's current cache and timeline state;
//   commit_horizon(w)   the prefix of the live plan estimated to start
//                       within the next `w` seconds freezes into a
//                       SubBatchPlan for the engine; everything past the
//                       horizon stays mutable for future repairs.
//
// Estimates are planner-relative: every rebuild resets the PlannerState
// (ready times 0, cache holders rebased by the window's time base). Under
// the drain-all horizon every committed window is the base scheduler's
// next plan_sub_batch over the pending tasks, which is how run_batch gets
// the paper's round-by-round plans (pinned against the PR 4 topology
// goldens in tests/incremental_test.cc).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "sched/cost_model.h"
#include "sched/scheduler.h"
#include "sim/plan.h"

namespace bsio::sched {

// Horizon-freeze controls (the streaming service's planning knob).
struct HorizonOptions {
  // Freeze live tasks whose estimated start falls within this many seconds
  // of the window base. <= 0 = drain-all: freeze the entire live plan (the
  // horizon run_batch uses: each window is the scheduler's next sub-batch).
  // A commit over a non-empty live plan always releases at least the
  // earliest estimated start, so a window shorter than every estimate
  // cannot stall the service.
  double window_seconds = 0.0;
};

// One uncommitted live-plan entry. est_start is the planner-relative
// instant the assigned node is expected to turn to this task (its ready
// time at commit); est_completion the matching MCT. Both refresh on every
// rebuild, and drive the commit_horizon freeze rule.
struct LiveTask {
  wl::TaskId task = wl::kInvalidTask;
  wl::NodeId node = wl::kInvalidNode;
  double est_start = 0.0;
  double est_completion = 0.0;
};

class IncrementalPlanner {
 public:
  explicit IncrementalPlanner(Scheduler& base) : base_(base) {}
  virtual ~IncrementalPlanner() = default;

  // Folds newly arrived tasks into the live plan. With an empty live plan
  // this reduces to a from-scratch plan over the backlog plus `new_tasks`;
  // concrete planners decide how much of the existing plan to preserve.
  // Tasks not placed into the live plan (a disk-bounded sub-batch selector
  // deferring them) wait in backlog() for a later extend.
  virtual void extend(std::vector<wl::TaskId> new_tasks,
                      const SchedulerContext& ctx) = 0;

  // Re-places live tasks invalidated since the last commit (`dirty` must be
  // a subset of the live tasks; unknown ids are ignored). Derive the set
  // with dirty_from_files() from the file footprint the last executed
  // window touched.
  virtual void repair(const std::vector<wl::TaskId>& dirty,
                      const SchedulerContext& ctx) = 0;

  // Freezes the live tasks whose est_start lies within `opts.window_seconds`
  // into an executable SubBatchPlan (live order preserved) and removes them
  // from the live plan. Returns an empty plan only when the live plan is
  // empty.
  sim::SubBatchPlan commit_horizon(const HorizonOptions& opts);

  // Live tasks whose files intersect `files` — the dirty-set derivation:
  // an executed window changes cache contents and pending-request counts
  // exactly for the files it touched, so live tasks sharing those files are
  // the ones whose placement may now be wrong.
  std::vector<wl::TaskId> dirty_from_files(
      const wl::Workload& w, const std::vector<wl::FileId>& files) const;

  // The planner-relative time base: absolute cache-availability stamps from
  // the streaming engine rebase by this origin on every rebuild (see
  // PlannerState::reset). The control loop sets it to the release instant
  // at which work was admitted into a drained loop; run_batch's is 0.
  void set_origin(double origin) { origin_ = origin; }

  const std::vector<LiveTask>& live() const { return live_; }
  const std::vector<wl::TaskId>& backlog() const { return backlog_; }
  bool drained() const { return live_.empty() && backlog_.empty(); }

 protected:
  // Hook for planners whose base scheduler decorates plans (IP staging
  // directives, JDP prefetches): called on every committed plan.
  virtual void annotate(sim::SubBatchPlan& plan) { (void)plan; }

  // Rebuilds ps_ from the engine's current state and replays the live plan
  // in order, refreshing every entry's est_start / est_completion. After
  // the call ps_ prices as if every live task were already committed — the
  // delta-insertion baseline.
  void replay(const SchedulerContext& ctx);

  Scheduler& base_;
  PlannerState ps_;
  std::vector<LiveTask> live_;
  std::vector<wl::TaskId> backlog_;
  double origin_ = 0.0;
};

// Delta-MinMin insertion: extend() replays the live plan into the planner
// state and runs the MinMin core (sched/minmin.h, including the bounded-
// staleness lazy heap above the exact threshold) over ONLY the new tasks —
// O(new x nodes) instead of replanning the whole window. repair() removes
// the dirty tasks, replays the survivors, and re-inserts the dirty ones the
// same way. With an empty live plan extend() is bit-identical to
// MinMinScheduler::plan_sub_batch.
class DeltaMinMinPlanner : public IncrementalPlanner {
 public:
  DeltaMinMinPlanner(Scheduler& base, std::size_t exact_threshold = 400,
                     std::size_t stale_retry_budget =
                         std::numeric_limits<std::size_t>::max())
      : IncrementalPlanner(base),
        exact_threshold_(exact_threshold),
        stale_retry_budget_(stale_retry_budget) {}

  void extend(std::vector<wl::TaskId> new_tasks,
              const SchedulerContext& ctx) override;
  void repair(const std::vector<wl::TaskId>& dirty,
              const SchedulerContext& ctx) override;

 private:
  // Plans `tasks` against the replayed live state and appends them to the
  // live plan.
  void insert(const std::vector<wl::TaskId>& tasks,
              const SchedulerContext& ctx);

  std::size_t exact_threshold_;
  std::size_t stale_retry_budget_;
};

// Part-repair wrapper for sub-batch selectors (BiPartition) and the
// from-scratch fallbacks (JDP, IP). The live plan holds ONE base-scheduler
// sub-batch at a time; unplanned pool tasks wait in the backlog, exactly
// like the pending set of the paper's round-by-round loop. extend() with
// new arrivals re-runs the base scheduler over live + backlog + new —
// unless `footprint_gate` is set and the new tasks share no file with the
// live part, in which case the part stands and the arrivals only join the
// backlog (the dirty-part-only BiPartition repartition: BINW re-runs only
// when the new tasks actually perturb the selected part's footprint).
// repair() dissolves the live part back into the pool for a full replan,
// mirroring the round-by-round re-selection.
class PartRepairPlanner : public IncrementalPlanner {
 public:
  PartRepairPlanner(Scheduler& base, bool footprint_gate)
      : IncrementalPlanner(base), footprint_gate_(footprint_gate) {}

  void extend(std::vector<wl::TaskId> new_tasks,
              const SchedulerContext& ctx) override;
  void repair(const std::vector<wl::TaskId>& dirty,
              const SchedulerContext& ctx) override;

 protected:
  void annotate(sim::SubBatchPlan& plan) override;

 private:
  // Runs the base scheduler over `pool`: the planned sub-batch becomes the
  // live plan, the rest the backlog (pool order preserved).
  void plan_pool(std::vector<wl::TaskId> pool, const SchedulerContext& ctx);
  bool overlaps_live(const std::vector<wl::TaskId>& tasks,
                     const wl::Workload& w) const;

  bool footprint_gate_;
  // Plan decorations of the current live part, re-attached on commit.
  // Staging directives are keyed by (file, node) and consulted lazily, so
  // re-attaching the full map to every partial commit is harmless;
  // prefetches fire once, with the part's first commit.
  std::map<std::pair<wl::FileId, wl::NodeId>, sim::StagingSource> staging_;
  std::vector<std::pair<wl::FileId, wl::NodeId>> prefetches_;
  bool prefetches_pending_ = false;
};

// The per-scheduler dispatch: delta insertion for MinMin (inheriting its
// thresholds), footprint-gated part repair for BiPartition, always-replan
// part repair (the from-scratch fallback) for JDP, IP, and anything else.
std::unique_ptr<IncrementalPlanner> make_incremental_planner(Scheduler& base);

}  // namespace bsio::sched
