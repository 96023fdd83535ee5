#include "sched/incremental.h"

#include <algorithm>
#include <utility>

#include "sched/bipartition.h"
#include "sched/minmin.h"
#include "util/check.h"

namespace bsio::sched {

void IncrementalPlanner::replay(const SchedulerContext& ctx) {
  ps_.reset(ctx.batch, ctx.topology, ctx.engine.state(), origin_);
  for (LiveTask& lt : live_) {
    lt.est_start = ps_.node_ready[lt.node];
    const CompletionEstimate est =
        estimate_completion(ctx.batch, ctx.topology, ps_, lt.task, lt.node);
    apply_assignment(ctx.batch, ctx.topology, ps_, lt.task, lt.node, est);
    lt.est_completion = est.completion;
  }
}

sim::SubBatchPlan IncrementalPlanner::commit_horizon(
    const HorizonOptions& opts) {
  sim::SubBatchPlan plan;
  if (live_.empty()) return plan;

  std::vector<LiveTask> keep;
  for (const LiveTask& lt : live_) {
    const bool freeze =
        opts.window_seconds <= 0.0 || lt.est_start <= opts.window_seconds;
    if (freeze) {
      plan.tasks.push_back(lt.task);
      plan.assignment[lt.task] = lt.node;
    } else {
      keep.push_back(lt);
    }
  }
  if (plan.tasks.empty()) {
    // Nothing inside the window: release the earliest estimated start
    // (ties to live order) so the service always makes progress.
    std::size_t best = 0;
    for (std::size_t i = 1; i < keep.size(); ++i)
      if (keep[i].est_start < keep[best].est_start) best = i;
    plan.tasks.push_back(keep[best].task);
    plan.assignment[keep[best].task] = keep[best].node;
    keep.erase(keep.begin() + static_cast<std::ptrdiff_t>(best));
  }
  annotate(plan);
  live_ = std::move(keep);
  // Nothing left to price until the next extend rebuilds the state: free it
  // rather than hold a second planner state through execution.
  if (live_.empty()) ps_ = PlannerState();
  return plan;
}

std::vector<wl::TaskId> IncrementalPlanner::dirty_from_files(
    const wl::Workload& w, const std::vector<wl::FileId>& files) const {
  std::vector<wl::TaskId> dirty;
  if (files.empty() || live_.empty()) return dirty;
  std::vector<char> touched(w.num_files(), 0);
  for (wl::FileId f : files) touched[f] = 1;
  for (const LiveTask& lt : live_)
    for (wl::FileId f : w.task(lt.task).files)
      if (touched[f]) {
        dirty.push_back(lt.task);
        break;
      }
  return dirty;
}

// --- Delta MinMin. ---

void DeltaMinMinPlanner::insert(const std::vector<wl::TaskId>& tasks,
                                const SchedulerContext& ctx) {
  // Load ps_ with the surviving live plan, then run the MinMin core over
  // only the insertions — with an empty live plan this is exactly
  // MinMinScheduler::plan_sub_batch (reset + core), the quiescent
  // bit-identity anchor.
  replay(ctx);
  sim::SubBatchPlan delta;
  minmin_plan_into(ctx.batch, ctx.topology, ps_, tasks, ctx.alive_nodes(),
                   exact_threshold_, stale_retry_budget_, delta);
  for (wl::TaskId t : delta.tasks)
    live_.push_back({t, delta.assignment.at(t), 0.0, 0.0});
  // One more pass to stamp est_start / est_completion for the appended
  // entries (and any drift the insertions caused is irrelevant — the
  // replay is a pure re-pricing of the same commitments).
  replay(ctx);
}

void DeltaMinMinPlanner::extend(std::vector<wl::TaskId> new_tasks,
                                const SchedulerContext& ctx) {
  if (new_tasks.empty()) {
    if (!live_.empty()) replay(ctx);
    return;
  }
  insert(new_tasks, ctx);
}

void DeltaMinMinPlanner::repair(const std::vector<wl::TaskId>& dirty,
                                const SchedulerContext& ctx) {
  if (dirty.empty() || live_.empty()) return;
  std::vector<char> is_dirty(ctx.batch.num_tasks(), 0);
  for (wl::TaskId t : dirty) is_dirty[t] = 1;

  std::vector<LiveTask> survivors;
  std::vector<wl::TaskId> removed;  // live order
  survivors.reserve(live_.size());
  for (const LiveTask& lt : live_) {
    if (is_dirty[lt.task])
      removed.push_back(lt.task);
    else
      survivors.push_back(lt);
  }
  if (removed.empty()) return;
  live_ = std::move(survivors);
  insert(removed, ctx);
}

// --- Part repair (BiPartition / from-scratch fallback). ---

void PartRepairPlanner::plan_pool(std::vector<wl::TaskId> pool,
                                  const SchedulerContext& ctx) {
  live_.clear();
  backlog_.clear();
  staging_.clear();
  prefetches_.clear();
  prefetches_pending_ = false;
  if (pool.empty()) {
    replay(ctx);
    return;
  }

  sim::SubBatchPlan p = base_.plan_sub_batch(pool, ctx);
  BSIO_CHECK_MSG(!p.empty(), "base scheduler returned an empty sub-batch");
  // 1 = in the pool, 2 = planned: a plan may name each pool task once.
  std::vector<char> mark(ctx.batch.num_tasks(), 0);
  for (wl::TaskId t : pool) mark[t] = 1;
  live_.reserve(p.tasks.size());
  for (wl::TaskId t : p.tasks) {
    BSIO_CHECK_MSG(mark[t] == 1,
                   "sub-batch plan repeats a task or names a non-pending one");
    mark[t] = 2;
    live_.push_back({t, p.assignment.at(t), 0, 0});
  }
  staging_ = std::move(p.staging);
  prefetches_ = std::move(p.prefetches);
  prefetches_pending_ = !prefetches_.empty();

  // Deferred pool tasks keep their pool order, as in the paper's
  // round-by-round loop over the pending set.
  for (wl::TaskId t : pool)
    if (mark[t] == 1) backlog_.push_back(t);

  replay(ctx);
}

bool PartRepairPlanner::overlaps_live(const std::vector<wl::TaskId>& tasks,
                                      const wl::Workload& w) const {
  std::vector<char> in_part(w.num_files(), 0);
  for (const LiveTask& lt : live_)
    for (wl::FileId f : w.task(lt.task).files) in_part[f] = 1;
  for (wl::TaskId t : tasks)
    for (wl::FileId f : w.task(t).files)
      if (in_part[f]) return true;
  return false;
}

void PartRepairPlanner::extend(std::vector<wl::TaskId> new_tasks,
                               const SchedulerContext& ctx) {
  if (new_tasks.empty()) {
    if (live_.empty() && !backlog_.empty()) {
      // The next round of the paper's loop: re-select a sub-batch from the
      // remaining pool against the post-execution cache.
      plan_pool(std::move(backlog_), ctx);
    } else if (!live_.empty()) {
      replay(ctx);
    }
    return;
  }

  if (live_.empty()) {
    std::vector<wl::TaskId> pool = std::move(backlog_);
    pool.insert(pool.end(), new_tasks.begin(), new_tasks.end());
    plan_pool(std::move(pool), ctx);
    return;
  }

  if (footprint_gate_ && !overlaps_live(new_tasks, ctx.batch)) {
    // The arrivals share no file with the live part: the BINW selection
    // stands, the newcomers queue for the next round.
    backlog_.insert(backlog_.end(), new_tasks.begin(), new_tasks.end());
    replay(ctx);
    return;
  }

  // Dirty part: dissolve it and re-run level-1 selection over everything
  // still unexecuted.
  std::vector<wl::TaskId> pool;
  pool.reserve(live_.size() + backlog_.size() + new_tasks.size());
  for (const LiveTask& lt : live_) pool.push_back(lt.task);
  pool.insert(pool.end(), backlog_.begin(), backlog_.end());
  pool.insert(pool.end(), new_tasks.begin(), new_tasks.end());
  plan_pool(std::move(pool), ctx);
}

void PartRepairPlanner::repair(const std::vector<wl::TaskId>& dirty,
                               const SchedulerContext& ctx) {
  if (dirty.empty() || live_.empty()) return;
  std::vector<char> is_live(ctx.batch.num_tasks(), 0);
  for (const LiveTask& lt : live_) is_live[lt.task] = 1;
  const bool hits_live = std::any_of(
      dirty.begin(), dirty.end(), [&](wl::TaskId t) { return is_live[t]; });
  if (!hits_live) return;
  std::vector<wl::TaskId> pool;
  pool.reserve(live_.size() + backlog_.size());
  for (const LiveTask& lt : live_) pool.push_back(lt.task);
  pool.insert(pool.end(), backlog_.begin(), backlog_.end());
  plan_pool(std::move(pool), ctx);
}

void PartRepairPlanner::annotate(sim::SubBatchPlan& plan) {
  plan.staging = staging_;
  if (prefetches_pending_) {
    plan.prefetches = prefetches_;
    prefetches_pending_ = false;
  }
}

std::unique_ptr<IncrementalPlanner> make_incremental_planner(Scheduler& base) {
  if (auto* mm = dynamic_cast<MinMinScheduler*>(&base))
    return std::make_unique<DeltaMinMinPlanner>(base, mm->exact_threshold(),
                                                mm->stale_retry_budget());
  const bool gate = dynamic_cast<BiPartitionScheduler*>(&base) != nullptr;
  return std::make_unique<PartRepairPlanner>(base, gate);
}

}  // namespace bsio::sched
