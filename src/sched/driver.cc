#include "sched/driver.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

namespace {

// Splits a committed window into per-release-epoch sub-plans (ascending
// epoch, window order within each), so a late admission never floors
// co-committed tasks released earlier. Staging directives are keyed by
// (file, node) and consulted lazily, so every sub-plan carries them all;
// prefetches fire once, with the first epoch. A batch run has the single
// epoch 0 and executes the window as committed.
std::vector<sim::SubBatchPlan> split_by_release(
    sim::SubBatchPlan window, const std::vector<double>& release) {
  std::vector<double> epochs;
  epochs.reserve(window.tasks.size());
  for (wl::TaskId t : window.tasks) epochs.push_back(release[t]);
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  std::vector<sim::SubBatchPlan> subs(epochs.size());
  if (epochs.size() == 1) {
    subs[0] = std::move(window);
    subs[0].release_time = epochs[0];
    return subs;
  }
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    sim::SubBatchPlan& sub = subs[e];
    sub.release_time = epochs[e];
    sub.staging = window.staging;
    if (e == 0) sub.prefetches = window.prefetches;
    for (wl::TaskId t : window.tasks)
      if (release[t] == epochs[e]) {
        sub.tasks.push_back(t);
        sub.assignment[t] = window.assignment.at(t);
      }
  }
  return subs;
}

}  // namespace

Status ControlLoop::validate(Scheduler& scheduler,
                             const sim::ClusterConfig& cluster,
                             const BatchRunOptions& options,
                             const std::vector<const wl::Workload*>& inputs) {
  // A malformed BSIO_THREADS is user input, not an internal bug: surface
  // the parse error here instead of aborting inside the runtime the first
  // time a planner sweep touches it.
  if (Status v = WsRuntime::validate_env(); !v.ok()) return v;
  if (Status v = cluster.validate(); !v.ok()) return v;
  if (Status v = options.faults.validate(cluster); !v.ok()) return v;
  if (Status v = options.speculation.validate(); !v.ok()) return v;
  if (Status v = options.replication.validate(cluster.num_compute_nodes);
      !v.ok())
    return v;
  // Stats-reuse guard: a scheduler instance still loaded with a previous
  // run's counters must be reset before serving another run.
  if (Status v = scheduler.begin_batch(); !v.ok()) return v;

  double min_cap = cluster.node_disk_capacity(0);
  for (std::size_t n = 1; n < cluster.num_compute_nodes; ++n)
    min_cap = std::min(min_cap, cluster.node_disk_capacity(n));
  for (std::size_t i = 0; i < inputs.size(); ++i)
    for (const wl::TaskInfo& t : inputs[i]->tasks()) {
      double bytes = 0.0;
      for (wl::FileId f : t.files) bytes += inputs[i]->file_size(f);
      if (bytes > min_cap) {
        const std::string batch =
            inputs.size() > 1 ? "batch " + std::to_string(i) + " " : "";
        return Err(batch + "task " + std::to_string(t.id) + " needs " +
                   std::to_string(bytes) +
                   " bytes of input but the smallest compute node disk "
                   "holds " +
                   std::to_string(min_cap) +
                   " (a task's file set must fit on one node, paper "
                   "Section 4.2)");
      }
    }
  return OkStatus();
}

ControlLoop::ControlLoop(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options)
    : scheduler_(scheduler),
      workload_(workload),
      cluster_(cluster),
      engine_(cluster, workload,
              {scheduler.eviction_policy(), /*trace=*/false, options.faults,
               options.speculation}),
      planner_(make_incremental_planner(scheduler)) {
  // Replica lifecycle: one repair round after every window, floored at the
  // current makespan — the next window's foreground transfers then contend
  // with the repair reservations on the shared timelines. Planners see
  // manager-placed replicas through the engine's cluster state.
  if (options.replication.enabled)
    repair_ = std::make_unique<replica::ReplicaManager>(workload,
                                                        options.replication);
}

Status ControlLoop::admit(double release) {
  if (Status v = engine_.admit_new_tasks(); !v.ok()) return v;
  if (drained()) origin_ = release;
  for (std::size_t t = release_.size(); t < workload_.num_tasks(); ++t)
    incoming_.push_back(static_cast<wl::TaskId>(t));
  unfinished_ += workload_.num_tasks() - release_.size();
  release_.resize(workload_.num_tasks(), release);
  return OkStatus();
}

Status ControlLoop::cycle(const HorizonOptions& horizon) {
  if (engine_.alive_count() == 0)
    return Err("every compute node crashed with tasks still pending");

  // Liveness only changes while the engine executes; one context per cycle
  // gives every planner sweep a stable view of the alive nodes.
  const SchedulerContext ctx(workload_, cluster_, engine_);
  WallTimer timer;
  planner_->set_origin(origin_);
  if (!dirty_.empty()) planner_->repair(dirty_, ctx);
  planner_->extend(std::move(incoming_), ctx);
  incoming_.clear();
  // Nodes die only inside execute(), and the last cycle marked every live
  // task on a dead node dirty: none is left there now.
  for (const LiveTask& lt : planner_->live())
    BSIO_CHECK(engine_.node_alive(lt.node));
  sim::SubBatchPlan window = planner_->commit_horizon(horizon);
  planning_seconds_ += timer.elapsed_seconds();
  ++cycles_;
  if (window.empty()) {
    if (!planner_->drained())
      return Err("incremental planner committed an empty window with work "
                 "outstanding");
    return OkStatus();
  }

  std::vector<sim::SubBatchPlan> subs =
      split_by_release(std::move(window), release_);
  std::vector<wl::TaskId> stranded;
  for (sim::SubBatchPlan& sub : subs) {
    // A task whose node crashed after the task was planned (while it waited
    // in the live plan, or during an earlier epoch's sub-plan of this
    // window) cannot run there: orphan it like the engine's queued ones.
    std::erase_if(sub.tasks, [&](wl::TaskId t) {
      if (engine_.node_alive(sub.assignment.at(t))) return false;
      stranded.push_back(t);
      return true;
    });
    auto executed = engine_.execute(sub);
    if (!executed.ok()) return executed.error();
    unfinished_ -= sub.tasks.size();
  }
  ++windows_;

  // Recovery: tasks orphaned by node crashes (killed mid-run, queued on a
  // node that died, or stranded above) are re-planned on the survivors
  // next cycle.
  incoming_ = engine_.take_orphaned();
  unfinished_ += incoming_.size();
  incoming_.insert(incoming_.end(), stranded.begin(), stranded.end());
  if (!incoming_.empty()) {
    BSIO_LOG(kDebug) << scheduler_.name() << ": re-planning "
                     << incoming_.size() << " tasks orphaned by crashes ("
                     << engine_.alive_count() << " nodes alive)";
  }

  // The window changed cache contents and pending-request counts exactly
  // for the files it touched: live tasks reading them get re-placed. So do
  // live tasks whose node died in the window, which could not run there.
  dirty_.clear();
  if (!planner_->live().empty()) {
    std::vector<char> touched(workload_.num_files(), 0);
    std::vector<wl::FileId> files;
    for (const sim::SubBatchPlan& sub : subs)
      for (wl::TaskId t : sub.tasks)
        for (wl::FileId f : workload_.task(t).files)
          if (!touched[f]) {
            touched[f] = 1;
            files.push_back(f);
          }
    dirty_ = planner_->dirty_from_files(workload_, files);
    for (const LiveTask& lt : planner_->live())
      if (!engine_.node_alive(lt.node)) dirty_.push_back(lt.task);
  }

  if (repair_ != nullptr) repair_round(engine_.makespan());
  return OkStatus();
}

void ControlLoop::repair_idle(double now) {
  if (repair_ != nullptr && !repair_->files_below_target(engine_).empty())
    repair_round(now);
}

Status ControlLoop::drain(const HorizonOptions& horizon, double floor) {
  while (!drained())
    if (Status v = cycle(horizon); !v.ok()) return v;
  if (repair_ == nullptr) return OkStatus();

  // Convergence: a round's fan-out can unlock the next one (a fresh copy
  // becomes a source), so a few bounded extra rounds close the deficit.
  // What remains is real: lost versions or copies that fit nowhere.
  floor = std::max(floor, engine_.makespan());
  for (int round = 0; round < 8; ++round) {
    if (repair_->files_below_target(engine_).empty()) break;
    const replica::RepairReport rep = repair_round(floor);
    if (rep.flushes_scheduled + rep.replicas_scheduled == 0) break;
    floor = std::max(floor, rep.last_completion);
  }
  replica_deficit_ = repair_->files_below_target(engine_).size();
  return OkStatus();
}

sim::ExecutionStats ControlLoop::stats() const {
  sim::ExecutionStats s = engine_.totals();
  scheduler_.add_solver_stats(s);
  return s;
}

replica::RepairReport ControlLoop::repair_round(double now) {
  const replica::RepairReport rep = repair_->run_repairs(engine_, now);
  ++repair_rounds_;
  if (rep.flushes_scheduled + rep.replicas_scheduled > 0) {
    BSIO_LOG(kDebug) << scheduler_.name() << ": repair round scheduled "
                     << rep.flushes_scheduled << " flushes and "
                     << rep.replicas_scheduled << " replicas ("
                     << rep.deferred << " deferred)";
  }
  return rep;
}

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const sim::FaultConfig& faults) {
  BatchRunOptions options;
  options.faults = faults;
  return run_batch(scheduler, workload, cluster, options);
}

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options) {
  BatchRunResult result;
  result.scheduler = scheduler.name();
  result.tasks_stranded = workload.num_tasks();
  if (Status v = ControlLoop::validate(scheduler, cluster, options,
                                       {&workload});
      !v.ok()) {
    result.error = v.error().message;
    return result;
  }
  result.planning_threads = WsRuntime::global().num_threads();

  ControlLoop loop(scheduler, workload, cluster, options);
  Status run = loop.admit(0.0);
  if (run.ok()) run = loop.drain(HorizonOptions{});
  if (!run.ok()) result.error = run.error().message;

  result.tasks_stranded = loop.unfinished();
  result.sub_batches = loop.windows();
  result.scheduling_seconds = loop.planning_seconds();
  result.replica_deficit = loop.replica_deficit();
  const sim::ExecutionEngine& engine = loop.engine();
  result.batch_time = engine.makespan();
  result.stats = loop.stats();
  result.task_completion_times = engine.completed_task_times();
  std::sort(result.task_completion_times.begin(),
            result.task_completion_times.end());
  result.per_task_scheduling_ms =
      workload.num_tasks() > 0
          ? result.scheduling_seconds * 1e3 /
                static_cast<double>(workload.num_tasks())
          : 0.0;
  return result;
}

}  // namespace bsio::sched
