// The control loop: the paper's three-stage pipeline (sub-batch selection
// -> allocation -> runtime ordering/staging) with the runtime stage executed
// by the simulation engine, for a batch and for the streaming service
// alike.
//
// ControlLoop owns one engine, the scheduler's incremental planner
// (sched/incremental.h) and, when replication is on, the replica manager.
// Callers admit tasks with a release instant and run cycles; each cycle
// repairs the live plan where the last window moved files, folds in newly
// admitted tasks, freezes a horizon window, executes it split by release
// epoch, hands crash-orphaned tasks back to the planner for the next cycle
// (including tasks placed on a node that died before their sub-plan ran)
// and runs one repair round. Draining adds up to 8 repair convergence
// rounds.
//
// run_batch is the loop's t = 0 case: admit every task at release 0, drain
// with the drain-all horizon. With a drain-all horizon each window is
// exactly the scheduler's next plan_sub_batch over the still-pending tasks,
// so the batch results are those of the round-by-round driver the paper
// describes. The streaming service (service::StreamServiceLoop) feeds the
// same loop from its admission queue, one engine for the whole run, so the
// disk cache persists from batch to batch. A batch only fails
// (BatchRunResult::error) when the configuration is invalid, the engine
// rejects a plan, or every compute node has crashed with tasks still
// pending.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "replica/replica.h"
#include "sched/incremental.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::sched {

// Extended run controls. The plain faults-only overload below forwards
// here; the streaming service's StreamOptions (src/service) derives from
// this struct, so a stream runs under the same configuration.
struct BatchRunOptions {
  sim::FaultConfig faults;
  // Speculative task replication inside the engine's recovery surface
  // (sim/faults.h, DESIGN.md §10). Off by default: the run is bit-identical
  // to the non-speculative driver.
  sim::SpeculationConfig speculation;
  // Replica lifecycle manager (src/replica): tiered replication targets,
  // background repair after crashes, write-back of mutable files. Off by
  // default — a disabled config keeps the run bit-identical to the
  // replication-free driver (PR 4 golden contract). Validated up front; an
  // invalid config is a typed BatchRunResult::error.
  replica::ReplicaConfig replication;
};

struct BatchRunResult {
  std::string scheduler;
  double batch_time = 0.0;  // simulated makespan (what Figs 3-6a plot)
  // Wall-clock planning time (Fig 6b): the planner's repair, extend and
  // horizon commit in every cycle.
  double scheduling_seconds = 0.0;
  double per_task_scheduling_ms = 0.0;
  // Threads the planners' parallel sweeps ran on (WsRuntime::global()).
  std::size_t planning_threads = 1;
  std::size_t sub_batches = 0;
  sim::ExecutionStats stats;
  // Non-empty when the batch could not finish (invalid configuration, every
  // compute node crashed, or the engine rejected a plan). `ok()` runs
  // executed every task.
  std::string error;
  std::size_t tasks_stranded = 0;  // pending tasks when the run gave up
  // Completion instant of every executed task, ascending — the raw series
  // behind tail-latency percentiles (p50/p95/p99 of task response).
  std::vector<double> task_completion_times;
  // Files still below their tier's replication target when the batch
  // drained (replication enabled only): unrepairable deficits — versions
  // lost to writer crashes, or copies that fit on no surviving disk.
  std::size_t replica_deficit = 0;
  bool ok() const { return error.empty(); }
};

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options);

BatchRunResult run_batch(Scheduler& scheduler, const wl::Workload& workload,
                         const sim::ClusterConfig& cluster,
                         const sim::FaultConfig& faults = {});

// The one plan -> execute loop behind run_batch and the streaming service
// (see the file comment).
class ControlLoop {
 public:
  // Everything a run checks before its first cycle: BSIO_THREADS, the
  // cluster, the fault, speculation and replication configs, the
  // scheduler's begin_batch() reuse guard, and paper Section 4.2's rule
  // that a task's whole file set must fit on one compute node — checked
  // against the smallest node so the guarantee survives crashes. `inputs`
  // are the task sets the run will admit (one batch, or every arrival of
  // a stream; with several, the error names the offending one's position).
  static Status validate(Scheduler& scheduler,
                         const sim::ClusterConfig& cluster,
                         const BatchRunOptions& options,
                         const std::vector<const wl::Workload*>& inputs);

  // `workload` may grow after construction (the streaming service appends
  // each admitted batch); it and `cluster` must outlive the loop. Only the
  // faults, speculation and replication fields of `options` are read.
  ControlLoop(Scheduler& scheduler, const wl::Workload& workload,
              const sim::ClusterConfig& cluster,
              const BatchRunOptions& options);

  // Admits every task appended to the workload since the last admission;
  // their reservations start no earlier than `release`. Admitting into a
  // drained loop opens a fresh window whose planner clock starts at
  // `release`.
  Status admit(double release);

  // Every admitted task has executed.
  bool drained() const { return incoming_.empty() && planner_->drained(); }

  // One planning cycle: repair, extend, commit a window under `horizon`,
  // execute it, requeue crash orphans, one repair round. Requires
  // !drained().
  Status cycle(const HorizonOptions& horizon);

  // A repair round at `now` when any file is below its replication target
  // (the stream's idle gaps between arrivals).
  void repair_idle(double now);

  // Cycles until drained, then up to 8 repair convergence rounds, the first
  // floored at max(`floor`, makespan) and each later one at the previous
  // round's last completion.
  Status drain(const HorizonOptions& horizon, double floor = 0.0);

  const sim::ExecutionEngine& engine() const { return engine_; }
  // Engine totals plus the scheduler's solver counters.
  sim::ExecutionStats stats() const;
  double planning_seconds() const { return planning_seconds_; }
  std::size_t cycles() const { return cycles_; }
  std::size_t windows() const { return windows_; }
  std::size_t repair_rounds() const { return repair_rounds_; }
  // Admitted tasks not yet executed.
  std::size_t unfinished() const { return unfinished_; }
  // Files still below target after drain() (replication enabled only).
  std::size_t replica_deficit() const { return replica_deficit_; }

 private:
  replica::RepairReport repair_round(double now);

  Scheduler& scheduler_;
  const wl::Workload& workload_;
  const sim::ClusterConfig& cluster_;
  sim::ExecutionEngine engine_;
  std::unique_ptr<IncrementalPlanner> planner_;
  std::unique_ptr<replica::ReplicaManager> repair_;

  std::vector<double> release_;       // per admitted task
  std::vector<wl::TaskId> incoming_;  // admitted or orphaned, not planned
  std::vector<wl::TaskId> dirty_;     // live tasks the last window touched
                                      // or whose node it killed
  double origin_ = 0.0;               // planner clock of the open window
  std::size_t unfinished_ = 0;
  double planning_seconds_ = 0.0;
  std::size_t cycles_ = 0;
  std::size_t windows_ = 0;
  std::size_t repair_rounds_ = 0;
  std::size_t replica_deficit_ = 0;
};

}  // namespace bsio::sched
