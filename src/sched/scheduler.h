// Scheduler interface: the contract shared by the paper's four algorithms.
//
// The control loop (sched/driver.h, behind run_batch and the streaming
// service) asks the scheduler, through its incremental planner
// (sched/incremental.h), for the next sub-batch plan over the still-pending
// tasks, executes it on the simulation engine, and loops until every
// admitted task has run. Schedulers that do no sub-batch selection (MinMin,
// JobDataPresent) simply plan all pending tasks at once and rely on the
// engine's on-demand eviction.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/plan.h"
#include "sim/state.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::sched {

struct SchedulerContext {
  const wl::Workload& batch;
  const sim::ClusterConfig& cluster;
  // Read-only view of the engine: cache contents, pending request counts,
  // node liveness.
  const sim::ExecutionEngine& engine;
  // The transfer-cost model every planner prices against — the engine's own
  // topology, so plans and simulation share one bandwidth arithmetic.
  const sim::Topology& topology;

  SchedulerContext(const wl::Workload& w, const sim::ClusterConfig& c,
                   const sim::ExecutionEngine& e)
      : batch(w), cluster(c), engine(e), topology(e.topology()) {
    refresh_alive();
  }

  // Compute nodes still alive (fault injection can fail-stop nodes between
  // sub-batches). Schedulers must place work on alive nodes only.
  bool node_alive(wl::NodeId n) const { return engine.node_alive(n); }

  // Cached alive list, built with the context (the control loop makes one
  // per planning cycle; liveness only changes while the engine executes),
  // so every scheduler sweep reads one const view instead of rebuilding a
  // vector per call.
  const std::vector<wl::NodeId>& alive_nodes() const { return alive_; }
  void refresh_alive() {
    alive_.clear();
    alive_.reserve(cluster.num_compute_nodes);
    for (wl::NodeId n = 0; n < cluster.num_compute_nodes; ++n)
      if (engine.node_alive(n)) alive_.push_back(n);
  }

 private:
  std::vector<wl::NodeId> alive_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  // Called by ControlLoop::validate (run_batch, the streaming service)
  // before the first planning cycle of a run. Schedulers that accumulate
  // per-run counters (the IP scheduler's solver stats) must refuse to start
  // a second run while the previous run's counters are still loaded:
  // silently continuing would fold two runs' numbers into one report.
  // Returns a typed error on such reuse; callers running many batches
  // through one scheduler instance call reset_run_stats() between runs.
  virtual Status begin_batch() { return OkStatus(); }

  // Clears every per-run accumulated counter so the instance can serve the
  // next batch. A fresh scheduler needs no call.
  virtual void reset_run_stats() {}

  // Plans the next sub-batch from `pending` (non-empty). The returned plan
  // must name a non-empty subset of `pending` with a complete assignment.
  virtual sim::SubBatchPlan plan_sub_batch(
      const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) = 0;

  // Disk-cache eviction policy this scheme pairs with (paper Section 4.3:
  // popularity for IP / BiPartition / MinMin, LRU for JobDataPresent).
  virtual sim::EvictionPolicy eviction_policy() const {
    return sim::EvictionPolicy::kPopularity;
  }

  // Adds the scheduler's accumulated solver counters (LP factorisations,
  // pivots, B&B nodes, ...) to `stats`. Heuristic schedulers have none; the
  // IP scheduler overrides this so the control loop can surface kernel
  // behaviour in BatchRunResult / StreamStats / BENCH rows.
  virtual void add_solver_stats(sim::ExecutionStats& stats) const {
    (void)stats;
  }
};

}  // namespace bsio::sched
