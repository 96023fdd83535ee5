// BiPartition: the paper's bi-level hypergraph partitioning scheduler
// (Section 5).
//
// Level 1 (sub-batch selection): tasks are vertices, files are nets
// (weights: expected execution time via Eq. 25-26, file size); BINW
// partitioning bounds every sub-batch's incident net weight (= bytes it
// must stage) by the compute cluster's aggregate disk space.
//
// Level 2 (task mapping): the chosen sub-batch is K-way partitioned across
// the compute nodes minimising connectivity-1 (file bytes transferred more
// than once) under load balance, then repaired against per-node disk
// capacity (files dropped in increasing sharer order, tasks using dropped
// files deferred to later sub-batches — paper Section 5.3).
#pragma once

#include "hypergraph/partitioner.h"
#include "sched/cost_model.h"
#include "sched/scheduler.h"

namespace bsio::sched {

// Both levels partition with the default hg::PartitionerOptions.
struct BiPartitionOptions {
  // Use Eq. 25-26 probabilistic vertex weights (true) or plain compute
  // weights (false; ablation).
  bool probabilistic_weights = true;
};

class BiPartitionScheduler : public Scheduler {
 public:
  explicit BiPartitionScheduler(BiPartitionOptions options = {})
      : options_(options) {}

  std::string name() const override { return "BiPartition"; }
  sim::SubBatchPlan plan_sub_batch(const std::vector<wl::TaskId>& pending,
                                   const SchedulerContext& ctx) override;

 private:
  BiPartitionOptions options_;
  // Sharer-count scratch reused across the level-1 and level-2 weight
  // computations of every round.
  ExecTimeScratch exec_scratch_;
};

// Exposed for tests and for the IP scheduler's warm start: the level-2
// mapping of `tasks` onto the compute nodes (indices into `tasks` -> node).
// `nodes` restricts the mapping to a subset of the compute nodes (the alive
// ones under fault injection); empty means all of them. `scratch` may be
// null.
std::vector<wl::NodeId> bipartition_map_tasks(
    const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
    const sim::Topology& topo, const BiPartitionOptions& options,
    const std::vector<wl::NodeId>& nodes = {},
    ExecTimeScratch* scratch = nullptr);

}  // namespace bsio::sched
