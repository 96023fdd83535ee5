// The paper's 0-1 Integer Programming formulations (Section 4), built on
// the in-tree LP/MIP solver.
//
// Two models:
//  * AllocationModel (Section 4.1 + Eq. 21): given a sub-batch, jointly
//    decide the task mapping T, file placements X, remote transfers R and
//    node-to-node replications Y minimising the makespan surrogate
//    z >= Computation_i + Remote_i + Replication_i for every node.
//  * SelectionModel (Section 4.2, Eqs. 14-20): pick a maximally sized,
//    computationally balanced subset of tasks whose files fit the per-node
//    disks (the first stage of the limited-disk scheme).
//
// Files with identical requester sets and identical current placement are
// coalesced into groups before model construction — a pure preprocessing
// step (the formulation's costs are linear in bytes and agnostic to file
// identity within a group) that shrinks the model dramatically under high
// overlap. Staging directives are expanded back to the member files.
#pragma once

#include <vector>

#include "ip/branch_and_bound.h"
#include "lp/model.h"
#include "sim/plan.h"
#include "sim/state.h"
#include "sim/topology.h"
#include "workload/types.h"

namespace bsio::sched {

struct IpFormulationOptions {
  // Thresh of Eq. 18: allowed deviation of a node's computation time above
  // the cross-node average in the selection model.
  double balance_thresh = 0.5;
  // Use the aggregated forms of constraints (1), (2) and (7) (fewer rows,
  // slightly weaker LP relaxation). The exact per-(i,j,l) forms are kept
  // for tests and small instances.
  bool aggregate_constraints = true;
};

// A coalesced file group: member files share the same requester set within
// the sub-batch and the same current placement on the compute cluster.
struct FileGroup {
  std::vector<wl::FileId> files;
  double bytes = 0.0;
  std::vector<wl::TaskId> requesters;     // tasks (of the sub-batch) needing it
  std::vector<wl::NodeId> present_on;     // compute nodes already holding it
};

std::vector<FileGroup> coalesce_files(const wl::Workload& w,
                                      const std::vector<wl::TaskId>& tasks,
                                      const sim::ClusterState& state);

// ---------- Allocation model (Section 4.1 + Eq. 21) ----------

class AllocationModel {
 public:
  AllocationModel(const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
                  std::vector<FileGroup> groups, const sim::Topology& topo,
                  const IpFormulationOptions& opts);

  const lp::Model& model() const { return model_; }
  const std::vector<int>& integer_vars() const { return integer_vars_; }

  // Builds a feasible point for the model from a task->node map (indices
  // aligned with the constructor's `tasks`): star-shaped staging with one
  // remote transfer (or an existing copy) per group feeding replicas.
  std::vector<double> incumbent_from_mapping(
      const std::vector<wl::NodeId>& map) const;

  // Decodes a solved point into a plan (assignment + staging directives).
  sim::SubBatchPlan extract_plan(const std::vector<double>& x) const;

  // The model's own objective (plan-level makespan surrogate) for a point.
  double makespan_surrogate(const std::vector<double>& x) const {
    return x[z_];
  }

 private:
  int var_T(std::size_t k, std::size_t i) const;
  int var_X(std::size_t g, std::size_t i) const;  // -1 if fixed/absent
  int var_R(std::size_t g, std::size_t i) const;
  int var_Y(std::size_t g, std::size_t i, std::size_t j) const;
  bool present(std::size_t g, std::size_t i) const;

  const wl::Workload& w_;
  std::vector<wl::TaskId> tasks_;
  std::vector<FileGroup> groups_;
  sim::Topology topo_;
  IpFormulationOptions opts_;

  std::size_t C_ = 0;  // compute nodes
  lp::Model model_;
  std::vector<int> integer_vars_;
  int z_ = -1;
  std::vector<int> t_vars_;                // k * C + i
  std::vector<int> x_vars_, r_vars_;       // g * C + i (-1 = not a variable)
  std::vector<int> y_vars_;                // (g * C + i) * C + j
  std::vector<std::vector<char>> present_;  // g x C
};

// ---------- Selection model (Section 4.2, Eqs. 14-20) ----------

class SelectionModel {
 public:
  SelectionModel(const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
                 std::vector<FileGroup> groups, const sim::Topology& topo,
                 const IpFormulationOptions& opts);

  const lp::Model& model() const { return model_; }
  const std::vector<int>& integer_vars() const { return integer_vars_; }

  // Tasks with sum_i T_ki = 1 in the solved point.
  std::vector<wl::TaskId> extract_sub_batch(
      const std::vector<double>& x) const;

  // Feasible point assigning the given subset round-robin by compute load,
  // or an empty vector if the construction violates the model.
  std::vector<double> greedy_incumbent() const;

 private:
  int var_T(std::size_t k, std::size_t i) const;
  int var_X(std::size_t g, std::size_t i) const;

  const wl::Workload& w_;
  std::vector<wl::TaskId> tasks_;
  std::vector<FileGroup> groups_;
  sim::Topology topo_;
  IpFormulationOptions opts_;

  std::size_t C_ = 0;
  lp::Model model_;
  std::vector<int> integer_vars_;
  std::vector<int> t_vars_, x_vars_;
};

}  // namespace bsio::sched
