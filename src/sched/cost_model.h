// Shared planner-side cost estimates.
//
// probabilistic_exec_times implements Eq. 25-26: the expected execution
// time of each task assuming uniform placement probabilities, used as
// hypergraph vertex weights by the BiPartition scheduler (and as an
// ablation toggle). estimate_completion is the MCT-style estimate MinMin
// and JobDataPresent plan against; estimate_completion_row prices one task
// against a whole node list in one pass, for the planners' sweeps.
//
// All transfer bandwidths resolve through sim::Topology, so the estimates
// price heterogeneous storage disks, NIC caps, CPU speeds, and rack links
// with the same model the engine simulates. On homogeneous topologies every
// expression reduces bit-identically to the classic uniform arithmetic.
//
// Concurrency contract: estimate_completion / estimate_completion_time /
// estimate_completion_row take the PlannerState by const reference and
// perform no mutation, so any number of threads may evaluate candidate
// (task, node) pairs against one shared state concurrently. All mutation
// (apply_assignment, add_planned, reset) must happen on a single thread
// between those read-only sweeps.
//
// Cross-batch reuse needs no plumbing here: PlannerState::reset seeds its
// replica holders from the engine's ClusterState, so on the streaming
// service's one long-lived engine a batch prices the copies earlier batches
// left behind as local/replica reads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/state.h"
#include "sim/topology.h"
#include "workload/types.h"

namespace bsio::sched {

// Reusable scratch for probabilistic_exec_times: a dense per-file sharer
// counter (plus the list of touched files, so clearing costs O(touched)
// instead of O(num_files)). Callers that evaluate many sub-batches — the
// BiPartition level-1/level-2 loops — keep one of these alive to avoid
// rebuilding a hash map per call.
struct ExecTimeScratch {
  std::vector<double> sharers;      // indexed by FileId; 0 between calls
  std::vector<wl::FileId> touched;  // files with a nonzero entry
};

// Eq. 25-26 expected execution time of every task in `tasks`, where file
// sharing degrees s_j are counted within `tasks` only and T = |tasks|,
// K = number of compute nodes. Entries align with `tasks`. The task's
// measured compute_seconds stands in for the paper's per-byte compute
// constant C (the emulators derive one from the other linearly).
// On heterogeneous topologies the per-node quantities (remote bandwidth
// into node i, slowest transfer into node i, CPU speed) are averaged over
// the uniform placement distribution the equations already assume.
// `scratch` may be null (a local buffer is used).
std::vector<double> probabilistic_exec_times(
    const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
    const sim::Topology& topo, ExecTimeScratch* scratch = nullptr);

// Plain vertex weights (compute + local read only), the ablation
// counterpart of the probabilistic weights.
std::vector<double> plain_exec_times(const wl::Workload& w,
                                     const std::vector<wl::TaskId>& tasks,
                                     const sim::Topology& topo);

// Planner bookkeeping for MCT estimates: estimated ready times of every
// port plus planned file locations. MinMin / JDP mutate one of these as
// they build their assignment.
//
// Replica presence is tracked two ways, kept in sync by add_planned:
//  - planned[f]: the live holder list (node, availability) that replica-
//    source scans iterate — only actual holders, never all nodes;
//  - a bit-packed per-(file, node) presence bitmap making on_node O(1) at
//    one bit per entry — 1M files x 1k nodes costs ~125 MB where a
//    byte-or-wider grid would not fit the scale-sweep memory budget.
//    reset() clears exactly the set bits by walking the outgoing planned
//    lists (add_planned sets a bit iff it records a holder), so reuse
//    across sub-batch rounds costs O(holders), not O(files * nodes).
struct PlannerState {
  std::vector<double> node_ready;     // per compute node
  std::vector<double> storage_ready;  // per storage node
  // Estimated ready time of every shared link, indexed by Topology link id
  // (the global uplink, then the rack uplinks).
  std::vector<double> link_ready;
  // planned[f] = nodes expected to hold f, with availability time.
  // Read-only for planners; mutate via add_planned.
  std::vector<std::vector<std::pair<wl::NodeId, double>>> planned;

  PlannerState() = default;
  PlannerState(const wl::Workload& w, const sim::Topology& topo,
               const sim::ClusterState& current);

  // Re-initializes against a (possibly different) workload / topology /
  // cache state, reusing the allocated buffers. `origin` rebases the cache
  // snapshot's absolute availability stamps into the planner's relative
  // clock: a copy available at absolute time a prices as max(0, a - origin).
  // The streaming service passes its live-window base time here (its engine
  // stamps availability on the global service clock); the batch path keeps
  // the default 0, which leaves every stamp verbatim — bit-identical to the
  // historical reset.
  void reset(const wl::Workload& w, const sim::Topology& topo,
             const sim::ClusterState& current, double origin = 0.0);

  // Records that node n is planned to hold file f from time `avail` on.
  // No-op if already present.
  void add_planned(wl::FileId f, wl::NodeId n, double avail);

  bool on_node(wl::FileId f, wl::NodeId n) const {
    const std::size_t bit = static_cast<std::size_t>(f) * num_nodes_ + n;
    return (present_[bit >> 6] >> (bit & 63)) & 1u;
  }

 private:
  std::vector<std::uint64_t> present_;  // 1 bit per (file, node), file-major
  std::size_t num_nodes_ = 0;
};

struct CompletionEstimate {
  double completion = 0.0;
  double transfer_seconds = 0.0;  // time spent arriving files
  // Chosen source per missing file: (file, src, is_remote, arrival).
  struct Stage {
    wl::FileId file;
    wl::NodeId src;
    bool remote;
    double arrival;
  };
  std::vector<Stage> stages;
};

// MCT of `task` on `node` against the planner state (no mutation): files
// already planned on the node are free; others arrive from the best of the
// remote home or any planned replica holder, serialized on the node port.
CompletionEstimate estimate_completion(const wl::Workload& w,
                                       const sim::Topology& topo,
                                       const PlannerState& ps, wl::TaskId task,
                                       wl::NodeId node);

// Completion time only — the exact same arithmetic as estimate_completion
// (both instantiate one shared core) without recording stages, so the hot
// parallel sweeps allocate nothing. estimate_completion(...).completion is
// bit-identical to this value.
double estimate_completion_time(const wl::Workload& w,
                                const sim::Topology& topo,
                                const PlannerState& ps, wl::TaskId task,
                                wl::NodeId node);

// The completion time of `task` on every node of `nodes`: out[j] is
// bit-identical to estimate_completion_time(w, topo, ps, task, nodes[j]),
// and `out` must hold nodes.size() values.
//
// When every remote path shares one bandwidth and every replication shares
// one bandwidth (topo.uniform_remote() && topo.uniform_replica()), how soon
// an input's best source is ready does not depend on the destination: the
// remote source is ready at R = max(storage_ready[home], link readiness),
// and the best replica source at Q = min over holders h of
// max(node_ready[h], avail). Each is folded once per row; per node the
// input then costs cursor = min(max(cursor, R) + a, max(cursor, Q) + b),
// with a and b its remote and replica transfer seconds. That equals the
// per-node scan because max is exact and rounding x + c is monotone in x,
// so min_h fl(max(c, q_h) + b) == fl(max(c, min_h q_h) + b). A node that
// holds no input and whose node_ready is at or below the first input's
// readiness min(R, Q) starts every fold at the same cursor, so all such
// nodes share one folded value. Other topologies price node by node.
void estimate_completion_row(const wl::Workload& w, const sim::Topology& topo,
                             const PlannerState& ps, wl::TaskId task,
                             std::span<const wl::NodeId> nodes,
                             std::span<double> out);

// Applies the estimate: bumps port readies and records new file locations.
void apply_assignment(const wl::Workload& w, const sim::Topology& topo,
                      PlannerState& ps, wl::TaskId task, wl::NodeId node,
                      const CompletionEstimate& est);

}  // namespace bsio::sched
