// Deterministic, seeded fault injection for the execution engine.
//
// Three failure classes, all replayable bit-for-bit from a single seed:
//
//  - Transient transfer failures: every transfer attempt fails with
//    probability transfer_failure_prob, decided by a stateless hash of
//    (seed, transfer index, attempt) so retries never perturb unrelated
//    draws. A failed attempt occupies its endpoint links for the full
//    transfer window (the failure is detected at the deadline — the
//    conservative single-port accounting), and the retry waits an
//    exponentially growing backoff (0.5 s, doubling) before re-picking the
//    then-best source. The fifth attempt always succeeds, so every transfer
//    completes and simulations terminate even at probability 1.
//
//  - Compute-node crashes: node fail-stops at the scheduled instant. The
//    first task whose execution block would run past the crash is killed
//    (its partial work up to the crash is charged on the node timeline),
//    the node's entire disk cache is lost, and the node accepts no further
//    work. Killed and never-started tasks of the node surface through
//    ExecutionEngine::take_orphaned() for driver-level re-scheduling.
//
//  - Storage-node outages: a storage node serves nothing during
//    [start, end). Realised as a pre-reserved window on the node's port
//    timeline, so remote transfers either wait the window out or the
//    engine's dynamic rule degrades to replica-only sourcing.
//
//  - Compute-node slowdowns: a degraded-but-alive node executes task
//    blocks `factor`× slower inside a scheduled window (the progress model
//    behind straggler detection — planners stay blind to the degradation,
//    only the engine and its speculation trigger see it).
//
// A default-constructed FaultModel injects nothing and draws nothing: with
// faults disabled, every simulation reproduces the fault-free makespans
// exactly.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/cluster.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::sim {

struct ComputeCrash {
  wl::NodeId node = wl::kInvalidNode;
  double time = 0.0;  // fail-stop instant, simulated seconds
};

struct StorageOutage {
  wl::NodeId node = wl::kInvalidNode;
  double start = 0.0;
  double end = 0.0;  // half-open window [start, end)
};

// Degraded-but-alive compute node: execution inside [start, end) runs
// `factor`× slower (factor 1 is a no-op). Windows of one node must not
// overlap. Transfers are unaffected — only the local-read + compute block
// stretches, which is what makes the node a straggler rather than dead.
struct NodeSlowdown {
  wl::NodeId node = wl::kInvalidNode;
  double start = 0.0;
  double end = std::numeric_limits<double>::infinity();  // half-open
  double factor = 1.0;
};

struct FaultConfig {
  std::uint64_t seed = 0x5eedULL;
  // Per-attempt probability that a transfer (remote or replication) fails.
  // Attempts 0-3 draw a coin; attempt 4 always succeeds.
  double transfer_failure_prob = 0.0;
  std::vector<ComputeCrash> compute_crashes;
  std::vector<StorageOutage> storage_outages;
  std::vector<NodeSlowdown> compute_slowdowns;

  // Recoverable validation against a cluster's shape (node-id ranges,
  // probability bounds, window sanity).
  Status validate(const ClusterConfig& cluster) const;
};

// Speculative task replication (the engine's straggler mitigation; see
// DESIGN.md §10). When a task is about to start on a node whose estimated
// completion lags the best alternative, the engine launches a duplicate
// attempt on an alive node that already caches the task's inputs and keeps
// whichever attempt finishes first; the loser is cancelled and its not-yet-
// elapsed Timeline reservations and disk-space holds are released. Disabled
// by default: with `enabled == false` every simulation is bit-identical to
// the non-speculative engine.
struct SpeculationConfig {
  bool enabled = false;
  // Relative-progress trigger: duplicate only when the assigned node's
  // estimated completion exceeds straggler_ratio × the best cached-input
  // alternative's estimate (a ratio >= 1 over estimates >= 0 implies a
  // positive gain).
  double straggler_ratio = 1.5;
  // Budget: at most this many duplicate launches per engine lifetime.
  std::size_t max_speculative_tasks =
      std::numeric_limits<std::size_t>::max();
  // A backup node qualifies only if it already caches at least this many of
  // the task's input files (0 = any alive node qualifies).
  std::size_t min_cached_inputs = 1;

  Status validate() const;
};

class FaultModel {
 public:
  FaultModel() = default;  // injects nothing
  // The config must already validate against the target cluster.
  explicit FaultModel(FaultConfig config, std::size_t num_compute_nodes,
                      std::size_t num_storage_nodes);

  // Does attempt `attempt` (0-based) of the `transfer_index`-th committed
  // transfer fail? Stateless and deterministic; the fifth attempt (index 4)
  // never fails.
  bool transfer_attempt_fails(std::uint64_t transfer_index,
                              std::size_t attempt) const;

  // Backoff charged after failed attempt `attempt` (0-based): 0.5 s × 2^k.
  double backoff_after(std::size_t attempt) const;

  // Any degradation window with factor > 1 configured?
  bool has_slowdowns() const { return has_slowdowns_; }

  // Wall-clock duration of an execution block of `nominal` seconds starting
  // at `start` on `node`, walking the node's degradation windows piecewise
  // (work inside a window progresses at 1/factor speed). Returns `nominal`
  // exactly when the node has no windows.
  double stretched_exec_duration(wl::NodeId node, double start,
                                 double nominal) const;

  // Fail-stop time of a compute node; +infinity when none is scheduled.
  double crash_time(wl::NodeId node) const {
    return node < crash_time_.size()
               ? crash_time_[node]
               : std::numeric_limits<double>::infinity();
  }

  // Merged, sorted outage windows of a storage node.
  const std::vector<StorageOutage>& outages_of(wl::NodeId storage_node) const;

 private:
  FaultConfig config_;
  std::vector<double> crash_time_;                   // per compute node
  std::vector<std::vector<StorageOutage>> outages_;  // per storage node
  std::vector<std::vector<NodeSlowdown>> slowdowns_;  // per compute node
  bool has_slowdowns_ = false;
};

}  // namespace bsio::sim
