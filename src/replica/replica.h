// Replica lifecycle manager: tiered replication targets, background repair
// traffic, and write-back of mutable files (DESIGN.md §15).
//
// Modeled on SLASH2's MDS-driven replication: the manager is the metadata
// authority that knows, per file, the DESIRED replication factor (by
// popularity tier) and the ACTUAL one (alive cached copies plus the home
// storage copy while it is current), and closes the gap with background
// repair jobs. It never executes transfers itself — it asks the
// ExecutionEngine to reserve them on the very same port/link Timelines the
// foreground traffic uses (ExecutionEngine::stage_replica / flush_to_home),
// under a configurable bandwidth cap, so repair competes honestly with task
// I/O instead of living in a free side channel.
//
// The copy-count model: a file's RF counts DISTINCT current copies — the
// home storage copy (while no write has outdated it) plus every alive
// compute node caching the current version. Writes (wl::TaskInfo::outputs)
// bump the file's version epoch inside the engine, eagerly invalidate every
// other cached copy, and leave the home stale; the manager's repair pass
// flushes dirty homes FIRST (write-back, so the home can source fan-out)
// and then re-replicates up to the tier target. A fail-stop crash drops a
// node's copies (PR 1 semantics); the next repair pass detects the deficit
// and re-creates them — lost replicas are repaired, not silently forgotten.
//
// With ReplicaConfig::enabled false (the default) nothing here runs and
// every simulation stays bit-identical to the replication-free engine
// (pinned against the PR 4 topology goldens in tests/replica_test.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::replica {

// One popularity tier: files whose popularity (remaining demand,
// ExecutionEngine::pending_requests) is at least min_popularity get
// target_rf desired copies. The matching tier is the LAST one whose
// min_popularity <= the file's popularity.
struct ReplicaTier {
  double min_popularity = 0.0;
  std::uint32_t target_rf = 1;
};

struct ReplicaConfig {
  // Master switch. Off = the manager is never constructed and the engine's
  // replica surface is never called; runs are bit-identical to PR 4.
  bool enabled = false;
  // Tiers sorted by strictly increasing min_popularity (overlapping or
  // unordered boundaries are a typed validation error); must be non-empty
  // when enabled, and tier 0 should carry min_popularity 0 so every file
  // has a target. target_rf counts the home copy too, so its ceiling is
  // num_compute_nodes + 1.
  std::vector<ReplicaTier> tiers;
  // Per-transfer repair bandwidth ceiling in bytes/s; 0 = the path's own
  // bandwidth (negative is a validation error). The cap lengthens each
  // repair reservation, which is exactly how repair yields link time to
  // foreground traffic.
  double repair_bandwidth_cap = 0.0;

  // Typed validation (surfaced through run_batch / StreamServiceLoop):
  // empty tier table, target_rf of 0 or exceeding num_compute_nodes + 1,
  // negative bandwidth cap, negative / non-increasing tier boundaries.
  Status validate(std::size_t num_compute_nodes) const;

  // Desired copy count for a file of the given popularity (requires a
  // validated, non-empty tier table).
  std::uint32_t target_rf(double popularity) const;
};

// Residency of one file, derived from live engine state (nothing cached in
// the manager — the engine's cluster state IS the truth).
enum class Residency {
  kSatisfied,  // current copies >= tier target, home copy current
  kDegraded,   // fewer current copies than the target (crash loss, tier
               // raise, or a fresh write not yet fanned out)
  kDirty,      // the newest version has not been flushed home yet
  kLost,       // no alive node holds the newest version and the home is
               // stale: reads roll back to the old version (lost_versions)
};

// What one repair round scheduled.
struct RepairReport {
  std::size_t flushes_scheduled = 0;   // dirty homes written back
  std::size_t replicas_scheduled = 0;  // fan-out copies placed
  // Repair work recognised but not scheduled this round: no destination
  // with free space, or no usable source.
  std::size_t deferred = 0;
  // Latest completion instant over everything scheduled this round (0 when
  // nothing was).
  double last_completion = 0.0;
};

class ReplicaManager {
 public:
  // `config` must already be validated against the cluster (run_batch and
  // StreamServiceLoop do; direct users call ReplicaConfig::validate).
  // `workload` must outlive the manager.
  ReplicaManager(const wl::Workload& workload, const ReplicaConfig& config);

  // Tier target for the file's remaining demand.
  std::uint32_t desired_rf(const sim::ExecutionEngine& engine,
                           wl::FileId file) const;
  // Distinct current copies: alive compute holders + the home while valid.
  std::uint32_t actual_rf(const sim::ExecutionEngine& engine,
                          wl::FileId file) const;
  Residency residency(const sim::ExecutionEngine& engine,
                      wl::FileId file) const;

  // Files whose residency is not kSatisfied, ascending. kLost files are
  // included: they stay below target until their next write recreates a
  // current version (repair cannot resurrect a lost epoch).
  std::vector<wl::FileId> files_below_target(
      const sim::ExecutionEngine& engine) const;

  // One deterministic repair round at simulated time `now`: flushes every
  // dirty home first (oldest file id first), then fans out replicas for
  // under-replicated files, choosing destinations by most free disk (ties
  // to the lowest node id) and never evicting — a file that fits nowhere is
  // deferred to a later round. Scheduled transfers land on the engine's
  // shared Timelines at or after `now`, capped by repair_bandwidth_cap.
  RepairReport run_repairs(sim::ExecutionEngine& engine, double now);

 private:
  const wl::Workload& workload_;
  ReplicaConfig cfg_;
};

}  // namespace bsio::replica
