#include "replica/replica.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace bsio::replica {

Status ReplicaConfig::validate(std::size_t num_compute_nodes) const {
  if (!enabled) return OkStatus();
  if (tiers.empty())
    return Err("ReplicaConfig: enabled but the tier table is empty (add at "
               "least a catch-all tier with min_popularity 0)");
  if (!(repair_bandwidth_cap >= 0.0))
    return Err("ReplicaConfig: repair_bandwidth_cap must be >= 0 (0 = the "
               "path's own bandwidth)");
  const std::uint32_t max_rf =
      static_cast<std::uint32_t>(num_compute_nodes) + 1;  // + the home copy
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const ReplicaTier& t = tiers[i];
    if (!(t.min_popularity >= 0.0))
      return Err("ReplicaConfig: tier " + std::to_string(i) +
                 " has a negative popularity boundary");
    if (t.target_rf == 0)
      return Err("ReplicaConfig: tier " + std::to_string(i) +
                 " targets 0 copies (files must keep at least the home "
                 "copy)");
    if (t.target_rf > max_rf)
      return Err("ReplicaConfig: tier " + std::to_string(i) + " targets " +
                 std::to_string(t.target_rf) + " copies but the cluster has " +
                 std::to_string(num_compute_nodes) +
                 " compute nodes plus one home copy (" +
                 std::to_string(max_rf) + " distinct locations)");
    if (i > 0 && !(t.min_popularity > tiers[i - 1].min_popularity))
      return Err("ReplicaConfig: tier boundaries overlap — tier " +
                 std::to_string(i) + " starts at popularity " +
                 std::to_string(t.min_popularity) + " but tier " +
                 std::to_string(i - 1) + " already starts at " +
                 std::to_string(tiers[i - 1].min_popularity) +
                 " (boundaries must be strictly increasing)");
  }
  return OkStatus();
}

std::uint32_t ReplicaConfig::target_rf(double popularity) const {
  BSIO_CHECK_MSG(!tiers.empty(), "target_rf needs a validated tier table");
  // Last tier whose boundary is at or below the popularity; a popularity
  // below every boundary falls back to tier 0.
  std::uint32_t rf = tiers.front().target_rf;
  for (const ReplicaTier& t : tiers) {
    if (popularity < t.min_popularity) break;
    rf = t.target_rf;
  }
  return rf;
}

ReplicaManager::ReplicaManager(const wl::Workload& workload,
                               const ReplicaConfig& config)
    : workload_(workload), cfg_(config) {
  BSIO_CHECK_MSG(cfg_.enabled,
                 "ReplicaManager requires an enabled ReplicaConfig");
  BSIO_CHECK_MSG(!cfg_.tiers.empty(),
                 "ReplicaManager requires a validated tier table");
}

std::uint32_t ReplicaManager::desired_rf(const sim::ExecutionEngine& engine,
                                         wl::FileId file) const {
  return cfg_.target_rf(engine.pending_requests(file));
}

std::uint32_t ReplicaManager::actual_rf(const sim::ExecutionEngine& engine,
                                        wl::FileId file) const {
  // Crash recovery clears a dead node's cache (ClusterState::clear_node),
  // so every indexed holder is alive and current (writes eagerly drop stale
  // copies) — the count is exact without filtering.
  std::uint32_t rf =
      static_cast<std::uint32_t>(engine.state().num_copies(file));
  if (engine.home_valid(file)) ++rf;
  return rf;
}

Residency ReplicaManager::residency(const sim::ExecutionEngine& engine,
                                    wl::FileId file) const {
  const bool home_ok = engine.home_valid(file);
  const std::size_t copies = engine.state().num_copies(file);
  if (!home_ok && copies == 0) return Residency::kLost;
  if (!home_ok) return Residency::kDirty;
  if (actual_rf(engine, file) < desired_rf(engine, file))
    return Residency::kDegraded;
  return Residency::kSatisfied;
}

std::vector<wl::FileId> ReplicaManager::files_below_target(
    const sim::ExecutionEngine& engine) const {
  std::vector<wl::FileId> out;
  for (wl::FileId f = 0; f < workload_.num_files(); ++f)
    if (residency(engine, f) != Residency::kSatisfied) out.push_back(f);
  return out;
}

RepairReport ReplicaManager::run_repairs(sim::ExecutionEngine& engine,
                                         double now) {
  RepairReport report;

  // Pass 1 — write-back: flush every dirty home whose current version is
  // still alive somewhere. Doing this before fan-out lets the home storage
  // port source the new copies, and bounds the window in which a writer
  // crash loses the newest version.
  for (wl::FileId f = 0; f < workload_.num_files(); ++f) {
    if (engine.home_valid(f)) continue;
    if (engine.state().num_copies(f) == 0) continue;  // kLost: unrepairable
    Result<double> done =
        engine.flush_to_home(f, now, cfg_.repair_bandwidth_cap);
    if (!done.ok()) {
      ++report.deferred;
      continue;
    }
    ++report.flushes_scheduled;
    report.last_completion = std::max(report.last_completion, done.value());
  }

  // Pass 2 — fan-out: bring every under-replicated file up to its tier
  // target, one copy at a time, onto the alive non-holder with the most
  // free disk (ties to the lowest node id). Repair never evicts: a copy
  // that fits nowhere is deferred to a later round.
  const auto& alive = engine.alive_mask();
  for (wl::FileId f = 0; f < workload_.num_files(); ++f) {
    std::uint32_t have = actual_rf(engine, f);
    const std::uint32_t want = desired_rf(engine, f);
    // A lost version has no source anywhere: one deferral, no offers.
    if (have < want && residency(engine, f) == Residency::kLost) {
      ++report.deferred;
      continue;
    }
    while (have < want) {
      // Alive non-holders with room, most free disk first (ties keep the
      // lowest node id). Each is OFFERED the copy in turn: the engine may
      // refuse a destination the manager cannot rule out itself — e.g. a
      // node whose scheduled fail-stop lands before the copy completes —
      // so one refusal must not strand the file.
      std::vector<wl::NodeId> dsts;
      for (wl::NodeId n = 0; n < alive.size(); ++n) {
        if (!alive[n] || engine.state().has(n, f)) continue;
        if (engine.state().free_bytes(n) < workload_.file_size(f)) continue;
        dsts.push_back(n);
      }
      std::stable_sort(dsts.begin(), dsts.end(),
                       [&](wl::NodeId a, wl::NodeId b) {
                         return engine.state().free_bytes(a) >
                                engine.state().free_bytes(b);
                       });
      bool placed = false;
      for (wl::NodeId dst : dsts) {
        Result<double> done =
            engine.stage_replica(f, dst, now, cfg_.repair_bandwidth_cap);
        if (!done.ok()) continue;
        ++report.replicas_scheduled;
        report.last_completion =
            std::max(report.last_completion, done.value());
        ++have;
        placed = true;
        break;
      }
      if (!placed) {
        ++report.deferred;
        break;
      }
    }
  }
  return report;
}

}  // namespace bsio::replica
