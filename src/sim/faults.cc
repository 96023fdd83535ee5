#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.h"

namespace bsio::sim {

namespace {

// Attempts per transfer, counting the first; the last one never fails.
constexpr std::size_t kMaxTransferAttempts = 5;
// Backoff after failed attempt k (0-based) is kRetryBackoffSeconds ×
// kRetryBackoffFactor^k: at most 0.5 × 2^3 = 4 s.
constexpr double kRetryBackoffSeconds = 0.5;
constexpr double kRetryBackoffFactor = 2.0;

}  // namespace

Status FaultConfig::validate(const ClusterConfig& cluster) const {
  if (!(transfer_failure_prob >= 0.0 && transfer_failure_prob <= 1.0))
    return Err("FaultConfig: transfer_failure_prob must be in [0, 1]");
  for (const ComputeCrash& c : compute_crashes) {
    if (c.node >= cluster.num_compute_nodes)
      return Err("FaultConfig: crash names compute node " +
                 std::to_string(c.node) + " but the cluster has only " +
                 std::to_string(cluster.num_compute_nodes));
    if (!(c.time >= 0.0) || !std::isfinite(c.time))
      return Err("FaultConfig: crash time must be finite and >= 0");
  }
  for (const StorageOutage& o : storage_outages) {
    if (o.node >= cluster.num_storage_nodes)
      return Err("FaultConfig: outage names storage node " +
                 std::to_string(o.node) + " but the cluster has only " +
                 std::to_string(cluster.num_storage_nodes));
    if (!(o.start >= 0.0) || !(o.end > o.start) || !std::isfinite(o.end))
      return Err("FaultConfig: outage window must satisfy 0 <= start < end "
                 "< infinity");
  }
  std::vector<std::vector<NodeSlowdown>> per_node(cluster.num_compute_nodes);
  for (const NodeSlowdown& s : compute_slowdowns) {
    if (s.node >= cluster.num_compute_nodes)
      return Err("FaultConfig: slowdown names compute node " +
                 std::to_string(s.node) + " but the cluster has only " +
                 std::to_string(cluster.num_compute_nodes));
    if (!(s.start >= 0.0) || !(s.end > s.start))
      return Err("FaultConfig: slowdown window must satisfy 0 <= start < end");
    if (!(s.factor >= 1.0) || !std::isfinite(s.factor))
      return Err("FaultConfig: slowdown factor must be finite and >= 1");
    per_node[s.node].push_back(s);
  }
  for (auto& windows : per_node) {
    std::sort(windows.begin(), windows.end(),
              [](const NodeSlowdown& a, const NodeSlowdown& b) {
                return a.start < b.start;
              });
    for (std::size_t i = 1; i < windows.size(); ++i) {
      if (windows[i].start < windows[i - 1].end)
        return Err("FaultConfig: slowdown windows of compute node " +
                   std::to_string(windows[i].node) + " overlap");
    }
  }
  return OkStatus();
}

Status SpeculationConfig::validate() const {
  if (!(straggler_ratio >= 1.0) || !std::isfinite(straggler_ratio))
    return Err("SpeculationConfig: straggler_ratio must be finite and >= 1");
  return OkStatus();
}

FaultModel::FaultModel(FaultConfig config, std::size_t num_compute_nodes,
                       std::size_t num_storage_nodes)
    : config_(std::move(config)),
      crash_time_(num_compute_nodes,
                  std::numeric_limits<double>::infinity()),
      outages_(num_storage_nodes),
      slowdowns_(num_compute_nodes) {
  for (const NodeSlowdown& s : config_.compute_slowdowns) {
    if (s.factor <= 1.0) continue;  // factor 1 stretches nothing
    slowdowns_[s.node].push_back(s);
    has_slowdowns_ = true;
  }
  for (auto& windows : slowdowns_) {
    std::sort(windows.begin(), windows.end(),
              [](const NodeSlowdown& a, const NodeSlowdown& b) {
                return a.start < b.start;
              });
  }
  for (const ComputeCrash& c : config_.compute_crashes)
    crash_time_[c.node] = std::min(crash_time_[c.node], c.time);
  for (const StorageOutage& o : config_.storage_outages)
    outages_[o.node].push_back(o);
  // Merge overlapping/adjacent windows per node so the engine can reserve
  // each one on a fresh timeline.
  for (auto& windows : outages_) {
    std::sort(windows.begin(), windows.end(),
              [](const StorageOutage& a, const StorageOutage& b) {
                return a.start < b.start;
              });
    std::vector<StorageOutage> merged;
    for (const StorageOutage& o : windows) {
      if (!merged.empty() && o.start <= merged.back().end)
        merged.back().end = std::max(merged.back().end, o.end);
      else
        merged.push_back(o);
    }
    windows = std::move(merged);
  }
}

bool FaultModel::transfer_attempt_fails(std::uint64_t transfer_index,
                                        std::size_t attempt) const {
  if (config_.transfer_failure_prob <= 0.0) return false;
  if (attempt + 1 >= kMaxTransferAttempts) return false;
  if (config_.transfer_failure_prob >= 1.0) return true;
  // Stateless coin: independent of draw order, so a retry never shifts the
  // fault pattern seen by unrelated transfers.
  const std::uint64_t h = hash_mix(
      hash_mix(config_.seed + 0x9e3779b97f4a7c15ULL * transfer_index) +
      attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config_.transfer_failure_prob;
}

double FaultModel::backoff_after(std::size_t attempt) const {
  return kRetryBackoffSeconds *
         std::pow(kRetryBackoffFactor, static_cast<double>(attempt));
}

double FaultModel::stretched_exec_duration(wl::NodeId node, double start,
                                           double nominal) const {
  if (nominal <= 0.0) return nominal;
  if (node >= slowdowns_.size() || slowdowns_[node].empty()) return nominal;
  // Walk the node's sorted windows left to right, spending `remaining`
  // seconds of work: gaps between windows progress at full speed, a span of
  // `w` wall seconds inside a factor-f window only completes w/f seconds of
  // work. Everything past the last window is full speed again.
  double t = start;
  double remaining = nominal;
  for (const NodeSlowdown& w : slowdowns_[node]) {
    if (w.end <= t) continue;
    if (w.start > t) {
      const double gap = w.start - t;
      if (remaining <= gap) return t + remaining - start;
      remaining -= gap;
      t = w.start;
    }
    const double span = w.end - t;  // wall time available inside the window
    const double capacity = span / w.factor;
    if (remaining <= capacity) return t + remaining * w.factor - start;
    remaining -= capacity;
    t = w.end;
  }
  return t + remaining - start;
}

const std::vector<StorageOutage>& FaultModel::outages_of(
    wl::NodeId storage_node) const {
  static const std::vector<StorageOutage> kNone;
  return storage_node < outages_.size() ? outages_[storage_node] : kNone;
}

}  // namespace bsio::sim
