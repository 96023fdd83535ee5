#include "sim/state.h"

#include <algorithm>

namespace bsio::sim {

ClusterState::ClusterState(std::size_t num_compute_nodes, double disk_capacity)
    : ClusterState(std::vector<double>(num_compute_nodes, disk_capacity)) {}

ClusterState::ClusterState(std::vector<double> capacities)
    : capacity_(std::move(capacities)),
      caches_(capacity_.size()),
      used_(capacity_.size(), 0.0) {
  BSIO_CHECK(!capacity_.empty());
  for (double cap : capacity_) BSIO_CHECK(cap > 0.0);
}

bool ClusterState::has(wl::NodeId node, wl::FileId file) const {
  return caches_[node].count(file) > 0;
}

double ClusterState::available_at(wl::NodeId node, wl::FileId file) const {
  auto it = caches_[node].find(file);
  BSIO_CHECK(it != caches_[node].end());
  return it->second.avail_time;
}

namespace {
const std::vector<wl::NodeId> kNoHolders;
}

const std::vector<wl::NodeId>& ClusterState::holders(wl::FileId file) const {
  auto it = holder_index_.find(file);
  return it == holder_index_.end() ? kNoHolders : it->second;
}

std::size_t ClusterState::num_copies(wl::FileId file) const {
  auto it = holder_index_.find(file);
  return it == holder_index_.end() ? 0 : it->second.size();
}

void ClusterState::index_add(wl::NodeId node, wl::FileId file) {
  if (file >= version_.size()) version_.resize(file + 1, 0);
  ++version_[file];
  std::vector<wl::NodeId>& h = holder_index_[file];
  h.insert(std::upper_bound(h.begin(), h.end(), node), node);
}

void ClusterState::index_remove(wl::NodeId node, wl::FileId file) {
  auto it = holder_index_.find(file);
  BSIO_CHECK(it != holder_index_.end());
  ++version_[file];
  auto pos = std::lower_bound(it->second.begin(), it->second.end(), node);
  BSIO_CHECK(pos != it->second.end() && *pos == node);
  it->second.erase(pos);
  if (it->second.empty()) holder_index_.erase(it);
}

void ClusterState::add(wl::NodeId node, wl::FileId file, double size_bytes,
                       double avail_time) {
  auto [it, inserted] = caches_[node].try_emplace(file);
  if (inserted) {
    used_[node] += size_bytes;
    BSIO_CHECK_MSG(used_[node] <= capacity_[node] + 1.0,
                   "disk capacity exceeded: eviction must run before add");
    index_add(node, file);
  }
  it->second.avail_time = avail_time;
  it->second.last_use = std::max(it->second.last_use, avail_time);
}

void ClusterState::remove(wl::NodeId node, wl::FileId file,
                          double size_bytes) {
  auto it = caches_[node].find(file);
  BSIO_CHECK(it != caches_[node].end());
  caches_[node].erase(it);
  used_[node] -= size_bytes;
  index_remove(node, file);
}

double ClusterState::clear_node(wl::NodeId node) {
  const double lost = used_[node];
  for (const auto& [file, entry] : caches_[node]) index_remove(node, file);
  caches_[node].clear();
  used_[node] = 0.0;
  return lost;
}

void ClusterState::touch(wl::NodeId node, wl::FileId file, double time) {
  auto it = caches_[node].find(file);
  if (it != caches_[node].end())
    it->second.last_use = std::max(it->second.last_use, time);
}

std::vector<wl::FileId> ClusterState::select_victims(
    wl::NodeId node, double need_bytes, const std::vector<wl::FileId>& pinned,
    EvictionPolicy policy,
    const std::function<double(wl::FileId)>& pending_freq,
    const std::function<double(wl::FileId)>& file_size) const {
  struct Candidate {
    wl::FileId file;
    double key;
    double size;
  };
  std::vector<Candidate> cands;
  cands.reserve(caches_[node].size());
  for (const auto& [file, entry] : caches_[node]) {
    if (std::find(pinned.begin(), pinned.end(), file) != pinned.end())
      continue;
    double key = 0.0;
    switch (policy) {
      case EvictionPolicy::kPopularity: {
        // Eq. 22; copies >= 1 since this node holds the file.
        double copies = static_cast<double>(num_copies(file));
        key = pending_freq(file) * file_size(file) / copies;
        break;
      }
      case EvictionPolicy::kLru:
        key = entry.last_use;
        break;
      case EvictionPolicy::kSizeAscending:
        key = file_size(file);
        break;
    }
    cands.push_back({file, key, file_size(file)});
  }
  std::sort(cands.begin(), cands.end(), [](const Candidate& a,
                                           const Candidate& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.file < b.file;  // deterministic tiebreak
  });
  std::vector<wl::FileId> victims;
  double freed = 0.0;
  for (const auto& c : cands) {
    if (freed >= need_bytes) break;
    victims.push_back(c.file);
    freed += c.size;
  }
  if (freed < need_bytes) return {};  // cannot satisfy
  return victims;
}

std::vector<wl::FileId> ClusterState::files_on(wl::NodeId node) const {
  std::vector<wl::FileId> out;
  out.reserve(caches_[node].size());
  for (const auto& [file, entry] : caches_[node]) out.push_back(file);
  return out;
}

}  // namespace bsio::sim
