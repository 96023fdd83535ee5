#include "sim/state.h"

#include <algorithm>

namespace bsio::sim {

ClusterState::ClusterState(std::size_t num_compute_nodes, double disk_capacity)
    : ClusterState(std::vector<double>(num_compute_nodes, disk_capacity)) {}

ClusterState::ClusterState(std::vector<double> capacities)
    : capacity_(std::move(capacities)),
      used_(capacity_.size(), 0.0),
      held_(capacity_.size()) {
  BSIO_CHECK(!capacity_.empty());
  for (double cap : capacity_) BSIO_CHECK(cap > 0.0);
}

std::uint32_t ClusterState::find(wl::NodeId node, wl::FileId file) const {
  if (file >= files_.size() || files_[file].count == 0) return kNone;
  const FileCopies& fc = files_[file];
  const auto first = node_.begin() + fc.begin;
  const auto last = first + fc.count;
  const auto it = std::lower_bound(first, last, node);
  if (it == last || *it != node) return kNone;
  return static_cast<std::uint32_t>(it - node_.begin());
}

double ClusterState::available_at(wl::NodeId node, wl::FileId file) const {
  const std::uint32_t k = find(node, file);
  BSIO_CHECK(k != kNone);
  return avail_[k];
}

std::span<const wl::NodeId> ClusterState::holders(wl::FileId file) const {
  if (num_copies(file) == 0) return {};
  return {node_.data() + files_[file].begin, files_[file].count};
}

std::span<const double> ClusterState::holder_avail(wl::FileId file) const {
  if (num_copies(file) == 0) return {};
  return {avail_.data() + files_[file].begin, files_[file].count};
}

void ClusterState::clear_residency_log() {
  for (wl::FileId f : log_) files_[f].logged = false;
  log_.clear();
}

void ClusterState::log_change(wl::FileId file) {
  if (files_[file].logged) return;
  files_[file].logged = true;
  log_.push_back(file);
}

std::uint32_t ClusterState::alloc_block(std::uint8_t cls) {
  if (free_blocks_.size() <= cls) free_blocks_.resize(cls + 1);
  std::vector<std::uint32_t>& free = free_blocks_[cls];
  if (!free.empty()) {
    const std::uint32_t begin = free.back();
    free.pop_back();
    return begin;
  }
  const std::size_t begin = node_.size();
  const std::size_t end = begin + (std::size_t{1} << (cls - 1));
  BSIO_CHECK(end < kNone);
  node_.resize(end);
  avail_.resize(end);
  last_use_.resize(end);
  pos_.resize(end);
  return static_cast<std::uint32_t>(begin);
}

void ClusterState::add(wl::NodeId node, wl::FileId file, double size_bytes,
                       double avail_time) {
  if (const std::uint32_t k = find(node, file); k != kNone) {
    avail_[k] = avail_time;
    last_use_[k] = std::max(last_use_[k], avail_time);
    return;
  }
  used_[node] += size_bytes;
  BSIO_CHECK_MSG(used_[node] <= capacity_[node] + 1.0,
                 "disk capacity exceeded: eviction must run before add");
  if (file >= files_.size()) files_.resize(file + 1);
  FileCopies& fc = files_[file];
  if (fc.cls == 0 || fc.count == std::uint32_t{1} << (fc.cls - 1)) {
    // Full (or no block yet): move to a block twice the size.
    const std::uint8_t cls = fc.cls + 1;
    const std::uint32_t begin = alloc_block(cls);
    for (std::uint32_t j = 0; j < fc.count; ++j) {
      node_[begin + j] = node_[fc.begin + j];
      avail_[begin + j] = avail_[fc.begin + j];
      last_use_[begin + j] = last_use_[fc.begin + j];
      pos_[begin + j] = pos_[fc.begin + j];
    }
    if (fc.cls != 0) free_blocks_[fc.cls].push_back(fc.begin);
    fc.begin = begin;
    fc.cls = cls;
  }
  // Shift the holders above `node` up one slot.
  std::uint32_t k = fc.begin + fc.count;
  for (; k > fc.begin && node_[k - 1] > node; --k) {
    node_[k] = node_[k - 1];
    avail_[k] = avail_[k - 1];
    last_use_[k] = last_use_[k - 1];
    pos_[k] = pos_[k - 1];
  }
  node_[k] = node;
  avail_[k] = avail_time;
  last_use_[k] = std::max(0.0, avail_time);
  pos_[k] = static_cast<std::uint32_t>(held_[node].size());
  held_[node].push_back({file, size_bytes});
  ++fc.count;
  log_change(file);
}

void ClusterState::unlink_copy(wl::FileId file, std::uint32_t k) {
  FileCopies& fc = files_[file];
  for (const std::uint32_t end = fc.begin + fc.count; k + 1 < end; ++k) {
    node_[k] = node_[k + 1];
    avail_[k] = avail_[k + 1];
    last_use_[k] = last_use_[k + 1];
    pos_[k] = pos_[k + 1];
  }
  if (--fc.count == 0) {
    free_blocks_[fc.cls].push_back(fc.begin);
    fc.begin = 0;
    fc.cls = 0;
  }
}

void ClusterState::erase_copy(wl::NodeId node, wl::FileId file,
                              std::uint32_t k) {
  std::vector<Held>& list = held_[node];
  const std::uint32_t p = pos_[k];
  unlink_copy(file, k);
  if (p + 1 != list.size()) {
    list[p] = list.back();
    pos_[find(node, list[p].file)] = p;
  }
  list.pop_back();
}

void ClusterState::remove(wl::NodeId node, wl::FileId file,
                          double size_bytes) {
  const std::uint32_t k = find(node, file);
  BSIO_CHECK(k != kNone);
  erase_copy(node, file, k);
  used_[node] -= size_bytes;
  log_change(file);
}

double ClusterState::clear_node(wl::NodeId node) {
  const double lost = used_[node];
  for (const Held& h : held_[node]) {
    unlink_copy(h.file, find(node, h.file));
    log_change(h.file);
  }
  held_[node].clear();
  used_[node] = 0.0;
  return lost;
}

void ClusterState::touch(wl::NodeId node, wl::FileId file, double time) {
  if (const std::uint32_t k = find(node, file); k != kNone)
    last_use_[k] = std::max(last_use_[k], time);
}

std::vector<wl::FileId> ClusterState::select_victims(
    wl::NodeId node, double need_bytes, const std::vector<wl::FileId>& pinned,
    EvictionPolicy policy, std::span<const double> pending_freq) const {
  struct Candidate {
    double key;
    wl::FileId file;
    double size;
  };
  // Heap order: the next victim has the lowest key, ties to the lower file
  // id (a total order, so the victims do not depend on the list order).
  const auto later = [](const Candidate& a, const Candidate& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.file > b.file;
  };
  std::vector<Candidate> heap;
  heap.reserve(held_[node].size());
  for (const Held& h : held_[node]) {
    if (std::find(pinned.begin(), pinned.end(), h.file) != pinned.end())
      continue;
    double key = 0.0;
    switch (policy) {
      case EvictionPolicy::kPopularity:
        // Eq. 22; copies >= 1 since this node holds the file.
        key = pending_freq[h.file] * h.size /
              static_cast<double>(files_[h.file].count);
        break;
      case EvictionPolicy::kLru:
        key = last_use_[find(node, h.file)];
        break;
      case EvictionPolicy::kSizeAscending:
        key = h.size;
        break;
    }
    heap.push_back({key, h.file, h.size});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<wl::FileId> victims;
  double freed = 0.0;
  for (auto end = heap.end(); freed < need_bytes && end != heap.begin();
       --end) {
    std::pop_heap(heap.begin(), end, later);
    victims.push_back((end - 1)->file);
    freed += (end - 1)->size;
  }
  if (freed < need_bytes) return {};  // cannot satisfy
  return victims;
}

std::vector<wl::FileId> ClusterState::files_on(wl::NodeId node) const {
  std::vector<wl::FileId> out;
  out.reserve(held_[node].size());
  for (const Held& h : held_[node]) out.push_back(h.file);
  return out;
}

}  // namespace bsio::sim
