// Cluster disk-cache state: which compute node holds which file, from when,
// and the eviction machinery (paper Sections 4.3 and the LRU variant of
// [13]).
//
// A holder entry carries the simulated time the copy becomes available
// (the end of the transfer that created it) so replica-source selection
// never reads a file before it exists. Eviction is temporally safe by
// construction — see the engine's commit discipline.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "workload/types.h"

namespace bsio::sim {

enum class EvictionPolicy {
  kPopularity,     // Eq. 22: AccessFreq * size / NumCopies, lowest first
  kLru,            // least recently used first ([13]'s mechanism)
  kSizeAscending,  // smallest file first (ablation)
};

class ClusterState {
 public:
  // Uniform capacity on every node.
  ClusterState(std::size_t num_compute_nodes, double disk_capacity);
  // Heterogeneous per-node capacities (paper Eqs. 16/21's DiskSpace_i).
  explicit ClusterState(std::vector<double> capacities);

  std::size_t num_nodes() const { return caches_.size(); }
  double capacity(wl::NodeId node) const { return capacity_[node]; }

  bool has(wl::NodeId node, wl::FileId file) const;
  // Time the copy becomes readable; requires has().
  double available_at(wl::NodeId node, wl::FileId file) const;

  // Compute nodes currently holding `file`, ascending (any availability
  // time). O(1): served from an inverted holder index maintained on every
  // cache mutation.
  const std::vector<wl::NodeId>& holders(wl::FileId file) const;
  std::size_t num_copies(wl::FileId file) const;

  // Bumped each time any node gains or loses a copy of `file` (add,
  // remove, clear_node); 0 for a file never cached. A view of which nodes
  // hold the file is current while its version is unchanged.
  std::uint32_t residency_version(wl::FileId file) const {
    return file < version_.size() ? version_[file] : 0;
  }

  double used_bytes(wl::NodeId node) const { return used_[node]; }
  double free_bytes(wl::NodeId node) const {
    return capacity_[node] - used_[node];
  }

  void add(wl::NodeId node, wl::FileId file, double size_bytes,
           double avail_time);
  void remove(wl::NodeId node, wl::FileId file, double size_bytes);
  // Drops every file cached on `node` (crash recovery); returns the bytes
  // lost.
  double clear_node(wl::NodeId node);
  // Updates the LRU stamp.
  void touch(wl::NodeId node, wl::FileId file, double time);

  // Victim selection on `node` to free at least `need_bytes`, never choosing
  // a pinned file. pending_freq(f) = number of still-unexecuted tasks that
  // request f (popularity numerator); file_size(f) in bytes. Returns the
  // victims in eviction order; empty result with need_bytes > 0 means the
  // space cannot be freed (caller decides how to fail).
  std::vector<wl::FileId> select_victims(
      wl::NodeId node, double need_bytes, const std::vector<wl::FileId>& pinned,
      EvictionPolicy policy,
      const std::function<double(wl::FileId)>& pending_freq,
      const std::function<double(wl::FileId)>& file_size) const;

  // All files cached on a node (unordered).
  std::vector<wl::FileId> files_on(wl::NodeId node) const;

 private:
  struct Entry {
    double avail_time = 0.0;
    double last_use = 0.0;
  };

  // Inverted-index maintenance shared by add/remove/clear_node.
  void index_add(wl::NodeId node, wl::FileId file);
  void index_remove(wl::NodeId node, wl::FileId file);

  std::vector<double> capacity_;
  std::vector<std::unordered_map<wl::FileId, Entry>> caches_;
  std::vector<double> used_;
  // file -> sorted nodes caching it. Replica-source selection and the
  // popularity-eviction copy count query holders per candidate transfer;
  // without the index each query scans all K per-node maps — the dominant
  // quadratic term at 1k nodes.
  std::unordered_map<wl::FileId, std::vector<wl::NodeId>> holder_index_;
  // Per-file residency versions, grown to the largest file id cached.
  std::vector<std::uint32_t> version_;
};

}  // namespace bsio::sim
