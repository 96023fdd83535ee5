// Cluster disk-cache state: which compute node holds which file, from when,
// and the eviction machinery (paper Sections 4.3 and the LRU variant of
// [13]).
//
// A holder entry carries the simulated time the copy becomes available
// (the end of the transfer that created it) so replica-source selection
// never reads a file before it exists. Eviction is temporally safe by
// construction — see the engine's commit discipline.
//
// Residency is flat and indexed by dense file id. Each file's copies sit in
// one block of a shared pool, holders ascending, each copy with its
// availability and LRU stamp; each node lists the files it caches (for
// eviction and clear_node). Nothing is allocated per copy.
#pragma once

#include <cstdint>
#include <span>
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

  std::size_t num_nodes() const { return capacity_.size(); }
  double capacity(wl::NodeId node) const { return capacity_[node]; }

  bool has(wl::NodeId node, wl::FileId file) const {
    return find(node, file) != kNone;
  }
  // Time the copy becomes readable; requires has().
  double available_at(wl::NodeId node, wl::FileId file) const;

  // Compute nodes currently holding `file`, ascending (any availability
  // time), and the instant each of their copies becomes readable
  // (holder_avail(f)[k] belongs to holders(f)[k]). Both views stay valid
  // until the next add(), remove() or clear_node().
  std::span<const wl::NodeId> holders(wl::FileId file) const;
  std::span<const double> holder_avail(wl::FileId file) const;
  std::size_t num_copies(wl::FileId file) const {
    return file < files_.size() ? files_[file].count : 0;
  }

  // Files whose holder set changed (add of a new copy, remove, clear_node)
  // since the last clear_residency_log(), each once.
  const std::vector<wl::FileId>& residency_log() const { return log_; }
  void clear_residency_log();

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
  // a pinned file. pending_freq[f] = number of still-unexecuted tasks that
  // request f (popularity numerator); sizes are those the copies were added
  // with. Returns the victims in eviction order (ascending key, ties to the
  // lower file id); empty result with need_bytes > 0 means the space cannot
  // be freed (caller decides how to fail).
  std::vector<wl::FileId> select_victims(
      wl::NodeId node, double need_bytes, const std::vector<wl::FileId>& pinned,
      EvictionPolicy policy, std::span<const double> pending_freq) const;

  // All files cached on a node (unordered).
  std::vector<wl::FileId> files_on(wl::NodeId node) const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // A file's block in the copy pool: `count` holders ascending from
  // `begin`, in a block of 2^(cls - 1) slots (cls 0: no block).
  struct FileCopies {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint8_t cls = 0;
    bool logged = false;
  };
  // One file cached on a node; the copy's pos_ is its index in the list.
  struct Held {
    wl::FileId file = wl::kInvalidFile;
    double size = 0.0;
  };

  // Pool index of node's copy of file, or kNone.
  std::uint32_t find(wl::NodeId node, wl::FileId file) const;
  // Drops the copy at pool index k (held by `node`) from file's block and
  // from node's list.
  void erase_copy(wl::NodeId node, wl::FileId file, std::uint32_t k);
  // Drops pool slot k from file's block, keeping holders ascending.
  void unlink_copy(wl::FileId file, std::uint32_t k);
  // A block of 2^(cls - 1) slots, reused from the free list when one is.
  std::uint32_t alloc_block(std::uint8_t cls);
  void log_change(wl::FileId file);

  std::vector<double> capacity_;
  std::vector<double> used_;
  std::vector<FileCopies> files_;  // grown to the largest file id cached
  // The copy pool, one slot per copy: holder, availability, LRU stamp and
  // the index of the file in the holder's held_ list.
  std::vector<wl::NodeId> node_;
  std::vector<double> avail_;
  std::vector<double> last_use_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::vector<std::uint32_t>> free_blocks_;  // per size class
  std::vector<std::vector<Held>> held_;                  // per node
  std::vector<wl::FileId> log_;
};

}  // namespace bsio::sim
