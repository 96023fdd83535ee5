// Task ranking for the engine's Section 6 runtime: each compute node runs
// next its pending task with the earliest completion time (ECT).
//
// The ECT estimate is horizon-based and mutation-free. A task compiles into
// one term per input file (local, home-only or held) and is evaluated by
// folding `cursor = max(cursor, ready[h]) + a` over its non-local inputs
// from c0 = max(node horizon, release floor); a held input is priced live
// against its holders. Unrolled, the fold of an entry is
//
//   ECT >= max(c0 + A, max_h(ready[h] + B_h)) + tail,
//
// with A the sum of the input costs, B_h the largest suffix sum that starts
// at a home-only input homed on storage node h, and tail the local read
// plus compute seconds. A held input adds its cheapest source's duration to
// the sums and no ready term, so the right side is a lower bound, and
// exact for entries without held inputs up to rounding. A commit moves only
// c0 and ready, so each group keeps one bound row per entry contiguous and
// a pick is one pass over the rows plus exact evaluations of the entries
// whose bound comes within rank_margin() of the best exact value (DESIGN.md
// §7).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cluster.h"
#include "sim/faults.h"
#include "sim/state.h"
#include "sim/timeline.h"
#include "sim/topology.h"
#include "workload/types.h"

namespace bsio::sim {

// Everything an ECT estimate reads: the engine's cluster, its cache and
// timelines, home-copy validity, slowdown windows and the release floor of
// the plan executing.
struct RankView {
  const ClusterConfig& cluster;
  const Topology& topo;
  const wl::Workload& workload;
  const ClusterState& state;
  const std::vector<Timeline>& storage_tl;
  const std::vector<Timeline>& compute_tl;
  const std::vector<Timeline>& link_tl;
  const std::vector<char>& home_valid;  // per file, 0 while the home is stale
  const FaultModel& faults;
  double release_floor = 0.0;
};

// One input file of a rank entry, in the task's file order. kHome: no
// node holds the file, so it costs the fetch from storage node `home`,
// `seconds` = size / remote-path bandwidth. kHolders: priced against its
// holders at every evaluation, with that home fetch as one candidate.
// kLocal: the ranked node caches it.
struct RankTerm {
  enum class Kind : std::uint8_t { kLocal, kHome, kHolders };
  wl::FileId file = wl::kInvalidFile;
  wl::NodeId home = wl::kInvalidNode;
  double seconds = 0.0;
  Kind kind = Kind::kLocal;
};

// A task compiled for one node: its terms and its exec tail.
struct RankEntry {
  wl::TaskId task = wl::kInvalidTask;
  std::vector<RankTerm> terms;
  double read_seconds = 0.0;     // local read of every input
  double compute_seconds = 0.0;  // compute at the node's CPU speed
};

// ready[s]: the earliest instant the horizons let a fetch from storage node
// s onto `node` start (the storage port and every shared link of the
// remote path).
void remote_ready(const RankView& v, wl::NodeId node,
                  std::vector<double>& ready);

// Compiles e.task's terms for `node` against the current residency.
void compile(const RankView& v, RankEntry& e, wl::NodeId node);

// The ECT estimate of a compiled entry on `node`; `ready` is
// remote_ready(node). With slowdown windows the exec block is stretched so
// the speculation trigger sees stragglers the planners cannot.
double evaluate_ect(const RankView& v, const RankEntry& e, wl::NodeId node,
                    const std::vector<double>& ready);

// The same estimate from freshly compiled terms.
double estimate_ect(const RankView& v, wl::TaskId task, wl::NodeId node);

// How far a bound may exceed the exact ECT it bounds through rounding
// alone: suffix sums round differently from the sequential fold, and so
// does stretched_exec_duration. Far above the few ulps either can drift.
inline double rank_margin(double ect) {
  return 1e-9 * (1.0 + (ect < 0.0 ? -ect : ect));
}

// Scratch a pick reuses, shared by every group of one execute().
struct RankScratch {
  std::vector<double> ready;   // remote_ready of the node picking
  std::vector<double> bounds;  // by row
};

// One compute node's pending tasks in group (plan) order, each with its
// compiled terms and its bound row. Rows are contiguous: dense (A, tail and
// one B_h per storage node) up to kDenseStorageNodes storage nodes, else A,
// tail and one (h, B_h) pair per distinct home among the entry's inputs.
// An entry keeps its id (its add() order) for life; a picked entry's row
// becomes a tombstone until the group compacts.
class RankGroup {
 public:
  static constexpr std::size_t kDenseStorageNodes = 16;

  explicit RankGroup(wl::NodeId node) : node_(node) {}

  // Appends a task; returns its entry id. Every add precedes build().
  std::uint32_t add(wl::TaskId task);
  // Compiles every entry and lays out the rows.
  void build(const RankView& v);

  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  std::uint32_t num_ids() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  wl::TaskId task(std::uint32_t id) const { return entries_[id].task; }

  // The entry's input residency changed: recompile it before the next pick.
  // No-op for a picked entry.
  void mark_dirty(std::uint32_t id);

  // Removes and returns the pending task with the least ECT, ties to the
  // lowest group position: exactly the full scan's pick (builds without
  // NDEBUG check this on every call).
  wl::TaskId pick(const RankView& v, RankScratch& scratch);

  // Removes every pending task, appending them to `out` in group order.
  void drain(std::vector<wl::TaskId>& out);

  // The bound of a pending, clean entry at node start c0 and storage
  // readiness `ready` (remote_ready of this node).
  double bound(std::uint32_t id, double c0,
               const std::vector<double>& ready) const;

  // The reference pick: fresh estimate_ect of every pending entry in group
  // order, strict < (ties to the lowest position). Returns the entry id.
  std::uint32_t full_scan(const RankView& v) const;

 private:
  enum : std::uint8_t { kClean, kDirty, kPicked };

  // Recompiles entry `id` and rewrites its row.
  void refresh(const RankView& v, std::uint32_t id);
  void write_row(const RankView& v, std::uint32_t id);
  template <bool kDense>
  std::size_t bound_pass(double c0, const std::vector<double>& ready,
                         std::vector<double>& bounds) const;
  // Drops the tombstones, keeping group order.
  void compact();

  wl::NodeId node_;
  std::vector<RankEntry> entries_;    // by id
  std::vector<std::uint8_t> status_;  // by id
  std::vector<std::uint32_t> slot_;   // by id: its row
  std::vector<std::uint32_t> ids_;    // by row: its id
  std::vector<std::uint32_t> dirty_;  // ids to refresh before the next pick
  std::size_t live_ = 0;
  bool dense_ = true;
  std::size_t width_ = 0;             // B slots per row
  std::vector<double> rows_;          // per row: A, tail, width_ B values
  std::vector<std::uint32_t> homes_;  // sparse: per row, width_ homes
};

// The file -> pending-entry index of one execute(): every (group, id) whose
// task reads a file, built from the plan's groups only. Its cost does not
// grow with the file catalogue: `slot_of_file` is an engine-owned array
// (one slot per file, kNoSlot when unused) that the index fills for the
// plan's files and restores when destroyed.
class RankIndex {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  RankIndex(const wl::Workload& w, const std::vector<RankGroup>& groups,
            std::vector<std::uint32_t>& slot_of_file);
  ~RankIndex();
  RankIndex(const RankIndex&) = delete;
  RankIndex& operator=(const RankIndex&) = delete;

  // Marks dirty every pending entry that reads one of `files`.
  void mark(const std::vector<wl::FileId>& files,
            std::vector<RankGroup>& groups) const;

 private:
  struct Ref {
    wl::NodeId node = wl::kInvalidNode;
    std::uint32_t id = 0;
  };
  std::vector<std::uint32_t>& slot_of_file_;
  std::vector<wl::FileId> files_;       // by slot
  std::vector<std::uint32_t> offset_;   // by slot, CSR into refs_
  std::vector<Ref> refs_;
};

}  // namespace bsio::sim
