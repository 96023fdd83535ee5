// Gantt-chart timelines (paper Section 6).
//
// A Timeline is the reservation calendar of one single-port resource — a
// storage node port, a compute node (port + CPU, unified per Eq. 12), or
// the shared uplink. Reservations are half-open busy intervals; queries
// find the earliest gap of a given duration, optionally across several
// timelines at once (a transfer must hold both endpoints simultaneously).
//
// Storage is bucketed (an unrolled ordered list of fixed-capacity chunks)
// so the scale-out regime — storage-port calendars holding 10^5+
// reservations — stays cheap: earliest_free is O(log n + gap-distance),
// reserve/release/truncate are O(log n + chunk-width) instead of the old
// O(n) contiguous-vector shift. The gap-walk arithmetic and epsilon
// comparisons are byte-for-byte the historical ones, so every query and
// mutation is bit-identical to the flat-vector implementation (pinned by
// tests/timeline_property_test.cc against a brute-force reference).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace bsio::sim {

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

class Timeline {
 public:
  // Earliest t >= after such that [t, t + duration) is free. The query
  // keeps a monotone cursor: the engine's placement loops and
  // earliest_common_free's fixed-point rounds probe one timeline with
  // non-decreasing `after` between mutations, so the start-chunk binary
  // search resumes from the previous query's chunk instead of the full
  // range. A backward query or any mutation resets the cursor; the cursor
  // narrows the search window but not the walk, so results equal a full
  // search — pinned by tests/timeline_property_test.cc, whose random query
  // mix exercises both resumed and reset cursors.
  double earliest_free(double after, double duration);

  // Reserves [start, start + duration); the slot must be free.
  void reserve(double start, double duration);

  // Releases the reservation previously made as [start, end) — the exact
  // interval must exist. Cancellation rollback for speculative execution:
  // a losing attempt's not-yet-started reservations are handed back so
  // foreground transfers reclaim the bandwidth.
  void release(double start, double end);

  // Shortens the reservation starting at `start` so it ends at `new_end`
  // (removing it entirely when new_end <= start). Used to cut a losing
  // attempt's in-flight reservation at the first-finish-wins instant.
  void truncate(double start, double new_end);

  // Largest reservation end time (0 if empty).
  double horizon() const {
    return chunks_.empty() ? 0.0 : chunks_.back().ivs.back().end;
  }

  std::size_t num_reservations() const { return size_; }

  // Materialized copy of every reservation, ascending (diagnostics/tests;
  // the bucketed store has no contiguous array to hand out).
  std::vector<Interval> intervals() const;

  // Total reserved time in [0, horizon].
  double busy_time() const;

  void clear() {
    chunks_.clear();
    size_ = 0;
    cursor_valid_ = false;
  }

  // Invariant check: sorted, non-overlapping, positive-length intervals,
  // chunk occupancy within bounds.
  void validate() const;

 private:
  // One bucket of the unrolled list: up to kChunkCapacity intervals, sorted
  // and pairwise disjoint; all intervals in chunk i precede all intervals
  // in chunk i + 1. Chunks split at capacity and are erased when emptied,
  // so occupancy stays within [1, kChunkCapacity].
  struct Chunk {
    std::vector<Interval> ivs;
  };
  static constexpr std::size_t kChunkCapacity = 128;

  // Index of the chunk an interval starting at `start` belongs in (the last
  // chunk whose first start is <= start), clamped to a valid index.
  std::size_t chunk_for_start(double start) const;

  // First chunk whose max end exceeds `after` — where the gap walk starts —
  // searched within [lo, chunks_.size()).
  std::size_t walk_start_chunk(double after, std::size_t lo) const;

  // The historical gap walk from chunk `ci` onward.
  double gap_walk(std::size_t ci, double after, double duration) const;

  // Splits chunks_[ci] in half when it hit capacity.
  void maybe_split(std::size_t ci);

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;

  // Monotone-query cursor (earliest_free): the walk-start chunk and query
  // time of the previous query. Invalidated by every mutation.
  bool cursor_valid_ = false;
  std::size_t cursor_chunk_ = 0;
  double cursor_after_ = 0.0;
};

// Earliest t >= after such that [t, t + duration) is simultaneously free on
// every timeline. Pointers may repeat; null entries are ignored. The
// fixed-point rounds query each timeline with non-decreasing t, so every
// probe resumes that timeline's monotone cursor.
double earliest_common_free(std::span<Timeline* const> timelines,
                            double after, double duration);

}  // namespace bsio::sim
