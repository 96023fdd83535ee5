#include "sim/timeline.h"

#include <algorithm>

namespace bsio::sim {

namespace {
constexpr double kEps = 1e-9;
}

std::size_t Timeline::walk_start_chunk(double after, std::size_t lo) const {
  // First chunk that could interfere: interval ends are ascending across
  // the whole structure, so binary-search the per-chunk max end — O(log n)
  // (or O(log remaining) when the cursor supplies a tighter lo).
  auto ci = std::upper_bound(
      chunks_.begin() + static_cast<std::ptrdiff_t>(lo), chunks_.end(), after,
      [](double v, const Chunk& c) { return v < c.ivs.back().end; });
  return static_cast<std::size_t>(ci - chunks_.begin());
}

double Timeline::gap_walk(std::size_t ci, double after, double duration) const {
  double t = after;
  bool first_chunk = true;
  for (; ci < chunks_.size(); ++ci, first_chunk = false) {
    const std::vector<Interval>& ivs = chunks_[ci].ivs;
    auto it = first_chunk
                  ? std::upper_bound(
                        ivs.begin(), ivs.end(), t,
                        [](double v, const Interval& iv) { return v < iv.end; })
                  : ivs.begin();
    // The historical gap walk, verbatim: each busy interval either leaves
    // room before it or pushes the cursor past its end.
    for (; it != ivs.end(); ++it) {
      if (t + duration <= it->start + kEps) return t;
      t = std::max(t, it->end);
    }
  }
  return t;
}

double Timeline::earliest_free(double after, double duration) {
  BSIO_DCHECK(duration >= 0.0);
  // Ends are ascending, so for a non-decreasing query time the walk-start
  // chunk can only move forward: resume the binary search there.
  const std::size_t lo =
      (cursor_valid_ && after >= cursor_after_) ? cursor_chunk_ : 0;
  const std::size_t ci = walk_start_chunk(after, lo);
  cursor_valid_ = true;
  cursor_chunk_ = ci;
  cursor_after_ = after;
  return gap_walk(ci, after, duration);
}

std::size_t Timeline::chunk_for_start(double start) const {
  BSIO_DCHECK(!chunks_.empty());
  // First chunk whose first interval starts strictly after `start`, minus
  // one: the chunk whose key range covers `start`.
  auto ci = std::upper_bound(
      chunks_.begin(), chunks_.end(), start,
      [](double v, const Chunk& c) { return v < c.ivs.front().start; });
  if (ci == chunks_.begin()) return 0;
  return static_cast<std::size_t>(ci - chunks_.begin()) - 1;
}

void Timeline::maybe_split(std::size_t ci) {
  Chunk& c = chunks_[ci];
  if (c.ivs.size() < kChunkCapacity) return;
  const std::size_t half = c.ivs.size() / 2;
  Chunk tail;
  tail.ivs.assign(c.ivs.begin() + static_cast<std::ptrdiff_t>(half),
                  c.ivs.end());
  c.ivs.erase(c.ivs.begin() + static_cast<std::ptrdiff_t>(half), c.ivs.end());
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(ci) + 1,
                 std::move(tail));
}

void Timeline::reserve(double start, double duration) {
  if (duration <= 0.0) return;
  cursor_valid_ = false;
  Interval iv{start, start + duration};
  if (chunks_.empty()) {
    chunks_.emplace_back();
    chunks_.back().ivs.push_back(iv);
    ++size_;
    return;
  }
  const std::size_t ci = chunk_for_start(iv.start);
  std::vector<Interval>& ivs = chunks_[ci].ivs;
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), iv.start,
      [](double v, const Interval& o) { return v < o.start; });
  // Overlap check against the global neighbours (which may sit in the
  // adjacent chunks).
  const Interval* prev = nullptr;
  if (it != ivs.begin())
    prev = &*std::prev(it);
  else if (ci > 0)
    prev = &chunks_[ci - 1].ivs.back();
  const Interval* next = nullptr;
  if (it != ivs.end())
    next = &*it;
  else if (ci + 1 < chunks_.size())
    next = &chunks_[ci + 1].ivs.front();
  if (prev != nullptr)
    BSIO_CHECK_MSG(prev->end <= iv.start + kEps,
                   "timeline reservation overlaps previous interval");
  if (next != nullptr)
    BSIO_CHECK_MSG(iv.end <= next->start + kEps,
                   "timeline reservation overlaps next interval");
  ivs.insert(it, iv);
  ++size_;
  maybe_split(ci);
}

void Timeline::release(double start, double end) {
  cursor_valid_ = false;
  bool found = false;
  if (!chunks_.empty()) {
    const std::size_t ci = chunk_for_start(start);
    std::vector<Interval>& ivs = chunks_[ci].ivs;
    auto it = std::lower_bound(
        ivs.begin(), ivs.end(), start,
        [](const Interval& iv, double v) { return iv.start < v; });
    if (it != ivs.end() && it->start == start && it->end == end) {
      found = true;
      ivs.erase(it);
      --size_;
      if (ivs.empty())
        chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(ci));
    }
  }
  BSIO_CHECK_MSG(found,
                 "timeline release does not match an existing reservation");
}

void Timeline::truncate(double start, double new_end) {
  cursor_valid_ = false;
  bool found = false;
  if (!chunks_.empty()) {
    const std::size_t ci = chunk_for_start(start);
    std::vector<Interval>& ivs = chunks_[ci].ivs;
    auto it = std::lower_bound(
        ivs.begin(), ivs.end(), start,
        [](const Interval& iv, double v) { return iv.start < v; });
    if (it != ivs.end() && it->start == start) {
      found = true;
      if (new_end <= it->start) {
        ivs.erase(it);
        --size_;
        if (ivs.empty())
          chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(ci));
      } else {
        BSIO_CHECK_MSG(new_end <= it->end,
                       "timeline truncate cannot extend a reservation");
        it->end = new_end;
      }
    }
  }
  BSIO_CHECK_MSG(found,
                 "timeline truncate does not match an existing reservation");
}

std::vector<Interval> Timeline::intervals() const {
  std::vector<Interval> out;
  out.reserve(size_);
  for (const Chunk& c : chunks_)
    out.insert(out.end(), c.ivs.begin(), c.ivs.end());
  return out;
}

double Timeline::busy_time() const {
  // Summed in ascending order — the exact accumulation order of the flat
  // implementation, so reported utilisation stays bit-identical.
  double total = 0.0;
  for (const Chunk& c : chunks_)
    for (const Interval& iv : c.ivs) total += iv.end - iv.start;
  return total;
}

void Timeline::validate() const {
  std::size_t count = 0;
  const Interval* prev = nullptr;
  for (const Chunk& c : chunks_) {
    BSIO_CHECK(!c.ivs.empty() && c.ivs.size() <= kChunkCapacity);
    for (const Interval& iv : c.ivs) {
      BSIO_CHECK(iv.end > iv.start);
      if (prev != nullptr) BSIO_CHECK(prev->end <= iv.start + kEps);
      prev = &iv;
      ++count;
    }
  }
  BSIO_CHECK(count == size_);
}

// Fixed-point iteration: each round queries every timeline against the
// SAME base t and restarts from the max candidate — when endpoint calendars
// are dense this avoids the pathological re-walks of advancing t mid-pass
// (each timeline's gap walk restarts from the furthest conflict, not from a
// stale position). earliest_free is monotone in `after`, so the max
// candidate never overshoots the least common fixed point: the result is
// bit-identical to the sequential-advance iteration. t is non-decreasing
// across rounds, so every probe resumes the timeline's monotone cursor.
double earliest_common_free(std::span<Timeline* const> timelines,
                            double after, double duration) {
  double t = after;
  for (;;) {
    double best = t;
    for (Timeline* tl : timelines) {
      if (tl == nullptr) continue;
      best = std::max(best, tl->earliest_free(t, duration));
    }
    if (best == t) return t;
    t = best;
  }
}

}  // namespace bsio::sim
