// Randomized property test pinning the bucketed Timeline (src/sim/timeline)
// bit-identically against a brute-force flat-vector reference — the exact
// pre-bucketing implementation. Every mutation path (reserve, release,
// truncate-to-mid, truncate-to-nothing) and every query (earliest_free,
// horizon, busy_time, intervals, earliest_common_free) must agree to the
// last bit, including the speculation rollback cases: cancelling a losing
// attempt truncates an in-flight reservation at the first-finish-wins
// instant and releases not-yet-started ones outright.

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "sim/timeline.h"
#include "util/rng.h"

namespace bsio::sim {
namespace {

constexpr double kEps = 1e-9;

// The historical flat std::vector<Interval> timeline, verbatim.
class RefTimeline {
 public:
  double earliest_free(double after, double duration) const {
    double t = after;
    auto it = std::upper_bound(
        ivs_.begin(), ivs_.end(), t,
        [](double v, const Interval& iv) { return v < iv.end; });
    for (; it != ivs_.end(); ++it) {
      if (t + duration <= it->start + kEps) return t;
      t = std::max(t, it->end);
    }
    return t;
  }

  void reserve(double start, double duration) {
    if (duration <= 0.0) return;
    Interval iv{start, start + duration};
    auto it = std::upper_bound(
        ivs_.begin(), ivs_.end(), iv.start,
        [](double v, const Interval& o) { return v < o.start; });
    if (it != ivs_.begin()) {
      EXPECT_LE(std::prev(it)->end, iv.start + kEps);
    }
    if (it != ivs_.end()) {
      EXPECT_LE(iv.end, it->start + kEps);
    }
    ivs_.insert(it, iv);
  }

  void release(double start, double end) {
    auto it = std::lower_bound(
        ivs_.begin(), ivs_.end(), start,
        [](const Interval& iv, double v) { return iv.start < v; });
    ASSERT_TRUE(it != ivs_.end() && it->start == start && it->end == end);
    ivs_.erase(it);
  }

  void truncate(double start, double new_end) {
    auto it = std::lower_bound(
        ivs_.begin(), ivs_.end(), start,
        [](const Interval& iv, double v) { return iv.start < v; });
    ASSERT_TRUE(it != ivs_.end() && it->start == start);
    if (new_end <= it->start) {
      ivs_.erase(it);
    } else {
      ASSERT_LE(new_end, it->end);
      it->end = new_end;
    }
  }

  double horizon() const { return ivs_.empty() ? 0.0 : ivs_.back().end; }
  std::size_t size() const { return ivs_.size(); }
  double busy_time() const {
    double total = 0.0;
    for (const Interval& iv : ivs_) total += iv.end - iv.start;
    return total;
  }
  const std::vector<Interval>& intervals() const { return ivs_; }

 private:
  std::vector<Interval> ivs_;
};

// The historical sequential-advance earliest_common_free, verbatim: the
// fixed point it converges to must equal the restart-from-max iteration's.
double ref_earliest_common_free(const std::vector<const RefTimeline*>& tls,
                                double after, double duration) {
  double t = after;
  for (;;) {
    bool moved = false;
    for (const RefTimeline* tl : tls) {
      const double free = tl->earliest_free(t, duration);
      if (free > t) {
        t = free;
        moved = true;
      }
    }
    if (!moved) return t;
  }
}

void expect_identical(const Timeline& tl, const RefTimeline& ref) {
  tl.validate();
  ASSERT_EQ(tl.num_reservations(), ref.size());
  EXPECT_EQ(tl.horizon(), ref.horizon());
  EXPECT_EQ(tl.busy_time(), ref.busy_time());
  const std::vector<Interval> got = tl.intervals();
  ASSERT_EQ(got.size(), ref.intervals().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, ref.intervals()[i].start);
    EXPECT_EQ(got[i].end, ref.intervals()[i].end);
  }
}

TEST(TimelineProperty, RandomOpsMatchFlatReference) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Rng rng(seed);
    Timeline tl;
    RefTimeline ref;
    // Track live reservations for targeted release/truncate.
    std::vector<Interval> live;

    for (int op = 0; op < 1200; ++op) {
      const double roll = rng.uniform_double();
      if (roll < 0.62 || live.empty()) {
        // Reserve at the earliest gap >= a random origin — how the engine
        // places every transfer and exec block.
        const double after = rng.uniform_double(0.0, 50.0);
        const double dur = rng.uniform_double(0.01, 3.0);
        const double t_new = tl.earliest_free(after, dur);
        const double t_ref = ref.earliest_free(after, dur);
        ASSERT_EQ(t_new, t_ref);
        tl.reserve(t_new, dur);
        ref.reserve(t_ref, dur);
        live.push_back({t_new, t_new + dur});
      } else if (roll < 0.80) {
        // Release a random reservation (speculation rollback of a
        // not-yet-started transfer).
        const std::size_t i = rng.uniform(live.size());
        tl.release(live[i].start, live[i].end);
        ref.release(live[i].start, live[i].end);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        // Truncate at a random cut (first-finish-wins): sometimes inside
        // the interval, sometimes at/before its start (removal).
        const std::size_t i = rng.uniform(live.size());
        Interval& iv = live[i];
        if (rng.bernoulli(0.3)) {
          tl.truncate(iv.start, iv.start);  // cut before any elapsed time
          ref.truncate(iv.start, iv.start);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          const double cut =
              rng.uniform_double(iv.start, iv.end) * 0.5 + iv.start * 0.5;
          tl.truncate(iv.start, cut);
          ref.truncate(iv.start, cut);
          if (cut <= iv.start)
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          else
            iv.end = cut;
        }
      }

      if (op % 40 == 0) expect_identical(tl, ref);
      // Random queries every step: the hot read path.
      const double after = rng.uniform_double(0.0, 60.0);
      const double dur = rng.uniform_double(0.0, 4.0);
      ASSERT_EQ(tl.earliest_free(after, dur), ref.earliest_free(after, dur));
    }
    expect_identical(tl, ref);
    ASSERT_GT(tl.num_reservations(), 200u);  // chunks actually split
  }
}

TEST(TimelineProperty, DenseAppendCrossesManyChunks) {
  // The storage-port pattern at scale: thousands of back-to-back
  // reservations appended at the horizon.
  Timeline tl;
  RefTimeline ref;
  Rng rng(99);
  for (int i = 0; i < 3000; ++i) {
    const double dur = rng.uniform_double(0.5, 1.5);
    const double t = tl.earliest_free(tl.horizon(), dur);
    ASSERT_EQ(t, ref.earliest_free(ref.horizon(), dur));
    tl.reserve(t, dur);
    ref.reserve(t, dur);
  }
  expect_identical(tl, ref);
  // Gap search from the middle still lands bit-identically.
  for (double after = 0.0; after < 3000.0; after += 97.3)
    ASSERT_EQ(tl.earliest_free(after, 0.25), ref.earliest_free(after, 0.25));
}

TEST(TimelineProperty, EarliestCommonFreeMatchesSequentialIteration) {
  Rng rng(5);
  constexpr int kTimelines = 4;
  std::vector<Timeline> tls(kTimelines);
  std::vector<RefTimeline> refs(kTimelines);
  for (int i = 0; i < 400; ++i) {
    const int k = static_cast<int>(rng.uniform(kTimelines));
    const double after = rng.uniform_double(0.0, 40.0);
    const double dur = rng.uniform_double(0.05, 2.0);
    const double t = tls[k].earliest_free(after, dur);
    tls[k].reserve(t, dur);
    refs[k].reserve(t, dur);
  }
  // The engine's call shape: a stack array passed as a span of the prefix
  // one transfer holds (two to four timelines). Each query resumes every
  // timeline's monotone cursor or resets it on a backward query.
  std::array<Timeline*, kTimelines> mp{};
  std::vector<const RefTimeline*> rp;
  for (int k = 0; k < kTimelines; ++k) {
    mp[k] = &tls[k];
    rp.push_back(&refs[k]);
  }
  auto check = [&](std::size_t n, double after, double dur) {
    const std::vector<const RefTimeline*> rn(rp.begin(), rp.begin() + n);
    ASSERT_EQ(earliest_common_free(std::span<Timeline* const>(mp.data(), n),
                                   after, dur),
              ref_earliest_common_free(rn, after, dur));
  };
  for (int q = 0; q < 300; ++q) {
    const std::size_t n = 2 + rng.uniform(kTimelines - 1);
    check(n, rng.uniform_double(0.0, 60.0), rng.uniform_double(0.01, 3.0));
  }
  // Ascending queries keep every cursor valid between calls.
  for (double after = 0.0; after < 60.0; after += 0.37)
    check(kTimelines, after, 0.4);
  // Null entries are ignored.
  const std::array<Timeline*, kTimelines + 1> with_null{
      mp[0], mp[1], nullptr, mp[2], mp[3]};
  ASSERT_EQ(earliest_common_free(with_null, 1.0, 0.5),
            ref_earliest_common_free(rp, 1.0, 0.5));
}

}  // namespace
}  // namespace bsio::sim
