// Deterministic random number generation.
//
// Every stochastic choice in the library flows from an explicitly seeded
// generator so experiments reproduce bit-for-bit. We provide SplitMix64 (for
// seeding and cheap hashing) and Xoshiro256** (the workhorse generator),
// plus the small set of distributions the workload emulators need.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace bsio {

// SplitMix64: used to expand a single 64-bit seed into generator state and
// as a cheap avalanche hash for deterministic per-entity randomness.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

inline std::uint64_t hash_mix(std::uint64_t x) {
  return SplitMix64(x).next();
}

// Xoshiro256**: fast, high-quality, 256-bit state PRNG.
// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, n). Uses Lemire's multiply-shift rejection method.
  std::uint64_t uniform(std::uint64_t n) {
    BSIO_DCHECK(n > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    BSIO_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform_double(double lo, double hi) {
    return lo + (hi - lo) * uniform_double();
  }

  bool bernoulli(double p) { return uniform_double() < p; }

  // O(1)-per-draw Zipf-like rank selection over n items with exponent s
  // (s = 0 -> uniform), for the streaming workload generators' multi-
  // million-file universes, where an O(n) discrete weight table per draw
  // is unusable. Inverts the continuous power-law CDF over [1, n+1)
  // instead of the discrete sum of rank weights r^-s, so the distribution
  // approximates discrete Zipf — same exponent, same hot-head behaviour.
  std::size_t zipf_stream(std::size_t n, double s);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) without replacement (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

inline std::size_t Rng::zipf_stream(std::size_t n, double s) {
  BSIO_DCHECK(n > 0);
  if (s == 0.0) return uniform(n);
  const double u = uniform_double();
  const double nd = static_cast<double>(n);
  double r;
  if (s == 1.0) {
    // CDF(r) = ln(r) / ln(n+1) over [1, n+1).
    r = std::pow(nd + 1.0, u);
  } else {
    // CDF(r) = (r^(1-s) - 1) / ((n+1)^(1-s) - 1) over [1, n+1).
    const double e = 1.0 - s;
    r = std::pow(1.0 + u * (std::pow(nd + 1.0, e) - 1.0), 1.0 / e);
  }
  const auto rank = static_cast<std::size_t>(r) - 1;
  return rank < n ? rank : n - 1;  // clamp FP edge cases
}

inline std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                                std::size_t k) {
  BSIO_CHECK(k <= n);
  // Floyd's algorithm: O(k) expected, no O(n) scratch.
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = uniform(j + 1);
    bool seen = false;
    for (std::size_t x : out) {
      if (x == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

}  // namespace bsio
