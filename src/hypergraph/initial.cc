#include "hypergraph/initial.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "hypergraph/metrics.h"

namespace bsio::hg {

namespace {

// Grows part 0 from a seed by repeatedly absorbing the unassigned vertex
// with the highest attraction (sum of weights of nets already touching part
// 0; ties to the lowest index) until part 0 reaches its target weight. When
// no unassigned vertex is attracted (a disconnected hypergraph), it jumps to
// the rng.uniform(#unassigned)-th unassigned vertex in index order. The
// scratch is reused by every try of one initial bisection.
//
// Attraction only grows (net weights are file sizes, never negative), so a
// lazy max-heap on (attraction, lowest index) holds the frontier: a stale
// entry is one whose vertex was absorbed or has gained since. A Fenwick tree
// counts the unassigned vertices, so a jump selects by rank in O(log nv).
class Grower {
 public:
  explicit Grower(const Hypergraph& h) : h_(h) {}

  std::vector<int> grow(const BisectionConstraint& c, VertexId seed,
                        Rng& rng) {
    const std::size_t nv = h_.num_vertices();
    std::vector<int> side(nv, 1);
    attraction_.assign(nv, 0.0);
    stamp_.assign(nv, 0);
    std::uint32_t round = 0;
    frontier_.clear();
    free_.resize(nv + 1);
    for (std::size_t i = 1; i <= nv; ++i)
      free_[i] = static_cast<std::uint32_t>(i & (~i + 1));
    std::size_t num_free = nv;

    double w0 = 0.0;
    for (VertexId next = seed;;) {
      side[next] = 0;
      // Drop next from the Fenwick counts.
      for (std::size_t i = next + 1; i <= nv; i += i & (~i + 1)) --free_[i];
      --num_free;
      w0 += h_.vertex_weight(next);
      if (w0 >= c.target0 || num_free == 0) break;
      // Push each vertex this absorption attracted once, at its new value.
      ++round;
      touched_.clear();
      for (NetId n : h_.nets(next))
        for (VertexId u : h_.pins(n))
          if (side[u] != 0) {
            attraction_[u] += h_.net_weight(n);
            if (stamp_[u] != round) {
              stamp_[u] = round;
              touched_.push_back(u);
            }
          }
      for (VertexId u : touched_) {
        frontier_.push_back({attraction_[u], u});
        std::push_heap(frontier_.begin(), frontier_.end(), lower);
      }
      while (!frontier_.empty()) {
        const auto [a, u] = frontier_.front();
        if (side[u] != 0 && a == attraction_[u]) break;
        std::pop_heap(frontier_.begin(), frontier_.end(), lower);
        frontier_.pop_back();
      }
      next = !frontier_.empty() && frontier_.front().first > 0.0
                 ? frontier_.front().second
                 : select_free(rng.uniform(num_free));
    }
    return side;
  }

 private:
  // (attraction, vertex): a ranks below b.
  static bool lower(const std::pair<double, VertexId>& a,
                    const std::pair<double, VertexId>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  }

  // The k-th (from 0) unassigned vertex in index order.
  VertexId select_free(std::size_t k) const {
    const std::size_t nv = free_.size() - 1;
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(nv); step > 0; step >>= 1)
      if (pos + step <= nv && free_[pos + step] <= k) {
        pos += step;
        k -= free_[pos];
      }
    return static_cast<VertexId>(pos);
  }

  const Hypergraph& h_;
  std::vector<double> attraction_;
  // stamp_[u] is the last absorption round that attracted u.
  std::vector<std::uint32_t> stamp_;
  std::vector<VertexId> touched_;
  // Lazy max-heap of (attraction, vertex).
  std::vector<std::pair<double, VertexId>> frontier_;
  // Fenwick tree over the vertices: 1 while unassigned.
  std::vector<std::uint32_t> free_;
};

std::vector<int> random_bisection(const Hypergraph& h,
                                  const BisectionConstraint& c, Rng& rng) {
  const std::size_t nv = h.num_vertices();
  std::vector<VertexId> order(nv);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<int> side(nv, 1);
  double w0 = 0.0;
  for (VertexId v : order) {
    if (w0 >= c.target0) break;
    side[v] = 0;
    w0 += h.vertex_weight(v);
  }
  return side;
}

struct Candidate {
  std::vector<int> side;
  double cut = std::numeric_limits<double>::infinity();
  bool feasible = false;
};

bool better(const Candidate& a, const Candidate& b) {
  if (a.feasible != b.feasible) return a.feasible;
  return a.cut < b.cut;
}

}  // namespace

std::vector<int> initial_bisection(const Hypergraph& h,
                                   const BisectionConstraint& c, Rng& rng,
                                   int tries) {
  const std::size_t nv = h.num_vertices();
  BSIO_CHECK(nv >= 1);

  auto evaluate = [&](std::vector<int> side) {
    Candidate cand;
    double w0 = 0.0, w1 = 0.0;
    for (VertexId v = 0; v < nv; ++v)
      (side[v] == 0 ? w0 : w1) += h.vertex_weight(v);
    cand.feasible = w0 <= c.max0 && w1 <= c.max1;
    cand.cut = cut_net_weight(h, side, 2);
    cand.side = std::move(side);
    return cand;
  };

  Grower grower(h);
  Candidate best;
  for (int t = 0; t < tries; ++t) {
    VertexId seed = static_cast<VertexId>(rng.uniform(nv));
    Candidate cand = evaluate(grower.grow(c, seed, rng));
    if (better(cand, best)) best = std::move(cand);
  }
  Candidate rnd = evaluate(random_bisection(h, c, rng));
  if (better(rnd, best)) best = std::move(rnd);
  return std::move(best.side);
}

}  // namespace bsio::hg
