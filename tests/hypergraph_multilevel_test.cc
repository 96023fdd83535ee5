// Deeper property tests of the multilevel machinery: coarsening
// conservation laws, FM monotonicity, net splitting, balance sweeps, and
// differential tests of FM refinement and greedy growing against reference
// implementations.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <ostream>
#include <queue>
#include <string>

#include "hypergraph/bisect.h"
#include "hypergraph/coarsen.h"
#include "hypergraph/fm.h"
#include "hypergraph/initial.h"
#include "hypergraph/metrics.h"
#include "hypergraph/recursive.h"
#include "util/rng.h"

namespace bsio::hg {
namespace {

Hypergraph random_hg(std::size_t nv, std::size_t nn, std::uint64_t seed,
                     double folded_prob = 0.0) {
  Rng rng(seed);
  HypergraphBuilder b;
  for (std::size_t i = 0; i < nv; ++i)
    b.add_vertex(0.5 + rng.uniform_double(),
                 rng.bernoulli(folded_prob) ? rng.uniform_double() * 3.0 : 0.0);
  for (std::size_t n = 0; n < nn; ++n) {
    std::vector<VertexId> pins;
    std::size_t sz = 2 + rng.uniform(5);
    for (std::size_t p = 0; p < sz; ++p)
      pins.push_back(static_cast<VertexId>(rng.uniform(nv)));
    b.add_net(0.5 + rng.uniform_double() * 2.0, std::move(pins));
  }
  return b.build();
}

// Reference partitioner phases, written for clarity rather than speed. FM
// keeps a lazy priority queue (stale, locked and disallowed entries are
// popped, the disallowed ones pushed back) and recomputes the gain of every
// unlocked pin of every net of a moved vertex. Greedy growing scans every
// vertex for each one it absorbs and lists the unassigned vertices for each
// random jump. fm_refine and initial_bisection must reproduce both exactly:
// the same sides, the same cut bits and the same rng draws.
namespace ref {

struct HeapEntry {
  double gain;
  double tie;
  VertexId v;
  bool operator<(const HeapEntry& o) const {
    if (gain != o.gain) return gain < o.gain;
    return tie < o.tie;
  }
};

class FmPass {
 public:
  FmPass(const Hypergraph& h, std::vector<int>& side,
         const BisectionConstraint& c, Rng& rng)
      : h_(h), side_(side), c_(c), rng_(rng) {}

  double run() {
    init();
    const std::size_t nv = h_.num_vertices();
    double cum_gain = 0.0;
    double best_gain = 0.0;
    std::size_t best_len = 0;
    std::vector<VertexId> moved;
    while (moved.size() < nv) {
      VertexId v = pop_best_movable();
      if (v == kNone) break;
      cum_gain += gain_[v];
      apply_move(v);
      locked_[v] = true;
      moved.push_back(v);
      if (cum_gain > best_gain + 1e-12 ||
          (cum_gain > best_gain - 1e-12 && better_balance())) {
        best_gain = cum_gain;
        best_len = moved.size();
      }
    }
    for (std::size_t i = moved.size(); i > best_len; --i)
      apply_move(moved[i - 1], /*update_gains=*/false);
    return best_gain;
  }

 private:
  static constexpr VertexId kNone = static_cast<VertexId>(-1);

  void init() {
    const std::size_t nv = h_.num_vertices();
    pc_.assign(h_.num_nets() * 2, 0);
    for (NetId n = 0; n < h_.num_nets(); ++n)
      for (VertexId v : h_.pins(n)) ++pc_[n * 2 + side_[v]];
    for (VertexId v = 0; v < nv; ++v) weight_[side_[v]] += h_.vertex_weight(v);
    locked_.assign(nv, false);
    gain_.assign(nv, 0.0);
    tie_.assign(nv, 0.0);
    for (VertexId v = 0; v < nv; ++v) gain_[v] = compute_gain(v);
    for (VertexId v = 0; v < nv; ++v) {
      tie_[v] = rng_.uniform_double();
      heap_.push({gain_[v], tie_[v], v});
    }
  }

  double compute_gain(VertexId v) const {
    const int s = side_[v];
    double g = 0.0;
    for (NetId n : h_.nets(v)) {
      if (pc_[n * 2 + s] == 1) g += h_.net_weight(n);
      if (pc_[n * 2 + (1 - s)] == 0) g -= h_.net_weight(n);
    }
    return g;
  }

  bool move_allowed(VertexId v) const {
    const int s = side_[v];
    const double wv = h_.vertex_weight(v);
    const double dst_max = s == 0 ? c_.max1 : c_.max0;
    const double dst_w = weight_[1 - s];
    if (dst_w + wv <= dst_max) return true;
    const double src_max = s == 0 ? c_.max0 : c_.max1;
    return weight_[s] > src_max && dst_w + wv < weight_[s];
  }

  VertexId pop_best_movable() {
    std::vector<HeapEntry> skipped;
    VertexId found = kNone;
    while (!heap_.empty()) {
      HeapEntry e = heap_.top();
      heap_.pop();
      if (locked_[e.v] || e.gain != gain_[e.v]) continue;
      if (!move_allowed(e.v)) {
        skipped.push_back(e);
        continue;
      }
      found = e.v;
      break;
    }
    for (const auto& e : skipped) heap_.push(e);
    return found;
  }

  void apply_move(VertexId v, bool update_gains = true) {
    const int s = side_[v];
    side_[v] = 1 - s;
    weight_[s] -= h_.vertex_weight(v);
    weight_[1 - s] += h_.vertex_weight(v);
    for (NetId n : h_.nets(v)) {
      --pc_[n * 2 + s];
      ++pc_[n * 2 + (1 - s)];
      if (!update_gains) continue;
      for (VertexId u : h_.pins(n)) {
        if (u == v || locked_[u]) continue;
        const double g = compute_gain(u);
        if (g != gain_[u]) {
          gain_[u] = g;
          heap_.push({g, tie_[u], u});
        }
      }
    }
  }

  bool better_balance() {
    const double dev = std::abs(weight_[0] - c_.target0);
    if (!(dev < prev_best_dev_ - 1e-12)) return false;
    prev_best_dev_ = dev;
    return true;
  }

  const Hypergraph& h_;
  std::vector<int>& side_;
  const BisectionConstraint& c_;
  Rng& rng_;
  std::vector<int> pc_;
  double weight_[2] = {0.0, 0.0};
  std::vector<bool> locked_;
  std::vector<double> gain_;
  std::vector<double> tie_;
  std::priority_queue<HeapEntry> heap_;
  double prev_best_dev_ = std::numeric_limits<double>::infinity();
};

double fm_refine(const Hypergraph& h, std::vector<int>& side,
                 const BisectionConstraint& c, Rng& rng, int passes) {
  for (int p = 0; p < passes; ++p) {
    FmPass pass(h, side, c, rng);
    if (pass.run() <= 1e-12) break;
  }
  return cut_net_weight(h, side, 2);
}

std::vector<int> grow_from_seed(const Hypergraph& h,
                                const BisectionConstraint& c, VertexId seed,
                                Rng& rng) {
  const std::size_t nv = h.num_vertices();
  std::vector<int> side(nv, 1);
  std::vector<double> attraction(nv, 0.0);
  double w0 = 0.0;
  VertexId next = seed;
  while (next != static_cast<VertexId>(-1)) {
    side[next] = 0;
    w0 += h.vertex_weight(next);
    if (w0 >= c.target0) break;
    for (NetId n : h.nets(next))
      for (VertexId u : h.pins(n))
        if (side[u] != 0) attraction[u] += h.net_weight(n);
    next = static_cast<VertexId>(-1);
    double best = -1.0;
    for (VertexId u = 0; u < nv; ++u)
      if (side[u] != 0 && attraction[u] > best) {
        best = attraction[u];
        next = u;
      }
    if (next != static_cast<VertexId>(-1) && best == 0.0) {
      std::vector<VertexId> free;
      for (VertexId u = 0; u < nv; ++u)
        if (side[u] != 0) free.push_back(u);
      next = free[rng.uniform(free.size())];
    }
  }
  return side;
}

std::vector<int> initial_bisection(const Hypergraph& h,
                                   const BisectionConstraint& c, Rng& rng,
                                   int tries) {
  const std::size_t nv = h.num_vertices();
  struct Candidate {
    std::vector<int> side;
    double cut = std::numeric_limits<double>::infinity();
    bool feasible = false;
  };
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
  auto better = [](const Candidate& a, const Candidate& b) {
    if (a.feasible != b.feasible) return a.feasible;
    return a.cut < b.cut;
  };
  Candidate best;
  for (int t = 0; t < tries; ++t) {
    const auto seed = static_cast<VertexId>(rng.uniform(nv));
    Candidate cand = evaluate(grow_from_seed(h, c, seed, rng));
    if (better(cand, best)) best = std::move(cand);
  }
  // Random fallback, as in initial_bisection.
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
  Candidate rnd = evaluate(std::move(side));
  if (better(rnd, best)) best = std::move(rnd);
  return std::move(best.side);
}

}  // namespace ref

// Hypergraphs shaped to reach every path of FM and greedy growing: nets of
// 200+ pins, heavy vertices (which with a tight epsilon leave moves and
// whole sides blocked), isolated vertices and net-free graphs (random jumps
// while growing), and small integer net weights (ties in attraction).
struct Shape {
  const char* name;
  std::size_t nv;
  std::size_t small_nets;
  std::size_t big_nets;
  double heavy_frac;
  std::size_t isolated;  // the last vertices, in no net
  bool integer_weights;
};

constexpr Shape kShapes[] = {
    {"small_nets", 150, 300, 0, 0.0, 0, false},
    {"big_nets", 300, 300, 6, 0.0, 0, false},
    {"heavy", 300, 500, 3, 0.08, 0, false},
    {"integer_ties", 200, 250, 0, 0.05, 0, true},
    {"isolated", 250, 120, 2, 0.05, 60, true},
    {"net_free", 120, 0, 0, 0.1, 0, false},
};

Hypergraph shaped_hg(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b;
  for (std::size_t i = 0; i < shape.nv; ++i)
    b.add_vertex(rng.bernoulli(shape.heavy_frac)
                     ? 20.0 + 30.0 * rng.uniform_double()
                     : 0.5 + rng.uniform_double());
  const std::size_t reach = shape.nv - shape.isolated;
  auto net_weight = [&] {
    return shape.integer_weights
               ? static_cast<double>(1 + rng.uniform(3))
               : 0.5 + 2.0 * rng.uniform_double();
  };
  for (std::size_t n = 0; n < shape.small_nets + shape.big_nets; ++n) {
    const std::size_t sz = n < shape.small_nets ? 2 + rng.uniform(5)
                                                : 200 + rng.uniform(100);
    std::vector<VertexId> pins;
    for (std::size_t p = 0; p < sz; ++p)
      pins.push_back(static_cast<VertexId>(rng.uniform(reach)));
    b.add_net(net_weight(), std::move(pins));
  }
  return b.build();
}

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

class PartitionerDifferential : public ::testing::TestWithParam<Shape> {};

TEST_P(PartitionerDifferential, FmMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    for (double ratio0 : {1.0 / 3.0, 0.5, 5.0 / 8.0})
      for (double eps : {0.01, 0.1}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " ratio0 "
                                          << ratio0 << " eps " << eps);
        const Hypergraph h = shaped_hg(GetParam(), seed);
        Rng init(seed * 101 + 7);
        std::vector<int> side(h.num_vertices());
        for (auto& s : side) s = init.bernoulli(ratio0) ? 0 : 1;
        std::vector<int> want = side;
        const BisectionConstraint c =
            make_constraint(h.total_vertex_weight(), ratio0, eps);
        Rng rng(seed), ref_rng(seed);
        fm_refine(h, side, c, rng, 6);
        const double want_cut = ref::fm_refine(h, want, c, ref_rng, 6);
        ASSERT_EQ(side, want);
        ASSERT_EQ(bits(cut_net_weight(h, side, 2)), bits(want_cut));
        ASSERT_EQ(rng(), ref_rng());
      }
}

TEST_P(PartitionerDifferential, InitialBisectionMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    for (double ratio0 : {1.0 / 3.0, 0.5, 5.0 / 8.0}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " ratio0 "
                                        << ratio0);
      const Hypergraph h = shaped_hg(GetParam(), seed);
      const BisectionConstraint c =
          make_constraint(h.total_vertex_weight(), ratio0, 0.01);
      Rng rng(seed), ref_rng(seed);
      const std::vector<int> side = initial_bisection(h, c, rng, 8);
      const std::vector<int> want = ref::initial_bisection(h, c, ref_rng, 8);
      ASSERT_EQ(side, want);
      ASSERT_EQ(bits(cut_net_weight(h, side, 2)),
                bits(cut_net_weight(h, want, 2)));
      ASSERT_EQ(rng(), ref_rng());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionerDifferential, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return std::string(info.param.name);
    });

class CoarsenSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoarsenSweep, ConservationLaws) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Hypergraph h = random_hg(120, 200, seed, 0.3);
  Rng rng(seed + 1);
  CoarseLevel level = coarsen_once(h, rng, h.total_vertex_weight() / 4.0);
  const Hypergraph& c = level.coarse;

  // Vertex weight is conserved exactly.
  EXPECT_NEAR(c.total_vertex_weight(), h.total_vertex_weight(), 1e-9);
  // Net weight moves between live nets and folded weights but the total
  // incident weight is conserved.
  EXPECT_NEAR(c.total_net_weight() + c.total_folded_weight(),
              h.total_net_weight() + h.total_folded_weight(), 1e-9);
  // The mapping is total and within range.
  ASSERT_EQ(level.fine_to_coarse.size(), h.num_vertices());
  for (VertexId cv : level.fine_to_coarse) EXPECT_LT(cv, c.num_vertices());
  // Coarsening shrinks (or at worst keeps) the vertex count.
  EXPECT_LE(c.num_vertices(), h.num_vertices());
  c.validate();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoarsenSweep, ::testing::Range(1, 9));

TEST(Coarsen, ProjectedPartitionHasSameCut) {
  // A bisection of the coarse hypergraph, projected to the fine one, must
  // have exactly the coarse cut weight (folded nets can never be cut).
  Hypergraph h = random_hg(80, 150, 3);
  Rng rng(7);
  CoarseLevel level = coarsen_once(h, rng, h.total_vertex_weight() / 4.0);
  const Hypergraph& c = level.coarse;
  // Arbitrary deterministic bisection of the coarse graph.
  std::vector<int> cside(c.num_vertices());
  for (VertexId v = 0; v < c.num_vertices(); ++v) cside[v] = v % 2;
  std::vector<int> fside(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    fside[v] = cside[level.fine_to_coarse[v]];
  EXPECT_NEAR(cut_net_weight(h, fside, 2), cut_net_weight(c, cside, 2), 1e-9);
}

class FmSweep : public ::testing::TestWithParam<int> {};

TEST_P(FmSweep, NeverWorsensTheCut) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Hypergraph h = random_hg(60, 120, seed);
  Rng rng(seed * 31 + 1);
  std::vector<int> side(h.num_vertices());
  for (auto& s : side) s = static_cast<int>(rng.uniform(2));
  const double before = cut_net_weight(h, side, 2);
  BisectionConstraint c =
      make_constraint(h.total_vertex_weight(), 0.5, 0.15);
  fm_refine(h, side, c, rng, 4);
  EXPECT_LE(cut_net_weight(h, side, 2), before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmSweep, ::testing::Range(1, 11));

TEST(ExtractSide, ConservesWeightAndFoldsCutNets) {
  Hypergraph h = random_hg(50, 90, 5, 0.2);
  std::vector<int> side(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) side[v] = v % 2;

  std::vector<VertexId> orig0, orig1;
  Hypergraph h0 = extract_side(h, side, 0, orig0);
  Hypergraph h1 = extract_side(h, side, 1, orig1);

  EXPECT_EQ(h0.num_vertices() + h1.num_vertices(), h.num_vertices());
  EXPECT_NEAR(h0.total_vertex_weight() + h1.total_vertex_weight(),
              h.total_vertex_weight(), 1e-9);
  // Net splitting: each side's incident weight equals its incident weight
  // in the parent (a cut net contributes fully to both).
  auto inw = incident_net_weights(h, side, 2);
  EXPECT_NEAR(h0.total_net_weight() + h0.total_folded_weight(), inw[0], 1e-9);
  EXPECT_NEAR(h1.total_net_weight() + h1.total_folded_weight(), inw[1], 1e-9);
  // Original-vertex maps invert side[].
  for (VertexId v : orig0) EXPECT_EQ(side[v], 0);
  for (VertexId v : orig1) EXPECT_EQ(side[v], 1);
}

TEST(MultilevelBisect, RespectsUnevenTargetRatios) {
  Hypergraph h = random_hg(200, 400, 9);
  Rng rng(5);
  for (double ratio : {0.25, 0.5, 0.75}) {
    auto side = multilevel_bisect(h, ratio, PartitionerOptions().epsilon, rng);
    double w0 = 0.0;
    for (VertexId v = 0; v < h.num_vertices(); ++v)
      if (side[v] == 0) w0 += h.vertex_weight(v);
    EXPECT_NEAR(w0 / h.total_vertex_weight(), ratio, 0.15)
        << "ratio " << ratio;
  }
}

TEST(RecursiveKway, SumOfBisectionCutsEqualsConnectivityCost) {
  // Sanity of net splitting: the K-way connectivity-1 cost computed on the
  // flat partition matches the recursive accounting within rounding.
  Hypergraph h = random_hg(100, 180, 13);
  PartitionerOptions opts;
  opts.seed = 3;
  auto parts = partition_kway(h, 4, opts);
  const double cost = connectivity_minus_one(h, parts, 4);
  // Rebuild the cost from scratch by brute lambda counting.
  double brute = 0.0;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    std::vector<bool> seen(4, false);
    int lambda = 0;
    for (VertexId v : h.pins(n))
      if (!seen[parts[v]]) {
        seen[parts[v]] = true;
        ++lambda;
      }
    brute += h.net_weight(n) * (lambda - 1);
  }
  EXPECT_NEAR(cost, brute, 1e-9);
}

TEST(Binw, PartitionIsContiguousAndComplete) {
  Hypergraph h = random_hg(70, 120, 17);
  const double total = h.total_net_weight() + h.total_folded_weight();
  BinwResult r = partition_binw(h, total * 0.4, {});
  ASSERT_GT(r.num_parts, 1);
  // Part ids are exactly 0..num_parts-1, all used.
  std::vector<bool> used(r.num_parts, false);
  for (int p : r.parts) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, r.num_parts);
    used[p] = true;
  }
  for (int p = 0; p < r.num_parts; ++p) EXPECT_TRUE(used[p]);
}

}  // namespace
}  // namespace bsio::hg
