#include "hypergraph/fm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/ws_runtime.h"

namespace bsio::hg {

BisectionConstraint make_constraint(double total_weight, double ratio0,
                                    double epsilon) {
  BisectionConstraint c;
  c.target0 = total_weight * ratio0;
  c.target1 = total_weight - c.target0;
  c.max0 = c.target0 * (1.0 + epsilon);
  c.max1 = c.target1 * (1.0 + epsilon);
  return c;
}

namespace {

struct HeapEntry {
  double gain;
  double tie;  // random tiebreak, fixed per vertex per pass
  VertexId v;
};

// Strict "ranks above" on (gain, tie): the order the refiner moves in.
bool ranks_above(const HeapEntry& a, const HeapEntry& b) {
  if (a.gain != b.gain) return a.gain > b.gain;
  return a.tie > b.tie;
}

// One refiner per fm_refine call; its scratch is reused by every pass.
//
// Each pass costs what it changes (Fiduccia & Mattheyses, DAC 1982):
//  - a move recomputes the gains of only the pins whose terms it changes,
//    the nets whose pin count on one side crosses 0/1/2;
//  - each side's unlocked vertices sit in an addressable max-heap on
//    (gain, tie), updated in place, so the balance bound never forces a
//    vertex out of and back into a heap.
// Gains are recomputed in full, never patched by deltas, so every gain is
// the same double a full recompute after each move gives.
class FmRefiner {
 public:
  FmRefiner(const Hypergraph& h, std::vector<int>& side,
            const BisectionConstraint& c, Rng& rng)
      : h_(h), side_(side), c_(c), rng_(rng) {}

  // Runs one pass and keeps its best prefix of moves. Returns the gain
  // realised (>= 0; 0 if the pass found no improvement).
  double pass() {
    init();
    double cum_gain = 0.0;
    double best_gain = 0.0;
    std::size_t best_len = 0;
    prev_best_dev_ = std::numeric_limits<double>::infinity();
    moved_.clear();

    for (VertexId v = best_movable(); v != kNone; v = best_movable()) {
      cum_gain += entry(v).gain;
      apply_move(v);
      moved_.push_back(v);
      if (cum_gain > best_gain + 1e-12 ||
          (cum_gain > best_gain - 1e-12 && better_balance())) {
        best_gain = cum_gain;
        best_len = moved_.size();
      }
    }

    // Roll back to the best prefix; the next pass recounts pins and weights.
    for (std::size_t i = moved_.size(); i > best_len; --i)
      side_[moved_[i - 1]] ^= 1;
    return best_gain;
  }

 private:
  static constexpr VertexId kNone = static_cast<VertexId>(-1);
  static constexpr std::uint32_t kLocked = static_cast<std::uint32_t>(-1);

  void init() {
    const std::size_t nv = h_.num_vertices();
    const std::size_t nn = h_.num_nets();
    pc_.assign(nn * 2, 0);
    for (NetId n = 0; n < nn; ++n)
      for (VertexId v : h_.pins(n)) ++pc_[n * 2 + side_[v]];
    weight_[0] = weight_[1] = 0.0;
    min_weight_[0] = min_weight_[1] = std::numeric_limits<double>::infinity();
    heap_[0].clear();
    heap_[1].clear();
    pos_.resize(nv);
    for (VertexId v = 0; v < nv; ++v) {
      const int s = side_[v];
      const double wv = h_.vertex_weight(v);
      weight_[s] += wv;
      min_weight_[s] = std::min(min_weight_[s], wv);
      pos_[v] = static_cast<std::uint32_t>(heap_[s].size());
      heap_[s].push_back({0.0, rng_.uniform_double(), v});
    }
    // Initial gains are pure functions of the (frozen) pin counts, so the
    // per-vertex computation fans out on the runtime; the rng draws stay
    // sequential in vertex order, keeping every pass bit-identical at any
    // thread count. Inside one of several parallel recursive-bisection
    // branches the loop runs inline on that thread.
    WsRuntime::global().parallel_for_each(nv, [this](std::size_t v) {
      entry(static_cast<VertexId>(v)).gain =
          compute_gain(static_cast<VertexId>(v));
    });
    for (int s = 0; s < 2; ++s)
      for (std::size_t i = heap_[s].size() / 2; i-- > 0;) sift_down(s, i);
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

  // Whether a vertex of weight wv may leave side s. Monotone in wv: if a
  // vertex may not move, no heavier vertex of its side may either, because
  // rounding dst_w + wv is monotone in wv.
  bool move_allowed(int s, double wv) const {
    const double dst_max = s == 0 ? c_.max1 : c_.max0;
    const double dst_w = weight_[1 - s];
    if (dst_w + wv <= dst_max) return true;
    // Allow balance-restoring moves out of an over-full side.
    const double src_max = s == 0 ? c_.max0 : c_.max1;
    return weight_[s] > src_max && dst_w + wv < weight_[s];
  }

  // The unlocked, allowed vertex with the greatest (gain, tie), or kNone.
  // A side is skipped whole when the lightest vertex it held at pass start
  // may not move; otherwise one best-first walk over both heaps visits
  // entries in (gain, tie) order, across sides, until one may move.
  VertexId best_movable() {
    auto lower = [this](const std::pair<int, std::uint32_t>& a,
                        const std::pair<int, std::uint32_t>& b) {
      return ranks_above(heap_[b.first][b.second], heap_[a.first][a.second]);
    };
    walk_.clear();
    for (int s = 0; s < 2; ++s)
      if (!heap_[s].empty() && move_allowed(s, min_weight_[s]))
        walk_.push_back({s, 0});
    std::make_heap(walk_.begin(), walk_.end(), lower);
    while (!walk_.empty()) {
      std::pop_heap(walk_.begin(), walk_.end(), lower);
      const auto [s, i] = walk_.back();
      walk_.pop_back();
      const VertexId v = heap_[s][i].v;
      if (move_allowed(s, h_.vertex_weight(v))) return v;
      for (std::size_t c = 2 * std::size_t{i} + 1;
           c <= 2 * std::size_t{i} + 2 && c < heap_[s].size(); ++c) {
        walk_.push_back({s, static_cast<std::uint32_t>(c)});
        std::push_heap(walk_.begin(), walk_.end(), lower);
      }
    }
    return kNone;
  }

  // Moves v (unlocked) to the other side and locks it. Before the move,
  // a = v's side's pin count of a net and b = the other side's. The move
  // changes a source-side pin's terms ([a == 1], [b == 0]) only if a == 2
  // or b == 0, and a destination-side pin's ([b == 1], [a == 0]) only if
  // b == 1 or a == 1; other nets change no pin's gain.
  void apply_move(VertexId v) {
    const int s = side_[v];
    remove(v);
    side_[v] = 1 - s;
    weight_[s] -= h_.vertex_weight(v);
    weight_[1 - s] += h_.vertex_weight(v);
    for (NetId n : h_.nets(v)) {
      int& a = pc_[n * 2 + s];
      int& b = pc_[n * 2 + (1 - s)];
      const bool src = a == 2 || b == 0;
      const bool dst = b == 1 || a == 1;
      --a;
      ++b;
      if (!src && !dst) continue;
      for (VertexId u : h_.pins(n)) {
        if (pos_[u] == kLocked || !(side_[u] == s ? src : dst)) continue;
        update(u, compute_gain(u));
      }
    }
  }

  bool better_balance() {
    // Used only to break exact gain ties: prefer prefixes closer to target.
    const double dev = std::abs(weight_[0] - c_.target0);
    if (!(dev < prev_best_dev_ - 1e-12)) return false;
    prev_best_dev_ = dev;
    return true;
  }

  HeapEntry& entry(VertexId v) { return heap_[side_[v]][pos_[v]]; }

  void place(int s, std::size_t i, const HeapEntry& e) {
    heap_[s][i] = e;
    pos_[e.v] = static_cast<std::uint32_t>(i);
  }

  void sift_up(int s, std::size_t i) {
    std::vector<HeapEntry>& heap = heap_[s];
    const HeapEntry e = heap[i];
    while (i > 0 && ranks_above(e, heap[(i - 1) / 2])) {
      place(s, i, heap[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    place(s, i, e);
  }

  void sift_down(int s, std::size_t i) {
    std::vector<HeapEntry>& heap = heap_[s];
    const HeapEntry e = heap[i];
    for (std::size_t c; (c = 2 * i + 1) < heap.size(); i = c) {
      if (c + 1 < heap.size() && ranks_above(heap[c + 1], heap[c])) ++c;
      if (!ranks_above(heap[c], e)) break;
      place(s, i, heap[c]);
    }
    place(s, i, e);
  }

  // Restores the heap order around index i after its entry changed.
  void restore(int s, std::size_t i) {
    if (i > 0 && ranks_above(heap_[s][i], heap_[s][(i - 1) / 2]))
      sift_up(s, i);
    else
      sift_down(s, i);
  }

  void update(VertexId u, double g) {
    HeapEntry& e = entry(u);
    if (g == e.gain) return;
    e.gain = g;
    restore(side_[u], pos_[u]);
  }

  void remove(VertexId v) {
    const int s = side_[v];
    const std::size_t i = pos_[v];
    const HeapEntry last = heap_[s].back();
    heap_[s].pop_back();
    pos_[v] = kLocked;
    if (i == heap_[s].size()) return;
    place(s, i, last);
    restore(s, i);
  }

  const Hypergraph& h_;
  std::vector<int>& side_;
  const BisectionConstraint& c_;
  Rng& rng_;

  std::vector<int> pc_;  // pin counts: pc_[2n + side]
  double weight_[2] = {0.0, 0.0};
  // The lightest vertex each side held at pass start.
  double min_weight_[2] = {0.0, 0.0};
  // Each side's unlocked vertices; pos_[v] is v's index in its side's heap,
  // or kLocked once v has moved.
  std::vector<HeapEntry> heap_[2];
  std::vector<std::uint32_t> pos_;
  // The move search's frontier: (side, heap index).
  std::vector<std::pair<int, std::uint32_t>> walk_;
  std::vector<VertexId> moved_;
  double prev_best_dev_ = std::numeric_limits<double>::infinity();
};

}  // namespace

void fm_refine(const Hypergraph& h, std::vector<int>& side,
               const BisectionConstraint& c, Rng& rng, int passes) {
  FmRefiner fm(h, side, c, rng);
  for (int p = 0; p < passes; ++p)
    if (fm.pass() <= 1e-12) break;
}

}  // namespace bsio::hg
