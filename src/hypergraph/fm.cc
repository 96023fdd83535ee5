#include "hypergraph/fm.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "hypergraph/metrics.h"
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

  // Returns total gain realised (>= 0; 0 if the pass found no improvement).
  double run() {
    init();
    const std::size_t nv = h_.num_vertices();
    double cum_gain = 0.0;
    double best_gain = 0.0;
    std::size_t best_len = 0;
    std::vector<VertexId> moved;
    moved.reserve(nv);

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

    // Roll back to the best prefix.
    for (std::size_t i = moved.size(); i > best_len; --i)
      apply_move(moved[i - 1], /*update_gains=*/false);
    return best_gain;
  }

 private:
  static constexpr VertexId kNone = static_cast<VertexId>(-1);

  void init() {
    const std::size_t nv = h_.num_vertices();
    const std::size_t nn = h_.num_nets();
    pc_.assign(nn * 2, 0);
    for (NetId n = 0; n < nn; ++n)
      for (VertexId v : h_.pins(n)) ++pc_[n * 2 + side_[v]];
    weight_[0] = weight_[1] = 0.0;
    for (VertexId v = 0; v < nv; ++v) weight_[side_[v]] += h_.vertex_weight(v);
    locked_.assign(nv, false);
    gain_.assign(nv, 0.0);
    tie_.assign(nv, 0.0);
    heap_ = {};
    // Initial gains are pure functions of the (frozen) pin counts, so the
    // per-vertex computation fans out on the runtime; the rng draws and
    // heap pushes stay sequential in vertex order, keeping every pass
    // bit-identical at any thread count. Inside one of several parallel
    // recursive-bisection branches the loop runs inline on that thread.
    WsRuntime::global().parallel_for_each(
        nv, [this](std::size_t v) {
          gain_[v] = compute_gain(static_cast<VertexId>(v));
        });
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
    // Allow balance-restoring moves out of an over-full side.
    const double src_max = s == 0 ? c_.max0 : c_.max1;
    return weight_[s] > src_max && dst_w + wv < weight_[s];
  }

  VertexId pop_best_movable() {
    // Lazy-deletion heap: entries may be stale (gain changed) or locked.
    std::vector<HeapEntry> skipped;
    VertexId found = kNone;
    while (!heap_.empty()) {
      HeapEntry e = heap_.top();
      heap_.pop();
      if (locked_[e.v]) continue;
      if (e.gain != gain_[e.v]) continue;  // stale
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
      if (update_gains) {
        for (VertexId u : h_.pins(n)) {
          if (u == v || locked_[u]) continue;
          double g = compute_gain(u);
          if (g != gain_[u]) {
            gain_[u] = g;
            heap_.push({g, tie_[u], u});
          }
        }
      }
    }
    if (update_gains) {
      gain_[v] = compute_gain(v);
      // v is locked afterwards in run(); no heap push needed.
    }
  }

  bool better_balance() const {
    // Used only to break exact gain ties: prefer prefixes closer to target.
    return std::abs(weight_[0] - c_.target0) <
           std::abs(prev_best_dev_) - 1e-12
               ? (prev_best_dev_ = std::abs(weight_[0] - c_.target0), true)
               : false;
  }

  const Hypergraph& h_;
  std::vector<int>& side_;
  const BisectionConstraint& c_;
  Rng& rng_;

  std::vector<int> pc_;  // pin counts: pc_[2n + side]
  double weight_[2] = {0.0, 0.0};
  std::vector<bool> locked_;
  std::vector<double> gain_;
  std::vector<double> tie_;
  std::priority_queue<HeapEntry> heap_;
  mutable double prev_best_dev_ = std::numeric_limits<double>::infinity();
};

}  // namespace

double fm_refine(const Hypergraph& h, std::vector<int>& side,
                 const BisectionConstraint& c, Rng& rng, int passes) {
  for (int p = 0; p < passes; ++p) {
    FmPass pass(h, side, c, rng);
    double gain = pass.run();
    if (gain <= 1e-12) break;
  }
  return cut_net_weight(h, side, 2);
}

}  // namespace bsio::hg
