#include "hypergraph/coarsen.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace bsio::hg {

namespace {

// FNV-ish hash over a sorted pin list, used to merge identical nets.
std::uint64_t hash_pins(const std::vector<VertexId>& pins) {
  std::uint64_t hval = 1469598103934665603ULL;
  for (VertexId v : pins) {
    hval ^= v + 0x9e3779b97f4a7c15ULL + (hval << 6) + (hval >> 2);
    hval *= 1099511628211ULL;
  }
  return hval;
}

}  // namespace

CoarseLevel coarsen_once(const Hypergraph& h, Rng& rng,
                         double max_cluster_weight) {
  const std::size_t nv = h.num_vertices();
  constexpr VertexId kNone = static_cast<VertexId>(-1);

  std::vector<VertexId> cluster(nv, kNone);
  std::vector<double> cluster_weight;
  cluster_weight.reserve(nv);

  std::vector<VertexId> order(nv);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // score[c] accumulates connectivity of the current vertex to cluster c;
  // touched lists the clusters scored this round.
  std::vector<double> score(nv, 0.0);
  std::vector<VertexId> touched;

  for (VertexId v : order) {
    if (cluster[v] != kNone) continue;
    touched.clear();
    for (NetId n : h.nets(v)) {
      const std::size_t sz = h.net_size(n);
      // Heavy-connectivity scoring: each shared pin contributes
      // w(n)/(|n|-1), so a fully shared net contributes its full weight.
      const double contrib = h.net_weight(n) / static_cast<double>(sz - 1);
      for (VertexId u : h.pins(n)) {
        if (u == v || cluster[u] == kNone) continue;
        VertexId c = cluster[u];
        if (score[c] == 0.0) touched.push_back(c);
        score[c] += contrib;
      }
    }
    VertexId best = kNone;
    double best_score = 0.0;
    for (VertexId c : touched) {
      if (score[c] > best_score &&
          cluster_weight[c] + h.vertex_weight(v) <= max_cluster_weight) {
        best = c;
        best_score = score[c];
      }
      score[c] = 0.0;
    }
    if (best == kNone) {
      cluster[v] = static_cast<VertexId>(cluster_weight.size());
      cluster_weight.push_back(h.vertex_weight(v));
    } else {
      cluster[v] = best;
      cluster_weight[best] += h.vertex_weight(v);
    }
  }

  const std::size_t nc = cluster_weight.size();

  std::vector<double> folded(nc, 0.0);
  for (VertexId v = 0; v < nv; ++v)
    folded[cluster[v]] += h.folded_net_weight(v);

  // Contract nets; merge nets with identical coarse pin sets.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::vector<VertexId>, double>>>
      merged;
  std::vector<VertexId> cpins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    cpins.clear();
    for (VertexId v : h.pins(n)) cpins.push_back(cluster[v]);
    std::sort(cpins.begin(), cpins.end());
    cpins.erase(std::unique(cpins.begin(), cpins.end()), cpins.end());
    if (cpins.size() == 1) {
      // Net fully absorbed into one cluster: fold its weight (it can never
      // be cut below this level, but still occupies sub-batch disk space).
      folded[cpins[0]] += h.net_weight(n);
      continue;
    }
    auto& bucket = merged[hash_pins(cpins)];
    bool found = false;
    for (auto& [pins, weight] : bucket) {
      if (pins == cpins) {
        weight += h.net_weight(n);
        found = true;
        break;
      }
    }
    if (!found) bucket.emplace_back(cpins, h.net_weight(n));
  }

  HypergraphBuilder b2;
  for (VertexId c = 0; c < nc; ++c) b2.add_vertex(cluster_weight[c], folded[c]);
  for (auto& [hash, bucket] : merged)
    for (auto& [pins, weight] : bucket) b2.add_net(weight, std::move(pins));

  CoarseLevel level;
  level.coarse = b2.build();
  level.fine_to_coarse = std::move(cluster);
  return level;
}

}  // namespace bsio::hg
