// BINW (Bounded Incident Net Weight) partitioning, paper Section 5.1.
//
// The number of parts is not predetermined: the hypergraph is recursively
// bisected (minimising cut weight) until every part's incident net weight —
// live net weights plus folded size-1 remnants — fits under the bound D.
// Minimising the cut at each level both keeps file sharing within sub-batches
// and keeps the number of parts low, as the paper argues.
//
// Balance during these bisections is taken on *incident-weight proxies*
// rather than task compute weights: each vertex is weighted by its folded
// weight plus its share (w(n)/|n|) of every incident net, so the two halves
// shrink towards the bound at a similar rate and the recursion terminates
// in O(log(total/D)) depth.

#include <algorithm>
#include <cmath>

#include "hypergraph/bisect.h"
#include "hypergraph/metrics.h"
#include "hypergraph/partitioner.h"
#include "hypergraph/recursive.h"

namespace bsio::hg {

namespace {

double incident_weight_of_all(const Hypergraph& h) {
  return h.total_net_weight() + h.total_folded_weight();
}

// Rebuild h with vertex weights replaced by incident-weight proxies.
Hypergraph with_io_proxy_weights(const Hypergraph& h) {
  std::vector<double> proxy(h.num_vertices(), 0.0);
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    proxy[v] = h.folded_net_weight(v);
  for (NetId n = 0; n < h.num_nets(); ++n) {
    const double share =
        h.net_weight(n) / static_cast<double>(h.net_size(n));
    for (VertexId v : h.pins(n)) proxy[v] += share;
  }
  HypergraphBuilder b;
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    b.add_vertex(proxy[v], h.folded_net_weight(v));
  std::vector<VertexId> pins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    pins.assign(h.pins_begin(n), h.pins_end(n));
    b.add_net(h.net_weight(n), pins);
  }
  return b.build();
}

void binw_recurse(const Hypergraph& h, double bound,
                  const PartitionerOptions& opts, Rng& rng,
                  const std::vector<VertexId>& orig_of,
                  std::vector<int>& parts, int& next_part) {
  if (h.num_vertices() == 0) return;
  if (incident_weight_of_all(h) <= bound) {
    const int p = next_part++;
    for (VertexId v : orig_of) parts[v] = p;
    return;
  }
  BSIO_CHECK_MSG(h.num_vertices() > 1,
                 "BINW: a single vertex exceeds the incident-weight bound "
                 "(a task's files do not fit the aggregate disk space)");

  Hypergraph proxy = with_io_proxy_weights(h);
  std::vector<int> side = multilevel_bisect(proxy, 0.5, opts.epsilon, rng);

  // Degenerate bisections (everything on one side) can only happen with
  // pathological weights; force a split so recursion terminates.
  {
    bool has0 = false, has1 = false;
    for (int s : side) (s == 0 ? has0 : has1) = true;
    if (!has0 || !has1) {
      for (std::size_t v = 0; v < side.size(); ++v)
        side[v] = v % 2 == 0 ? 0 : 1;
    }
  }

  std::vector<VertexId> orig0, orig1;
  Hypergraph h0 = extract_side(h, side, 0, orig0);
  Hypergraph h1 = extract_side(h, side, 1, orig1);
  for (auto& v : orig0) v = orig_of[v];
  for (auto& v : orig1) v = orig_of[v];
  binw_recurse(h0, bound, opts, rng, orig0, parts, next_part);
  binw_recurse(h1, bound, opts, rng, orig1, parts, next_part);
}

}  // namespace

BinwResult partition_binw(const Hypergraph& h, double bound,
                          const PartitionerOptions& opts) {
  BSIO_CHECK(bound > 0.0);
  BinwResult result;
  result.parts.assign(h.num_vertices(), 0);
  if (h.num_vertices() == 0) return result;

  Rng rng(opts.seed);
  std::vector<VertexId> identity(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) identity[v] = v;
  int next_part = 0;
  binw_recurse(h, bound, opts, rng, identity, result.parts, next_part);
  result.num_parts = next_part;
  return result;
}

}  // namespace bsio::hg
