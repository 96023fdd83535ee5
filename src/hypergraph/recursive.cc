#include "hypergraph/recursive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hypergraph/bisect.h"
#include "hypergraph/metrics.h"
#include "util/ws_runtime.h"

namespace bsio::hg {

Hypergraph extract_side(const Hypergraph& h, const std::vector<int>& side,
                        int which, std::vector<VertexId>& orig_of) {
  constexpr VertexId kNone = static_cast<VertexId>(-1);
  const std::size_t nv = h.num_vertices();
  std::vector<VertexId> remap(nv, kNone);
  orig_of.clear();
  for (VertexId v = 0; v < nv; ++v) {
    if (side[v] == which) {
      remap[v] = static_cast<VertexId>(orig_of.size());
      orig_of.push_back(v);
    }
  }

  HypergraphBuilder b;
  for (VertexId v : orig_of)
    b.add_vertex(h.vertex_weight(v), h.folded_net_weight(v));

  std::vector<VertexId> pins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    pins.clear();
    for (VertexId v : h.pins(n))
      if (remap[v] != kNone) pins.push_back(remap[v]);
    // add_net folds size-1 remnants into the pin's folded weight and drops
    // empty ones — exactly the net-splitting bookkeeping we need.
    b.add_net(h.net_weight(n), pins);
  }
  return b.build();
}

namespace {

// One pending bisection: partition `h` into `k` parts labelled
// [part_offset, part_offset + k). The rng stream is derived from `seed`
// alone, never shared across jobs, so sibling branches are independent and
// the whole recursion is a pure function of the root seed — parallel and
// sequential runs produce bit-identical partitions.
struct Job {
  Hypergraph h;
  int k = 0;
  int part_offset = 0;
  std::uint64_t seed = 0;
  std::vector<VertexId> orig_of;  // job-local vertex -> root vertex
};

// Splits one job into its two children (writing leaf labels to `out` when
// k == 1 is reached is handled by the caller loop).
void split(Job& job, const PartitionerOptions& opts, Job& child0,
           Job& child1) {
  const int k = job.k;
  const int k0 = k / 2;
  const int k1 = k - k0;
  const double ratio0 = static_cast<double>(k0) / static_cast<double>(k);

  // Derive the bisection stream and both child seeds up front; the children
  // never observe how much randomness this level consumed.
  SplitMix64 sm(job.seed);
  const std::uint64_t bisect_seed = sm.next();
  const std::uint64_t seed0 = sm.next();
  const std::uint64_t seed1 = sm.next();

  // Tighten epsilon with depth so accumulated imbalance stays within the
  // caller's bound (standard recursive-bisection practice).
  const double epsilon =
      opts.epsilon / std::max(1.0, std::log2(static_cast<double>(k)));

  Rng rng(bisect_seed);
  std::vector<int> side = multilevel_bisect(job.h, ratio0, epsilon, rng);

  std::vector<VertexId> orig0, orig1;
  child0.h = extract_side(job.h, side, 0, orig0);
  child1.h = extract_side(job.h, side, 1, orig1);
  for (auto& v : orig0) v = job.orig_of[v];
  for (auto& v : orig1) v = job.orig_of[v];
  child0.orig_of = std::move(orig0);
  child1.orig_of = std::move(orig1);
  child0.k = k0;
  child1.k = k1;
  child0.part_offset = job.part_offset;
  child1.part_offset = job.part_offset + k0;
  child0.seed = seed0;
  child1.seed = seed1;
}

}  // namespace

std::vector<int> partition_kway(const Hypergraph& h, int k,
                                const PartitionerOptions& opts) {
  BSIO_CHECK(k >= 1);
  std::vector<int> out(h.num_vertices(), 0);
  if (k == 1 || h.num_vertices() == 0) return out;

  Job root;
  root.h = h;
  root.k = k;
  root.part_offset = 0;
  root.seed = opts.seed;
  root.orig_of.resize(h.num_vertices());
  for (VertexId v = 0; v < h.num_vertices(); ++v) root.orig_of[v] = v;

  // Level-synchronous recursion: every job of a level bisects in parallel
  // (jobs own disjoint vertex sets, so `out` writes never collide), children
  // are collected in job order, and leaves (k == 1) are finalized inline.
  std::vector<Job> level;
  level.push_back(std::move(root));
  WsRuntime& pool = WsRuntime::global();
  while (!level.empty()) {
    std::vector<Job> splittable;
    for (Job& job : level) {
      if (job.h.num_vertices() == 0) continue;
      if (job.k == 1) {
        for (VertexId v : job.orig_of) out[v] = job.part_offset;
        continue;
      }
      splittable.push_back(std::move(job));
    }
    if (splittable.empty()) break;

    std::vector<Job> children(splittable.size() * 2);
    pool.parallel_for_each(splittable.size(), [&](std::size_t i) {
      split(splittable[i], opts, children[2 * i], children[2 * i + 1]);
    });
    level = std::move(children);
  }
  return out;
}

}  // namespace bsio::hg
