#include "hypergraph/bisect.h"

#include <algorithm>

#include "hypergraph/coarsen.h"
#include "hypergraph/initial.h"

namespace bsio::hg {

namespace {
// Stop coarsening when at most this many vertices remain.
constexpr std::size_t kCoarsenUntil = 96;
// Coarsening stalls if a level shrinks by less than this factor.
constexpr double kMinShrinkFactor = 0.95;
// Independent greedy-growing tries for the initial bisection.
constexpr int kInitialTries = 8;
// FM refinement passes per level.
constexpr int kRefinePasses = 6;
// Cap on a single cluster's weight during coarsening, as a multiple of the
// perfectly balanced part weight (prevents giant clusters that make balanced
// initial partitions impossible).
constexpr double kMaxClusterWeightRatio = 0.25;
}  // namespace

std::vector<int> multilevel_bisect(const Hypergraph& h, double ratio0,
                                   double epsilon, Rng& rng) {
  BSIO_CHECK(ratio0 > 0.0 && ratio0 < 1.0);
  const std::size_t nv = h.num_vertices();
  if (nv == 0) return {};
  if (nv == 1) return {0};

  // Coarsening pyramid. levels[0] maps h's vertices to levels[0].coarse.
  std::vector<CoarseLevel> levels;
  const Hypergraph* cur = &h;
  const double max_cluster =
      h.total_vertex_weight() *
      std::min(ratio0, 1.0 - ratio0) * kMaxClusterWeightRatio;
  while (cur->num_vertices() > kCoarsenUntil) {
    CoarseLevel level = coarsen_once(*cur, rng, max_cluster);
    if (level.coarse.num_vertices() >=
        static_cast<std::size_t>(kMinShrinkFactor *
                                 static_cast<double>(cur->num_vertices())))
      break;  // stalled
    levels.push_back(std::move(level));
    cur = &levels.back().coarse;
  }

  BisectionConstraint c =
      make_constraint(h.total_vertex_weight(), ratio0, epsilon);

  std::vector<int> side = initial_bisection(*cur, c, rng, kInitialTries);
  fm_refine(*cur, side, c, rng, kRefinePasses);

  // Project back up, refining at each level.
  for (std::size_t li = levels.size(); li > 0; --li) {
    const CoarseLevel& level = levels[li - 1];
    const Hypergraph& fine =
        li >= 2 ? levels[li - 2].coarse : h;
    std::vector<int> fine_side(fine.num_vertices());
    for (VertexId v = 0; v < fine.num_vertices(); ++v)
      fine_side[v] = side[level.fine_to_coarse[v]];
    side = std::move(fine_side);
    fm_refine(fine, side, c, rng, kRefinePasses);
  }
  return side;
}

}  // namespace bsio::hg
