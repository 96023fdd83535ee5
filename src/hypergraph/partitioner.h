// Public options + entry points of the multilevel hypergraph partitioner.
//
// partition_kway: K-way partitioning via multilevel recursive bisection with
// net splitting, minimising the connectivity-1 metric under a vertex-weight
// balance constraint — the second-level (task mapping) partitioner of the
// BiPartition scheduler.
//
// partition_binw: Bounded-Incident-Net-Weight partitioning — the first-level
// (sub-batch selection) partitioner. The number of parts is not fixed;
// instead every part's incident net weight (file bytes it must stage,
// including folded size-1 net weights) is bounded by `bound`, and the
// partitioner recursively bisects, minimising cut, until the bound holds.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.h"

namespace bsio::hg {

struct PartitionerOptions {
  // Allowed imbalance ratio epsilon: part weight <= avg * (1 + epsilon).
  double epsilon = 0.10;
  std::uint64_t seed = 1;
};

// Returns parts[v] in [0, k). k >= 1; k need not be a power of two.
std::vector<int> partition_kway(const Hypergraph& h, int k,
                                const PartitionerOptions& opts);

struct BinwResult {
  std::vector<int> parts;  // parts[v] in [0, num_parts)
  int num_parts = 0;
};

// Every part's incident net weight is <= bound. Requires that every single
// vertex's own incident weight fits the bound (the paper's "disk can hold
// any single task's files" assumption); aborts otherwise.
BinwResult partition_binw(const Hypergraph& h, double bound,
                          const PartitionerOptions& opts);

}  // namespace bsio::hg
