// Hypergraph representation for the multilevel partitioner.
//
// A hypergraph H = (V, N): each net (hyper-edge) is a subset of vertices.
// In this library's primary use, vertices are tasks, nets are files, vertex
// weights are expected task execution times and net weights are file sizes
// (paper Section 5). Storage is CSR in both directions: pins of each net,
// and nets of each vertex.
//
// Each vertex additionally carries a "folded net weight": the accumulated
// weight of nets that became size-1 during coarsening or net splitting.
// Such nets can never be cut again, but their weight still counts towards a
// part's incident-net-weight — the quantity the BINW partitioner bounds
// (paper Section 5.1 describes exactly this PaToH modification).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace bsio::hg {

using VertexId = std::uint32_t;
using NetId = std::uint32_t;

class Hypergraph {
 public:
  Hypergraph() = default;

  std::size_t num_vertices() const { return vertex_weight_.size(); }
  std::size_t num_nets() const { return net_weight_.size(); }

  double vertex_weight(VertexId v) const { return vertex_weight_[v]; }
  double net_weight(NetId n) const { return net_weight_[n]; }
  double folded_net_weight(VertexId v) const { return folded_net_weight_[v]; }

  double total_vertex_weight() const;
  double total_net_weight() const;  // excludes folded weights
  double total_folded_weight() const;

  // Pins of net n (the vertices the net connects).
  const VertexId* pins_begin(NetId n) const { return pins_.data() + xpins_[n]; }
  const VertexId* pins_end(NetId n) const {
    return pins_.data() + xpins_[n + 1];
  }
  std::size_t net_size(NetId n) const { return xpins_[n + 1] - xpins_[n]; }

  // Nets incident to vertex v.
  const NetId* nets_begin(VertexId v) const { return nets_.data() + xnets_[v]; }
  const NetId* nets_end(VertexId v) const {
    return nets_.data() + xnets_[v + 1];
  }

  // Range helpers for range-for loops.
  struct Span {
    const VertexId* b;
    const VertexId* e;
    const VertexId* begin() const { return b; }
    const VertexId* end() const { return e; }
    std::size_t size() const { return static_cast<std::size_t>(e - b); }
  };
  struct NetSpan {
    const NetId* b;
    const NetId* e;
    const NetId* begin() const { return b; }
    const NetId* end() const { return e; }
    std::size_t size() const { return static_cast<std::size_t>(e - b); }
  };
  Span pins(NetId n) const { return {pins_begin(n), pins_end(n)}; }
  NetSpan nets(VertexId v) const { return {nets_begin(v), nets_end(v)}; }

  // Structural sanity checks (cross-CSR consistency); aborts on violation.
  void validate() const;

 private:
  friend class HypergraphBuilder;

  std::vector<double> vertex_weight_;
  std::vector<double> folded_net_weight_;
  std::vector<double> net_weight_;
  // CSR net -> pins.
  std::vector<std::size_t> xpins_{0};
  std::vector<VertexId> pins_;
  // CSR vertex -> nets.
  std::vector<std::size_t> xnets_{0};
  std::vector<NetId> nets_;
};

class HypergraphBuilder {
 public:
  // Returns the new vertex's id.
  VertexId add_vertex(double weight, double folded_weight = 0.0);
  // Pins may contain duplicates; they are deduped. Size-0 nets are dropped;
  // size-1 nets are folded into the pin's folded weight (PaToH-style), so
  // the built hypergraph only has nets of size >= 2.
  void add_net(double weight, std::vector<VertexId> pins);

  Hypergraph build();

 private:
  std::vector<double> vertex_weight_;
  std::vector<double> folded_weight_;
  std::vector<double> net_weight_;
  std::vector<std::vector<VertexId>> net_pins_;
};

}  // namespace bsio::hg
