// Topology: the single home of the transfer-cost arithmetic (paper
// Section 6, Eq. 12) and its heterogeneous generalization.
//
// Every layer that prices a transfer — the execution engine, the planner
// cost model, the IP formulation's objective coefficients and the Eq. 25-26
// probabilistic vertex weights — resolves bandwidths through this class
// instead of re-deriving min(disk, net, uplink) locally. That makes link-
// model changes a one-place edit and opens heterogeneous clusters:
//
//  - per-storage-node disk bandwidths
//    (ClusterConfig::storage_disk_bw_per_node),
//  - per-compute-node NIC bandwidth caps (compute_nic_bw) applied to every
//    transfer that terminates at the node (staging and replication alike),
//  - per-compute-node CPU speed factors (compute_speed) dividing task
//    compute seconds,
//  - an optional two-level link model (compute_rack + rack_uplink_bw):
//    every compute node sits in a rack; remote transfers traverse the
//    destination's rack uplink (the storage cluster hangs off the core
//    switch), cross-rack replications traverse both rack uplinks. Each rack
//    uplink — like the OSUMED shared uplink — is a single serialized
//    resource the engine models as one Timeline.
//
// Bit-identity contract: for a homogeneous config (all per-node override
// vectors empty), every bandwidth returned here is the *bit-identical*
// double the pre-topology code computed — the same min() chain over the
// same fields in the same order — so homogeneous XIO/OSUMED plans and
// makespans are unchanged by construction. tests/topology_test.cc enforces
// this against captured goldens.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/cluster.h"
#include "workload/types.h"

namespace bsio::sim {

// One resolved transfer route: the effective end-to-end bandwidth plus the
// shared-link resources (indices into [0, Topology::num_links())) the
// transfer serializes through, in route order. The two endpoint ports are
// implicit — a transfer always reserves both endpoints.
struct TransferPath {
  double bandwidth = 0.0;
  std::uint32_t num_links = 0;
  std::array<std::uint16_t, 2> links{};  // valid entries: [0, num_links)
};

class Topology {
 public:
  // The config must satisfy ClusterConfig::validate(); the topology keeps
  // its own copy, so callers may pass temporaries.
  explicit Topology(const ClusterConfig& c);

  const ClusterConfig& config() const { return config_; }

  // --- Path resolution. ---
  // Effective bandwidth plus the shared links a transfer must reserve, for
  // the two kinds of route: storage node <-> compute node (a remote stage,
  // or a write-back priced in reverse; link bandwidths are symmetric) and
  // compute -> compute (a replication).
  TransferPath remote_path(wl::NodeId storage, wl::NodeId compute) const {
    TransferPath p;
    p.bandwidth = remote_bw_[storage * C_ + compute];
    if (uplink_link_ >= 0)
      p.links[p.num_links++] = static_cast<std::uint16_t>(uplink_link_);
    if (!rack_of_.empty())
      p.links[p.num_links++] =
          static_cast<std::uint16_t>(rack_link0_ + rack_of_[compute]);
    return p;
  }
  TransferPath replica_path(wl::NodeId src, wl::NodeId dst) const {
    TransferPath p;
    p.bandwidth = replica_bw_[src * C_ + dst];
    if (!rack_of_.empty() && rack_of_[src] != rack_of_[dst]) {
      p.links[p.num_links++] =
          static_cast<std::uint16_t>(rack_link0_ + rack_of_[src]);
      p.links[p.num_links++] =
          static_cast<std::uint16_t>(rack_link0_ + rack_of_[dst]);
    }
    return p;
  }

  // Bandwidth-only accessors for hot planner loops.
  double remote_bw(wl::NodeId storage, wl::NodeId compute) const {
    return remote_bw_[storage * C_ + compute];
  }
  double replica_bw(wl::NodeId src, wl::NodeId dst) const {
    return replica_bw_[src * C_ + dst];
  }

  // --- Shared-link resources (the uplink and the rack uplinks). ---
  std::size_t num_links() const { return link_bw_.size(); }
  double link_bw(std::size_t link) const { return link_bw_[link]; }

  // --- Node-local costs. ---
  double cpu_speed(wl::NodeId compute) const {
    return speed_.empty() ? 1.0 : speed_[compute];
  }
  // Local read of the inputs plus the computation, serialized on the node
  // (Eq. 12). Bit-identical to read_bytes / local_disk_bw + compute_seconds
  // on homogeneous configs (x / 1.0 == x).
  double exec_seconds(double read_bytes, double compute_seconds,
                      wl::NodeId compute) const {
    return read_bytes / config_.local_disk_bw +
           compute_seconds / cpu_speed(compute);
  }

  // --- Uniformity contract (drives the bit-identity fast paths). ---
  // True when every remote path shares one bandwidth: no per-storage disk
  // overrides, no NIC caps, no racks.
  bool uniform_remote() const { return uniform_remote_; }
  // The shared remote bandwidth; requires uniform_remote(). Bit-identical
  // to the historical min(storage_disk_bw, storage_net_bw [, uplink]).
  double uniform_remote_bw() const { return uniform_remote_bw_; }
  // True when every replication shares one bandwidth (no NIC caps/racks).
  bool uniform_replica() const { return uniform_replica_; }
  double uniform_replica_bw() const { return config_.compute_net_bw; }
  bool uniform_speed() const { return speed_.empty(); }
  bool uniform() const {
    return uniform_remote_ && uniform_replica_ && speed_.empty();
  }

  // Conservative bounds over all paths (planner upper bounds / epsilons).
  // Equal to the uniform values on homogeneous configs.
  double min_remote_bw() const { return min_remote_bw_; }
  double min_replica_bw() const { return min_replica_bw_; }

 private:
  ClusterConfig config_;
  std::size_t C_ = 0;  // num_compute_nodes

  // Dense per-pair effective bandwidths: remote_bw_[s * C + i] for storage
  // s -> compute i; replica_bw_[j * C + i] for compute j -> compute i
  // (diagonal unused).
  std::vector<double> remote_bw_;
  std::vector<double> replica_bw_;

  // Shared links: [uplink_link_] (if the config has a shared uplink) then
  // one per rack starting at rack_link0_.
  std::vector<double> link_bw_;
  int uplink_link_ = -1;
  int rack_link0_ = 0;
  std::vector<std::uint32_t> rack_of_;  // empty = flat network

  std::vector<double> speed_;  // empty = uniform 1.0

  bool uniform_remote_ = true;
  bool uniform_replica_ = true;
  double uniform_remote_bw_ = 0.0;
  double min_remote_bw_ = 0.0;
  double min_replica_bw_ = 0.0;
};

}  // namespace bsio::sim
