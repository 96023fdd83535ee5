#include "sim/topology.h"

#include <algorithm>

#include "util/check.h"

namespace bsio::sim {

namespace {

// The historical Eq. 12 min-chain, preserved verbatim: homogeneous configs
// must hand every consumer the bit-identical double the pre-topology
// ClusterConfig::remote_bw() produced.
double uniform_remote_chain(const ClusterConfig& c) {
  double bw = c.storage_disk_bw < c.storage_net_bw ? c.storage_disk_bw
                                                   : c.storage_net_bw;
  if (c.shared_uplink_bw > 0.0 && c.shared_uplink_bw < bw)
    bw = c.shared_uplink_bw;
  return bw;
}

}  // namespace

Topology::Topology(const ClusterConfig& c) : config_(c) {
  BSIO_CHECK_MSG(config_.validate().ok(),
                 "Topology requires a validated ClusterConfig");
  C_ = config_.num_compute_nodes;
  const std::size_t S = config_.num_storage_nodes;

  uniform_remote_ = config_.storage_disk_bw_per_node.empty() &&
                    config_.compute_nic_bw.empty() &&
                    config_.compute_rack.empty();
  uniform_replica_ =
      config_.compute_nic_bw.empty() && config_.compute_rack.empty();
  uniform_remote_bw_ = uniform_remote_chain(config_);
  speed_ = config_.compute_speed;
  rack_of_ = config_.compute_rack;

  // Shared-link table: the global uplink first, then one link per rack.
  if (config_.shared_uplink_bw > 0.0) {
    uplink_link_ = static_cast<int>(link_bw_.size());
    link_bw_.push_back(config_.shared_uplink_bw);
  }
  rack_link0_ = static_cast<int>(link_bw_.size());
  for (double bw : config_.rack_uplink_bw) link_bw_.push_back(bw);

  // Remote matrix: min over the storage disk, the storage-compute path, the
  // global uplink, the destination's rack uplink, and the destination NIC.
  // On a uniform config every cell is uniform_remote_bw_ exactly.
  remote_bw_.resize(S * C_);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t i = 0; i < C_; ++i) {
      double bw;
      if (uniform_remote_) {
        bw = uniform_remote_bw_;
      } else {
        bw = std::min(config_.storage_node_disk_bw(s), config_.storage_net_bw);
        if (config_.shared_uplink_bw > 0.0)
          bw = std::min(bw, config_.shared_uplink_bw);
        if (!rack_of_.empty())
          bw = std::min(bw, config_.rack_uplink_bw[rack_of_[i]]);
        if (!config_.compute_nic_bw.empty())
          bw = std::min(bw, config_.compute_nic_bw[i]);
      }
      remote_bw_[s * C_ + i] = bw;
    }
  }

  // Replica matrix: the compute interconnect, capped by both endpoint NICs
  // and, across racks, by both rack uplinks. Uniform => compute_net_bw.
  replica_bw_.resize(C_ * C_);
  for (std::size_t j = 0; j < C_; ++j) {
    for (std::size_t i = 0; i < C_; ++i) {
      double bw = config_.compute_net_bw;
      if (!uniform_replica_) {
        if (!config_.compute_nic_bw.empty())
          bw = std::min({bw, config_.compute_nic_bw[j],
                         config_.compute_nic_bw[i]});
        if (!rack_of_.empty() && rack_of_[j] != rack_of_[i])
          bw = std::min({bw, config_.rack_uplink_bw[rack_of_[j]],
                         config_.rack_uplink_bw[rack_of_[i]]});
      }
      replica_bw_[j * C_ + i] = bw;
    }
  }

  min_remote_bw_ =
      remote_bw_.empty()
          ? uniform_remote_bw_
          : *std::min_element(remote_bw_.begin(), remote_bw_.end());
  min_replica_bw_ =
      replica_bw_.empty()
          ? config_.compute_net_bw
          : *std::min_element(replica_bw_.begin(), replica_bw_.end());
}

}  // namespace bsio::sim
