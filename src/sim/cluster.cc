#include "sim/cluster.h"

#include <cmath>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace bsio::sim {

Status ClusterConfig::validate() const {
  if (num_compute_nodes == 0)
    return Err("ClusterConfig: num_compute_nodes must be > 0");
  if (num_storage_nodes == 0)
    return Err("ClusterConfig: num_storage_nodes must be > 0");
  if (!(storage_disk_bw > 0.0))
    return Err("ClusterConfig: storage_disk_bw must be > 0");
  if (!(storage_net_bw > 0.0))
    return Err("ClusterConfig: storage_net_bw must be > 0");
  if (!(compute_net_bw > 0.0))
    return Err("ClusterConfig: compute_net_bw must be > 0");
  if (!(local_disk_bw > 0.0))
    return Err("ClusterConfig: local_disk_bw must be > 0");
  if (!(disk_capacity > 0.0))
    return Err("ClusterConfig: disk_capacity must be > 0");
  if (!disk_capacity_per_node.empty()) {
    if (disk_capacity_per_node.size() != num_compute_nodes)
      return Err("ClusterConfig: per-node disk capacities must cover every "
                 "compute node (" +
                 std::to_string(disk_capacity_per_node.size()) +
                 " entries for " + std::to_string(num_compute_nodes) +
                 " nodes)");
    for (double cap : disk_capacity_per_node)
      if (!(cap > 0.0))
        return Err("ClusterConfig: per-node disk capacities must be > 0");
  }
  auto check_per_node = [](const std::vector<double>& v, std::size_t n,
                           const char* what) -> Status {
    if (v.empty()) return OkStatus();
    if (v.size() != n)
      return Err(std::string("ClusterConfig: ") + what + " must cover every "
                 "node (" + std::to_string(v.size()) + " entries for " +
                 std::to_string(n) + " nodes)");
    for (double bw : v)
      if (!(bw > 0.0))
        return Err(std::string("ClusterConfig: ") + what +
                   " entries must be > 0");
    return OkStatus();
  };
  if (Status s = check_per_node(storage_disk_bw_per_node, num_storage_nodes,
                                "storage_disk_bw_per_node");
      !s.ok())
    return s;
  if (Status s = check_per_node(compute_nic_bw, num_compute_nodes,
                                "compute_nic_bw");
      !s.ok())
    return s;
  if (Status s =
          check_per_node(compute_speed, num_compute_nodes, "compute_speed");
      !s.ok())
    return s;
  if (compute_rack.empty() != rack_uplink_bw.empty())
    return Err("ClusterConfig: compute_rack and rack_uplink_bw must be set "
               "together");
  if (!compute_rack.empty()) {
    if (compute_rack.size() != num_compute_nodes)
      return Err("ClusterConfig: compute_rack must cover every compute node (" +
                 std::to_string(compute_rack.size()) + " entries for " +
                 std::to_string(num_compute_nodes) + " nodes)");
    for (std::uint32_t r : compute_rack)
      if (r >= rack_uplink_bw.size())
        return Err("ClusterConfig: compute_rack refers to rack " +
                   std::to_string(r) + " but rack_uplink_bw has only " +
                   std::to_string(rack_uplink_bw.size()) + " entries");
    for (double bw : rack_uplink_bw)
      if (!(bw > 0.0))
        return Err("ClusterConfig: rack_uplink_bw entries must be > 0");
  }
  return OkStatus();
}

double ClusterConfig::aggregate_disk_capacity() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < num_compute_nodes; ++i) {
    const double cap = node_disk_capacity(i);
    if (!std::isfinite(cap)) return kUnlimited;
    sum += cap;
  }
  return sum;
}

bool ClusterConfig::unlimited_disk() const {
  for (std::size_t i = 0; i < num_compute_nodes; ++i)
    if (std::isfinite(node_disk_capacity(i))) return false;
  return true;
}

ClusterConfig xio_cluster(std::size_t compute_nodes,
                          std::size_t storage_nodes) {
  ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = storage_nodes;
  c.storage_disk_bw = 210.0 * kMB;  // FAStT600 pool measurement [3]
  c.storage_net_bw = 800.0 * kMB;   // 8 Gbps Infiniband effective
  c.shared_uplink_bw = 0.0;
  // Node-to-node copies move a file disk-to-disk: the Infiniband link is
  // not the bottleneck, the endpoint disks are (~2006-era local disks).
  c.compute_net_bw = 200.0 * kMB;
  // Tasks re-read their freshly staged inputs, which are still hot in the
  // 4 GB page cache of the dual-Xeon nodes.
  c.local_disk_bw = 500.0 * kMB;
  return c;
}

ClusterConfig osumed_cluster(std::size_t compute_nodes,
                             std::size_t storage_nodes) {
  ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = storage_nodes;
  c.storage_disk_bw = 21.0 * kMB;   // 18-25 MB/s PIII nodes
  c.storage_net_bw = 12.5 * kMB;    // 100 Mbps Ethernet
  c.shared_uplink_bw = 12.5 * kMB;  // shared OSUMED<->OSC link
  c.compute_net_bw = 200.0 * kMB;   // disk-to-disk copy over OSC Infiniband
  c.local_disk_bw = 500.0 * kMB;
  return c;
}

ClusterConfig xio_mixed_cluster(std::size_t compute_nodes,
                                std::size_t storage_nodes) {
  ClusterConfig c = xio_cluster(compute_nodes, storage_nodes);
  // Odd-numbered storage nodes are the older 100 MB/s generation.
  c.storage_disk_bw_per_node.assign(storage_nodes, c.storage_disk_bw);
  for (std::size_t s = 1; s < storage_nodes; s += 2)
    c.storage_disk_bw_per_node[s] = 100.0 * kMB;
  // Second half of the compute nodes are a newer procurement wave: 1.6x
  // CPUs and 800 MB/s NICs; the first half keep 200 MB/s NICs, which then
  // cap their replication traffic below compute_net_bw.
  c.compute_nic_bw.assign(compute_nodes, 200.0 * kMB);
  c.compute_speed.assign(compute_nodes, 1.0);
  for (std::size_t i = compute_nodes / 2; i < compute_nodes; ++i) {
    c.compute_nic_bw[i] = 800.0 * kMB;
    c.compute_speed[i] = 1.6;
  }
  return c;
}

ClusterConfig racked_cluster(std::size_t compute_nodes,
                             std::size_t storage_nodes, std::size_t racks) {
  ClusterConfig c = xio_cluster(compute_nodes, storage_nodes);
  c.compute_rack.resize(compute_nodes);
  for (std::size_t i = 0; i < compute_nodes; ++i)
    c.compute_rack[i] = static_cast<std::uint32_t>(i % racks);
  // Each rack uplink runs at a quarter of the storage-compute path, so any
  // two concurrent remote stages into one rack already contend.
  c.rack_uplink_bw.assign(racks, c.storage_net_bw / 4.0);
  return c;
}

namespace {
// Multiplicative factor in [1/(1+skew), 1+skew], log-uniform.
double skew_factor(double skew, SplitMix64& rng) {
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const double span = std::log1p(skew);  // log(1+skew)
  return std::exp((2.0 * u - 1.0) * span);
}
}  // namespace

ClusterConfig make_skewed_cluster(const ClusterConfig& base, double skew,
                                  std::uint64_t seed) {
  if (!(skew > 0.0)) return base;
  ClusterConfig c = base;
  SplitMix64 rng(seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull);
  c.storage_disk_bw_per_node.resize(c.num_storage_nodes);
  for (std::size_t s = 0; s < c.num_storage_nodes; ++s)
    c.storage_disk_bw_per_node[s] =
        base.storage_node_disk_bw(s) * skew_factor(skew, rng);
  c.compute_nic_bw.resize(c.num_compute_nodes);
  c.compute_speed.resize(c.num_compute_nodes);
  for (std::size_t i = 0; i < c.num_compute_nodes; ++i) {
    const double nic_base = base.compute_nic_bw.empty()
                                ? base.storage_net_bw
                                : base.compute_nic_bw[i];
    c.compute_nic_bw[i] = nic_base * skew_factor(skew, rng);
    const double speed_base =
        base.compute_speed.empty() ? 1.0 : base.compute_speed[i];
    c.compute_speed[i] = speed_base * skew_factor(skew, rng);
  }
  return c;
}

}  // namespace bsio::sim
