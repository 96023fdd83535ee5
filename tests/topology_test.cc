// Topology layer tests.
//
// Part 1 is the homogeneous bit-identity contract: the golden table
// (tests/goldens.h) was captured from the pre-topology code (every transfer
// priced by the scalar ClusterConfig::remote_bw()/replica_bw()) on the XIO
// and OSUMED presets, with and without limited disk, for all four
// schedulers. The refactored tree must reproduce every makespan BIT for BIT
// (hexfloat compare), every transfer/eviction counter, and the first-round
// plan hash.
//
// Part 2 covers the heterogeneous extensions the layer opens up: per-storage
// disk bandwidths, per-compute NIC caps and CPU speed factors, two-level
// rack links, and the skewed-cluster generator.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "goldens.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/topology.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

// ------------------------------------------------------- golden differential

std::uint64_t plan_hash(const sim::SubBatchPlan& p) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (wl::TaskId t : p.tasks) {
    mix(t);
    mix(p.assignment.at(t));
  }
  for (const auto& [k, v] : p.staging) {
    mix(k.first);
    mix(k.second);
    mix(static_cast<std::uint64_t>(v.kind));
    mix(v.src_node);
  }
  for (const auto& [f, n] : p.prefetches) {
    mix(f);
    mix(n);
  }
  return h;
}

TEST(TopologyBitIdentity, HomogeneousGoldensReproduceSeedBits) {
  // The goldens were captured single-threaded; the thread-pool determinism
  // contract makes the count irrelevant, but pinning it keeps this test
  // meaningful even if that contract ever regresses separately.
  WsRuntime::set_global_threads(1);
  const wl::Workload w = goldens::golden_workload();

  for (const goldens::GoldenRow& row : goldens::kGolden) {
    SCOPED_TRACE(std::string(row.preset) + "/" + row.scheduler);
    const sim::ClusterConfig c =
        goldens::golden_preset(row.preset, w.unique_request_bytes());

    const auto r = sched::run_batch(
        *goldens::make_golden_scheduler(row.scheduler), w, c);
    ASSERT_TRUE(r.ok()) << r.error;
    // Bitwise, not approximate: the whole point of the uniform fast paths.
    EXPECT_EQ(r.batch_time, row.batch_time);
    EXPECT_EQ(r.sub_batches, row.sub_batches);
    EXPECT_EQ(r.stats.remote_transfers, row.remote_transfers);
    EXPECT_EQ(r.stats.replications, row.replications);
    EXPECT_EQ(r.stats.evictions, row.evictions);
    EXPECT_EQ(r.stats.restages, row.restages);
    EXPECT_EQ(r.stats.cache_hits, row.cache_hits);
    EXPECT_EQ(r.stats.remote_bytes, row.remote_bytes);
    EXPECT_EQ(r.stats.replica_bytes, row.replica_bytes);

    // First-round plan, structurally hashed.
    auto sched = goldens::make_golden_scheduler(row.scheduler);
    sim::EngineOptions eng_opts;
    eng_opts.eviction = sched->eviction_policy();
    sim::ExecutionEngine eng(c, w, eng_opts);
    sched::SchedulerContext ctx{w, c, eng};
    std::vector<wl::TaskId> pending;
    for (const auto& t : w.tasks()) pending.push_back(t.id);
    const sim::SubBatchPlan plan = sched->plan_sub_batch(pending, ctx);
    EXPECT_EQ(plan_hash(plan), row.first_plan_hash);
  }
  WsRuntime::set_global_threads(0);
}

// --------------------------------------------------------- resolve mechanics

sim::ClusterConfig base_cluster(std::size_t compute = 4,
                                std::size_t storage = 2) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = storage;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

TEST(Topology, UniformConfigMatchesHistoricalScalars) {
  const sim::ClusterConfig c = base_cluster();
  const sim::Topology topo(c);
  EXPECT_TRUE(topo.uniform());
  EXPECT_TRUE(topo.uniform_remote());
  EXPECT_TRUE(topo.uniform_replica());
  EXPECT_TRUE(topo.uniform_speed());
  // min(storage_disk, storage_net), no uplink.
  EXPECT_EQ(topo.uniform_remote_bw(), 50.0 * sim::kMB);
  EXPECT_EQ(topo.min_remote_bw(), 50.0 * sim::kMB);
  EXPECT_EQ(topo.uniform_replica_bw(), 400.0 * sim::kMB);
  EXPECT_EQ(topo.min_replica_bw(), 400.0 * sim::kMB);
  EXPECT_EQ(topo.num_links(), 0u);

  const sim::TransferPath rp = topo.remote_path(1, 2);
  EXPECT_EQ(rp.bandwidth, 50.0 * sim::kMB);
  EXPECT_EQ(rp.num_links, 0u);
  const sim::TransferPath pp = topo.replica_path(0, 3);
  EXPECT_EQ(pp.bandwidth, 400.0 * sim::kMB);
  EXPECT_EQ(pp.num_links, 0u);
}

TEST(Topology, SharedUplinkBecomesALinkResource) {
  sim::ClusterConfig c = base_cluster();
  c.shared_uplink_bw = 30.0 * sim::kMB;
  const sim::Topology topo(c);
  ASSERT_EQ(topo.num_links(), 1u);
  EXPECT_EQ(topo.link_bw(0), 30.0 * sim::kMB);
  // Remote paths cross it and are capped by it; replica paths do not.
  const sim::TransferPath rp = topo.remote_path(0, 1);
  EXPECT_EQ(rp.bandwidth, 30.0 * sim::kMB);
  ASSERT_EQ(rp.num_links, 1u);
  EXPECT_EQ(rp.links[0], 0u);
  const sim::TransferPath pp = topo.replica_path(0, 1);
  EXPECT_EQ(pp.bandwidth, 400.0 * sim::kMB);
  EXPECT_EQ(pp.num_links, 0u);
}

TEST(Topology, PerStorageDiskBandwidthCapsOnlyThatRow) {
  sim::ClusterConfig c = base_cluster(4, 2);
  c.storage_disk_bw_per_node = {50.0 * sim::kMB, 10.0 * sim::kMB};
  ASSERT_TRUE(c.validate().ok());
  const sim::Topology topo(c);
  EXPECT_FALSE(topo.uniform_remote());
  EXPECT_TRUE(topo.uniform_replica());  // compute side untouched
  for (wl::NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(topo.remote_bw(0, i), 50.0 * sim::kMB);
    EXPECT_EQ(topo.remote_bw(1, i), 10.0 * sim::kMB);
  }
  EXPECT_EQ(topo.min_remote_bw(), 10.0 * sim::kMB);
}

TEST(Topology, NicCapsBothRemoteAndReplicaIntoANode) {
  sim::ClusterConfig c = base_cluster(3, 1);
  c.compute_nic_bw = {400.0 * sim::kMB, 20.0 * sim::kMB, 400.0 * sim::kMB};
  ASSERT_TRUE(c.validate().ok());
  const sim::Topology topo(c);
  EXPECT_FALSE(topo.uniform());
  EXPECT_EQ(topo.remote_bw(0, 0), 50.0 * sim::kMB);
  EXPECT_EQ(topo.remote_bw(0, 1), 20.0 * sim::kMB);  // NIC is the bottleneck
  // Replication is capped by either endpoint's NIC.
  EXPECT_EQ(topo.replica_bw(0, 2), 400.0 * sim::kMB);
  EXPECT_EQ(topo.replica_bw(0, 1), 20.0 * sim::kMB);
  EXPECT_EQ(topo.replica_bw(1, 2), 20.0 * sim::kMB);
}

TEST(Topology, CpuSpeedScalesExecOnly) {
  sim::ClusterConfig c = base_cluster(2, 1);
  c.compute_speed = {1.0, 2.0};
  ASSERT_TRUE(c.validate().ok());
  const sim::Topology topo(c);
  EXPECT_TRUE(topo.uniform_remote());  // network untouched
  EXPECT_FALSE(topo.uniform_speed());
  EXPECT_EQ(topo.cpu_speed(0), 1.0);
  EXPECT_EQ(topo.cpu_speed(1), 2.0);
  const double bytes = 100.0 * sim::kMB;
  EXPECT_EQ(topo.exec_seconds(bytes, 10.0, 0),
            bytes / c.local_disk_bw + 10.0);
  EXPECT_EQ(topo.exec_seconds(bytes, 10.0, 1),
            bytes / c.local_disk_bw + 5.0);
}

TEST(Topology, RackLinksShapeRemoteAndCrossRackReplicaPaths) {
  sim::ClusterConfig c = base_cluster(4, 2);
  c.compute_rack = {0, 0, 1, 1};
  c.rack_uplink_bw = {100.0 * sim::kMB, 25.0 * sim::kMB};
  ASSERT_TRUE(c.validate().ok());
  const sim::Topology topo(c);
  ASSERT_EQ(topo.num_links(), 2u);  // one per rack, no global uplink

  // Remote into rack 1 is capped by rack 1's uplink and crosses its link.
  const sim::TransferPath r0 = topo.remote_path(0, 0);
  EXPECT_EQ(r0.bandwidth, 50.0 * sim::kMB);  // storage disk still slowest
  ASSERT_EQ(r0.num_links, 1u);
  const sim::TransferPath r1 = topo.remote_path(0, 3);
  EXPECT_EQ(r1.bandwidth, 25.0 * sim::kMB);
  ASSERT_EQ(r1.num_links, 1u);
  EXPECT_NE(r0.links[0], r1.links[0]);

  // Same-rack replication stays off the uplinks; cross-rack crosses both
  // and is capped by the slower one.
  const sim::TransferPath same = topo.replica_path(0, 1);
  EXPECT_EQ(same.bandwidth, 400.0 * sim::kMB);
  EXPECT_EQ(same.num_links, 0u);
  const sim::TransferPath cross = topo.replica_path(1, 2);
  EXPECT_EQ(cross.bandwidth, 25.0 * sim::kMB);
  EXPECT_EQ(cross.num_links, 2u);
}

TEST(Topology, ValidateRejectsMalformedHeterogeneity) {
  sim::ClusterConfig c = base_cluster(4, 2);
  c.compute_nic_bw = {1.0, 1.0};  // wrong length
  EXPECT_FALSE(c.validate().ok());

  c = base_cluster(4, 2);
  c.compute_speed = {1.0, 0.0, 1.0, 1.0};  // non-positive entry
  EXPECT_FALSE(c.validate().ok());

  c = base_cluster(4, 2);
  c.compute_rack = {0, 0, 1, 1};  // racks without uplink bandwidths
  EXPECT_FALSE(c.validate().ok());

  c = base_cluster(4, 2);
  c.compute_rack = {0, 0, 2, 1};  // rack id out of range
  c.rack_uplink_bw = {100.0, 100.0};
  EXPECT_FALSE(c.validate().ok());

  c = base_cluster(4, 2);
  c.rack_uplink_bw = {100.0, 100.0};  // uplinks without rack assignment
  EXPECT_FALSE(c.validate().ok());
}

// ------------------------------------------------------ hetero presets / gen

TEST(Topology, HeteroPresetsValidateAndAreNonUniform) {
  const sim::ClusterConfig mixed = sim::xio_mixed_cluster(4, 4);
  EXPECT_TRUE(mixed.validate().ok());
  EXPECT_FALSE(mixed.homogeneous());
  EXPECT_FALSE(sim::Topology(mixed).uniform());

  const sim::ClusterConfig racked = sim::racked_cluster(8, 4, 2);
  EXPECT_TRUE(racked.validate().ok());
  EXPECT_FALSE(racked.homogeneous());
  const sim::Topology topo(racked);
  EXPECT_EQ(topo.num_links(), 2u);
}

TEST(Topology, SkewedClusterGeneratorIsDeterministicAndBounded) {
  const sim::ClusterConfig base = base_cluster(6, 3);
  EXPECT_TRUE(sim::make_skewed_cluster(base, 0.0).homogeneous());

  const double skew = 0.5;
  const sim::ClusterConfig a = sim::make_skewed_cluster(base, skew, 7);
  const sim::ClusterConfig b = sim::make_skewed_cluster(base, skew, 7);
  const sim::ClusterConfig d = sim::make_skewed_cluster(base, skew, 8);
  EXPECT_TRUE(a.validate().ok());
  EXPECT_FALSE(a.homogeneous());
  EXPECT_EQ(a.storage_disk_bw_per_node, b.storage_disk_bw_per_node);
  EXPECT_EQ(a.compute_speed, b.compute_speed);
  EXPECT_NE(a.compute_speed, d.compute_speed);

  const double lo = 1.0 / (1.0 + skew), hi = 1.0 + skew;
  for (double v : a.storage_disk_bw_per_node) {
    EXPECT_GE(v, base.storage_disk_bw * lo * 0.999);
    EXPECT_LE(v, base.storage_disk_bw * hi * 1.001);
  }
  for (double v : a.compute_nic_bw) {
    EXPECT_GE(v, base.storage_net_bw * lo * 0.999);
    EXPECT_LE(v, base.storage_net_bw * hi * 1.001);
  }
  for (double v : a.compute_speed) {
    EXPECT_GE(v, lo * 0.999);
    EXPECT_LE(v, hi * 1.001);
  }
}

// ----------------------------------------------- hetero end-to-end behaviour

wl::Workload hetero_workload(std::uint64_t seed) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 20;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 40.0 * sim::kMB;
  cfg.num_storage_nodes = 4;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

TEST(TopologyEndToEnd, AllSchedulersDrainHeteroClusters) {
  const wl::Workload w = hetero_workload(13);
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 5.0;
  for (const sim::ClusterConfig& c :
       {sim::xio_mixed_cluster(4, 4), sim::racked_cluster(8, 4, 2),
        sim::make_skewed_cluster(sim::xio_cluster(4, 4), 0.75, 3)}) {
    ASSERT_TRUE(c.validate().ok());
    sched::IpScheduler ip_sched(ip);
    sched::BiPartitionScheduler bipartition;
    sched::MinMinScheduler minmin;
    sched::JobDataPresentScheduler jdp;
    sched::Scheduler* const all[] = {&ip_sched, &bipartition, &minmin, &jdp};
    for (sched::Scheduler* s : all) {
      const auto r = sched::run_batch(*s, w, c);
      ASSERT_TRUE(r.ok()) << r.scheduler << ": " << r.error;
      EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
    }
  }
}

TEST(TopologyEndToEnd, FasterCpusNeverSlowTheBatch) {
  const wl::Workload w = hetero_workload(17);
  sim::ClusterConfig slow = sim::xio_cluster(4, 4);
  sim::ClusterConfig fast = slow;
  fast.compute_speed = {2.0, 2.0, 2.0, 2.0};
  sched::MinMinScheduler minmin;
  sched::BiPartitionScheduler bipartition;
  sched::Scheduler* const both[] = {&minmin, &bipartition};
  for (sched::Scheduler* s : both) {
    const auto rs = sched::run_batch(*s, w, slow);
    const auto rf = sched::run_batch(*s, w, fast);
    ASSERT_TRUE(rs.ok() && rf.ok());
    EXPECT_LE(rf.batch_time, rs.batch_time + 1e-9) << rs.scheduler;
  }
}

}  // namespace
}  // namespace bsio
