// The homogeneous topology goldens: one 24-task synthetic batch on the XIO
// and OSUMED presets, with and without limited disk, for all four
// schedulers. Captured from the pre-topology seed (commit edb0c75) with a
// single planning thread and node-count-truncated IP solves. Do NOT
// regenerate these from the current tree when a change breaks them — a
// mismatch means the homogeneous fast paths stopped reproducing the
// historical arithmetic.
//
// topology_test pins every column, replica_test the replication-off path
// at several thread counts, incremental_test the streaming loop's
// quiescent case.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "sched/bipartition.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "workload/synthetic.h"

namespace bsio::goldens {

inline wl::Workload golden_workload() {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 24;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.num_storage_nodes = 4;
  cfg.seed = 11;
  return wl::make_synthetic(cfg);
}

// "xio", "osumed", "xio_disk" or "osumed_disk"; the disk presets cap every
// node at 35% of the batch's unique bytes.
inline sim::ClusterConfig golden_preset(const std::string& name,
                                        double unique_bytes) {
  sim::ClusterConfig c = (name == "xio" || name == "xio_disk")
                             ? sim::xio_cluster(4, 4)
                             : sim::osumed_cluster(4, 4);
  if (name == "xio_disk" || name == "osumed_disk")
    c.disk_capacity = 0.35 * unique_bytes;
  return c;
}

// The scheduler a golden row names (BatchRunResult::scheduler). The IP
// solves are truncated by node count, never by wall clock, so the rows
// reproduce under any machine load.
inline std::unique_ptr<sched::Scheduler> make_golden_scheduler(
    const std::string& name) {
  if (name == "IP") {
    sched::IpSchedulerOptions o = sched::IpScheduler::default_options();
    o.selection_mip.time_limit_seconds = 1e9;
    o.allocation_mip.time_limit_seconds = 1e9;
    o.selection_mip.max_nodes = 2000;
    o.allocation_mip.max_nodes = 2000;
    o.selection_mip.stall_node_limit = 64;
    o.allocation_mip.stall_node_limit = 64;
    return std::make_unique<sched::IpScheduler>(o);
  }
  if (name == "BiPartition")
    return std::make_unique<sched::BiPartitionScheduler>();
  if (name == "JobDataPresent")
    return std::make_unique<sched::JobDataPresentScheduler>();
  if (name != "MinMin") ADD_FAILURE() << "unknown scheduler " << name;
  return std::make_unique<sched::MinMinScheduler>();
}

struct GoldenRow {
  const char* preset;
  const char* scheduler;
  double batch_time;  // hexfloat: compared for exact bit equality
  std::size_t sub_batches;
  std::size_t remote_transfers;
  std::size_t replications;
  std::size_t evictions;
  std::size_t restages;
  std::size_t cache_hits;
  double remote_bytes;
  double replica_bytes;
  std::uint64_t first_plan_hash;
};

inline constexpr GoldenRow kGolden[] = {
    // clang-format off
    {"xio", "IP", 0x1.dd41d41d41d43p+2, 1, 40, 8, 0, 0, 24, 0x1.f4p+30, 0x1.9p+28, 0x20909099dcca5092ull},
    {"xio", "BiPartition", 0x1.915f15f15f16p+2, 1, 48, 0, 0, 0, 24, 0x1.2cp+31, 0x0p+0, 0x981396d46be57b5full},
    {"xio", "MinMin", 0x1.915f15f15f16p+2, 1, 50, 0, 0, 0, 22, 0x1.388p+31, 0x0p+0, 0xe5d3924395b9d3faull},
    {"xio", "JobDataPresent", 0x1.da35a35a35a37p+2, 1, 50, 0, 0, 0, 22, 0x1.388p+31, 0x0p+0, 0x6a767e967d3d2d4dull},
    {"osumed", "IP", 0x1.4fe6666666666p+7, 1, 41, 11, 0, 0, 20, 0x1.004p+31, 0x1.13p+29, 0x222c20d867519347ull},
    {"osumed", "BiPartition", 0x1.268p+7, 1, 36, 16, 0, 0, 20, 0x1.c2p+30, 0x1.9p+29, 0xb941add9e7ad5dbfull},
    {"osumed", "MinMin", 0x1.2519999999999p+7, 1, 36, 13, 0, 0, 23, 0x1.c2p+30, 0x1.45p+29, 0xb3e1281ad78175efull},
    {"osumed", "JobDataPresent", 0x1.2519999999999p+7, 1, 36, 13, 0, 0, 23, 0x1.c2p+30, 0x1.45p+29, 0x2dde3b8b064f5e7dull},
    {"xio_disk", "IP", 0x1.d222222222223p+2, 2, 44, 8, 4, 0, 20, 0x1.13p+31, 0x1.9p+28, 0xa84a68c06f97f137ull},
    {"xio_disk", "BiPartition", 0x1.a09c09c09c09dp+2, 2, 49, 0, 2, 0, 23, 0x1.324p+31, 0x0p+0, 0x55e13708d3cd98d5ull},
    {"xio_disk", "MinMin", 0x1.915f15f15f16p+2, 1, 50, 0, 2, 0, 22, 0x1.388p+31, 0x0p+0, 0xe5d3924395b9d3faull},
    {"xio_disk", "JobDataPresent", 0x1.da35a35a35a37p+2, 1, 50, 0, 7, 0, 22, 0x1.388p+31, 0x0p+0, 0x6a767e967d3d2d4dull},
    {"osumed_disk", "IP", 0x1.53b3333333333p+7, 2, 42, 14, 8, 0, 16, 0x1.068p+31, 0x1.5ep+29, 0xe69037d6bf694bdaull},
    {"osumed_disk", "BiPartition", 0x1.23b3333333333p+7, 2, 36, 20, 8, 0, 16, 0x1.c2p+30, 0x1.f4p+29, 0xf79ff8e050af6de8ull},
    {"osumed_disk", "MinMin", 0x1.2519999999999p+7, 1, 36, 13, 4, 0, 23, 0x1.c2p+30, 0x1.45p+29, 0xb3e1281ad78175efull},
    {"osumed_disk", "JobDataPresent", 0x1.2519999999999p+7, 1, 36, 13, 6, 0, 23, 0x1.c2p+30, 0x1.45p+29, 0x2dde3b8b064f5e7dull},
    // clang-format on
};

}  // namespace bsio::goldens
