// Cross-module integration and property tests: every scheduler, on
// workload sweeps, must produce schedules whose simulated execution
// satisfies the physical invariants of the model — completeness, transfer
// conservation, and analytic lower bounds on the makespan.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/topology.h"
#include "workload/image.h"
#include "workload/stats.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

// The paper's four schedulers by name, the IP solves bounded by `ip`.
std::unique_ptr<sched::Scheduler> make_scheduler(
    const std::string& name, const sched::IpSchedulerOptions& ip) {
  if (name == "IP") return std::make_unique<sched::IpScheduler>(ip);
  if (name == "BiPartition")
    return std::make_unique<sched::BiPartitionScheduler>();
  if (name == "JobDataPresent")
    return std::make_unique<sched::JobDataPresentScheduler>();
  return std::make_unique<sched::MinMinScheduler>();
}

const char* const kSchedulers[] = {"IP", "BiPartition", "MinMin",
                                   "JobDataPresent"};

struct SweepParam {
  const char* scheduler;
  double overlap;
  bool limited_disk;
  bool osumed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string s = p.scheduler;
  s += "_ov" + std::to_string(static_cast<int>(p.overlap * 100));
  s += p.limited_disk ? "_disk" : "_nodisk";
  s += p.osumed ? "_osumed" : "_xio";
  return s;
}

class SchedulerSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SchedulerSweep, PhysicalInvariantsHold) {
  const SweepParam& p = GetParam();

  wl::SyntheticConfig cfg;
  cfg.num_tasks = 30;
  cfg.files_per_task = 4;
  cfg.overlap = p.overlap;
  cfg.file_size_bytes = 48.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = 42;
  wl::Workload w = wl::make_synthetic(cfg);

  sim::ClusterConfig c =
      p.osumed ? sim::osumed_cluster(3, 2) : sim::xio_cluster(3, 2);
  if (p.limited_disk) c.disk_capacity = w.unique_request_bytes() / 2.0;

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.selection_mip.time_limit_seconds = 2.0;
  ip.allocation_mip.time_limit_seconds = 3.0;
  auto r = sched::run_batch(*make_scheduler(p.scheduler, ip), w, c);

  // Completeness.
  EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());

  // Transfer conservation: each requested file crosses the storage
  // boundary at least once; replicas only exist if allowed.
  const wl::WorkloadStats ws = wl::measure(w);
  const double requested_bytes = ws.unique_bytes;
  EXPECT_GE(r.stats.remote_transfers, ws.num_requested_files);
  EXPECT_GE(r.stats.remote_bytes, requested_bytes - 1.0);

  // Analytic lower bounds on the simulated makespan.
  double total_exec = 0.0;
  for (const auto& t : w.tasks())
    total_exec += t.compute_seconds +
                  [&] {
                    double b = 0.0;
                    for (wl::FileId f : t.files) b += w.file_size(f);
                    return b;
                  }() / c.local_disk_bw;
  EXPECT_GE(r.batch_time,
            total_exec / static_cast<double>(c.num_compute_nodes) - 1e-6)
      << "makespan below the compute lower bound";

  if (c.shared_uplink_bw > 0.0) {
    EXPECT_GE(r.batch_time, requested_bytes / c.shared_uplink_bw - 1e-6)
        << "makespan below the shared-uplink bound";
  }
  // Per-storage-port bound: every requested file leaves its home port at
  // least once.
  std::vector<char> is_requested(w.num_files(), 0);
  for (const auto& t : w.tasks())
    for (wl::FileId f : t.files) is_requested[f] = 1;
  const sim::Topology topo(c);
  for (wl::NodeId s = 0; s < c.num_storage_nodes; ++s) {
    double bytes = 0.0;
    for (const auto& f : w.files())
      if (is_requested[f.id] && f.home_storage_node == s)
        bytes += f.size_bytes;
    EXPECT_GE(r.batch_time, bytes / topo.uniform_remote_bw() - 1e-6)
        << "makespan below storage port " << s << " bound";
  }

  // Eviction only happens under limited disk.
  if (!p.limited_disk) {
    EXPECT_EQ(r.stats.evictions, 0u);
    EXPECT_EQ(r.stats.restages, 0u);
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const char* s : kSchedulers)
    for (double ov : {0.2, 0.7})
      for (bool disk : {false, true})
        for (bool osumed : {false, true})
          out.push_back({s, ov, disk, osumed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::ValuesIn(sweep_params()), param_name);

TEST(Integration, SchedulersAreDeterministic) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 20;
  cfg.files_per_task = 3;
  cfg.overlap = 0.6;
  cfg.file_size_bytes = 32.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = 7;
  wl::Workload w = wl::make_synthetic(cfg);
  sim::ClusterConfig c = sim::xio_cluster(2, 2);
  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.allocation_mip.time_limit_seconds = 1e9;  // node limit governs
  ip.allocation_mip.max_nodes = 500;           // deterministic stop
  ip.selection_mip.max_nodes = 500;
  for (const char* s : kSchedulers) {
    SCOPED_TRACE(s);
    auto r1 = sched::run_batch(*make_scheduler(s, ip), w, c);
    auto r2 = sched::run_batch(*make_scheduler(s, ip), w, c);
    EXPECT_DOUBLE_EQ(r1.batch_time, r2.batch_time);
    EXPECT_EQ(r1.stats.remote_transfers, r2.stats.remote_transfers);
    EXPECT_EQ(r1.stats.replications, r2.stats.replications);
  }
}

TEST(Integration, TighterDiskNeverReducesTransfers) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 24;
  cfg.files_per_task = 4;
  cfg.overlap = 0.6;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = 13;
  wl::Workload w = wl::make_synthetic(cfg);

  auto transfers_with_disk = [&](double fraction) {
    sim::ClusterConfig c = sim::xio_cluster(2, 2);
    if (fraction < 1e9)
      c.disk_capacity = w.unique_request_bytes() * fraction;
    sched::BiPartitionScheduler bipartition;
    auto r = sched::run_batch(bipartition, w, c);
    return r.stats.remote_transfers + r.stats.replications;
  };
  std::size_t unlimited = transfers_with_disk(1e18);
  std::size_t tight = transfers_with_disk(0.4);
  EXPECT_GE(tight, unlimited);
}

TEST(Integration, HigherOverlapMeansFewerRemoteBytes) {
  auto remote_bytes = [&](double ov) {
    wl::SyntheticConfig cfg;
    cfg.num_tasks = 40;
    cfg.files_per_task = 4;
    cfg.overlap = ov;
    cfg.file_size_bytes = 32.0 * sim::kMB;
    cfg.num_storage_nodes = 2;
    cfg.seed = 19;
    wl::Workload w = wl::make_synthetic(cfg);
    sched::BiPartitionScheduler bipartition;
    auto r = sched::run_batch(bipartition, w, sim::xio_cluster(4, 2));
    return r.stats.remote_bytes;
  };
  EXPECT_LT(remote_bytes(0.8), remote_bytes(0.2));
}

}  // namespace
}  // namespace bsio
