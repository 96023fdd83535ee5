// Heterogeneous per-node disk capacities (Eqs. 16/21 allow DiskSpace_i per
// node): config plumbing, engine enforcement, BiPartition repair and the
// IP selection model must all honour them.

#include <gtest/gtest.h>

#include <set>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

wl::Workload hetero_workload(std::uint64_t seed = 31) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 24;
  cfg.files_per_task = 3;
  cfg.overlap = 0.4;
  cfg.file_size_bytes = 50.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

TEST(HeteroDisk, ConfigHelpers) {
  sim::ClusterConfig c = sim::xio_cluster(3, 2);
  EXPECT_TRUE(c.unlimited_disk());
  c.disk_capacity = 10.0 * sim::kGB;
  EXPECT_FALSE(c.unlimited_disk());
  EXPECT_DOUBLE_EQ(c.aggregate_disk_capacity(), 30.0 * sim::kGB);
  c.disk_capacity_per_node = {1.0 * sim::kGB, 2.0 * sim::kGB, sim::kUnlimited};
  EXPECT_DOUBLE_EQ(c.node_disk_capacity(0), 1.0 * sim::kGB);
  EXPECT_DOUBLE_EQ(c.node_disk_capacity(1), 2.0 * sim::kGB);
  EXPECT_TRUE(std::isinf(c.aggregate_disk_capacity()));
  EXPECT_FALSE(c.unlimited_disk());
  EXPECT_TRUE(c.validate().ok());
}

TEST(HeteroDisk, ValidateRejectsWrongArity) {
  sim::ClusterConfig c = sim::xio_cluster(3, 2);
  c.disk_capacity_per_node = {sim::kGB};  // 1 entry for 3 nodes
  const auto v = c.validate();
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("per-node disk"), std::string::npos);
}

TEST(HeteroDisk, EngineEnforcesPerNodeCapacity) {
  // Node 0: room for one 50 MB file; node 1: plenty. Two tasks on node 0
  // with distinct files must trigger an eviction; the same on node 1 must
  // not.
  std::vector<wl::FileInfo> files(4);
  for (auto& f : files) {
    f.size_bytes = 50.0 * sim::kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(4);
  for (int k = 0; k < 4; ++k) tasks[k].files = {static_cast<wl::FileId>(k)};
  wl::Workload w(std::move(tasks), std::move(files));

  sim::ClusterConfig c = sim::xio_cluster(2, 1);
  c.disk_capacity_per_node = {55.0 * sim::kMB, 500.0 * sim::kMB};

  sim::ExecutionEngine eng(c, w);
  sim::SubBatchPlan p;
  p.tasks = {0, 1, 2, 3};
  p.assignment[0] = 0;
  p.assignment[1] = 0;
  p.assignment[2] = 1;
  p.assignment[3] = 1;
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.evictions, 1u);  // only node 0 evicts
  EXPECT_DOUBLE_EQ(eng.state().capacity(0), 55.0 * sim::kMB);
  EXPECT_LE(eng.state().used_bytes(0), 55.0 * sim::kMB);
}

TEST(HeteroDisk, AllSchedulersCompleteWithUnevenDisks) {
  wl::Workload w = hetero_workload();
  sim::ClusterConfig c = sim::xio_cluster(3, 2);
  const double unique = w.unique_request_bytes();
  c.disk_capacity = unique;  // fallback scalar, overridden below
  c.disk_capacity_per_node = {unique * 0.2, unique * 0.4, unique * 0.6};

  sched::IpSchedulerOptions ip = sched::IpScheduler::default_options();
  ip.selection_mip.time_limit_seconds = 2.0;
  ip.allocation_mip.time_limit_seconds = 3.0;
  sched::IpScheduler ip_sched(ip);
  sched::BiPartitionScheduler bipartition;
  sched::MinMinScheduler minmin;
  sched::JobDataPresentScheduler jdp;
  sched::Scheduler* const all[] = {&ip_sched, &bipartition, &minmin, &jdp};
  for (sched::Scheduler* s : all) {
    SCOPED_TRACE(s->name());
    auto r = sched::run_batch(*s, w, c);
    EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
  }
}

TEST(HeteroDisk, BiPartitionRepairHonoursSmallNode) {
  wl::Workload w = hetero_workload(37);
  sim::ClusterConfig c = sim::xio_cluster(2, 2);
  const double unique = w.unique_request_bytes();
  c.disk_capacity = unique;
  c.disk_capacity_per_node = {unique * 0.15, unique};

  sched::BiPartitionScheduler bp;
  sim::ExecutionEngine eng(c, w);
  sched::SchedulerContext ctx{w, c, eng};
  std::vector<wl::TaskId> pending;
  for (const auto& t : w.tasks()) pending.push_back(t.id);
  sim::SubBatchPlan plan = bp.plan_sub_batch(pending, ctx);
  ASSERT_FALSE(plan.empty());
  // Staged bytes on the small node stay within its capacity.
  std::set<wl::FileId> staged;
  for (wl::TaskId t : plan.tasks)
    if (plan.assignment.at(t) == 0)
      for (wl::FileId f : w.task(t).files) staged.insert(f);
  double bytes = 0.0;
  for (wl::FileId f : staged) bytes += w.file_size(f);
  EXPECT_LE(bytes, c.node_disk_capacity(0) + 1.0);
}

}  // namespace
}  // namespace bsio
