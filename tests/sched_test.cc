#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sched/bipartition.h"
#include "sched/cost_model.h"
#include "sched/driver.h"
#include "sched/ip_formulation.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "sim/topology.h"
#include "workload/stats.h"
#include "workload/synthetic.h"

namespace bsio::sched {
namespace {

wl::Workload small_workload(std::size_t tasks = 24, double overlap = 0.7,
                            std::uint64_t seed = 5) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = 4;
  cfg.overlap = overlap;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

sim::ClusterConfig small_cluster(std::size_t compute = 3) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

void check_result_sane(const BatchRunResult& r, const wl::Workload& w) {
  EXPECT_GT(r.batch_time, 0.0);
  EXPECT_EQ(r.stats.tasks_executed, w.num_tasks());
  EXPECT_GE(r.sub_batches, 1u);
  // Every requested file needs >= 1 remote transfer (paper constraint 8).
  EXPECT_GE(r.stats.remote_transfers, wl::measure(w).num_requested_files);
}

TEST(CostModel, ProbabilisticWeightsMatchEq25) {
  // 2 tasks sharing one 100 MB file, T=2, K=2.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * sim::kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  tasks[0].compute_seconds = tasks[1].compute_seconds = 1.0;
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterConfig c = small_cluster(2);

  sim::Topology topo(c);
  auto exec = probabilistic_exec_times(w, {0, 1}, topo);
  const double bw_s = topo.uniform_remote_bw(),
               bw_c = topo.uniform_replica_bw();
  const double slow = std::min(bw_s, bw_c);
  const double s_j = 2.0, T = 2.0, K = 2.0;
  const double p_fne = 1.0 / s_j, p_fe = (s_j / T) / K;
  const double tr = p_fne / bw_s + (1 - p_fne) * (1 - p_fe) / slow;
  const double expect =
      1.0 + 100.0 * sim::kMB * (tr + 1.0 / c.local_disk_bw);
  EXPECT_NEAR(exec[0], expect, 1e-9);
  EXPECT_NEAR(exec[0], exec[1], 1e-12);
}

TEST(CostModel, EstimateCountsCacheAndSources) {
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 50.0 * sim::kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(1);
  tasks[0].files = {0, 1};
  tasks[0].compute_seconds = 1.0;
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterConfig c = small_cluster(2);

  sim::Topology topo(c);
  sim::ClusterState st(2, sim::kUnlimited);
  st.add(0, 0, 50.0 * sim::kMB, 0.0);  // file 0 cached on node 0
  PlannerState ps(w, topo, st);

  auto est0 = estimate_completion(w, topo, ps, 0, 0);
  auto est1 = estimate_completion(w, topo, ps, 0, 1);
  EXPECT_EQ(est0.stages.size(), 1u);  // only file 1 missing on node 0
  EXPECT_EQ(est1.stages.size(), 2u);
  EXPECT_LT(est0.completion, est1.completion);
  // Node 1's file 0 should come as a replica from node 0 (400 MB/s beats
  // the 50 MB/s remote path).
  bool found_replica = false;
  for (const auto& s : est1.stages)
    if (s.file == 0 && !s.remote && s.src == 0) found_replica = true;
  EXPECT_TRUE(found_replica);
}

TEST(Schedulers, AllFourRunTheBatchToCompletion) {
  wl::Workload w = small_workload();
  sim::ClusterConfig c = small_cluster();

  MinMinScheduler minmin;
  JobDataPresentScheduler jdp;
  BiPartitionScheduler bp;
  IpSchedulerOptions ipo = IpScheduler::default_options();
  ipo.allocation_mip.time_limit_seconds = 5.0;
  IpScheduler ip(ipo);

  for (Scheduler* s :
       std::initializer_list<Scheduler*>{&minmin, &jdp, &bp, &ip}) {
    BatchRunResult r = run_batch(*s, w, c);
    SCOPED_TRACE(s->name());
    check_result_sane(r, w);
  }
}

TEST(Schedulers, ProposedBeatBaselinesOnHighOverlap) {
  wl::Workload w = small_workload(30, 0.85, 11);
  sim::ClusterConfig c = small_cluster(4);

  MinMinScheduler minmin;
  BiPartitionScheduler bp;
  IpSchedulerOptions ipo = IpScheduler::default_options();
  ipo.allocation_mip.time_limit_seconds = 5.0;
  IpScheduler ip(ipo);

  double t_minmin = run_batch(minmin, w, c).batch_time;
  double t_bp = run_batch(bp, w, c).batch_time;
  double t_ip = run_batch(ip, w, c).batch_time;
  // The proposed schemes should not lose badly to MinMin on high overlap
  // (paper Figs 3-4). This is one small random instance, so the margin is
  // loose; the paper-scale comparisons live in the bench harness.
  EXPECT_LT(t_bp, t_minmin * 1.10);
  // IP realizes a statically staged plan through the dynamic runtime, so on
  // a single tiny instance it can land modestly above MinMin (the paper's
  // contention-vs-modeling effect); it must not be grossly worse.
  EXPECT_LT(t_ip, t_minmin * 1.40);
}

TEST(Schedulers, LimitedDiskStillCompletes) {
  wl::Workload w = small_workload(20, 0.5, 7);
  sim::ClusterConfig c = small_cluster(2);
  // Tight disk: every node holds only a few files at a time.
  c.disk_capacity = 6.0 * 64.0 * sim::kMB;

  MinMinScheduler minmin;
  JobDataPresentScheduler jdp;
  BiPartitionScheduler bp;
  IpSchedulerOptions ipo = IpScheduler::default_options();
  ipo.selection_mip.time_limit_seconds = 3.0;
  ipo.allocation_mip.time_limit_seconds = 3.0;
  IpScheduler ip(ipo);

  for (Scheduler* s :
       std::initializer_list<Scheduler*>{&minmin, &jdp, &bp, &ip}) {
    BatchRunResult r = run_batch(*s, w, c);
    SCOPED_TRACE(s->name());
    check_result_sane(r, w);
  }
}

TEST(Schedulers, BiPartitionUsesMultipleSubBatchesUnderTightDisk) {
  wl::Workload w = small_workload(24, 0.3, 13);
  sim::ClusterConfig c = small_cluster(2);
  double unique = w.unique_request_bytes();
  c.disk_capacity = unique / 3.0;  // aggregate 2/3 of the demand

  BiPartitionScheduler bp;
  BatchRunResult r = run_batch(bp, w, c);
  check_result_sane(r, w);
  EXPECT_GE(r.sub_batches, 2u);
}

TEST(Schedulers, NoReplicationConfigDisablesReplicas) {
  wl::Workload w = small_workload(20, 0.85, 3);
  sim::ClusterConfig c = small_cluster(4);
  c.allow_replication = false;
  for (Scheduler* s : std::initializer_list<Scheduler*>{
           new MinMinScheduler, new BiPartitionScheduler}) {
    BatchRunResult r = run_batch(*s, w, c);
    SCOPED_TRACE(s->name());
    EXPECT_EQ(r.stats.replications, 0u);
    EXPECT_EQ(r.stats.replica_bytes, 0.0);
    delete s;
  }
}

TEST(Schedulers, DeterministicAcrossRuns) {
  wl::Workload w = small_workload(18, 0.6, 21);
  sim::ClusterConfig c = small_cluster(3);
  BiPartitionScheduler a, b;
  EXPECT_DOUBLE_EQ(run_batch(a, w, c).batch_time,
                   run_batch(b, w, c).batch_time);
}

// ---------------- IP formulation unit tests ----------------

TEST(IpFormulation, CoalesceMergesIdenticalRequesterSets) {
  // Files 0,1 both used by tasks {0,1}; file 2 only by task 1.
  std::vector<wl::FileInfo> files(3);
  for (auto& f : files) {
    f.size_bytes = 10.0;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0, 1};
  tasks[1].files = {0, 1, 2};
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterState st(2, sim::kUnlimited);
  auto groups = coalesce_files(w, {0, 1}, st);
  ASSERT_EQ(groups.size(), 2u);
  // One group with 2 files (bytes 20), one with 1 file (bytes 10).
  std::multiset<double> sizes{groups[0].bytes, groups[1].bytes};
  EXPECT_EQ(sizes, (std::multiset<double>{10.0, 20.0}));
}

TEST(IpFormulation, CoalesceSplitsOnExistingPlacement) {
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 10.0;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(1);
  tasks[0].files = {0, 1};
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterState st(2, sim::kUnlimited);
  st.add(1, 0, 10.0, 0.0);  // file 0 already on node 1
  auto groups = coalesce_files(w, {0}, st);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(IpFormulation, IncumbentFromMappingIsFeasible) {
  wl::Workload w = small_workload(10, 0.6, 17);
  sim::ClusterConfig c = small_cluster(3);
  sim::ClusterState st(3, sim::kUnlimited);
  std::vector<wl::TaskId> tasks;
  for (const auto& t : w.tasks()) tasks.push_back(t.id);
  AllocationModel m(w, tasks, coalesce_files(w, tasks, st), sim::Topology(c),
                    {});
  // Any mapping should give a model-feasible star-staging point.
  std::vector<wl::NodeId> map(tasks.size());
  for (std::size_t i = 0; i < map.size(); ++i)
    map[i] = static_cast<wl::NodeId>(i % 3);
  auto x = m.incumbent_from_mapping(map);
  EXPECT_TRUE(m.model().is_feasible(x, 1e-6));
}

TEST(IpFormulation, AllocationOptimumMatchesExhaustiveTinyCase) {
  // 3 tasks, 2 nodes, one shared file; enumerate all 8 mappings with star
  // staging and compare the IP optimum's surrogate objective.
  std::vector<wl::FileInfo> files(2);
  files[0].size_bytes = 100.0 * sim::kMB;
  files[1].size_bytes = 50.0 * sim::kMB;
  for (auto& f : files) f.home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(3);
  tasks[0].files = {0};
  tasks[1].files = {0, 1};
  tasks[2].files = {1};
  tasks[0].compute_seconds = 2.0;
  tasks[1].compute_seconds = 1.0;
  tasks[2].compute_seconds = 3.0;
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterConfig c = small_cluster(2);
  sim::ClusterState st(2, sim::kUnlimited);

  std::vector<wl::TaskId> ids{0, 1, 2};
  AllocationModel m(w, ids, coalesce_files(w, ids, st), sim::Topology(c), {});
  ip::MipSolver solver(m.model(), m.integer_vars());
  auto r = solver.solve();
  ASSERT_TRUE(r.status == ip::MipStatus::kOptimal);

  double best_enum = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < 8; ++mask) {
    std::vector<wl::NodeId> map{static_cast<wl::NodeId>(mask & 1),
                                static_cast<wl::NodeId>((mask >> 1) & 1),
                                static_cast<wl::NodeId>((mask >> 2) & 1)};
    auto x = m.incumbent_from_mapping(map);
    if (m.model().is_feasible(x, 1e-6))
      best_enum = std::min(best_enum, m.makespan_surrogate(x));
  }
  // The IP explores at least the star-staging space, so its optimum cannot
  // be worse; it may be better (e.g. splitting remote transfers).
  EXPECT_LE(m.makespan_surrogate(r.x), best_enum + 1e-6);
}

TEST(IpFormulation, SelectionRespectsDiskAndMaximises) {
  // 4 tasks, each needing its own 60 MB file; per-node disk 130 MB, 2
  // nodes: at most 2 files fit per node -> all 4 tasks selectable.
  std::vector<wl::FileInfo> files(4);
  for (auto& f : files) {
    f.size_bytes = 60.0 * sim::kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(4);
  for (int k = 0; k < 4; ++k) {
    tasks[k].files = {static_cast<wl::FileId>(k)};
    tasks[k].compute_seconds = 1.0;
  }
  wl::Workload w(std::move(tasks), std::move(files));
  sim::ClusterConfig c = small_cluster(2);
  c.disk_capacity = 130.0 * sim::kMB;
  sim::ClusterState st(2, c.disk_capacity);

  std::vector<wl::TaskId> ids{0, 1, 2, 3};
  IpFormulationOptions fo;
  fo.balance_thresh = 1.0;
  SelectionModel m(w, ids, coalesce_files(w, ids, st), sim::Topology(c), fo);
  ip::MipSolver solver(m.model(), m.integer_vars());
  auto seed = m.greedy_incumbent();
  if (!seed.empty()) solver.set_incumbent(seed);
  auto r = solver.solve();
  ASSERT_TRUE(r.status == ip::MipStatus::kOptimal);
  EXPECT_EQ(m.extract_sub_batch(r.x).size(), 4u);

  // Shrink disk to one file per node -> only 2 tasks fit.
  c.disk_capacity = 70.0 * sim::kMB;
  SelectionModel m2(w, ids, coalesce_files(w, ids, st), sim::Topology(c), fo);
  ip::MipSolver solver2(m2.model(), m2.integer_vars());
  auto r2 = solver2.solve();
  ASSERT_TRUE(r2.status == ip::MipStatus::kOptimal);
  EXPECT_EQ(m2.extract_sub_batch(r2.x).size(), 2u);
}

TEST(IpFormulation, ExactAndAggregatedConstraintsAgreeOnOptimum) {
  wl::Workload w = small_workload(8, 0.5, 23);
  sim::ClusterConfig c = small_cluster(2);
  sim::ClusterState st(2, sim::kUnlimited);
  std::vector<wl::TaskId> ids;
  for (const auto& t : w.tasks()) ids.push_back(t.id);

  IpFormulationOptions agg, exact;
  agg.aggregate_constraints = true;
  exact.aggregate_constraints = false;
  const sim::Topology topo(c);
  AllocationModel ma(w, ids, coalesce_files(w, ids, st), topo, agg);
  AllocationModel me(w, ids, coalesce_files(w, ids, st), topo, exact);
  ip::MipSolver sa(ma.model(), ma.integer_vars());
  ip::MipSolver se(me.model(), me.integer_vars());
  auto ra = sa.solve();
  auto re = se.solve();
  ASSERT_TRUE(ra.status == ip::MipStatus::kOptimal);
  ASSERT_TRUE(re.status == ip::MipStatus::kOptimal);
  EXPECT_NEAR(ma.makespan_surrogate(ra.x), me.makespan_surrogate(re.x),
              1e-4);
}

TEST(BiPartition, MappingCoversAllNodesAndBalances) {
  wl::Workload w = small_workload(40, 0.6, 29);
  sim::ClusterConfig c = small_cluster(4);
  std::vector<wl::TaskId> ids;
  for (const auto& t : w.tasks()) ids.push_back(t.id);
  auto map = bipartition_map_tasks(w, ids, sim::Topology(c), {});
  ASSERT_EQ(map.size(), ids.size());
  std::set<wl::NodeId> used(map.begin(), map.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(BiPartition, RepairKeepsPerNodeDiskFeasible) {
  wl::Workload w = small_workload(30, 0.2, 31);
  sim::ClusterConfig c = small_cluster(2);
  c.disk_capacity = w.unique_request_bytes() / 2.5;

  BiPartitionScheduler bp;
  sim::ExecutionEngine engine(c, w);
  SchedulerContext ctx{w, c, engine};
  std::vector<wl::TaskId> pending;
  for (const auto& t : w.tasks()) pending.push_back(t.id);
  sim::SubBatchPlan plan = bp.plan_sub_batch(pending, ctx);
  ASSERT_FALSE(plan.empty());
  // Staged bytes per node within capacity.
  for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n) {
    std::set<wl::FileId> staged;
    for (wl::TaskId t : plan.tasks)
      if (plan.assignment.at(t) == n)
        for (wl::FileId f : w.task(t).files) staged.insert(f);
    double bytes = 0.0;
    for (wl::FileId f : staged) bytes += w.file_size(f);
    EXPECT_LE(bytes, c.disk_capacity + 1.0) << "node " << n;
  }
}

TEST(Jdp, PrefetchesPopularFiles) {
  wl::Workload w = small_workload(30, 0.9, 37);
  sim::ClusterConfig c = small_cluster(3);
  JobDataPresentScheduler jdp;
  sim::ExecutionEngine engine(c, w);
  SchedulerContext ctx{w, c, engine};
  std::vector<wl::TaskId> pending;
  for (const auto& t : w.tasks()) pending.push_back(t.id);
  sim::SubBatchPlan plan = jdp.plan_sub_batch(pending, ctx);
  EXPECT_FALSE(plan.prefetches.empty());
  EXPECT_EQ(jdp.eviction_policy(), sim::EvictionPolicy::kLru);
}

TEST(Driver, RejectsTaskLargerThanSmallestDisk) {
  // Up-front feasibility: one task's file set exceeds the smallest node's
  // disk, so run_batch must fail with the typed Section 4.2 error before
  // any engine work happens — not CHECK-abort in the eviction loop.
  wl::Workload w = small_workload(6, /*overlap=*/0.0, /*seed=*/3);
  sim::ClusterConfig c = small_cluster(2);
  double biggest_task = 0.0;
  for (const auto& t : w.tasks()) {
    double bytes = 0.0;
    for (wl::FileId f : t.files) bytes += w.file_size(f);
    biggest_task = std::max(biggest_task, bytes);
  }
  c.disk_capacity = biggest_task;
  c.disk_capacity_per_node = {biggest_task, 0.5 * biggest_task};

  MinMinScheduler mm;
  const BatchRunResult r = run_batch(mm, w, c);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("must fit on one node"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.tasks_stranded, w.num_tasks());
  EXPECT_EQ(r.stats.tasks_executed, 0u);

  // Growing the small disk back above the threshold clears the error.
  c.disk_capacity_per_node[1] = biggest_task;
  MinMinScheduler mm2;
  const BatchRunResult ok = run_batch(mm2, w, c);
  EXPECT_TRUE(ok.ok()) << ok.error;
}

}  // namespace
}  // namespace bsio::sched
