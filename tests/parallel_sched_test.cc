// Tests for the parallel scheduling core: the O(1) replica-presence
// index, the exec-time scratch, row pricing against the per-node cost
// model, the O(1)-removal exact MinMin loop (against a reimplementation of
// the historical erase-based path), lazy-vs-exact MinMin equivalence, and
// parallel-vs-sequential plan bit-identity across all four schedulers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sched/bipartition.h"
#include "sched/cost_model.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "util/rng.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace bsio::sched {
namespace {

wl::Workload test_workload(std::size_t tasks, std::uint64_t seed,
                           double overlap = 0.7) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = 4;
  cfg.overlap = overlap;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.file_size_jitter = 0.3;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

sim::ClusterConfig test_cluster(std::size_t compute = 4) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  return c;
}

std::vector<wl::TaskId> all_tasks(const wl::Workload& w) {
  std::vector<wl::TaskId> out;
  for (const auto& t : w.tasks()) out.push_back(t.id);
  return out;
}

bool plans_equal(const sim::SubBatchPlan& a, const sim::SubBatchPlan& b) {
  if (a.tasks != b.tasks) return false;
  if (a.assignment.size() != b.assignment.size()) return false;
  for (const auto& [t, n] : a.assignment) {
    auto it = b.assignment.find(t);
    if (it == b.assignment.end() || it->second != n) return false;
  }
  return a.prefetches == b.prefetches;
}

// ------------------------------------------------------------ PlannerState

TEST(PlannerState, PresenceIndexMatchesHolderLists) {
  const wl::Workload w = test_workload(40, 11);
  const sim::ClusterConfig c = test_cluster(5);
  sim::ExecutionEngine engine(c, w);
  PlannerState ps(w, engine.topology(), engine.state());

  Rng rng(3);
  for (int i = 0; i < 200; ++i)
    ps.add_planned(static_cast<wl::FileId>(rng.uniform(w.num_files())),
                   static_cast<wl::NodeId>(rng.uniform(c.num_compute_nodes)),
                   rng.uniform_double(0.0, 100.0));

  for (wl::FileId f = 0; f < w.num_files(); ++f) {
    for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n) {
      bool in_list = false;
      for (const auto& [node, avail] : ps.planned[f])
        if (node == n) in_list = true;
      EXPECT_EQ(ps.on_node(f, n), in_list) << "f=" << f << " n=" << n;
    }
    // No duplicate holders despite repeated add_planned calls.
    for (std::size_t a = 0; a < ps.planned[f].size(); ++a)
      for (std::size_t b = a + 1; b < ps.planned[f].size(); ++b)
        EXPECT_NE(ps.planned[f][a].first, ps.planned[f][b].first);
  }
}

TEST(PlannerState, EpochResetReusesBuffersAcrossWorkloads) {
  const sim::ClusterConfig c = test_cluster(3);
  PlannerState ps;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const wl::Workload w = test_workload(20 + 5 * seed, seed);
    sim::ExecutionEngine engine(c, w);
    ps.reset(w, engine.topology(), engine.state());
    // Fresh state: nothing planned on compute nodes beyond current holders
    // (empty engine cache => nothing at all).
    for (wl::FileId f = 0; f < w.num_files(); ++f) {
      EXPECT_TRUE(ps.planned[f].empty());
      for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n)
        EXPECT_FALSE(ps.on_node(f, n));
    }
    ps.add_planned(0, 1, 5.0);
    EXPECT_TRUE(ps.on_node(0, 1));
  }
}

// -------------------------------------------------------------- Cost model

TEST(CostModel, ScratchedExecTimesMatchFresh) {
  const wl::Workload w = test_workload(30, 17);
  const sim::ClusterConfig c = test_cluster();
  const auto tasks = all_tasks(w);

  const sim::Topology topo(c);
  const auto fresh = probabilistic_exec_times(w, tasks, topo);
  ExecTimeScratch scratch;
  // Repeated calls through one scratch must all match (the scratch must be
  // left clean between calls).
  for (int i = 0; i < 3; ++i) {
    const auto scratched = probabilistic_exec_times(w, tasks, topo, &scratch);
    ASSERT_EQ(scratched.size(), fresh.size());
    for (std::size_t j = 0; j < fresh.size(); ++j)
      EXPECT_EQ(scratched[j], fresh[j]) << j;
  }
  // And a different sub-batch through the same scratch.
  std::vector<wl::TaskId> half(tasks.begin(), tasks.begin() + 15);
  const auto a = probabilistic_exec_times(w, half, topo);
  const auto b = probabilistic_exec_times(w, half, topo, &scratch);
  EXPECT_EQ(a, b);
}

TEST(CostModel, CompletionTimeMatchesFullEstimateBitwise) {
  const wl::Workload w = test_workload(25, 23);
  const sim::ClusterConfig c = test_cluster(4);
  sim::ExecutionEngine engine(c, w);
  const sim::Topology& topo = engine.topology();
  PlannerState ps(w, topo, engine.state());

  // Interleave applies and comparisons so replica holders accumulate.
  Rng rng(9);
  for (int step = 0; step < 50; ++step) {
    const auto task = static_cast<wl::TaskId>(rng.uniform(w.num_tasks()));
    const auto node = static_cast<wl::NodeId>(rng.uniform(c.num_compute_nodes));
    const CompletionEstimate full =
        estimate_completion(w, topo, ps, task, node);
    const double fast = estimate_completion_time(w, topo, ps, task, node);
    EXPECT_EQ(full.completion, fast) << "step " << step;
    if (step % 5 == 0) apply_assignment(w, topo, ps, task, node, full);
  }
}

// estimate_completion_row against the per-node call, bit for bit, on
// planner states grown by random apply_assignment sequences. The uniform,
// shared-uplink and speed-only presets take the row path (the last with a
// per-node compute tail); the skewed and racked presets fall back to the
// per-node loop. Task 0 reads no file and task 1 one file.
TEST(CostModel, RowMatchesPerNodeBitwise) {
  const std::size_t C = 6;
  sim::ClusterConfig speed_only = sim::xio_cluster(C, 2);
  speed_only.compute_speed = {1.0, 1.5, 0.7, 1.0, 2.0, 1.3};
  const std::vector<std::pair<const char*, sim::ClusterConfig>> presets = {
      {"uniform", test_cluster(C)},
      {"osumed", sim::osumed_cluster(C, 2)},
      {"speed-only", speed_only},
      {"skewed", sim::make_skewed_cluster(sim::xio_cluster(C, 2), 0.5, 3)},
      {"racked", sim::racked_cluster(C, 2, 3)},
  };
  const wl::Workload base = test_workload(40, 31);
  std::vector<wl::TaskInfo> tasks = base.tasks();
  tasks[0].files.clear();
  tasks[1].files.resize(1);
  const wl::Workload w(std::move(tasks), base.files());

  Rng rng(17);
  for (const auto& [name, preset] : presets) {
    for (bool replication : {true, false}) {
      sim::ClusterConfig c = preset;
      c.allow_replication = replication;
      const sim::Topology topo(c);
      PlannerState ps(w, topo, sim::ClusterState(C, sim::kUnlimited));
      for (int step = 0; step < 60; ++step) {
        // A random alive subset, ascending like SchedulerContext's.
        std::vector<wl::NodeId> nodes;
        for (wl::NodeId n = 0; n < C; ++n)
          if (rng.bernoulli(0.75)) nodes.push_back(n);
        if (nodes.empty())
          nodes.push_back(static_cast<wl::NodeId>(rng.uniform(C)));
        std::vector<double> row(nodes.size());
        for (wl::TaskId t = 0; t < w.num_tasks(); ++t) {
          estimate_completion_row(w, topo, ps, t, nodes, row);
          for (std::size_t j = 0; j < nodes.size(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(row[j]),
                      std::bit_cast<std::uint64_t>(estimate_completion_time(
                          w, topo, ps, t, nodes[j])))
                << name << " replication " << replication << " step " << step
                << " task " << t << " node " << nodes[j];
        }
        const auto task = static_cast<wl::TaskId>(rng.uniform(w.num_tasks()));
        const wl::NodeId node = nodes[rng.uniform(nodes.size())];
        apply_assignment(w, topo, ps, task, node,
                         estimate_completion(w, topo, ps, task, node));
      }
    }
  }
}

// ------------------------------------------------------------------ MinMin

// The historical exact MinMin loop, verbatim: full (task x node) rescan per
// round with the O(T) vector erase. The production path must match it plan
// for plan.
sim::SubBatchPlan legacy_exact_minmin(const wl::Workload& w,
                                      const sim::ClusterConfig& c,
                                      const sim::ExecutionEngine& engine,
                                      const std::vector<wl::TaskId>& pending) {
  const sim::Topology& topo = engine.topology();
  PlannerState ps(w, topo, engine.state());
  std::vector<wl::NodeId> nodes;
  for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n) nodes.push_back(n);

  sim::SubBatchPlan plan;
  std::vector<wl::TaskId> todo = pending;
  while (!todo.empty()) {
    double best_ct = std::numeric_limits<double>::infinity();
    std::size_t best_i = 0;
    wl::NodeId best_node = nodes.front();
    CompletionEstimate best_est;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      for (wl::NodeId n : nodes) {
        CompletionEstimate est = estimate_completion(w, topo, ps, todo[i], n);
        const bool first = std::isinf(best_ct);
        const double tol = first ? 0.0 : 1e-9 * (1.0 + best_ct);
        const bool better =
            first || est.completion < best_ct - tol ||
            (est.completion < best_ct + tol &&
             ps.node_ready[n] < ps.node_ready[best_node] - 1e-12);
        if (better) {
          best_ct = est.completion;
          best_i = i;
          best_node = n;
          best_est = std::move(est);
        }
      }
    }
    const wl::TaskId task = todo[best_i];
    apply_assignment(w, topo, ps, task, best_node, best_est);
    plan.tasks.push_back(task);
    plan.assignment[task] = best_node;
    todo.erase(todo.begin() + best_i);
  }
  return plan;
}

TEST(MinMin, ExactPathMatchesLegacyEraseReference) {
  WsRuntime::set_global_threads(2);
  for (std::uint64_t seed : {1u, 5u, 9u, 42u}) {
    const wl::Workload w = test_workload(36, seed);
    const sim::ClusterConfig c = test_cluster(4);
    sim::ExecutionEngine engine(c, w);
    SchedulerContext ctx{w, c, engine};

    MinMinScheduler exact(/*exact_threshold=*/1u << 20);
    const sim::SubBatchPlan got = exact.plan_sub_batch(all_tasks(w), ctx);
    const sim::SubBatchPlan want =
        legacy_exact_minmin(w, c, engine, all_tasks(w));
    EXPECT_TRUE(plans_equal(got, want)) << "seed " << seed;
  }
}

TEST(MinMin, LazyHeapMatchesExactOnDisjointWorkloads) {
  WsRuntime::set_global_threads(2);
  // With no file sharing, committing one task never lowers another task's
  // MCT (port readies only grow), so the lazy heap's stale-check converges
  // on exactly the assignment the full rescan picks: plans must be equal.
  for (std::uint64_t seed : {2u, 7u, 13u, 21u}) {
    const wl::Workload w = test_workload(48, seed, /*overlap=*/0.0);
    const sim::ClusterConfig c = test_cluster(4);
    sim::ExecutionEngine engine(c, w);
    SchedulerContext ctx{w, c, engine};

    MinMinScheduler exact(/*exact_threshold=*/1u << 20);
    MinMinScheduler lazy(/*exact_threshold=*/0);
    const sim::SubBatchPlan pe = exact.plan_sub_batch(all_tasks(w), ctx);
    const sim::SubBatchPlan pl = lazy.plan_sub_batch(all_tasks(w), ctx);
    EXPECT_TRUE(plans_equal(pe, pl)) << "seed " << seed;
  }
}

TEST(MinMin, LazyHeapNearExactOnSharedWorkloads) {
  WsRuntime::set_global_threads(2);
  // With batch-shared files a committed replica can *lower* other tasks'
  // MCTs, which the lazy heap's grow-only staleness check cannot see; the
  // commit order (and occasionally an assignment) may then differ from the
  // exact rescan. The deviation must stay negligible: same task coverage
  // and a simulated makespan within 2% on every seeded workload.
  for (std::uint64_t seed : {2u, 7u, 13u, 21u}) {
    const wl::Workload w = test_workload(48, seed, /*overlap=*/0.6);
    const sim::ClusterConfig c = test_cluster(4);

    MinMinScheduler exact(/*exact_threshold=*/1u << 20);
    MinMinScheduler lazy(/*exact_threshold=*/0);
    const BatchRunResult re = run_batch(exact, w, c);
    const BatchRunResult rl = run_batch(lazy, w, c);
    ASSERT_TRUE(re.ok()) << re.error;
    ASSERT_TRUE(rl.ok()) << rl.error;
    EXPECT_EQ(re.stats.tasks_executed, w.num_tasks());
    EXPECT_EQ(rl.stats.tasks_executed, w.num_tasks());
    EXPECT_NEAR(rl.batch_time, re.batch_time, 0.02 * re.batch_time)
        << "seed " << seed;
  }
}

TEST(MinMin, BoundedStalenessNearUnbounded) {
  WsRuntime::set_global_threads(2);
  // A finite stale-retry budget truncates the refresh cascade between
  // commits (the quadratic term of the scale regime: every commit perturbs
  // the shared ports, invalidating every competing task's cached key). The
  // committed candidate is then the best of the refreshed beam instead of
  // the global fresh minimum; task coverage must be unaffected and the
  // simulated makespan must stay in the unbounded plan's neighbourhood.
  // The tolerance is looser than LazyHeapNearExactOnSharedWorkloads': at
  // 48 tasks a single reordered commit moves the makespan a few percent,
  // noise that washes out at the 10k+ scale the budget exists for (0.2%
  // there, measured in EXPERIMENTS.md).
  for (std::uint64_t seed : {2u, 7u, 13u, 21u}) {
    const wl::Workload w = test_workload(48, seed, /*overlap=*/0.6);
    const sim::ClusterConfig c = test_cluster(4);

    MinMinScheduler unbounded(/*exact_threshold=*/0);
    MinMinScheduler bounded(/*exact_threshold=*/0, /*stale_retry_budget=*/4);
    const BatchRunResult ru = run_batch(unbounded, w, c);
    const BatchRunResult rb = run_batch(bounded, w, c);
    ASSERT_TRUE(ru.ok()) << ru.error;
    ASSERT_TRUE(rb.ok()) << rb.error;
    EXPECT_EQ(rb.stats.tasks_executed, w.num_tasks());
    EXPECT_NEAR(rb.batch_time, ru.batch_time, 0.10 * ru.batch_time)
        << "seed " << seed;
  }
}

// ------------------------------------------- parallel-vs-sequential plans

// Runs one scheduler's full batch at several thread counts and expects the
// simulated outcome to be bit-identical (same plans => same makespan bits
// and identical transfer counts).
template <typename MakeScheduler>
void check_bit_identity(MakeScheduler make, const wl::Workload& w,
                        const sim::ClusterConfig& c) {
  double base_makespan = 0.0;
  std::size_t base_transfers = 0;
  sim::SubBatchPlan base_plan;
  bool have_base = false;
  for (std::size_t t : {1u, 2u, 4u, 8u}) {
    WsRuntime::set_global_threads(t);

    // Whole-batch outcome.
    auto s1 = make();
    const BatchRunResult r = run_batch(*s1, w, c);
    ASSERT_TRUE(r.ok()) << r.error;

    // First-round plan, compared structurally.
    auto s2 = make();
    sim::ExecutionEngine engine(c, w,
                                {s2->eviction_policy(), false, {}, {}});
    SchedulerContext ctx{w, c, engine};
    sim::SubBatchPlan plan = s2->plan_sub_batch(all_tasks(w), ctx);

    if (!have_base) {
      base_makespan = r.batch_time;
      base_transfers = r.stats.remote_transfers;
      base_plan = std::move(plan);
      have_base = true;
    } else {
      EXPECT_EQ(r.batch_time, base_makespan) << "threads=" << t;
      EXPECT_EQ(r.stats.remote_transfers, base_transfers) << "threads=" << t;
      EXPECT_TRUE(plans_equal(plan, base_plan)) << "threads=" << t;
    }
  }
  WsRuntime::set_global_threads(0);  // restore default
}

TEST(ParallelBitIdentity, MinMinExact) {
  check_bit_identity(
      [] { return std::make_unique<MinMinScheduler>(1u << 20); },
      test_workload(40, 3), test_cluster(4));
}

TEST(ParallelBitIdentity, MinMinLazy) {
  check_bit_identity([] { return std::make_unique<MinMinScheduler>(0); },
                     test_workload(40, 3), test_cluster(4));
}

TEST(ParallelBitIdentity, MinMinLazyBoundedStaleness) {
  check_bit_identity(
      [] { return std::make_unique<MinMinScheduler>(0, /*budget=*/4); },
      test_workload(40, 3), test_cluster(4));
}

TEST(ParallelBitIdentity, JobDataPresent) {
  check_bit_identity([] { return std::make_unique<JobDataPresentScheduler>(); },
                     test_workload(40, 3), test_cluster(4));
}

TEST(ParallelBitIdentity, BiPartition) {
  check_bit_identity([] { return std::make_unique<BiPartitionScheduler>(); },
                     test_workload(40, 3), test_cluster(4));
}

TEST(ParallelBitIdentity, Ip) {
  // Truncate the branch-and-bound by node count, not wall clock: the node
  // cutoff fires at the same tree point on any machine, so the solve — and
  // hence the plan — is deterministic even when the MIP can't be finished.
  check_bit_identity(
      [] {
        IpSchedulerOptions o = IpScheduler::default_options();
        o.selection_mip.time_limit_seconds = 1e6;
        o.selection_mip.max_nodes = 300;
        o.allocation_mip.time_limit_seconds = 1e6;
        o.allocation_mip.max_nodes = 300;
        return std::make_unique<IpScheduler>(o);
      },
      test_workload(10, 3), test_cluster(3));
}

}  // namespace
}  // namespace bsio::sched
