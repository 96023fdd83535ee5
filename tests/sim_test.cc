#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/topology.h"
#include "sim/engine.h"
#include "sim/plan.h"
#include "sim/state.h"
#include "sim/timeline.h"
#include "util/rng.h"
#include "workload/stats.h"
#include "workload/synthetic.h"

namespace bsio::sim {
namespace {

TEST(Timeline, ReserveAndQueryGaps) {
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 5.0), 0.0);
  tl.reserve(0.0, 10.0);
  EXPECT_DOUBLE_EQ(tl.horizon(), 10.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 5.0), 10.0);
  tl.reserve(20.0, 5.0);
  // Gap [10, 20) fits 10 but not 11.
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(0.0, 11.0), 25.0);
  EXPECT_DOUBLE_EQ(tl.earliest_free(12.0, 5.0), 12.0);
  tl.reserve(10.0, 10.0);  // fill the gap exactly
  tl.validate();
  EXPECT_DOUBLE_EQ(tl.busy_time(), 25.0);
}

TEST(Timeline, ZeroDurationIsNoop) {
  Timeline tl;
  tl.reserve(5.0, 0.0);
  EXPECT_EQ(tl.num_reservations(), 0u);
}

TEST(Timeline, EarliestCommonFree) {
  Timeline a, b;
  a.reserve(0.0, 10.0);
  b.reserve(12.0, 10.0);
  // Need 2 units free on both: a free from 10, b busy [12,22) -> common at
  // 10 only if 10+2 <= 12: exactly fits.
  std::vector<Timeline*> tls{&a, &b};
  EXPECT_DOUBLE_EQ(earliest_common_free(tls, 0.0, 2.0), 10.0);
  EXPECT_DOUBLE_EQ(earliest_common_free(tls, 0.0, 3.0), 22.0);
  // Null entries are ignored.
  std::vector<Timeline*> with_null{&a, nullptr, &b};
  EXPECT_DOUBLE_EQ(earliest_common_free(with_null, 0.0, 2.0), 10.0);
}

TEST(ClusterState, AddRemoveHolders) {
  ClusterState st(3, 100.0);
  EXPECT_FALSE(st.has(0, 7));
  st.add(0, 7, 40.0, 5.0);
  st.add(2, 7, 40.0, 9.0);
  EXPECT_TRUE(st.has(0, 7));
  EXPECT_DOUBLE_EQ(st.available_at(2, 7), 9.0);
  EXPECT_EQ(st.num_copies(7), 2u);
  const auto holders = st.holders(7);
  EXPECT_EQ(std::vector<wl::NodeId>(holders.begin(), holders.end()),
            (std::vector<wl::NodeId>{0, 2}));
  EXPECT_DOUBLE_EQ(st.used_bytes(0), 40.0);
  st.remove(0, 7, 40.0);
  EXPECT_FALSE(st.has(0, 7));
  EXPECT_DOUBLE_EQ(st.used_bytes(0), 0.0);
}

TEST(ClusterState, PopularityEvictionOrder) {
  // Eq. 22: popularity = freq * size / copies; lowest evicted first.
  ClusterState st(2, 1000.0);
  st.add(0, 1, 100.0, 0.0);  // freq 1 -> pop 100
  st.add(0, 2, 100.0, 0.0);  // freq 5 -> pop 500
  st.add(0, 3, 10.0, 0.0);   // freq 9 -> pop 90
  st.add(1, 2, 100.0, 0.0);  // second copy of 2 -> pop 250
  const std::vector<double> freq = {0.0, 1.0, 5.0, 9.0};
  auto victims =
      st.select_victims(0, 105.0, {}, EvictionPolicy::kPopularity, freq);
  // Order: 3 (90), 1 (100) -> 110 freed >= 105.
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 3u);
  EXPECT_EQ(victims[1], 1u);
}

TEST(ClusterState, LruEvictionOrderAndPinning) {
  ClusterState st(1, 1000.0);
  st.add(0, 1, 100.0, 0.0);
  st.add(0, 2, 100.0, 0.0);
  st.add(0, 3, 100.0, 0.0);
  st.touch(0, 1, 50.0);
  st.touch(0, 2, 20.0);
  const std::vector<double> one(4, 1.0);
  auto victims = st.select_victims(0, 100.0, {3}, EvictionPolicy::kLru, one);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);  // 3 pinned, 2 older than 1
}

TEST(ClusterState, VictimSelectionFailsWhenPinnedBlocksAll) {
  ClusterState st(1, 100.0);
  st.add(0, 1, 100.0, 0.0);
  const std::vector<double> one(2, 1.0);
  EXPECT_TRUE(
      st.select_victims(0, 50.0, {1}, EvictionPolicy::kLru, one).empty());
}

// Random add / remove / touch / clear_node sequences against a std::map
// model: membership, availability, ascending holders, copy counts, used
// bytes, the residency log (each changed file exactly once) and victim
// selection under every policy against a sort-based reference.
TEST(ClusterState, MatchesReferenceModel) {
  struct Copy {
    double avail;
    double last_use;
  };
  constexpr std::size_t kNodes = 5;
  constexpr wl::FileId kFiles = 30;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    ClusterState st(kNodes, 1e15);
    std::map<std::pair<wl::FileId, wl::NodeId>, Copy> model;
    std::vector<double> size(kFiles), pending(kFiles);
    for (wl::FileId f = 0; f < kFiles; ++f) {
      size[f] = static_cast<double>(1 + rng.uniform(50)) * kMB;
      pending[f] = static_cast<double>(rng.uniform(6));
    }
    std::vector<wl::FileId> log;
    auto changed = [&](wl::FileId f) {
      if (std::find(log.begin(), log.end(), f) == log.end()) log.push_back(f);
    };
    auto copies_of = [&](wl::FileId f) {
      std::size_t n = 0;
      for (wl::NodeId m = 0; m < kNodes; ++m) n += model.count({f, m});
      return n;
    };

    for (int op = 0; op < 300; ++op) {
      const wl::NodeId n = static_cast<wl::NodeId>(rng.uniform(kNodes));
      const wl::FileId f = static_cast<wl::FileId>(rng.uniform(kFiles));
      const double t = static_cast<double>(rng.uniform(100));
      const std::uint64_t r = rng.uniform(100);
      if (r < 45) {
        st.add(n, f, size[f], t);
        auto it = model.find({f, n});
        if (it == model.end()) {
          model[{f, n}] = {t, std::max(0.0, t)};
          changed(f);
        } else {
          it->second.avail = t;
          it->second.last_use = std::max(it->second.last_use, t);
        }
      } else if (r < 70) {
        if (model.count({f, n}) == 0) continue;
        st.remove(n, f, size[f]);
        model.erase({f, n});
        changed(f);
      } else if (r < 85) {
        st.touch(n, f, t);
        if (auto it = model.find({f, n}); it != model.end())
          it->second.last_use = std::max(it->second.last_use, t);
      } else if (r < 88) {
        double lost = 0.0;
        for (wl::FileId g = 0; g < kFiles; ++g)
          if (model.erase({g, n}) > 0) {
            lost += size[g];
            changed(g);
          }
        EXPECT_EQ(st.clear_node(n), lost);
      } else if (r < 93) {
        std::vector<wl::FileId> got = st.residency_log();
        std::sort(got.begin(), got.end());
        std::sort(log.begin(), log.end());
        EXPECT_EQ(got, log);  // each changed file exactly once
        st.clear_residency_log();
        log.clear();
      } else {
        std::vector<wl::FileId> pinned;
        for (std::uint64_t i = rng.uniform(3); i > 0; --i)
          pinned.push_back(static_cast<wl::FileId>(rng.uniform(kFiles)));
        const double need = static_cast<double>(rng.uniform(120)) * kMB;
        for (EvictionPolicy policy :
             {EvictionPolicy::kPopularity, EvictionPolicy::kLru,
              EvictionPolicy::kSizeAscending}) {
          struct Cand {
            double key;
            wl::FileId file;
          };
          std::vector<Cand> cands;
          for (const auto& [key, copy] : model) {
            const auto [g, m] = key;
            if (m != n || std::count(pinned.begin(), pinned.end(), g) > 0)
              continue;
            double k = size[g];
            if (policy == EvictionPolicy::kPopularity)
              k = pending[g] * size[g] / static_cast<double>(copies_of(g));
            else if (policy == EvictionPolicy::kLru)
              k = copy.last_use;
            cands.push_back({k, g});
          }
          std::sort(cands.begin(), cands.end(),
                    [](const Cand& a, const Cand& b) {
                      if (a.key != b.key) return a.key < b.key;
                      return a.file < b.file;
                    });
          std::vector<wl::FileId> want;
          double freed = 0.0;
          for (const Cand& c : cands) {
            if (freed >= need) break;
            want.push_back(c.file);
            freed += size[c.file];
          }
          if (freed < need) want.clear();
          EXPECT_EQ(st.select_victims(n, need, pinned, policy, pending), want)
              << "seed " << seed << " op " << op;
        }
      }

      for (wl::FileId g = 0; g < kFiles; ++g) {
        std::vector<wl::NodeId> holders;
        std::vector<double> avail;
        for (wl::NodeId m = 0; m < kNodes; ++m) {
          auto it = model.find({g, m});
          ASSERT_EQ(st.has(m, g), it != model.end());
          if (it == model.end()) continue;
          EXPECT_EQ(st.available_at(m, g), it->second.avail);
          holders.push_back(m);
          avail.push_back(it->second.avail);
        }
        const auto h = st.holders(g);
        const auto a = st.holder_avail(g);
        EXPECT_EQ(std::vector<wl::NodeId>(h.begin(), h.end()), holders);
        EXPECT_EQ(std::vector<double>(a.begin(), a.end()), avail);
        EXPECT_EQ(st.num_copies(g), holders.size());
      }
      for (wl::NodeId m = 0; m < kNodes; ++m) {
        double used = 0.0;
        std::vector<wl::FileId> on;
        for (const auto& [key, copy] : model)
          if (key.second == m) {
            used += size[key.first];
            on.push_back(key.first);
          }
        EXPECT_EQ(st.used_bytes(m), used);
        std::vector<wl::FileId> files = st.files_on(m);
        std::sort(files.begin(), files.end());
        EXPECT_EQ(files, on);
      }
    }
  }
}

// --- Engine tests on tiny hand-checkable workloads. ---

wl::Workload tiny_workload(std::size_t tasks, std::size_t files_per_task,
                           double overlap, std::uint64_t seed = 1) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = tasks;
  cfg.files_per_task = files_per_task;
  cfg.overlap = overlap;
  cfg.file_size_bytes = 100.0 * kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

ClusterConfig tiny_cluster() {
  ClusterConfig c;
  c.num_compute_nodes = 2;
  c.num_storage_nodes = 2;
  c.storage_disk_bw = 100.0 * kMB;   // remote: 1 s per 100 MB file
  c.storage_net_bw = 1000.0 * kMB;
  c.compute_net_bw = 400.0 * kMB;    // replica: 0.25 s per file
  c.local_disk_bw = 1000.0 * kMB;
  return c;
}

SubBatchPlan all_on(const wl::Workload& w, wl::NodeId node) {
  SubBatchPlan p;
  for (const auto& t : w.tasks()) {
    p.tasks.push_back(t.id);
    p.assignment[t.id] = node;
  }
  return p;
}

TEST(Engine, SingleTaskTiming) {
  // One task, one 100 MB file: remote 1 s + local read 0.1 s + compute.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(1);
  tasks[0].files = {0};
  tasks[0].compute_seconds = 2.0;
  wl::Workload w(std::move(tasks), std::move(files));

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.replications, 0u);
  EXPECT_NEAR(eng.makespan(), 1.0 + 0.1 + 2.0, 1e-9);
}

TEST(Engine, SharedFileIsTransferredOnceToSameNode) {
  // Two tasks on the same node sharing one file: one remote transfer.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Engine, ReplicationBeatsSecondRemoteTransfer) {
  // Two tasks on different nodes sharing one file. The second node should
  // replicate (0.25 s) from the first rather than re-fetch remotely (1 s),
  // because the engine's dynamic rule picks the faster source.
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 1u);
  EXPECT_EQ(stats.replications, 1u);
  EXPECT_GT(stats.replica_bytes, 0.0);
}

TEST(Engine, NoReplicationFlagForcesRemote) {
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ClusterConfig c = tiny_cluster();
  c.allow_replication = false;
  ExecutionEngine eng(c, w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 2u);
  EXPECT_EQ(stats.replications, 0u);
}

TEST(Engine, FixedStagingDirectiveIsHonoured) {
  // Force the second node to use a remote transfer even though a replica
  // would be faster (IP plans fix sources statically).
  std::vector<wl::FileInfo> files(1);
  files[0].size_bytes = 100.0 * kMB;
  files[0].home_storage_node = 0;
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {0};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;
  p.staging[{0u, 0u}] = {SourceKind::kRemote, wl::kInvalidNode};
  p.staging[{0u, 1u}] = {SourceKind::kRemote, wl::kInvalidNode};

  ExecutionEngine eng(tiny_cluster(), w);
  auto stats = eng.execute(p).value();
  EXPECT_EQ(stats.remote_transfers, 2u);
  EXPECT_EQ(stats.replications, 0u);
}

TEST(Engine, StorageContentionSerialisesTransfers) {
  // Two tasks on different nodes, distinct files on the SAME storage node:
  // the single-port model serialises the two 1 s transfers.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {1};
  wl::Workload w(std::move(tasks), std::move(files));

  SubBatchPlan p;
  p.tasks = {0, 1};
  p.assignment[0] = 0;
  p.assignment[1] = 1;

  ExecutionEngine eng(tiny_cluster(), w);
  ASSERT_TRUE(eng.execute(p).ok());
  // Second transfer starts at 1.0; completes 2.0; + 0.1 read.
  EXPECT_NEAR(eng.makespan(), 2.1, 1e-9);
  eng.storage_timeline(0).validate();
}

TEST(Engine, EvictionTriggersWhenDiskIsTight) {
  // Disk holds exactly one 100 MB file; two tasks on the same node with
  // different files force an eviction.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  tasks[0].files = {0};
  tasks[1].files = {1};
  wl::Workload w(std::move(tasks), std::move(files));

  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 100.0 * kMB;
  ExecutionEngine eng(c, w);
  auto stats = eng.execute(all_on(w, 0)).value();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.remote_transfers, 2u);
}

TEST(Engine, RestageCountsEvictedFileFetchedAgain) {
  // File 0 is needed by tasks 1 and 3; file 1 (task 2) evicts it in
  // between, so file 0 is staged twice.
  std::vector<wl::FileInfo> files(2);
  for (auto& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(3);
  tasks[0].files = {0};
  tasks[1].files = {1};
  tasks[2].files = {0};
  // In one sub-batch the ECT rule would smartly run the two file-0 tasks
  // back to back; split into two sub-batches to force the interleaving.
  wl::Workload w(std::move(tasks), std::move(files));

  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 100.0 * kMB;
  EngineOptions lru_opts;
  lru_opts.eviction = EvictionPolicy::kLru;
  ExecutionEngine eng(c, w, lru_opts);
  SubBatchPlan p1;
  p1.tasks = {0, 1};
  p1.assignment[0] = 0;
  p1.assignment[1] = 0;
  SubBatchPlan p2;
  p2.tasks = {2};
  p2.assignment[2] = 0;
  auto s1 = eng.execute(p1).value();
  auto s2 = eng.execute(p2).value();
  EXPECT_EQ(s1.remote_transfers, 2u);
  EXPECT_EQ(s1.evictions, 1u);  // file 0 evicted to admit file 1
  EXPECT_EQ(s2.evictions, 1u);  // file 1 evicted to re-admit file 0
  EXPECT_EQ(s2.remote_transfers + s2.replications, 1u);
  EXPECT_EQ(s2.restages, 1u);  // file 0 staged again after eviction
}

TEST(Engine, MakespanMonotonicAcrossSubBatches) {
  wl::Workload w = tiny_workload(12, 3, 0.5);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p1, p2;
  for (wl::TaskId t = 0; t < 6; ++t) {
    p1.tasks.push_back(t);
    p1.assignment[t] = t % 2;
  }
  for (wl::TaskId t = 6; t < 12; ++t) {
    p2.tasks.push_back(t);
    p2.assignment[t] = t % 2;
  }
  ASSERT_TRUE(eng.execute(p1).ok());
  double m1 = eng.makespan();
  ASSERT_TRUE(eng.execute(p2).ok());
  EXPECT_GE(eng.makespan(), m1);
  EXPECT_EQ(eng.totals().tasks_executed, 12u);
}

TEST(Engine, EveryRequestedFileRemotelyTransferredAtLeastOnce) {
  wl::Workload w = tiny_workload(20, 4, 0.6, 7);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p = all_on(w, 0);
  for (auto& [t, n] : p.assignment) n = t % 2;
  auto stats = eng.execute(p).value();
  EXPECT_GE(stats.remote_transfers, wl::measure(w).num_requested_files);
}

TEST(Engine, PendingRequestsDrainToZero) {
  wl::Workload w = tiny_workload(10, 3, 0.4, 3);
  ExecutionEngine eng(tiny_cluster(), w);
  SubBatchPlan p = all_on(w, 0);
  ASSERT_TRUE(eng.execute(p).ok());
  for (const auto& f : w.files())
    EXPECT_DOUBLE_EQ(eng.pending_requests(f.id), 0.0);
}

TEST(Engine, TimelinesNeverOverlap) {
  wl::Workload w = tiny_workload(30, 4, 0.7, 11);
  ClusterConfig c = tiny_cluster();
  c.disk_capacity = 500.0 * kMB;
  ExecutionEngine eng(c, w);
  SubBatchPlan p = all_on(w, 0);
  for (auto& [t, n] : p.assignment) n = t % 2;
  ASSERT_TRUE(eng.execute(p).ok());
  for (std::size_t s = 0; s < c.num_storage_nodes; ++s)
    eng.storage_timeline(s).validate();
  for (std::size_t n = 0; n < c.num_compute_nodes; ++n)
    eng.compute_timeline(n).validate();
}

TEST(Cluster, Presets) {
  ClusterConfig xio = xio_cluster(4, 4);
  EXPECT_DOUBLE_EQ(Topology(xio).uniform_remote_bw(), 210.0 * kMB);
  ClusterConfig osumed = osumed_cluster(8, 4);
  Topology osumed_topo(osumed);
  EXPECT_DOUBLE_EQ(osumed_topo.uniform_remote_bw(), 12.5 * kMB);
  EXPECT_EQ(osumed.num_compute_nodes, 8u);
  EXPECT_GT(osumed_topo.uniform_replica_bw(), osumed_topo.uniform_remote_bw());
  EXPECT_TRUE(xio.validate().ok());
  EXPECT_TRUE(osumed.validate().ok());
}

}  // namespace
}  // namespace bsio::sim
