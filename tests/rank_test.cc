// Differential tests for the engine's task ranking (sim/rank.h).
//
// Random clusters put every kind of input in front of the rank unit:
// local, home-only and held inputs, stale homes with and without a current
// holder, a release floor, racks and a shared uplink, heterogeneous CPUs
// and slowdown windows, and duplicated tasks whose ECTs tie exactly. Every
// bound row must stay at or below its entry's exact ECT plus
// rank_margin(), and every pick must equal the full scan's while copies
// come and go between picks (pushed through RankIndex, as execute() does)
// and the timelines grow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "sim/rank.h"
#include "util/rng.h"

namespace bsio::sim {
namespace {

struct Scenario {
  ClusterConfig cluster;
  std::unique_ptr<Topology> topo;
  wl::Workload w;
  std::unique_ptr<ClusterState> state;
  std::vector<Timeline> storage_tl, compute_tl, link_tl;
  std::vector<char> home_valid;
  FaultModel faults;
  double floor = 0.0;

  RankView view() const {
    return {cluster, *topo,   w,          *state, storage_tl, compute_tl,
            link_tl, home_valid, faults, floor};
  }
};

Scenario make_scenario(std::uint64_t seed, bool sparse) {
  Rng rng(seed);
  Scenario s;
  ClusterConfig& c = s.cluster;
  c.num_compute_nodes = 3 + rng.uniform(4);
  c.num_storage_nodes = sparse ? 18 + rng.uniform(6) : 2 + rng.uniform(3);
  c.storage_disk_bw = rng.uniform_double(50.0, 300.0) * kMB;
  c.compute_net_bw = rng.uniform_double(100.0, 800.0) * kMB;
  c.local_disk_bw = rng.uniform_double(100.0, 1000.0) * kMB;
  if (rng.bernoulli(0.3)) c.shared_uplink_bw = 400.0 * kMB;
  if (rng.bernoulli(0.4)) {
    for (std::size_t n = 0; n < c.num_compute_nodes; ++n)
      c.compute_rack.push_back(static_cast<std::uint32_t>(n % 2));
    c.rack_uplink_bw = {300.0 * kMB, 500.0 * kMB};
  }
  if (rng.bernoulli(0.5))
    for (std::size_t n = 0; n < c.num_compute_nodes; ++n)
      c.compute_speed.push_back(rng.uniform_double(0.5, 2.0));
  EXPECT_TRUE(c.validate().ok());
  s.topo = std::make_unique<Topology>(c);

  const std::size_t num_files = 40;
  std::vector<wl::FileInfo> files(num_files);
  for (wl::FileId f = 0; f < num_files; ++f) {
    files[f].size_bytes = rng.uniform_double(10.0, 200.0) * kMB;
    files[f].home_storage_node =
        static_cast<wl::NodeId>(rng.uniform(c.num_storage_nodes));
  }
  std::vector<wl::TaskInfo> tasks(70);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (t % 5 == 4) {  // a duplicate: its ECT ties the original's
      tasks[t].files = tasks[t - 1].files;
      tasks[t].compute_seconds = tasks[t - 1].compute_seconds;
      continue;
    }
    const std::size_t k = 1 + rng.uniform(6);
    for (std::size_t i = 0; i < k; ++i)
      tasks[t].files.push_back(static_cast<wl::FileId>(rng.uniform(num_files)));
    std::sort(tasks[t].files.begin(), tasks[t].files.end());
    tasks[t].files.erase(
        std::unique(tasks[t].files.begin(), tasks[t].files.end()),
        tasks[t].files.end());
    tasks[t].compute_seconds = rng.uniform_double(0.1, 5.0);
  }
  s.w = wl::Workload(std::move(tasks), std::move(files));

  s.state = std::make_unique<ClusterState>(c.num_compute_nodes, kUnlimited);
  s.home_valid.assign(num_files, 1);
  for (wl::FileId f = 0; f < num_files; ++f) {
    if (rng.bernoulli(0.45))
      for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n)
        if (rng.bernoulli(0.4))
          s.state->add(n, f, s.w.file_size(f), rng.uniform_double(0.0, 60.0));
    // Stale homes, with a current holder or none at all.
    if (rng.bernoulli(0.2)) s.home_valid[f] = 0;
  }
  s.state->clear_residency_log();

  auto fill = [&](std::vector<Timeline>& tls, std::size_t n) {
    tls.resize(n);
    for (Timeline& tl : tls) {
      double t = rng.uniform_double(0.0, 20.0);
      for (std::size_t i = rng.uniform(4); i > 0; --i) {
        const double d = rng.uniform_double(0.5, 15.0);
        tl.reserve(t, d);
        t += d + rng.uniform_double(0.0, 10.0);
      }
    }
  };
  fill(s.storage_tl, c.num_storage_nodes);
  fill(s.compute_tl, c.num_compute_nodes);
  fill(s.link_tl, s.topo->num_links());

  FaultConfig fc;
  for (wl::NodeId n = 0; n < c.num_compute_nodes; ++n) {
    if (!rng.bernoulli(0.5)) continue;
    double t = rng.uniform_double(0.0, 30.0);
    for (std::size_t i = 1 + rng.uniform(3); i > 0; --i) {
      const double len = rng.uniform_double(1.0, 40.0);
      fc.compute_slowdowns.push_back(
          {n, t, t + len, rng.uniform_double(1.0, 4.0)});
      t += len + rng.uniform_double(0.0, 20.0);
    }
  }
  EXPECT_TRUE(fc.validate(c).ok());
  s.faults = FaultModel(fc, c.num_compute_nodes, c.num_storage_nodes);
  s.floor = rng.bernoulli(0.5) ? rng.uniform_double(0.0, 80.0) : 0.0;
  return s;
}

void run_scenario(std::uint64_t seed, bool sparse, std::size_t& tie_picks) {
  Scenario s = make_scenario(seed, sparse);
  Rng rng(seed * 7919 + 1);
  const RankView v = s.view();
  const std::size_t nodes = s.cluster.num_compute_nodes;

  std::vector<RankGroup> groups;
  for (wl::NodeId n = 0; n < nodes; ++n) groups.emplace_back(n);
  for (wl::TaskId t = 0; t < s.w.num_tasks(); ++t)
    groups[rng.uniform(nodes)].add(t);
  for (RankGroup& g : groups) g.build(v);
  std::vector<std::uint32_t> slots;
  const RankIndex index(s.w, groups, slots);
  RankScratch scratch;
  std::vector<std::vector<bool>> picked(nodes);
  for (wl::NodeId n = 0; n < nodes; ++n)
    picked[n].assign(groups[n].num_ids(), false);

  auto check_bounds = [&](wl::NodeId n) {
    std::vector<double> ready;
    remote_ready(v, n, ready);
    const double c0 = std::max(s.compute_tl[n].horizon(), s.floor);
    for (std::uint32_t id = 0; id < groups[n].num_ids(); ++id) {
      if (picked[n][id]) continue;
      const double exact = estimate_ect(v, groups[n].task(id), n);
      EXPECT_LE(groups[n].bound(id, c0, ready), exact + rank_margin(exact))
          << "seed " << seed << " node " << n << " id " << id;
    }
  };
  for (wl::NodeId n = 0; n < nodes; ++n) check_bounds(n);

  std::size_t left = s.w.num_tasks();
  while (left > 0) {
    wl::NodeId n = static_cast<wl::NodeId>(rng.uniform(nodes));
    while (groups[n].empty()) n = (n + 1) % nodes;
    RankGroup& g = groups[n];

    // The reference: fresh estimates of every pending entry, strict <.
    double best = 0.0;
    std::size_t at_best = 0;
    std::uint32_t want = 0;
    for (std::uint32_t id = 0; id < g.num_ids(); ++id) {
      if (picked[n][id]) continue;
      const double ect = estimate_ect(v, g.task(id), n);
      if (at_best == 0 || ect < best) {
        best = ect;
        at_best = 1;
        want = id;
      } else if (ect == best) {
        ++at_best;
      }
    }
    if (at_best > 1) ++tie_picks;
    ASSERT_EQ(g.full_scan(v), want) << "seed " << seed;
    ASSERT_EQ(g.pick(v, scratch), g.task(want))
        << "seed " << seed << " node " << n;
    picked[n][want] = true;
    --left;
    check_bounds(n);

    // A commit: the node's horizon grows, copies come and go, ports and
    // links gain reservations, a home goes stale or is flushed.
    s.compute_tl[n].reserve(s.compute_tl[n].horizon(),
                            rng.uniform_double(0.5, 10.0));
    for (std::size_t i = rng.uniform(3); i > 0; --i) {
      const wl::FileId f = static_cast<wl::FileId>(rng.uniform(40));
      const wl::NodeId m = static_cast<wl::NodeId>(rng.uniform(nodes));
      if (s.state->has(m, f))
        s.state->remove(m, f, s.w.file_size(f));
      else
        s.state->add(m, f, s.w.file_size(f),
                     s.compute_tl[m].horizon() + rng.uniform_double(0, 5));
    }
    if (rng.bernoulli(0.5)) {
      Timeline& tl = s.storage_tl[rng.uniform(s.storage_tl.size())];
      tl.reserve(tl.horizon(), rng.uniform_double(0.5, 8.0));
    }
    if (!s.link_tl.empty() && rng.bernoulli(0.3)) {
      Timeline& tl = s.link_tl[rng.uniform(s.link_tl.size())];
      tl.reserve(tl.horizon(), rng.uniform_double(0.5, 8.0));
    }
    if (rng.bernoulli(0.2)) {
      const wl::FileId f = static_cast<wl::FileId>(rng.uniform(40));
      s.home_valid[f] = s.home_valid[f] != 0 ? 0 : 1;
    }
    index.mark(s.state->residency_log(), groups);
    s.state->clear_residency_log();
  }
}

TEST(RankDifferential, DenseRowsMatchTheFullScan) {
  std::size_t tie_picks = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed)
    run_scenario(seed, /*sparse=*/false, tie_picks);
  EXPECT_GT(tie_picks, 0u);  // exact ties were exercised
}

TEST(RankDifferential, SparseRowsMatchTheFullScan) {
  std::size_t tie_picks = 0;
  for (std::uint64_t seed = 101; seed <= 130; ++seed)
    run_scenario(seed, /*sparse=*/true, tie_picks);
  EXPECT_GT(tie_picks, 0u);
}

TEST(RankDifferential, ExactTiesGoToTheLowestPosition) {
  // Two tasks on node 0 read one 100 MB file each, both homed on storage
  // node 0 (1 s fetch). Node 1 holds task 1's file, but its port is busy
  // until t = 1000, so both ECTs are the same home fetch. Task 1's bound
  // counts the 0.25 s replica copy and is the lower one, yet the tie goes
  // to task 0, the lower group position, as in the full scan.
  Scenario s;
  s.cluster.num_compute_nodes = 2;
  s.cluster.num_storage_nodes = 1;
  s.cluster.storage_disk_bw = 100.0 * kMB;
  s.cluster.storage_net_bw = 1000.0 * kMB;
  s.cluster.compute_net_bw = 400.0 * kMB;
  s.cluster.local_disk_bw = 1000.0 * kMB;
  s.topo = std::make_unique<Topology>(s.cluster);
  std::vector<wl::FileInfo> files(2);
  for (wl::FileInfo& f : files) {
    f.size_bytes = 100.0 * kMB;
    f.home_storage_node = 0;
  }
  std::vector<wl::TaskInfo> tasks(2);
  for (wl::FileId t = 0; t < 2; ++t) {
    tasks[t].files = {t};
    tasks[t].compute_seconds = 1.0;
  }
  s.w = wl::Workload(std::move(tasks), std::move(files));
  s.state = std::make_unique<ClusterState>(2, kUnlimited);
  s.state->add(1, 1, 100.0 * kMB, 0.0);
  s.home_valid.assign(2, 1);
  s.storage_tl.resize(1);
  s.compute_tl.resize(2);
  s.compute_tl[1].reserve(0.0, 1000.0);
  const RankView v = s.view();

  std::vector<RankGroup> groups;
  groups.emplace_back(0);
  groups[0].add(0);
  groups[0].add(1);
  groups[0].build(v);
  std::vector<double> ready;
  remote_ready(v, 0, ready);
  EXPECT_LT(groups[0].bound(1, 0.0, ready), groups[0].bound(0, 0.0, ready));
  EXPECT_EQ(estimate_ect(v, 0, 0), estimate_ect(v, 1, 0));
  EXPECT_EQ(groups[0].full_scan(v), 0u);
  RankScratch scratch;
  EXPECT_EQ(groups[0].pick(v, scratch), 0u);
  EXPECT_EQ(groups[0].pick(v, scratch), 1u);
  EXPECT_TRUE(groups[0].empty());
}

}  // namespace
}  // namespace bsio::sim
