#include "sched/bipartition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "sched/cost_model.h"
#include "util/check.h"
#include "util/logging.h"

namespace bsio::sched {

namespace {

// Builds the task-file hypergraph over `tasks`: one vertex per task (in
// order), one net per file requested by >= 2 of them (files used by a
// single task fold into its vertex, preserving incident-weight accounting).
hg::Hypergraph build_hypergraph(const wl::Workload& w,
                                const std::vector<wl::TaskId>& tasks,
                                const std::vector<double>& vertex_weights) {
  hg::HypergraphBuilder b;
  for (double vw : vertex_weights) b.add_vertex(vw);

  std::unordered_map<wl::FileId, std::vector<hg::VertexId>> pins_of_file;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    for (wl::FileId f : w.task(tasks[i]).files)
      pins_of_file[f].push_back(static_cast<hg::VertexId>(i));
  for (auto& [f, pins] : pins_of_file)
    b.add_net(w.file_size(f), std::move(pins));
  return b.build();
}

}  // namespace

std::vector<wl::NodeId> bipartition_map_tasks(
    const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
    const sim::Topology& topo, const BiPartitionOptions& options,
    const std::vector<wl::NodeId>& nodes, ExecTimeScratch* scratch) {
  const auto weights =
      options.probabilistic_weights
          ? probabilistic_exec_times(w, tasks, topo, scratch)
          : plain_exec_times(w, tasks, topo);
  hg::Hypergraph h = build_hypergraph(w, tasks, weights);
  const std::size_t k =
      nodes.empty() ? topo.config().num_compute_nodes : nodes.size();
  auto parts = hg::partition_kway(h, static_cast<int>(k),
                                  hg::PartitionerOptions{});
  std::vector<wl::NodeId> map(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    map[i] = nodes.empty() ? static_cast<wl::NodeId>(parts[i])
                           : nodes[parts[i]];
  return map;
}

sim::SubBatchPlan BiPartitionScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  const wl::Workload& w = ctx.batch;
  const sim::ClusterConfig& cluster = ctx.cluster;
  const sim::Topology& topo = ctx.topology;
  const std::vector<wl::NodeId>& nodes = ctx.alive_nodes();
  BSIO_CHECK_MSG(!nodes.empty(), "BiPartition: no compute node is alive");

  // --- Level 1: sub-batch selection via BINW. ---
  std::vector<wl::TaskId> sub_batch;
  const bool limited = !cluster.unlimited_disk();
  if (!limited) {
    sub_batch = pending;
  } else {
    // BINW's bound D: the aggregate disk space of the surviving nodes.
    double bound = 0.0;
    for (wl::NodeId n : nodes) bound += cluster.node_disk_capacity(n);
    const auto weights =
        options_.probabilistic_weights
            ? probabilistic_exec_times(w, pending, topo, &exec_scratch_)
            : plain_exec_times(w, pending, topo);
    hg::Hypergraph h = build_hypergraph(w, pending, weights);
    hg::BinwResult binw =
        hg::partition_binw(h, bound, hg::PartitionerOptions{});

    std::vector<std::size_t> count(binw.num_parts, 0);
    for (int p : binw.parts) ++count[p];
    // Execute the largest sub-batch first (mirrors the IP scheme's
    // "maximally sized subset" objective); the rest stay pending and are
    // re-partitioned next round against the then-current cache state.
    const int pick = static_cast<int>(
        std::max_element(count.begin(), count.end()) - count.begin());
    for (std::size_t i = 0; i < pending.size(); ++i)
      if (binw.parts[i] == pick) sub_batch.push_back(pending[i]);
    BSIO_LOG(kDebug) << "BiPartition: BINW chose " << sub_batch.size()
                     << "/" << pending.size() << " tasks over "
                     << binw.num_parts << " sub-batches";
  }

  // --- Level 2: K-way task mapping onto the surviving nodes. ---
  const std::vector<wl::NodeId> map = bipartition_map_tasks(
      w, sub_batch, topo, options_, nodes, &exec_scratch_);

  sim::SubBatchPlan plan;
  plan.tasks = sub_batch;
  for (std::size_t i = 0; i < sub_batch.size(); ++i)
    plan.assignment[sub_batch[i]] = map[i];

  // --- Per-node disk repair (Section 5.3). ---
  if (limited) {
    // Sharer counts within the sub-batch.
    std::unordered_map<wl::FileId, std::size_t> sharers;
    for (wl::TaskId t : sub_batch)
      for (wl::FileId f : w.task(t).files) ++sharers[f];

    std::unordered_set<wl::TaskId> dropped;
    for (wl::NodeId n = 0; n < cluster.num_compute_nodes; ++n) {
      // Files to be staged onto n for its assigned tasks.
      std::unordered_set<wl::FileId> staged;
      for (std::size_t i = 0; i < sub_batch.size(); ++i)
        if (map[i] == n)
          for (wl::FileId f : w.task(sub_batch[i]).files) staged.insert(f);
      double bytes = 0.0;
      for (wl::FileId f : staged) bytes += w.file_size(f);
      const double cap = cluster.node_disk_capacity(n);
      if (bytes <= cap) continue;

      // Remove files in increasing sharer order until the node fits, then
      // defer every task that lost a file.
      std::vector<wl::FileId> order(staged.begin(), staged.end());
      std::sort(order.begin(), order.end(),
                [&](wl::FileId a, wl::FileId b) {
                  if (sharers[a] != sharers[b]) return sharers[a] < sharers[b];
                  return a < b;
                });
      std::unordered_set<wl::FileId> removed;
      for (wl::FileId f : order) {
        if (bytes <= cap) break;
        removed.insert(f);
        bytes -= w.file_size(f);
      }
      for (std::size_t i = 0; i < sub_batch.size(); ++i) {
        if (map[i] != n) continue;
        for (wl::FileId f : w.task(sub_batch[i]).files)
          if (removed.count(f)) {
            dropped.insert(sub_batch[i]);
            break;
          }
      }
    }
    if (!dropped.empty()) {
      BSIO_LOG(kDebug) << "BiPartition: disk repair deferred "
                       << dropped.size() << " tasks";
      std::erase_if(plan.tasks,
                    [&](wl::TaskId t) { return dropped.count(t) > 0; });
      for (wl::TaskId t : dropped) plan.assignment.erase(t);
    }
  }

  // Pathological fallback: if repair deferred everything, run the single
  // smallest pending task alone on the emptiest node.
  if (plan.tasks.empty()) {
    wl::TaskId smallest = pending.front();
    double best_bytes = std::numeric_limits<double>::infinity();
    for (wl::TaskId t : pending) {
      double bytes = 0.0;
      for (wl::FileId f : w.task(t).files) bytes += w.file_size(f);
      if (bytes < best_bytes) {
        best_bytes = bytes;
        smallest = t;
      }
    }
    wl::NodeId node = nodes.front();
    for (wl::NodeId n : nodes)
      if (ctx.engine.state().free_bytes(n) >
          ctx.engine.state().free_bytes(node))
        node = n;
    plan.tasks = {smallest};
    plan.assignment[smallest] = node;
  }
  return plan;
}

}  // namespace bsio::sched
