#include "sched/job_data_present.h"

#include <algorithm>
#include <vector>

#include "sched/cost_model.h"
#include "util/check.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

sim::SubBatchPlan JobDataPresentScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  const wl::Workload& w = ctx.batch;
  const sim::ClusterConfig& c = ctx.cluster;
  const sim::Topology& topo = ctx.topology;
  ps_.reset(w, topo, ctx.engine.state());
  PlannerState& ps = ps_;
  const std::vector<wl::NodeId>& nodes = ctx.alive_nodes();
  BSIO_CHECK_MSG(!nodes.empty(), "JobDataPresent: no compute node is alive");

  sim::SubBatchPlan plan;

  // --- Data Least Loaded: proactive replication of popular files. ---
  if (c.allow_replication) {
    const double threshold = static_cast<double>(pending.size()) /
                             static_cast<double>(nodes.size());
    // Pending requests per file, in the reused dense counter; `requested_`
    // lists the files counted so the counter is cleared through it.
    if (popularity_.size() < w.num_files())
      popularity_.resize(w.num_files(), 0.0);
    for (wl::TaskId t : pending)
      for (wl::FileId f : w.task(t).files)
        if (popularity_[f]++ == 0.0) requested_.push_back(f);

    // Planned load per node = bytes of files it is slated to hold, summed
    // in ascending file id.
    std::vector<double> load(c.num_compute_nodes, 0.0);
    for (wl::FileId f = 0; f < w.num_files(); ++f)
      for (const auto& [n, avail] : ps.planned[f]) load[n] += w.file_size(f);

    std::vector<std::pair<double, wl::FileId>> hot;
    for (wl::FileId f : requested_) {
      if (popularity_[f] > threshold) hot.push_back({popularity_[f], f});
      popularity_[f] = 0.0;
    }
    requested_.clear();
    std::sort(hot.rbegin(), hot.rend());  // most popular first

    for (const auto& [pop, f] : hot) {
      // Least loaded alive node not already holding the file.
      wl::NodeId dst = wl::kInvalidNode;
      for (wl::NodeId n : nodes) {
        if (ps.on_node(f, n)) continue;
        if (dst == wl::kInvalidNode || load[n] < load[dst]) dst = n;
      }
      if (dst == wl::kInvalidNode) continue;
      plan.prefetches.push_back({f, dst});
      ps.add_planned(f, dst, 0.0);
      load[dst] += w.file_size(f);
    }
  }

  // --- Queue order: least expected earliest completion time, computed once
  // up front (the paper's replacement for [13]'s FIFO; JDP stays a cheap
  // one-pass dynamic scheme, unlike MinMin's quadratic re-evaluation). Each
  // task's candidate-node evaluation is independent and read-only against
  // ps, so the sweep runs on the parallel runtime; the per-task min over
  // nodes and the sort stay in the historical order, keeping plans
  // bit-identical at any thread count. ---
  std::vector<double> ect(pending.size());
  WsRuntime::global().parallel_for_each(pending.size(), [&](std::size_t i) {
    std::vector<double> row(nodes.size());
    estimate_completion_row(w, topo, ps, pending[i], nodes, row);
    ect[i] = *std::min_element(row.begin(), row.end());
  });
  std::vector<std::pair<double, wl::TaskId>> queue;
  queue.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i)
    queue.push_back({ect[i], pending[i]});
  std::sort(queue.begin(), queue.end());

  // --- Job Data Present assignment: eligible nodes are those already
  // (planned to be) holding some of the task's data; the least-loaded
  // eligible node wins ([13]'s rule, multi-file adaptation). With no
  // eligible node, fall back to the least-loaded node overall. ---
  for (const auto& [ect0, task] : queue) {
    wl::NodeId node = wl::kInvalidNode;
    for (wl::NodeId n : nodes) {
      bool has_data = false;
      for (wl::FileId f : w.task(task).files)
        if (ps.on_node(f, n)) {
          has_data = true;
          break;
        }
      if (!has_data) continue;
      if (node == wl::kInvalidNode || ps.node_ready[n] < ps.node_ready[node])
        node = n;
    }
    if (node == wl::kInvalidNode) {
      node = nodes.front();
      for (wl::NodeId n : nodes)
        if (ps.node_ready[n] < ps.node_ready[node]) node = n;
    }
    CompletionEstimate est = estimate_completion(w, topo, ps, task, node);
    apply_assignment(w, topo, ps, task, node, est);
    plan.tasks.push_back(task);
    plan.assignment[task] = node;
  }
  return plan;
}

}  // namespace bsio::sched
