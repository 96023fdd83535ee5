#include "sched/ip_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/check.h"
#include "util/logging.h"

namespace bsio::sched {

IpSchedulerOptions IpScheduler::default_options() {
  IpSchedulerOptions o;
  o.selection_mip.time_limit_seconds = 5.0;
  o.selection_mip.max_nodes = 20000;
  o.allocation_mip.time_limit_seconds = 15.0;
  o.allocation_mip.max_nodes = 50000;
  // Rounding rarely helps these structured models at every node; probe
  // sparsely.
  o.selection_mip.heuristic_every = 8;
  o.allocation_mip.heuristic_every = 8;
  // Give up polishing once B&B stops improving the (seeded) incumbent:
  // measured on the bench workloads, thousands of extra nodes never beat
  // the warm start, so unbounded polishing only burns the time budget.
  o.selection_mip.stall_node_limit = 200;
  o.allocation_mip.stall_node_limit = 200;
  // Slice batches beyond 32 tasks. The sparse kernel solves a 32-task
  // allocation root LP in seconds where the dense kernel could not finish
  // 16 tasks inside its budget, so the affordable default sub-batch is now
  // a full 32-node wave; uncapped (0) remains available for small batches.
  o.max_subbatch_tasks = 32;
  return o;
}

IpScheduler::IpScheduler(IpSchedulerOptions options)
    : options_(std::move(options)) {}

Status IpScheduler::begin_batch() {
  if (total_nodes_ != 0 || total_stats_.factorizations != 0 ||
      total_stats_.pivots != 0 || total_stats_.bound_flips != 0)
    return Err(
        "IP scheduler carries solver stats from a previous batch run; call "
        "reset_run_stats() between batches or this run's report would "
        "aggregate both");
  return OkStatus();
}

void IpScheduler::reset_run_stats() {
  total_stats_ = lp::SolverStats{};
  total_nodes_ = 0;
}

void IpScheduler::add_solver_stats(sim::ExecutionStats& stats) const {
  stats.lp_factorizations += total_stats_.factorizations;
  if (total_stats_.factor_fill_nnz > stats.lp_factor_fill_nnz)
    stats.lp_factor_fill_nnz = total_stats_.factor_fill_nnz;
  stats.lp_pivots += total_stats_.pivots;
  stats.lp_bound_flips += total_stats_.bound_flips;
  stats.lp_degenerate_pivots += total_stats_.degenerate_pivots;
  stats.mip_nodes += total_nodes_;
}

sim::SubBatchPlan IpScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  const wl::Workload& w = ctx.batch;

  // The IP models index compute nodes densely 0..C-1. Under fault injection
  // some nodes are dead, so the models are built over a compact cluster of
  // the survivors and the resulting plan is remapped back to real node ids.
  // With every node alive the compact cluster IS the real cluster and the
  // remap is the identity.
  const std::vector<wl::NodeId>& nodes = ctx.alive_nodes();
  BSIO_CHECK_MSG(!nodes.empty(), "IP: no compute node is alive");
  const bool degraded = nodes.size() < ctx.cluster.num_compute_nodes;
  sim::ClusterConfig cluster = ctx.cluster;
  std::optional<sim::Topology> compact_topo;
  if (degraded) {
    cluster.num_compute_nodes = nodes.size();
    if (!ctx.cluster.disk_capacity_per_node.empty()) {
      cluster.disk_capacity_per_node.clear();
      for (wl::NodeId n : nodes)
        cluster.disk_capacity_per_node.push_back(
            ctx.cluster.node_disk_capacity(n));
    }
    // Per-compute-node heterogeneity vectors shrink with the cluster.
    auto compact_vec = [&](auto& vec) {
      if (vec.empty()) return;
      auto full = vec;
      vec.clear();
      for (wl::NodeId n : nodes) vec.push_back(full[n]);
    };
    compact_vec(cluster.compute_nic_bw);
    compact_vec(cluster.compute_speed);
    compact_vec(cluster.compute_rack);
    compact_topo.emplace(cluster);
  }
  // The cost model the MIPs price against: the engine's own topology, or a
  // compacted copy of it when nodes have crashed.
  const sim::Topology& topo = degraded ? *compact_topo : ctx.topology;
  // FileGroup::present_on carries real node ids (crashed nodes lost their
  // caches, so only survivors appear); translate them to compact ids.
  auto compact_groups = [&](std::vector<FileGroup> groups) {
    if (!degraded) return groups;
    std::vector<wl::NodeId> to_compact(ctx.cluster.num_compute_nodes,
                                       wl::kInvalidNode);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      to_compact[nodes[i]] = static_cast<wl::NodeId>(i);
    for (FileGroup& g : groups)
      for (wl::NodeId& n : g.present_on) n = to_compact[n];
    return groups;
  };

  // Engineering cap: slice oversized batches, keeping file-sharing
  // neighbours together (sort by first input file).
  std::vector<wl::TaskId> capped = pending;
  if (options_.max_subbatch_tasks > 0 &&
      capped.size() > options_.max_subbatch_tasks) {
    std::sort(capped.begin(), capped.end(),
              [&](wl::TaskId a, wl::TaskId b) {
                const auto& fa = w.task(a).files;
                const auto& fb = w.task(b).files;
                wl::FileId ka = fa.empty() ? 0 : fa.front();
                wl::FileId kb = fb.empty() ? 0 : fb.front();
                if (ka != kb) return ka < kb;
                return a < b;
              });
    capped.resize(options_.max_subbatch_tasks);
  }

  // ---- Stage 1: sub-batch selection (limited disk only). ----
  std::vector<wl::TaskId> sub_batch;
  if (cluster.unlimited_disk()) {
    sub_batch = capped;
  } else {
    SelectionModel sel(
        w, capped,
        compact_groups(coalesce_files(w, capped, ctx.engine.state())),
        topo, IpFormulationOptions{});
    ip::MipSolver solver(sel.model(), sel.integer_vars());
    auto seed = sel.greedy_incumbent();
    if (!seed.empty()) solver.set_incumbent(seed);
    ip::MipResult r = solver.solve(options_.selection_mip);
    total_stats_.accumulate(r.stats);
    total_nodes_ += r.nodes;
    if (r.status == ip::MipStatus::kOptimal ||
        r.status == ip::MipStatus::kFeasible)
      sub_batch = sel.extract_sub_batch(r.x);
    if (sub_batch.empty()) {
      // Balance/disk constraints can make the IP reject everything (e.g. a
      // C-node balance row with < C remaining tasks). Fall back to the
      // single smallest pending task so the driver always progresses.
      BSIO_LOG(kInfo) << "IP selection produced no sub-batch; falling back "
                         "to a single task";
      wl::TaskId smallest = pending.front();
      double best = std::numeric_limits<double>::infinity();
      for (wl::TaskId t : pending) {
        double bytes = 0.0;
        for (wl::FileId f : w.task(t).files) bytes += w.file_size(f);
        if (bytes < best) {
          best = bytes;
          smallest = t;
        }
      }
      sub_batch = {smallest};
    }
  }

  // ---- Stage 2: allocation + data placement. ----
  AllocationModel alloc(
      w, sub_batch,
      compact_groups(coalesce_files(w, sub_batch, ctx.engine.state())),
      topo, IpFormulationOptions{});
  ip::MipSolver solver(alloc.model(), alloc.integer_vars());

  // Warm start from the BiPartition level-2 mapping (star staging).
  std::vector<wl::NodeId> warm =
      bipartition_map_tasks(w, sub_batch, topo, BiPartitionOptions{});
  std::vector<double> incumbent = alloc.incumbent_from_mapping(warm);
  const bool seeded = solver.set_incumbent(incumbent);
  if (!seeded) {
    BSIO_LOG(kInfo) << "IP allocation warm start rejected (disk-infeasible "
                       "heuristic mapping); solving cold";
  }

  ip::MipResult r = solver.solve(options_.allocation_mip);
  total_stats_.accumulate(r.stats);
  total_nodes_ += r.nodes;

  sim::SubBatchPlan plan;
  if (r.status == ip::MipStatus::kOptimal ||
      r.status == ip::MipStatus::kFeasible) {
    plan = alloc.extract_plan(r.x);
  } else if (seeded) {
    plan = alloc.extract_plan(incumbent);
  } else {
    // Node/time-limited solve found nothing and the heuristic incumbent was
    // disk-infeasible for the static model. Fall back to the warm mapping
    // as a bare assignment (no staging directives): the engine's dynamic
    // staging and on-demand eviction handle disk constraints at runtime, so
    // the batch still progresses instead of aborting.
    BSIO_LOG(kInfo) << "IP allocation found no solution; falling back to "
                       "the heuristic mapping with dynamic staging";
    plan.tasks = sub_batch;
    for (std::size_t i = 0; i < sub_batch.size(); ++i)
      plan.assignment[sub_batch[i]] = warm[i];
  }
  if (degraded) {
    // Compact node ids -> real (surviving) node ids.
    for (auto& [task, node] : plan.assignment) node = nodes[node];
    std::map<std::pair<wl::FileId, wl::NodeId>, sim::StagingSource> staging;
    for (const auto& [key, src] : plan.staging) {
      sim::StagingSource s = src;
      if (s.kind == sim::SourceKind::kReplica) s.src_node = nodes[s.src_node];
      staging[{key.first, nodes[key.second]}] = s;
    }
    plan.staging = std::move(staging);
  }
  return plan;
}

}  // namespace bsio::sched
