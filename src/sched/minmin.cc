#include "sched/minmin.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "sched/cost_model.h"
#include "util/check.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

namespace {

// Folds per-node completion times exactly like the historical sequential
// scan: a candidate wins on strict improvement beyond the relative
// tolerance; near-ties (storage-dominated estimates make nodes look alike)
// go to the least-loaded node, as in classic MinMin; remaining ties to the
// earlier node. `ct[j]` must be estimate_completion_time on nodes[j].
std::pair<wl::NodeId, double> fold_best_node(
    const PlannerState& ps, const std::vector<wl::NodeId>& nodes,
    const double* ct) {
  wl::NodeId best_node = nodes.front();
  double best_ct = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const bool first = std::isinf(best_ct);
    const double tol = first ? 0.0 : 1e-9 * (1.0 + best_ct);
    const bool better =
        first || ct[j] < best_ct - tol ||
        (ct[j] < best_ct + tol &&
         ps.node_ready[nodes[j]] < ps.node_ready[best_node] - 1e-12);
    if (better) {
      best_node = nodes[j];
      best_ct = ct[j];
    }
  }
  return {best_node, best_ct};
}

// Lazy-heap MinMin for large batches. `stale_retry_budget` caps the
// refresh cascade between commits (see minmin.h); SIZE_MAX reproduces the
// historical unbounded behavior bit-for-bit.
void plan_lazy(const wl::Workload& w, const sim::Topology& topo,
               PlannerState& ps, const std::vector<wl::TaskId>& pending,
               const std::vector<wl::NodeId>& nodes,
               std::size_t stale_retry_budget, sim::SubBatchPlan& plan) {
  const std::size_t N = nodes.size();
  struct Entry {
    double ct;
    wl::TaskId task;
    bool operator<(const Entry& o) const { return ct > o.ct; }  // min-heap
  };

  // Initial sweep: every task's row in parallel (read-only against ps),
  // each row folded in place so only the per-task key is kept —
  // materializing the full T x N matrix costs ~800 MB at 100k x 1k and the
  // fold only ever reads one row. Heap built sequentially in pending order.
  std::vector<double> key(pending.size());
  WsRuntime::global().parallel_for_each(pending.size(), [&](std::size_t i) {
    std::vector<double> r(N);
    estimate_completion_row(w, topo, ps, pending[i], nodes, r);
    key[i] = fold_best_node(ps, nodes, r.data()).second;
  });
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < pending.size(); ++i)
    heap.push({key[i], pending[i]});

  std::vector<bool> done(w.num_tasks(), false);
  std::vector<double> row(N);
  // Best fresh candidate seen in the current refresh cascade: all of them
  // were evaluated against the same ps (no commit in between), so the
  // recorded (task, node, ct) stays exact until the next commit.
  std::size_t retries = 0;
  bool fresh_valid = false;
  double fresh_ct = 0.0;
  wl::TaskId fresh_task = 0;
  wl::NodeId fresh_node = 0;
  while (!heap.empty()) {
    Entry e = heap.top();
    heap.pop();
    if (done[e.task]) continue;
    // One row per pop: priced inline, as a fork-join over N nodes costs
    // more than the row itself.
    estimate_completion_row(w, topo, ps, e.task, nodes, row);
    auto [node, best_ct] = fold_best_node(ps, nodes, row.data());
    const bool stale =
        !heap.empty() && best_ct > heap.top().ct + 1e-9 * (1.0 + best_ct);
    if (stale && retries < stale_retry_budget) {
      heap.push({best_ct, e.task});  // stale; retry later
      if (!fresh_valid || best_ct < fresh_ct) {
        fresh_valid = true;
        fresh_ct = best_ct;
        fresh_task = e.task;
        fresh_node = node;
      }
      ++retries;
      continue;
    }
    wl::TaskId task = e.task;
    if (stale && fresh_valid && fresh_ct < best_ct) {
      // Budget exhausted: commit the best candidate refreshed in this
      // cascade instead; the popped entry rejoins the heap with its fresh
      // key. (Its stale twin pushed earlier is skipped via done[].)
      heap.push({best_ct, e.task});
      task = fresh_task;
      node = fresh_node;
    }
    CompletionEstimate est = estimate_completion(w, topo, ps, task, node);
    apply_assignment(w, topo, ps, task, node, est);
    plan.tasks.push_back(task);
    plan.assignment[task] = node;
    done[task] = true;
    retries = 0;
    fresh_valid = false;
  }
}

}  // namespace

void minmin_plan_into(const wl::Workload& w, const sim::Topology& topo,
                      PlannerState& ps, const std::vector<wl::TaskId>& pending,
                      const std::vector<wl::NodeId>& nodes,
                      std::size_t exact_threshold,
                      std::size_t stale_retry_budget, sim::SubBatchPlan& plan) {
  BSIO_CHECK_MSG(!nodes.empty(), "MinMin: no compute node is alive");
  if (pending.empty()) return;

  if (pending.size() > exact_threshold) {
    plan_lazy(w, topo, ps, pending, nodes, stale_retry_budget, plan);
    return;
  }

  WsRuntime& pool = WsRuntime::global();

  // Unassigned tasks live in a doubly-linked list over pending positions:
  // removal is O(1) (replacing the old O(T) vector erase) while sweeps and
  // folds keep visiting survivors in original pending order — a plain
  // swap-and-pop would permute the fold order and flip exact-tie picks, so
  // the O(1)-removal structure that *preserves* index-order tie-breaking is
  // the list.
  const std::size_t T = pending.size();
  const auto sentinel = static_cast<std::uint32_t>(T);
  std::vector<std::uint32_t> next(T + 1), prev(T + 1);
  for (std::size_t i = 0; i <= T; ++i) {
    next[i] = static_cast<std::uint32_t>(i + 1 <= T ? i + 1 : 0);
    prev[i] = static_cast<std::uint32_t>(i > 0 ? i - 1 : T);
  }

  std::vector<std::uint32_t> alive;  // snapshot, original pending order
  alive.reserve(T);
  std::vector<double> ct;
  const std::size_t N = nodes.size();

  while (next[sentinel] != sentinel) {
    alive.clear();
    for (std::uint32_t i = next[sentinel]; i != sentinel; i = next[i])
      alive.push_back(i);
    const std::size_t A = alive.size();
    ct.resize(A * N);

    // Parallel phase: every alive task's row against the frozen ps_. Each
    // index writes only its own row — bit-identical at any thread count.
    pool.parallel_for_each(A, [&](std::size_t a) {
      estimate_completion_row(w, topo, ps, pending[alive[a]], nodes,
                              std::span<double>(ct).subspan(a * N, N));
    });

    // Sequential fold in the historical (task, node) order.
    double best_ct = std::numeric_limits<double>::infinity();
    std::size_t best_a = 0;
    wl::NodeId best_node = nodes.front();
    for (std::size_t a = 0; a < A; ++a) {
      for (std::size_t j = 0; j < N; ++j) {
        const double cand = ct[a * N + j];
        const bool first = std::isinf(best_ct);
        const double tol = first ? 0.0 : 1e-9 * (1.0 + best_ct);
        const bool better =
            first || cand < best_ct - tol ||
            (cand < best_ct + tol &&
             ps.node_ready[nodes[j]] < ps.node_ready[best_node] - 1e-12);
        if (better) {
          best_ct = cand;
          best_a = a;
          best_node = nodes[j];
        }
      }
    }

    const wl::TaskId task = pending[alive[best_a]];
    CompletionEstimate best_est =
        estimate_completion(w, topo, ps, task, best_node);
    apply_assignment(w, topo, ps, task, best_node, best_est);
    plan.tasks.push_back(task);
    plan.assignment[task] = best_node;

    const std::uint32_t idx = alive[best_a];
    next[prev[idx]] = next[idx];
    prev[next[idx]] = prev[idx];
  }
}

sim::SubBatchPlan MinMinScheduler::plan_sub_batch(
    const std::vector<wl::TaskId>& pending, const SchedulerContext& ctx) {
  ps_.reset(ctx.batch, ctx.topology, ctx.engine.state());
  sim::SubBatchPlan plan;
  minmin_plan_into(ctx.batch, ctx.topology, ps_, pending, ctx.alive_nodes(),
                   exact_threshold_, stale_retry_budget_, plan);
  return plan;
}

}  // namespace bsio::sched
