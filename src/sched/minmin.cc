#include "sched/minmin.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sched/cost_model.h"
#include "util/check.h"
#include "util/ws_runtime.h"

namespace bsio::sched {

namespace {

using Fold = std::pair<wl::NodeId, double>;  // (best node, its completion)

// Folds per-node completion times exactly like the historical sequential
// scan: a candidate wins on strict improvement beyond the relative
// tolerance; near-ties (storage-dominated estimates make nodes look alike)
// go to the least-loaded node, as in classic MinMin; remaining ties to the
// earlier node. `ct[j]` must be estimate_completion_time on nodes[j].
Fold fold_best_node(const PlannerState& ps,
                    const std::vector<wl::NodeId>& nodes, const double* ct) {
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

// Bit-equal folds: a fold priced ahead against the one priced at its pop.
[[maybe_unused]] bool same_fold(const Fold& a, const Fold& b) {
  using Bits = std::uint64_t;
  return a.first == b.first &&
         std::bit_cast<Bits>(a.second) == std::bit_cast<Bits>(b.second);
}

// A wave forks only when its rows x nodes reach this many node prices;
// below it the fork-join can cost more than the rows it shares out. Waves
// of 33 rows (budget 32, 10k tasks) planned in 1.18x, 1.10x and 1.03x the
// inline time on 8, 16 and 32 nodes at 2 threads, and in 0.93x and 0.92x
// on 48 and 64; at 4 threads they took 0.94x on 8 nodes and 0.75x on 64.
constexpr std::size_t kMinWaveWork = 2048;

// Lazy-heap MinMin for large batches. `stale_retry_budget` caps the
// refresh cascade between commits (see minmin.h); SIZE_MAX reproduces the
// historical unbounded behavior bit-for-bit.
//
// ps changes only at a commit, so every row a cascade prices depends on
// (ps, task) alone and can be priced ahead. When a pop finds its task
// unpriced since the last commit, a wave prices it and the next live heap
// entries in key order on the pool, stamping each fold with the commit
// count. The cascade itself (pops, stale test, budget, fresh candidate)
// stays sequential and takes a fold stamped with the current count where
// there is one, so plans are bit-identical at any thread count.
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
  const auto price = [&](wl::TaskId task, std::span<double> row) {
    estimate_completion_row(w, topo, ps, task, nodes, row);
    return fold_best_node(ps, nodes, row.data());
  };
  WsRuntime& pool = WsRuntime::global();

  // Initial sweep: every task's row in parallel (read-only against ps),
  // each row folded in place so only the per-task key is kept —
  // materializing the full T x N matrix costs ~800 MB at 100k x 1k and the
  // fold only ever reads one row.
  std::vector<double> key(pending.size());
  pool.parallel_for_each(pending.size(), [&](std::size_t i) {
    std::vector<double> r(N);
    key[i] = price(pending[i], r).second;
  });
  // The heap is a vector under std::push_heap / std::pop_heap, the
  // operations std::priority_queue performs, so a wave can read it in
  // place. Built sequentially in pending order.
  std::vector<Entry> heap;
  heap.reserve(pending.size());
  const auto push = [&heap](Entry e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end());
  };
  for (std::size_t i = 0; i < pending.size(); ++i) push({key[i], pending[i]});

  std::vector<bool> done(w.num_tasks(), false);
  std::vector<double> row(N);

  // Folds priced ahead, current while their stamp equals `commits`. Waves
  // need more than one runtime thread and a bounded cascade: an unbounded
  // one runs anywhere from one row to hundreds between two commits, so a
  // wave sized from the previous cascade prices rows that are never used
  // (45 % of them at 512 tasks on 32 nodes) and planned no faster.
  // A wave prices at most a whole cascade, budget + 1 rows, so when those
  // fall short of kMinWaveWork no wave can fork and none is looked for.
  struct Ahead {
    std::size_t stamp = std::numeric_limits<std::size_t>::max();
    Fold fold;
  };
  const std::size_t min_wave_rows = (kMinWaveWork + N - 1) / N;
  const bool bounded =
      stale_retry_budget != std::numeric_limits<std::size_t>::max();
  const bool speculate = bounded && pool.num_threads() > 1 &&
                         stale_retry_budget + 1 >= min_wave_rows;
  std::vector<Ahead> ahead(speculate ? w.num_tasks() : 0);
  std::size_t commits = 0;
  std::size_t last_cascade = 0;  // rows the previous cascade priced
  std::vector<wl::TaskId> wave;
  std::vector<double> wave_rows;
  std::vector<std::size_t> frontier;  // heap positions, lowest key first
  const auto lower = [&heap](std::size_t a, std::size_t b) {
    return heap[a] < heap[b];
  };
  // Prices `first` and the next live, unpriced heap entries in key order,
  // `count` rows in all. The frontier walk reads the heap without
  // reordering it: a heap's parent never has a higher key than its child.
  const auto price_wave = [&](wl::TaskId first, std::size_t count) {
    wave.assign(1, first);
    frontier.clear();
    if (!heap.empty()) frontier.push_back(0);
    while (wave.size() < count && !frontier.empty()) {
      std::pop_heap(frontier.begin(), frontier.end(), lower);
      const std::size_t i = frontier.back();
      frontier.pop_back();
      const wl::TaskId task = heap[i].task;
      if (!done[task] && ahead[task].stamp != commits) wave.push_back(task);
      for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < heap.size(); ++c) {
        frontier.push_back(c);
        std::push_heap(frontier.begin(), frontier.end(), lower);
      }
    }
    wave_rows.resize(wave.size() * N);
    pool.parallel_for_each(wave.size(), [&](std::size_t i) {
      const std::span<double> r(wave_rows.data() + i * N, N);
      ahead[wave[i]] = {commits, price(wave[i], r)};
    });
  };

  // Best fresh candidate seen in the current refresh cascade: all of them
  // were evaluated against the same ps (no commit in between), so the
  // recorded (task, node, ct) stays exact until the next commit.
  std::size_t retries = 0;
  bool fresh_valid = false;
  double fresh_ct = 0.0;
  wl::TaskId fresh_task = 0;
  wl::NodeId fresh_node = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    const Entry e = heap.back();
    heap.pop_back();
    if (done[e.task]) continue;
    Fold fold;
    if (speculate && ahead[e.task].stamp != commits) {
      // As many rows as the previous cascade priced, or as this one has so
      // far (one per retry), but no more than it may still price: this row
      // and one per retry left.
      std::size_t count = std::max({last_cascade, retries, std::size_t{1}});
      count = std::min(count, stale_retry_budget - retries + 1);
      if (count >= min_wave_rows) price_wave(e.task, count);
    }
    if (speculate && ahead[e.task].stamp == commits) {
      fold = ahead[e.task].fold;
      BSIO_DCHECK(same_fold(fold, price(e.task, row)));
    } else {
      fold = price(e.task, row);
    }
    auto [node, best_ct] = fold;
    const bool stale =
        !heap.empty() && best_ct > heap.front().ct + 1e-9 * (1.0 + best_ct);
    if (stale && retries < stale_retry_budget) {
      push({best_ct, e.task});  // stale; retry later
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
      push({best_ct, e.task});
      task = fresh_task;
      node = fresh_node;
    }
    CompletionEstimate est = estimate_completion(w, topo, ps, task, node);
    apply_assignment(w, topo, ps, task, node, est);
    plan.tasks.push_back(task);
    plan.assignment[task] = node;
    done[task] = true;
    last_cascade = retries + 1;
    retries = 0;
    fresh_valid = false;
    ++commits;
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
