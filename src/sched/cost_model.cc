#include "sched/cost_model.h"

#include <algorithm>
#include <limits>

#include "sim/state.h"
#include "util/check.h"

namespace bsio::sched {

std::vector<double> probabilistic_exec_times(
    const wl::Workload& w, const std::vector<wl::TaskId>& tasks,
    const sim::Topology& topo, ExecTimeScratch* scratch) {
  const sim::ClusterConfig& c = topo.config();
  // Sharing degree s_j within the sub-batch, in a dense per-file buffer.
  // The scratch is left all-zero on exit so repeated calls (the BiPartition
  // level-1/level-2 loops) never refill or rehash a map.
  ExecTimeScratch local;
  ExecTimeScratch& s = scratch ? *scratch : local;
  if (s.sharers.size() < w.num_files()) s.sharers.resize(w.num_files(), 0.0);
  BSIO_DCHECK(s.touched.empty());
  for (wl::TaskId t : tasks)
    for (wl::FileId f : w.task(t).files) {
      if (s.sharers[f] == 0.0) s.touched.push_back(f);
      s.sharers[f] += 1.0;
    }

  const double T = static_cast<double>(tasks.size());
  const double K = static_cast<double>(c.num_compute_nodes);

  std::vector<double> out;
  out.reserve(tasks.size());

  if (topo.uniform()) {
    // The classic uniform Eq. 25-26, arithmetic preserved verbatim for the
    // homogeneous bit-identity contract.
    const double bw_s = topo.uniform_remote_bw();
    const double bw_c = topo.uniform_replica_bw();
    const double slow_bw = std::min(bw_s, bw_c);  // Eq. 25's denominator
    for (wl::TaskId t : tasks) {
      double exec = w.task(t).compute_seconds;
      for (wl::FileId f : w.task(t).files) {
        const double s_j = s.sharers[f];
        const double p_fne = 1.0 / s_j;             // first to need the file
        const double p_fe = (s_j / T) * (1.0 / K);  // already on my node
        const double tr =
            p_fne / bw_s + (1.0 - p_fne) * (1.0 - p_fe) / slow_bw;  // Eq. 25
        exec += w.file_size(f) * (tr + 1.0 / c.local_disk_bw);      // Eq. 26
      }
      out.push_back(exec);
    }
  } else {
    // Heterogeneous Eq. 25-26: the equations assume uniform placement over
    // the K nodes, so each per-node rate is replaced by its expectation
    // under that distribution — the mean inverse remote bandwidth out of
    // the file's home, the mean inverse "slowest transfer into i" (remote
    // vs worst replica source), and the mean inverse CPU speed.
    const std::size_t C = c.num_compute_nodes;
    const std::size_t S = c.num_storage_nodes;
    // Worst replica bandwidth into each node (the Eq. 25 pessimistic
    // source when the file exists but not locally).
    std::vector<double> worst_repl_into(
        C, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < C; ++i)
      for (std::size_t j = 0; j < C; ++j)
        if (j != i)
          worst_repl_into[i] =
              std::min(worst_repl_into[i], topo.replica_bw(j, i));
    std::vector<double> mean_rem_inv(S, 0.0);   // E_i[1 / bw_s(h, i)]
    std::vector<double> mean_slow_inv(S, 0.0);  // E_i[1 / slow_bw(h, i)]
    for (std::size_t h = 0; h < S; ++h) {
      for (std::size_t i = 0; i < C; ++i) {
        const double rem = topo.remote_bw(h, i);
        mean_rem_inv[h] += 1.0 / rem;
        const double slow = C > 1 ? std::min(rem, worst_repl_into[i]) : rem;
        mean_slow_inv[h] += 1.0 / slow;
      }
      mean_rem_inv[h] /= K;
      mean_slow_inv[h] /= K;
    }
    double mean_speed_inv = 0.0;
    for (std::size_t i = 0; i < C; ++i)
      mean_speed_inv += 1.0 / topo.cpu_speed(i);
    mean_speed_inv /= K;

    for (wl::TaskId t : tasks) {
      double exec = w.task(t).compute_seconds * mean_speed_inv;
      for (wl::FileId f : w.task(t).files) {
        const double s_j = s.sharers[f];
        const double p_fne = 1.0 / s_j;
        const double p_fe = (s_j / T) * (1.0 / K);
        const wl::NodeId h = w.file(f).home_storage_node;
        const double tr = p_fne * mean_rem_inv[h] +
                          (1.0 - p_fne) * (1.0 - p_fe) * mean_slow_inv[h];
        exec += w.file_size(f) * (tr + 1.0 / c.local_disk_bw);
      }
      out.push_back(exec);
    }
  }

  for (wl::FileId f : s.touched) s.sharers[f] = 0.0;
  s.touched.clear();
  return out;
}

std::vector<double> plain_exec_times(const wl::Workload& w,
                                     const std::vector<wl::TaskId>& tasks,
                                     const sim::Topology& topo) {
  const sim::ClusterConfig& c = topo.config();
  double mean_speed_inv = 1.0;
  if (!topo.uniform_speed()) {
    mean_speed_inv = 0.0;
    for (std::size_t i = 0; i < c.num_compute_nodes; ++i)
      mean_speed_inv += 1.0 / topo.cpu_speed(i);
    mean_speed_inv /= static_cast<double>(c.num_compute_nodes);
  }
  std::vector<double> out;
  out.reserve(tasks.size());
  for (wl::TaskId t : tasks) {
    double exec = topo.uniform_speed()
                      ? w.task(t).compute_seconds
                      : w.task(t).compute_seconds * mean_speed_inv;
    for (wl::FileId f : w.task(t).files)
      exec += w.file_size(f) / c.local_disk_bw;
    out.push_back(exec);
  }
  return out;
}

PlannerState::PlannerState(const wl::Workload& w, const sim::Topology& topo,
                           const sim::ClusterState& current) {
  reset(w, topo, current);
}

void PlannerState::reset(const wl::Workload& w, const sim::Topology& topo,
                         const sim::ClusterState& current, double origin) {
  const sim::ClusterConfig& c = topo.config();
  node_ready.assign(c.num_compute_nodes, 0.0);
  storage_ready.assign(c.num_storage_nodes, 0.0);
  link_ready.assign(topo.num_links(), 0.0);

  // Clear exactly the set bits through the outgoing planned lists — they
  // cover the bitmap's set bits one-for-one (add_planned sets a bit iff it
  // records a holder), so reuse costs O(holders) instead of re-zeroing
  // files * nodes bits. Must run before the lists themselves are cleared,
  // and uses the outgoing stride (num_nodes_).
  for (std::size_t f = 0; f < planned.size(); ++f)
    for (const auto& [n, avail] : planned[f]) {
      const std::size_t bit = f * num_nodes_ + n;
      present_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }

  planned.resize(w.num_files());
  for (auto& holders : planned) holders.clear();

  const std::size_t want =
      (w.num_files() * c.num_compute_nodes + 63) / 64;
  if (present_.size() < want) present_.resize(want, 0);
  num_nodes_ = c.num_compute_nodes;

  for (wl::FileId f = 0; f < w.num_files(); ++f) {
    const auto holders = current.holders(f);
    const auto holder_avail = current.holder_avail(f);
    for (std::size_t k = 0; k < holders.size(); ++k) {
      const wl::NodeId n = holders[k];
      double avail = holder_avail[k];
      // Guarded so the origin-0 batch path leaves stamps bit-identical
      // (no clamp applied to already-relative values).
      if (origin > 0.0) avail = std::max(0.0, avail - origin);
      add_planned(f, n, avail);
    }
  }
}

void PlannerState::add_planned(wl::FileId f, wl::NodeId n, double avail) {
  const std::size_t bit = static_cast<std::size_t>(f) * num_nodes_ + n;
  std::uint64_t& word = present_[bit >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
  if (word & mask) return;
  word |= mask;
  planned[f].push_back({n, avail});
}

namespace {

// Single source of truth for the MCT arithmetic. estimate_completion
// instantiates it with kRecordStages = true, estimate_completion_time with
// false; the completion value is bit-identical between the two because the
// floating-point operations are literally the same instructions.
template <bool kRecordStages>
double estimate_core(const wl::Workload& w, const sim::Topology& topo,
                     const PlannerState& ps, wl::TaskId task, wl::NodeId node,
                     CompletionEstimate* est) {
  const sim::ClusterConfig& c = topo.config();
  const auto& info = w.task(task);
  double cursor = ps.node_ready[node];
  const double start = cursor;
  double read_bytes = 0.0;
  for (wl::FileId f : info.files) {
    const double size = w.file_size(f);
    read_bytes += size;
    if (ps.on_node(f, node)) continue;

    const wl::NodeId home = w.file(f).home_storage_node;
    const sim::TransferPath rp = topo.remote_path(home, node);
    double link_busy = 0.0;
    for (std::uint32_t l = 0; l < rp.num_links; ++l)
      link_busy = std::max(link_busy, ps.link_ready[rp.links[l]]);
    double remote_start =
        std::max({cursor, ps.storage_ready[home], link_busy});
    double best_arrival = remote_start + size / rp.bandwidth;
    CompletionEstimate::Stage stage{f, home, true, best_arrival};
    if (c.allow_replication) {
      for (const auto& [holder, avail] : ps.planned[f]) {
        if (holder == node) continue;
        const sim::TransferPath pp = topo.replica_path(holder, node);
        double arr = std::max({cursor, ps.node_ready[holder], avail});
        for (std::uint32_t l = 0; l < pp.num_links; ++l)
          arr = std::max(arr, ps.link_ready[pp.links[l]]);
        arr += size / pp.bandwidth;
        if (arr < best_arrival) {
          best_arrival = arr;
          stage = {f, holder, false, arr};
        }
      }
    }
    if constexpr (kRecordStages) est->stages.push_back(stage);
    cursor = best_arrival;
  }
  if constexpr (kRecordStages) est->transfer_seconds = cursor - start;
  return cursor + read_bytes / c.local_disk_bw +
         info.compute_seconds / topo.cpu_speed(node);
}

}  // namespace

CompletionEstimate estimate_completion(const wl::Workload& w,
                                       const sim::Topology& topo,
                                       const PlannerState& ps, wl::TaskId task,
                                       wl::NodeId node) {
  CompletionEstimate est;
  est.completion = estimate_core<true>(w, topo, ps, task, node, &est);
  return est;
}

double estimate_completion_time(const wl::Workload& w,
                                const sim::Topology& topo,
                                const PlannerState& ps, wl::TaskId task,
                                wl::NodeId node) {
  return estimate_core<false>(w, topo, ps, task, node, nullptr);
}

void estimate_completion_row(const wl::Workload& w, const sim::Topology& topo,
                             const PlannerState& ps, wl::TaskId task,
                             std::span<const wl::NodeId> nodes,
                             std::span<double> out) {
  BSIO_DCHECK(out.size() == nodes.size());
  if (nodes.empty()) return;
  if (!topo.uniform_remote() || !topo.uniform_replica()) {
    for (std::size_t j = 0; j < nodes.size(); ++j)
      out[j] = estimate_completion_time(w, topo, ps, task, nodes[j]);
    return;
  }

  // Each input's node-independent source readiness and transfer seconds,
  // with the same operands estimate_core uses (the replica readiness is
  // +inf when no replica source exists, which the min below never picks),
  // and a per-node flag for the nodes that hold some input, set from the
  // holder lists and cleared again before returning.
  struct Input {
    wl::FileId file;
    double remote_ready, remote_s, replica_ready, replica_s;
  };
  struct Scratch {
    std::vector<Input> inputs;
    std::vector<std::uint8_t> holds_input;
  };
  thread_local Scratch scratch;
  std::vector<Input>& inputs = scratch.inputs;
  std::vector<std::uint8_t>& holds_input = scratch.holds_input;
  if (holds_input.size() < ps.node_ready.size())
    holds_input.resize(ps.node_ready.size(), 0);
  inputs.clear();

  const sim::ClusterConfig& c = topo.config();
  const auto& info = w.task(task);
  double read_bytes = 0.0;
  for (wl::FileId f : info.files) {
    const double size = w.file_size(f);
    read_bytes += size;
    const wl::NodeId home = w.file(f).home_storage_node;
    const sim::TransferPath rp = topo.remote_path(home, nodes.front());
    double link_busy = 0.0;
    for (std::uint32_t l = 0; l < rp.num_links; ++l)
      link_busy = std::max(link_busy, ps.link_ready[rp.links[l]]);
    Input in{f, std::max(ps.storage_ready[home], link_busy),
             size / rp.bandwidth, std::numeric_limits<double>::infinity(),
             size / topo.uniform_replica_bw()};
    for (const auto& [holder, avail] : ps.planned[f]) {
      holds_input[holder] = 1;
      if (c.allow_replication)
        in.replica_ready =
            std::min(in.replica_ready, std::max(ps.node_ready[holder], avail));
    }
    inputs.push_back(in);
  }
  const double read_s = read_bytes / c.local_disk_bw;
  const auto finish = [&](double cursor, wl::NodeId n) {
    return cursor + read_s + info.compute_seconds / topo.cpu_speed(n);
  };
  const auto stage = [](double cursor, const Input& in) {
    return std::min(std::max(cursor, in.remote_ready) + in.remote_s,
                    std::max(cursor, in.replica_ready) + in.replica_s);
  };

  // Starting at or below the first input's readiness, the first stage
  // lands at min(R + a, Q + b) whatever the start, so every node that
  // holds no input from there on folds to the same cursor. (A task without
  // inputs has no threshold: every node keeps its own ready time.)
  const double threshold =
      inputs.empty() ? -std::numeric_limits<double>::infinity()
                     : std::min(inputs.front().remote_ready,
                                inputs.front().replica_ready);
  double shared = threshold;
  for (const Input& in : inputs) shared = stage(shared, in);
  // x / 1.0 == x, so on equal CPU speeds the shared nodes share the tail.
  const double shared_done = finish(shared, nodes.front());

  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const wl::NodeId n = nodes[j];
    double cursor = ps.node_ready[n];
    if (cursor <= threshold && !holds_input[n]) {
      out[j] = topo.uniform_speed() ? shared_done : finish(shared, n);
      continue;
    }
    for (const Input& in : inputs)
      if (!ps.on_node(in.file, n)) cursor = stage(cursor, in);
    out[j] = finish(cursor, n);
  }
  for (const Input& in : inputs)
    for (const auto& [holder, avail] : ps.planned[in.file])
      holds_input[holder] = 0;
}

void apply_assignment(const wl::Workload& w, const sim::Topology& topo,
                      PlannerState& ps, wl::TaskId /*task*/, wl::NodeId node,
                      const CompletionEstimate& est) {
  for (const auto& s : est.stages) {
    sim::TransferPath path;
    if (s.remote) {
      ps.storage_ready[s.src] = std::max(ps.storage_ready[s.src], s.arrival);
      path = topo.remote_path(s.src, node);
    } else {
      ps.node_ready[s.src] = std::max(ps.node_ready[s.src], s.arrival);
      path = topo.replica_path(s.src, node);
    }
    for (std::uint32_t l = 0; l < path.num_links; ++l)
      ps.link_ready[path.links[l]] =
          std::max(ps.link_ready[path.links[l]], s.arrival);
    // Implicit replication: every staged copy becomes a future source.
    ps.add_planned(s.file, node, s.arrival);
  }
  ps.node_ready[node] = est.completion;
  (void)w;
}

}  // namespace bsio::sched
