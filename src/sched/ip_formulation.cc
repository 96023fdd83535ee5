#include "sched/ip_formulation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "util/check.h"

namespace bsio::sched {

namespace {

// Group index lists per task, computed once per model.
std::vector<std::vector<std::size_t>> groups_of_tasks(
    const std::vector<wl::TaskId>& tasks,
    const std::vector<FileGroup>& groups) {
  std::unordered_map<wl::TaskId, std::size_t> pos;
  for (std::size_t k = 0; k < tasks.size(); ++k) pos[tasks[k]] = k;
  std::vector<std::vector<std::size_t>> out(tasks.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (wl::TaskId t : groups[g].requesters) out[pos.at(t)].push_back(g);
  return out;
}

// Tiny per-transfer objective weight that breaks ties toward fewer
// transfers (the min-max objective alone is indifferent off the critical
// node).
constexpr double kTransferEpsilon = 1e-6;

// Task compute cost as the model sees it: CPU (scaled by the node's speed
// factor) plus the local read of its inputs (both serialized on the node,
// Eq. 12).
double model_comp(const wl::Workload& w, const sim::Topology& topo,
                  wl::TaskId t, std::size_t node) {
  double bytes = 0.0;
  for (wl::FileId f : w.task(t).files) bytes += w.file_size(f);
  return w.task(t).compute_seconds / topo.cpu_speed(node) +
         bytes / topo.config().local_disk_bw;
}

// True when the shared link l lies on the remote path into compute node i
// (link sets do not depend on the storage endpoint).
bool remote_crosses(const sim::Topology& topo, std::size_t l, std::size_t i) {
  const sim::TransferPath p = topo.remote_path(0, static_cast<wl::NodeId>(i));
  for (std::uint32_t k = 0; k < p.num_links; ++k)
    if (p.links[k] == l) return true;
  return false;
}

// True when the shared link l lies on the replication path i -> j.
bool replica_crosses(const sim::Topology& topo, std::size_t l, std::size_t i,
                     std::size_t j) {
  const sim::TransferPath p = topo.replica_path(static_cast<wl::NodeId>(i),
                                                static_cast<wl::NodeId>(j));
  for (std::uint32_t k = 0; k < p.num_links; ++k)
    if (p.links[k] == l) return true;
  return false;
}

}  // namespace

std::vector<FileGroup> coalesce_files(const wl::Workload& w,
                                      const std::vector<wl::TaskId>& tasks,
                                      const sim::ClusterState& state) {
  // Key: (sorted requester list, sorted present-on list).
  std::map<std::pair<std::vector<wl::TaskId>, std::vector<wl::NodeId>>,
           std::size_t>
      index;
  std::vector<FileGroup> groups;

  std::unordered_map<wl::FileId, std::vector<wl::TaskId>> requesters;
  for (wl::TaskId t : tasks)
    for (wl::FileId f : w.task(t).files) requesters[f].push_back(t);

  for (auto& [f, req] : requesters) {
    std::sort(req.begin(), req.end());
    std::vector<wl::NodeId> on;
    for (wl::NodeId n = 0; n < state.num_nodes(); ++n)
      if (state.has(n, f)) on.push_back(n);
    auto key = std::make_pair(req, on);
    auto it = index.find(key);
    if (it == index.end()) {
      FileGroup g;
      g.requesters = req;
      g.present_on = on;
      index.emplace(std::move(key), groups.size());
      groups.push_back(std::move(g));
      it = index.find(std::make_pair(req, on));
    }
    FileGroup& g = groups[index.at(std::make_pair(req, on))];
    g.files.push_back(f);
    g.bytes += w.file_size(f);
  }
  for (auto& g : groups) std::sort(g.files.begin(), g.files.end());
  return groups;
}

// ---------------- AllocationModel ----------------

int AllocationModel::var_T(std::size_t k, std::size_t i) const {
  return t_vars_[k * C_ + i];
}
int AllocationModel::var_X(std::size_t g, std::size_t i) const {
  return x_vars_[g * C_ + i];
}
int AllocationModel::var_R(std::size_t g, std::size_t i) const {
  return r_vars_[g * C_ + i];
}
int AllocationModel::var_Y(std::size_t g, std::size_t i, std::size_t j) const {
  return y_vars_[(g * C_ + i) * C_ + j];
}
bool AllocationModel::present(std::size_t g, std::size_t i) const {
  return present_[g][i] != 0;
}

AllocationModel::AllocationModel(const wl::Workload& w,
                                 const std::vector<wl::TaskId>& tasks,
                                 std::vector<FileGroup> groups,
                                 const sim::Topology& topo,
                                 const IpFormulationOptions& opts)
    : w_(w),
      tasks_(tasks),
      groups_(std::move(groups)),
      topo_(topo),
      opts_(opts),
      C_(topo.config().num_compute_nodes) {
  const std::size_t K = tasks_.size();
  const std::size_t G = groups_.size();
  // Worst-case (slowest-path) per-byte costs; on a uniform topology these
  // ARE the per-byte costs, bit-identical to the historical
  // 1 / remote_bw() and 1 / replica_bw().
  const double t_rem = 1.0 / topo_.min_remote_bw();
  const double t_rep = 1.0 / topo_.min_replica_bw();
  const bool uni_rem = topo_.uniform_remote();
  const bool uni_rep = topo_.uniform_replica();
  const bool rep = topo_.config().allow_replication;
  // Per-path transfer seconds for one copy of group g. The uniform branches
  // reproduce the historical t * bytes arithmetic verbatim.
  auto rem_secs = [&](std::size_t g, std::size_t i) {
    if (uni_rem) return t_rem * groups_[g].bytes;
    double sec = 0.0;
    for (wl::FileId f : groups_[g].files)
      sec += w_.file_size(f) /
             topo_.remote_bw(w_.file(f).home_storage_node,
                             static_cast<wl::NodeId>(i));
    return sec;
  };
  auto rep_secs = [&](std::size_t g, std::size_t i, std::size_t j) {
    if (uni_rep) return t_rep * groups_[g].bytes;
    return groups_[g].bytes / topo_.replica_bw(static_cast<wl::NodeId>(i),
                                               static_cast<wl::NodeId>(j));
  };

  present_.assign(G, std::vector<char>(C_, 0));
  for (std::size_t g = 0; g < G; ++g)
    for (wl::NodeId n : groups_[g].present_on)
      if (n < C_) present_[g][n] = 1;

  // Upper bound on the makespan surrogate: everything serial, priced at
  // the slowest node / slowest path.
  double ub = 0.0;
  for (wl::TaskId t : tasks_) {
    double comp = model_comp(w_, topo_, t, 0);
    for (std::size_t i = 1; i < C_; ++i)
      comp = std::max(comp, model_comp(w_, topo_, t, i));
    ub += comp;
  }
  for (const auto& g : groups_)
    ub += g.bytes * (t_rem + 2.0 * static_cast<double>(C_) * t_rep);
  z_ = model_.add_var(1.0, 0.0, ub);

  // Variables.
  t_vars_.assign(K * C_, -1);
  for (std::size_t k = 0; k < K; ++k)
    for (std::size_t i = 0; i < C_; ++i) {
      t_vars_[k * C_ + i] = model_.add_binary(0.0);
      integer_vars_.push_back(t_vars_[k * C_ + i]);
    }
  x_vars_.assign(G * C_, -1);
  r_vars_.assign(G * C_, -1);
  y_vars_.assign(G * C_ * C_, -1);
  for (std::size_t g = 0; g < G; ++g) {
    const double eps_rem = kTransferEpsilon * t_rem * groups_[g].bytes;
    const double eps_rep = kTransferEpsilon * t_rep * groups_[g].bytes;
    for (std::size_t i = 0; i < C_; ++i) {
      if (!present(g, i)) {
        x_vars_[g * C_ + i] = model_.add_binary(0.0);
        r_vars_[g * C_ + i] = model_.add_binary(
            uni_rem ? eps_rem : kTransferEpsilon * rem_secs(g, i));
        integer_vars_.push_back(x_vars_[g * C_ + i]);
        integer_vars_.push_back(r_vars_[g * C_ + i]);
      }
      if (rep)
        for (std::size_t j = 0; j < C_; ++j) {
          if (i == j || present(g, j)) continue;  // never copy onto a holder
          y_vars_[(g * C_ + i) * C_ + j] = model_.add_binary(
              uni_rep ? eps_rep : kTransferEpsilon * rep_secs(g, i, j));
          integer_vars_.push_back(y_vars_[(g * C_ + i) * C_ + j]);
        }
    }
  }

  const auto task_groups = groups_of_tasks(tasks_, groups_);

  // (1, star form) a node serves replicas of g only if it fetched g
  // remotely (or already holds it). We deliberately strengthen the paper's
  // Y <= X to Y <= R: it roots every copy and removes the unrooted
  // replication cycles the original constraint set admits (see DESIGN.md).
  if (rep)
    for (std::size_t g = 0; g < groups_.size(); ++g)
      for (std::size_t i = 0; i < C_; ++i) {
        if (present(g, i)) continue;  // existing holders are valid roots
        if (opts_.aggregate_constraints) {
          std::vector<lp::RowEntry> row;
          for (std::size_t j = 0; j < C_; ++j)
            if (var_Y(g, i, j) >= 0) row.push_back({var_Y(g, i, j), 1.0});
          if (row.empty()) continue;
          row.push_back({var_R(g, i), -static_cast<double>(C_ - 1)});
          model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
        } else {
          for (std::size_t j = 0; j < C_; ++j)
            if (var_Y(g, i, j) >= 0)
              model_.add_row(lp::Sense::kLe, 0.0,
                             {{var_Y(g, i, j), 1.0}, {var_R(g, i), -1.0}});
        }
      }

  // (2) replicate to j only if some requester of g is mapped to j.
  std::unordered_map<wl::TaskId, std::size_t> pos;
  for (std::size_t k = 0; k < K; ++k) pos[tasks_[k]] = k;
  if (rep)
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (std::size_t j = 0; j < C_; ++j) {
        if (present(g, j)) continue;
        std::vector<lp::RowEntry> row;
        for (std::size_t i = 0; i < C_; ++i)
          if (var_Y(g, i, j) >= 0) row.push_back({var_Y(g, i, j), 1.0});
        if (row.empty()) continue;
        for (wl::TaskId t : groups_[g].requesters)
          row.push_back({var_T(pos.at(t), j), -1.0});
        model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
      }
    }

  // (4) storage on a node is the result of exactly one remote transfer or
  // replication: X = R + sum_j Y_j->i. (Also implies Eqs. 3 and 5.)
  for (std::size_t g = 0; g < groups_.size(); ++g)
    for (std::size_t i = 0; i < C_; ++i) {
      if (present(g, i)) continue;
      std::vector<lp::RowEntry> row{{var_X(g, i), 1.0}, {var_R(g, i), -1.0}};
      if (rep)
        for (std::size_t j = 0; j < C_; ++j)
          if (var_Y(g, j, i) >= 0) row.push_back({var_Y(g, j, i), -1.0});
      model_.add_row(lp::Sense::kEq, 0.0, std::move(row));
    }

  // (6) each task runs on exactly one node.
  for (std::size_t k = 0; k < K; ++k) {
    std::vector<lp::RowEntry> row;
    for (std::size_t i = 0; i < C_; ++i) row.push_back({var_T(k, i), 1.0});
    model_.add_row(lp::Sense::kEq, 1.0, std::move(row));
  }

  // (7) mapping a task stages all its files.
  for (std::size_t k = 0; k < K; ++k)
    for (std::size_t i = 0; i < C_; ++i) {
      std::vector<std::size_t> needed;
      for (std::size_t g : task_groups[k])
        if (!present(g, i)) needed.push_back(g);
      if (needed.empty()) continue;
      if (opts_.aggregate_constraints) {
        std::vector<lp::RowEntry> row{
            {var_T(k, i), static_cast<double>(needed.size())}};
        for (std::size_t g : needed) row.push_back({var_X(g, i), -1.0});
        model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
      } else {
        for (std::size_t g : needed)
          model_.add_row(lp::Sense::kLe, 0.0,
                         {{var_T(k, i), 1.0}, {var_X(g, i), -1.0}});
      }
    }

  // (8) every group without an existing copy is fetched remotely at least
  // once.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].present_on.empty()) continue;
    std::vector<lp::RowEntry> row;
    for (std::size_t i = 0; i < C_; ++i)
      if (var_R(g, i) >= 0) row.push_back({var_R(g, i), 1.0});
    model_.add_row(lp::Sense::kGe, 1.0, std::move(row));
  }

  // (21) per-node disk capacity; existing copies of sub-batch files count
  // as consumed.
  for (std::size_t i = 0; i < C_; ++i) {
    const double cap = topo_.config().node_disk_capacity(i);
    if (!std::isfinite(cap)) continue;
    double consumed = 0.0;
    std::vector<lp::RowEntry> row;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (present(g, i))
        consumed += groups_[g].bytes;
      else
        row.push_back({var_X(g, i), groups_[g].bytes});
    }
    if (row.empty()) continue;
    model_.add_row(lp::Sense::kLe, cap - consumed, std::move(row));
  }

  // Shared-link rows: every shared link of the topology (the global
  // uplink, the rack uplinks) serializes all transfers crossing it, so z is
  // also bounded below by each link's total traffic. The paper's per-node
  // formulation cannot see a shared resource; without these rows the model
  // underprices remote transfers exactly when they are most expensive.
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    const double t_up = 1.0 / topo_.link_bw(l);
    std::vector<lp::RowEntry> row{{z_, -1.0}};
    for (std::size_t g = 0; g < groups_.size(); ++g)
      for (std::size_t i = 0; i < C_; ++i) {
        if (var_R(g, i) >= 0 && remote_crosses(topo_, l, i))
          row.push_back({var_R(g, i), t_up * groups_[g].bytes});
        if (rep)
          for (std::size_t j = 0; j < C_; ++j)
            if (var_Y(g, i, j) >= 0 && replica_crosses(topo_, l, i, j))
              row.push_back({var_Y(g, i, j), t_up * groups_[g].bytes});
      }
    if (row.size() > 1) model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }

  // z >= Computation_i + Remote_i + Replication_i (Eqs. 9-13).
  for (std::size_t i = 0; i < C_; ++i) {
    std::vector<lp::RowEntry> row{{z_, -1.0}};
    for (std::size_t k = 0; k < K; ++k)
      row.push_back({var_T(k, i), model_comp(w_, topo_, tasks_[k], i)});
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (var_R(g, i) >= 0)
        row.push_back({var_R(g, i), rem_secs(g, i)});
      if (rep)
        for (std::size_t j = 0; j < C_; ++j) {
          if (var_Y(g, i, j) >= 0)
            row.push_back({var_Y(g, i, j), rep_secs(g, i, j)});
          if (var_Y(g, j, i) >= 0)
            row.push_back({var_Y(g, j, i), rep_secs(g, j, i)});
        }
    }
    model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
  }
}

std::vector<double> AllocationModel::incumbent_from_mapping(
    const std::vector<wl::NodeId>& map) const {
  BSIO_CHECK(map.size() == tasks_.size());
  std::vector<double> x(model_.num_vars(), 0.0);
  for (std::size_t k = 0; k < tasks_.size(); ++k)
    x[var_T(k, map[k])] = 1.0;

  const auto task_groups = groups_of_tasks(tasks_, groups_);
  // Needed nodes per group under this mapping.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::vector<char> needed(C_, 0);
    for (std::size_t k = 0; k < tasks_.size(); ++k)
      for (std::size_t gg : task_groups[k])
        if (gg == g) needed[map[k]] = 1;
    // Root: an existing holder if any, else the first needy node gets the
    // remote transfer; everyone else replicates from the root (star).
    int root = -1;
    bool root_is_present = false;
    for (std::size_t i = 0; i < C_; ++i)
      if (present(g, i)) {
        root = static_cast<int>(i);
        root_is_present = true;
        break;
      }
    for (std::size_t i = 0; i < C_ && root < 0; ++i)
      if (needed[i]) root = static_cast<int>(i);
    if (root < 0) continue;  // nobody needs it (possible after repair)
    if (!root_is_present) {
      x[var_X(g, root)] = 1.0;
      x[var_R(g, root)] = 1.0;
    }
    for (std::size_t j = 0; j < C_; ++j) {
      if (static_cast<int>(j) == root || !needed[j] || present(g, j)) continue;
      x[var_X(g, j)] = 1.0;
      if (topo_.config().allow_replication && var_Y(g, root, j) >= 0)
        x[var_Y(g, root, j)] = 1.0;
      else
        x[var_R(g, j)] = 1.0;
    }
  }

  // The makespan surrogate: max node cost under this point. Uniform
  // topologies keep the historical t * bytes arithmetic verbatim.
  const double t_rem = 1.0 / topo_.min_remote_bw();
  const double t_rep = 1.0 / topo_.min_replica_bw();
  const bool uni_rem = topo_.uniform_remote();
  const bool uni_rep = topo_.uniform_replica();
  auto rem_secs = [&](std::size_t g, std::size_t i) {
    if (uni_rem) return t_rem * groups_[g].bytes;
    double sec = 0.0;
    for (wl::FileId f : groups_[g].files)
      sec += w_.file_size(f) /
             topo_.remote_bw(w_.file(f).home_storage_node,
                             static_cast<wl::NodeId>(i));
    return sec;
  };
  auto rep_secs = [&](std::size_t g, std::size_t i, std::size_t j) {
    if (uni_rep) return t_rep * groups_[g].bytes;
    return groups_[g].bytes / topo_.replica_bw(static_cast<wl::NodeId>(i),
                                               static_cast<wl::NodeId>(j));
  };
  double z = 0.0;
  for (std::size_t i = 0; i < C_; ++i) {
    double load = 0.0;
    for (std::size_t k = 0; k < tasks_.size(); ++k)
      if (map[k] == i) load += model_comp(w_, topo_, tasks_[k], i);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (var_R(g, i) >= 0 && x[var_R(g, i)] > 0.5)
        load += rem_secs(g, i);
      for (std::size_t j = 0; j < C_; ++j) {
        if (var_Y(g, i, j) >= 0 && x[var_Y(g, i, j)] > 0.5)
          load += rep_secs(g, i, j);
        if (var_Y(g, j, i) >= 0 && x[var_Y(g, j, i)] > 0.5)
          load += rep_secs(g, j, i);
      }
    }
    z = std::max(z, load);
  }
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    double traffic = 0.0;
    for (std::size_t g = 0; g < groups_.size(); ++g)
      for (std::size_t i = 0; i < C_; ++i) {
        if (var_R(g, i) >= 0 && x[var_R(g, i)] > 0.5 &&
            remote_crosses(topo_, l, i))
          traffic += groups_[g].bytes / topo_.link_bw(l);
        for (std::size_t j = 0; j < C_; ++j)
          if (var_Y(g, i, j) >= 0 && x[var_Y(g, i, j)] > 0.5 &&
              replica_crosses(topo_, l, i, j))
            traffic += groups_[g].bytes / topo_.link_bw(l);
      }
    z = std::max(z, traffic);
  }
  x[z_] = z;
  return x;
}

sim::SubBatchPlan AllocationModel::extract_plan(
    const std::vector<double>& x) const {
  sim::SubBatchPlan plan;
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    wl::NodeId node = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < C_; ++i)
      if (x[var_T(k, i)] > best) {
        best = x[var_T(k, i)];
        node = static_cast<wl::NodeId>(i);
      }
    plan.tasks.push_back(tasks_[k]);
    plan.assignment[tasks_[k]] = node;
  }
  for (std::size_t g = 0; g < groups_.size(); ++g)
    for (std::size_t i = 0; i < C_; ++i) {
      if (present(g, i)) continue;
      sim::StagingSource src;
      bool have = false;
      if (var_R(g, i) >= 0 && x[var_R(g, i)] > 0.5) {
        src = {sim::SourceKind::kRemote, wl::kInvalidNode};
        have = true;
      } else {
        for (std::size_t j = 0; j < C_ && !have; ++j)
          if (var_Y(g, j, i) >= 0 && x[var_Y(g, j, i)] > 0.5) {
            src = {sim::SourceKind::kReplica, static_cast<wl::NodeId>(j)};
            have = true;
          }
      }
      if (!have) continue;
      for (wl::FileId f : groups_[g].files)
        plan.staging[{f, static_cast<wl::NodeId>(i)}] = src;
    }
  return plan;
}

// ---------------- SelectionModel ----------------

int SelectionModel::var_T(std::size_t k, std::size_t i) const {
  return t_vars_[k * C_ + i];
}
int SelectionModel::var_X(std::size_t g, std::size_t i) const {
  return x_vars_[g * C_ + i];
}

SelectionModel::SelectionModel(const wl::Workload& w,
                               const std::vector<wl::TaskId>& tasks,
                               std::vector<FileGroup> groups,
                               const sim::Topology& topo,
                               const IpFormulationOptions& opts)
    : w_(w),
      tasks_(tasks),
      groups_(std::move(groups)),
      topo_(topo),
      opts_(opts),
      C_(topo.config().num_compute_nodes) {
  const std::size_t K = tasks_.size();
  const std::size_t G = groups_.size();

  std::vector<std::vector<char>> present(G, std::vector<char>(C_, 0));
  for (std::size_t g = 0; g < G; ++g)
    for (wl::NodeId n : groups_[g].present_on)
      if (n < C_) present[g][n] = 1;

  t_vars_.assign(K * C_, -1);
  for (std::size_t k = 0; k < K; ++k)
    for (std::size_t i = 0; i < C_; ++i) {
      // Objective Eq. 14: maximise the number of selected tasks.
      t_vars_[k * C_ + i] = model_.add_binary(-1.0);
      integer_vars_.push_back(t_vars_[k * C_ + i]);
    }
  x_vars_.assign(G * C_, -1);
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t i = 0; i < C_; ++i) {
      if (present[g][i]) continue;
      // Tiny cost discourages staging files nobody uses.
      x_vars_[g * C_ + i] =
          model_.add_binary(kTransferEpsilon * groups_[g].bytes /
                            topo_.min_remote_bw());
      integer_vars_.push_back(x_vars_[g * C_ + i]);
    }

  const auto task_groups = groups_of_tasks(tasks_, groups_);

  // (15) selecting a task onto a node stages its files there.
  for (std::size_t k = 0; k < K; ++k)
    for (std::size_t i = 0; i < C_; ++i) {
      std::vector<std::size_t> needed;
      for (std::size_t g : task_groups[k])
        if (!present[g][i]) needed.push_back(g);
      if (needed.empty()) continue;
      if (opts_.aggregate_constraints) {
        std::vector<lp::RowEntry> row{
            {var_T(k, i), static_cast<double>(needed.size())}};
        for (std::size_t g : needed) row.push_back({var_X(g, i), -1.0});
        model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
      } else {
        for (std::size_t g : needed)
          model_.add_row(lp::Sense::kLe, 0.0,
                         {{var_T(k, i), 1.0}, {var_X(g, i), -1.0}});
      }
    }

  // (16) per-node disk space.
  for (std::size_t i = 0; i < C_; ++i) {
    double consumed = 0.0;
    std::vector<lp::RowEntry> row;
    for (std::size_t g = 0; g < G; ++g) {
      if (present[g][i])
        consumed += groups_[g].bytes;
      else
        row.push_back({var_X(g, i), groups_[g].bytes});
    }
    if (row.empty()) continue;
    model_.add_row(lp::Sense::kLe,
                   topo_.config().node_disk_capacity(i) - consumed,
                   std::move(row));
  }

  // (17) a task is selected onto at most one node.
  for (std::size_t k = 0; k < K; ++k) {
    std::vector<lp::RowEntry> row;
    for (std::size_t i = 0; i < C_; ++i) row.push_back({var_T(k, i), 1.0});
    model_.add_row(lp::Sense::kLe, 1.0, std::move(row));
  }

  // (18-20) computational balance: C * Comp_i <= (1 + Thresh) * sum Comp.
  // Skipped for tiny batches where the constraint would forbid any
  // selection at all (fewer tasks than nodes).
  if (K >= 2 * C_) {
    for (std::size_t i = 0; i < C_; ++i) {
      std::vector<lp::RowEntry> row;
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t ii = 0; ii < C_; ++ii) {
          const double comp = model_comp(w_, topo_, tasks_[k], ii);
          double coef = -(1.0 + opts_.balance_thresh) * comp;
          if (ii == i) coef += static_cast<double>(C_) * comp;
          row.push_back({var_T(k, ii), coef});
        }
      }
      model_.add_row(lp::Sense::kLe, 0.0, std::move(row));
    }
  }
}

std::vector<wl::TaskId> SelectionModel::extract_sub_batch(
    const std::vector<double>& x) const {
  std::vector<wl::TaskId> out;
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    double sum = 0.0;
    for (std::size_t i = 0; i < C_; ++i) sum += x[var_T(k, i)];
    if (sum > 0.5) out.push_back(tasks_[k]);
  }
  return out;
}

std::vector<double> SelectionModel::greedy_incumbent() const {
  std::vector<double> x(model_.num_vars(), 0.0);
  const auto task_groups = groups_of_tasks(tasks_, groups_);

  std::vector<double> load(C_, 0.0);
  std::vector<double> disk(C_, 0.0);
  std::vector<std::vector<char>> staged(groups_.size(),
                                        std::vector<char>(C_, 0));
  for (std::size_t g = 0; g < groups_.size(); ++g)
    for (wl::NodeId n : groups_[g].present_on)
      if (n < C_) {
        staged[g][n] = 1;
        disk[n] += groups_[g].bytes;
      }

  // Least-loaded greedy packing.
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    std::size_t best = C_;
    for (std::size_t i = 0; i < C_; ++i) {
      double extra = 0.0;
      for (std::size_t g : task_groups[k])
        if (!staged[g][i]) extra += groups_[g].bytes;
      if (disk[i] + extra > topo_.config().node_disk_capacity(i)) continue;
      if (best == C_ || load[i] < load[best]) best = i;
    }
    if (best == C_) continue;  // does not fit anywhere; leave unselected
    x[var_T(k, best)] = 1.0;
    load[best] += model_comp(w_, topo_, tasks_[k], best);
    for (std::size_t g : task_groups[k])
      if (!staged[g][best]) {
        staged[g][best] = 1;
        disk[best] += groups_[g].bytes;
        if (var_X(g, best) >= 0) x[var_X(g, best)] = 1.0;
      }
  }
  if (!model_.is_feasible(x)) return {};
  return x;
}

}  // namespace bsio::sched
