#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <queue>
#include <span>
#include <string>

#include "util/check.h"

namespace bsio::sim {

namespace {

constexpr double kInfTime = std::numeric_limits<double>::infinity();

// Overflow-safe counter addition: clamp at the type's extreme instead of
// wrapping, so accumulated totals over a 1M-file run degrade to "at least
// this many" rather than a silently small number.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r;
  if (__builtin_add_overflow(a, b, &r))
    return std::numeric_limits<std::uint64_t>::max();
  return r;
}

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r))
    return a < 0 ? std::numeric_limits<std::int64_t>::min()
                 : std::numeric_limits<std::int64_t>::max();
  return r;
}

}  // namespace

void ExecutionStats::accumulate(const ExecutionStats& o) {
  tasks_executed = sat_add(tasks_executed, o.tasks_executed);
  remote_transfers = sat_add(remote_transfers, o.remote_transfers);
  replications = sat_add(replications, o.replications);
  evictions = sat_add(evictions, o.evictions);
  restages = sat_add(restages, o.restages);
  cache_hits = sat_add(cache_hits, o.cache_hits);
  remote_bytes += o.remote_bytes;
  replica_bytes += o.replica_bytes;
  cache_hit_bytes += o.cache_hit_bytes;
  transfer_retries = sat_add(transfer_retries, o.transfer_retries);
  task_reexecutions = sat_add(task_reexecutions, o.task_reexecutions);
  node_crashes = sat_add(node_crashes, o.node_crashes);
  lost_replica_bytes += o.lost_replica_bytes;
  recovery_seconds += o.recovery_seconds;
  speculative_launches = sat_add(speculative_launches, o.speculative_launches);
  speculative_wins = sat_add(speculative_wins, o.speculative_wins);
  speculative_cancels = sat_add(speculative_cancels, o.speculative_cancels);
  wasted_seconds += o.wasted_seconds;
  wasted_bytes += o.wasted_bytes;
  replicas_created = sat_add(replicas_created, o.replicas_created);
  replicas_invalidated = sat_add(replicas_invalidated, o.replicas_invalidated);
  home_flushes = sat_add(home_flushes, o.home_flushes);
  lost_versions = sat_add(lost_versions, o.lost_versions);
  repair_bytes += o.repair_bytes;
  repair_seconds += o.repair_seconds;
  lp_factorizations = sat_add(lp_factorizations, o.lp_factorizations);
  if (o.lp_factor_fill_nnz > lp_factor_fill_nnz)
    lp_factor_fill_nnz = o.lp_factor_fill_nnz;
  lp_pivots = sat_add(lp_pivots, o.lp_pivots);
  lp_bound_flips = sat_add(lp_bound_flips, o.lp_bound_flips);
  lp_degenerate_pivots = sat_add(lp_degenerate_pivots, o.lp_degenerate_pivots);
  mip_nodes = sat_add(mip_nodes, o.mip_nodes);
}

ExecutionEngine::ExecutionEngine(const ClusterConfig& cluster,
                                 const wl::Workload& workload,
                                 EngineOptions options)
    : cluster_(cluster),
      topo_([&] {
        if (const Status v = cluster.validate(); !v.ok())
          BSIO_CHECK_MSG(false, v.error().message.c_str());
        return Topology(cluster);
      }()),
      workload_(workload),
      options_(options),
      storage_tl_(cluster.num_storage_nodes),
      compute_tl_(cluster.num_compute_nodes),
      link_tl_(topo_.num_links()),
      state_([&] {
        std::vector<double> caps(cluster.num_compute_nodes);
        for (std::size_t i = 0; i < caps.size(); ++i)
          caps[i] = cluster.node_disk_capacity(i);
        return caps;
      }()),
      pending_requests_(workload.num_files(), 0.0),
      epoch_(workload.num_files(), 0),
      home_valid_(workload.num_files(), 1),
      executed_(workload.num_tasks(), false),
      was_evicted_(workload.num_files(), false),
      completion_time_(workload.num_tasks(), 0.0),
      faults_(options.faults, cluster.num_compute_nodes,
              cluster.num_storage_nodes),
      alive_(cluster.num_compute_nodes, 1),
      spec_remaining_(options.speculation.enabled
                          ? options.speculation.max_speculative_tasks
                          : 0) {
  if (const Status v = options.faults.validate(cluster); !v.ok())
    BSIO_CHECK_MSG(false, v.error().message.c_str());
  if (const Status v = options.speculation.validate(); !v.ok())
    BSIO_CHECK_MSG(false, v.error().message.c_str());
  for (const auto& f : workload.files())
    BSIO_CHECK_MSG(
        f.home_storage_node < cluster.num_storage_nodes,
        "workload was generated for more storage nodes than the cluster has");
  for (const auto& t : workload.tasks())
    for (wl::FileId f : t.files) pending_requests_[f] += 1.0;
  // Storage outages are reservations made up front: transfers route around
  // the window (or wait it out) through the ordinary gap search.
  for (wl::NodeId s = 0; s < cluster.num_storage_nodes; ++s)
    for (const StorageOutage& o : faults_.outages_of(s))
      storage_tl_[s].reserve(o.start, o.end - o.start);
}

double ExecutionEngine::earliest_transfer_start(Timeline& src,
                                                const TransferPath& path,
                                                Timeline& dst, double after,
                                                double duration) {
  // The source port, at most two shared links, the destination port.
  std::array<Timeline*, 4> tls{&src};
  std::size_t n = 1;
  for (std::uint32_t l = 0; l < path.num_links; ++l)
    tls[n++] = &link_tl_[path.links[l]];
  tls[n++] = &dst;
  return earliest_common_free(std::span<Timeline* const>(tls.data(), n),
                              after, duration);
}

ExecutionEngine::TransferChoice ExecutionEngine::price_transfer(
    bool remote, wl::NodeId src, const TransferPath& path, Timeline& dst,
    double size, double after, double cap) {
  TransferChoice c;
  c.remote = remote;
  c.src = src;
  c.path = path;
  c.duration = size / (cap > 0.0 ? std::min(path.bandwidth, cap)
                                 : path.bandwidth);
  c.start = earliest_transfer_start(
      remote ? storage_tl_[src] : compute_tl_[src], path, dst, after,
      c.duration);
  return c;
}

ExecutionEngine::TransferChoice ExecutionEngine::best_transfer(
    const SubBatchPlan* plan, wl::FileId file, wl::NodeId dst, double after,
    double cap) {
  const double size = workload_.file_size(file);
  const wl::NodeId home = workload_.file(file).home_storage_node;
  BSIO_CHECK_MSG(home < cluster_.num_storage_nodes,
                 "file home storage node out of range for this cluster");

  auto remote_choice = [&]() {
    return price_transfer(true, home, topo_.remote_path(home, dst),
                          compute_tl_[dst], size, after, cap);
  };
  auto replica_choice = [&](wl::NodeId j, double avail) {
    return price_transfer(false, j, topo_.replica_path(j, dst),
                          compute_tl_[dst], size, std::max(after, avail), cap);
  };

  // A write leaves the home storage copy stale until the replica manager
  // flushes it back; while stale, a remote fetch serves an OLD version and
  // is only acceptable as a rollback read when no node holds the current
  // one. Output-free workloads never mark a home stale, so this gate is
  // inert on every pre-existing scenario.
  const bool stale_home = home_valid_[file] == 0;

  // A fixed staging directive (IP plan) short-circuits the dynamic rule,
  // unless it has gone stale (replica source no longer holds the file, has
  // crashed, or would crash before the copy completes — or the directive
  // points at a home copy a write has since invalidated).
  if (plan != nullptr) {
    auto it = plan->staging.find({file, dst});
    if (it != plan->staging.end()) {
      const StagingSource& s = it->second;
      if (s.kind == SourceKind::kRemote && !stale_home) return remote_choice();
      if (s.kind != SourceKind::kRemote && cluster_.allow_replication &&
          s.src_node != dst && s.src_node < cluster_.num_compute_nodes &&
          alive_[s.src_node] && state_.has(s.src_node, file)) {
        TransferChoice c =
            replica_choice(s.src_node, state_.available_at(s.src_node, file));
        if (c.completion() <= faults_.crash_time(s.src_node)) return c;
      }
    }
  }

  TransferChoice best = remote_choice();
  best.stale_home = stale_home;
  if (cluster_.allow_replication) {
    const auto holders = state_.holders(file);
    const auto avail = state_.holder_avail(file);
    for (std::size_t k = 0; k < holders.size(); ++k) {
      const wl::NodeId j = holders[k];
      if (j == dst || !alive_[j]) continue;
      TransferChoice c = replica_choice(j, avail[k]);
      // A source scheduled to crash before the copy completes cannot serve
      // it.
      if (c.completion() > faults_.crash_time(j)) continue;
      // Any current copy beats a stale home read outright.
      if (best.stale_home || c.beats(best)) best = c;
    }
  }
  return best;
}

void ExecutionEngine::reserve_transfer(const TransferChoice& c, Timeline& dst) {
  reserve_tl(c.remote ? storage_tl_[c.src] : compute_tl_[c.src], c.start,
             c.duration);
  for (std::uint32_t l = 0; l < c.path.num_links; ++l)
    reserve_tl(link_tl_[c.path.links[l]], c.start, c.duration);
  reserve_tl(dst, c.start, c.duration);
}

RankView ExecutionEngine::rank_view() const {
  return {cluster_,  topo_,       workload_, state_,  storage_tl_, compute_tl_,
          link_tl_,  home_valid_, faults_,   release_floor_};
}

void ExecutionEngine::evict_for(wl::NodeId node, double need,
                                const std::vector<wl::FileId>& pinned,
                                ExecutionStats& stats) {
  if (need <= 0.0) return;
  const std::vector<wl::FileId> victims = state_.select_victims(
      node, need, pinned, options_.eviction, pending_requests_);
  BSIO_CHECK_MSG(!victims.empty(),
                 "cannot free disk space: a single task's files must fit on "
                 "one compute node (paper Section 4.2 assumption)");
  for (wl::FileId v : victims) {
    state_.remove(node, v, workload_.file_size(v));
    was_evicted_[v] = true;
    ++stats.evictions;
  }
}

void ExecutionEngine::reserve_tl(Timeline& tl, double start, double duration) {
  tl.reserve(start, duration);
  // Timeline::reserve drops non-positive durations, so only real intervals
  // are logged for rollback.
  if (record_ != nullptr && duration > 0.0)
    record_->reservations.push_back({&tl, {start, start + duration}});
}

double ExecutionEngine::commit_transfer(
    const SubBatchPlan& plan, wl::TaskId task, wl::FileId file, wl::NodeId dst,
    double after, const std::vector<wl::FileId>& pinned, ExecutionStats& stats,
    const TransferChoice* chosen) {
  const double size = workload_.file_size(file);
  // Disk admission on the destination (temporally safe: the reservation
  // starts at or after the node horizon, and every resident file's last
  // reference ends at or before the horizon).
  evict_for(dst, size - state_.free_bytes(dst), pinned, stats);
  const std::uint64_t seq = transfer_seq_++;
  for (std::size_t attempt = 0;; ++attempt) {
    const TransferChoice c = attempt == 0 && chosen != nullptr
                                 ? *chosen
                                 : best_transfer(&plan, file, dst, after, 0.0);
    reserve_transfer(c, compute_tl_[dst]);

    if (!faults_.transfer_attempt_fails(seq, attempt)) {
      if (c.remote) {
        ++stats.remote_transfers;
        stats.remote_bytes += size;
        // A remote fetch from a stale home only happens when every current
        // copy is gone (writer crashed before a flush): the newest version
        // is unrecoverable and this read rolls back to the old one.
        if (c.stale_home) ++stats.lost_versions;
      } else {
        if (task != wl::kInvalidTask)
          state_.touch(c.src, file, c.completion());
        ++stats.replications;
        stats.replica_bytes += size;
      }
      if (was_evicted_[file]) ++stats.restages;
      if (options_.trace)
        trace_.push_back({c.remote ? TraceEvent::Kind::kRemoteTransfer
                                   : TraceEvent::Kind::kReplication,
                          task, file, c.src, dst, c.start, c.completion()});
      state_.add(dst, file, size, c.completion());
      if (record_ != nullptr)
        record_->staged.push_back({file, size, c.start, c.completion(),
                                   c.remote,
                                   static_cast<bool>(was_evicted_[file])});
      return c.completion();
    }

    // Transient failure: the attempt held its links for the full window;
    // back off exponentially, then retry against the then-best source.
    ++stats.transfer_retries;
    if (options_.trace)
      trace_.push_back({TraceEvent::Kind::kFailedTransfer, task, file, c.src,
                        dst, c.start, c.completion()});
    const double backoff = faults_.backoff_after(attempt);
    stats.recovery_seconds += c.duration + backoff;
    after = c.completion() + backoff;
  }
}

void ExecutionEngine::apply_crash(wl::NodeId node, ExecutionStats& stats) {
  if (!alive_[node]) return;
  alive_[node] = 0;
  stats.lost_replica_bytes += state_.clear_node(node);
  ++stats.node_crashes;
}

std::size_t ExecutionEngine::staging_full_scan(const SubBatchPlan& plan,
                                               wl::NodeId node, double after) {
  std::size_t best = 0;
  double best_end = 0.0;
  for (std::size_t i = 0; i < staging_.size(); ++i) {
    const StagingEntry& e = staging_[i];
    const TransferChoice c = best_transfer(&plan, e.file, node, after, 0.0);
    if (e.exact)
      BSIO_CHECK(c.start == e.choice.start && c.src == e.choice.src &&
                 c.remote == e.choice.remote);
    else
      BSIO_CHECK(e.choice.completion() <= c.completion());
    if (i == 0 || c.completion() < best_end) {
      best = i;
      best_end = c.completion();
    }
  }
  return best;
}

bool ExecutionEngine::commit_task(const SubBatchPlan& plan, wl::TaskId task,
                                  wl::NodeId node, ExecutionStats& stats) {
  const auto& info = workload_.task(task);

  // Greedy minimum-TCT-first staging (paper Section 6): commit the missing
  // input whose copy completes earliest against the current Gantt state,
  // ties to the task's file order, until none is left. Every input is
  // priced once up front. After each commit an input with another possible
  // source is re-priced; one whose only source is its home keeps a lower
  // bound instead, re-priced only when it is the lowest (DESIGN.md §7).
  double last_end = std::max(compute_tl_[node].horizon(), release_floor_);
  double after = last_end;
  double read_bytes = 0.0;
  staging_.clear();
  for (wl::FileId f : info.files) {
    read_bytes += workload_.file_size(f);
    if (state_.has(node, f)) {
      ++stats.cache_hits;
      stats.cache_hit_bytes += workload_.file_size(f);
      continue;
    }
    bool one_source = true;
    if (cluster_.allow_replication)
      for (wl::NodeId j : state_.holders(f))
        if (j != node && alive_[j]) one_source = false;
    staging_.push_back(
        {f, best_transfer(&plan, f, node, after, 0.0), true, one_source});
  }

  while (!staging_.empty()) {
    std::size_t w = 0;
    for (;;) {
      for (std::size_t i = 1; i < staging_.size(); ++i)
        if (staging_[i].choice.completion() < staging_[w].choice.completion())
          w = i;
      if (staging_[w].exact) break;
      staging_[w].choice =
          best_transfer(&plan, staging_[w].file, node, after, 0.0);
      staging_[w].exact = true;
      w = 0;
    }
    BSIO_DCHECK(w == staging_full_scan(plan, node, after));
    // The chosen file's pricing is its first attempt.
    last_end = std::max(
        last_end, commit_transfer(plan, task, staging_[w].file, node, after,
                                  info.files, stats, &staging_[w].choice));
    staging_.erase(staging_.begin() + static_cast<std::ptrdiff_t>(w));

    // Between two commits of one task only `after` grows and timelines gain
    // reservations; holders, liveness and directives stand. No price falls
    // then, and a home fetch keeps its duration: its next price is at least
    // its last one and at least `after` plus that duration.
    after = std::max(compute_tl_[node].horizon(), release_floor_);
    for (StagingEntry& e : staging_) {
      if (e.one_source) {
        e.choice.start = std::max(e.choice.start, after);
        e.exact = false;
      } else {
        e.choice = best_transfer(&plan, e.file, node, after, 0.0);
      }
    }
  }

  // Local read + computation, serialized on the node after the last input
  // file arrives.
  double exec_dur = topo_.exec_seconds(read_bytes, info.compute_seconds, node);
  double start = compute_tl_[node].earliest_free(last_end, exec_dur);
  if (faults_.has_slowdowns()) {
    // A degraded node stretches the block, a longer block may need a later
    // gap, and a later start may change the stretch again — iterate to a
    // fixed point. Exec blocks land at or after the node horizon in
    // practice, where earliest_free is duration-independent, so this
    // settles in one or two rounds; the bound is a safety net.
    const double nominal = exec_dur;
    for (int round = 0; round < 64; ++round) {
      const double stretched =
          faults_.stretched_exec_duration(node, start, nominal);
      const double restart = compute_tl_[node].earliest_free(last_end,
                                                             stretched);
      if (restart == start && stretched == exec_dur) break;
      exec_dur = stretched;
      start = restart;
    }
  }
  const double completion = start + exec_dur;

  const double crash_t = faults_.crash_time(node);
  if (completion > crash_t) {
    // Fail-stop: the node dies before this task finishes. Charge whatever
    // partial execution happened and lose the node's cache; the caller
    // orphans the task. Earlier transfer reservations stand — they were in
    // flight when the failure was detected.
    if (start < crash_t) {
      reserve_tl(compute_tl_[node], start, crash_t - start);
      stats.recovery_seconds += crash_t - start;
      if (options_.trace)
        trace_.push_back({TraceEvent::Kind::kExec, task, wl::kInvalidFile,
                          wl::kInvalidNode, node, start, crash_t});
    }
    apply_crash(node, stats);
    if (record_ != nullptr) {
      record_->crashed = true;
      record_->completion = crash_t;
    }
    return false;
  }

  reserve_tl(compute_tl_[node], start, exec_dur);
  if (options_.trace)
    trace_.push_back({TraceEvent::Kind::kExec, task, wl::kInvalidFile,
                      wl::kInvalidNode, node, start, completion});

  if (record_ != nullptr) {
    // Recorded speculative attempt: the winner is finalized by the
    // resolver, not here.
    record_->completed = true;
    record_->completion = completion;
    return true;
  }
  finalize_task(task, node, completion, stats);
  return true;
}

void ExecutionEngine::finalize_task(wl::TaskId task, wl::NodeId node,
                                    double completion, ExecutionStats& stats) {
  const auto& info = workload_.task(task);
  for (wl::FileId f : info.files) {
    state_.touch(node, f, completion);
    pending_requests_[f] -= 1.0;
  }
  if (!info.outputs.empty()) {
    // The task wrote files: bump each output's version epoch, eagerly drop
    // every now-stale cached copy on other nodes, mark the home storage
    // copy dirty until the replica manager flushes it, and make the writer
    // hold the new version. Eviction for a pure output (not read by the
    // task) pins the task's inputs AND outputs — an extension of the
    // paper's "one task's files fit on one node" assumption.
    std::vector<wl::FileId> pinned = info.files;
    pinned.insert(pinned.end(), info.outputs.begin(), info.outputs.end());
    for (wl::FileId f : info.outputs) {
      const double size = workload_.file_size(f);
      ++epoch_[f];
      // Copy the holder list: remove() mutates it.
      const auto holders = state_.holders(f);
      const std::vector<wl::NodeId> stale(holders.begin(), holders.end());
      for (wl::NodeId j : stale) {
        if (j == node) continue;
        state_.remove(j, f, size);
        ++stats.replicas_invalidated;
        if (options_.trace)
          trace_.push_back({TraceEvent::Kind::kReplicaInvalidate, task, f,
                            node, j, completion, completion});
      }
      home_valid_[f] = 0;
      if (state_.has(node, f)) {
        state_.touch(node, f, completion);
      } else {
        evict_for(node, size - state_.free_bytes(node), pinned, stats);
        state_.add(node, f, size, completion);
      }
    }
  }
  executed_[task] = true;
  completion_time_[task] = completion;
  ++stats.tasks_executed;
  makespan_ = std::max(makespan_, completion);
}

wl::NodeId ExecutionEngine::find_speculation_target(wl::TaskId task,
                                                    wl::NodeId primary) const {
  const SpeculationConfig& spec = options_.speculation;
  const auto& info = workload_.task(task);
  // A task with outputs never speculates: first-finish-wins finalizes the
  // winner's writes (invalidating the loser's staged copies) BEFORE the
  // loser's rollback runs, which would double-remove those cache entries —
  // and duplicated writes would double-bump version epochs.
  if (!info.outputs.empty()) return wl::kInvalidNode;
  wl::NodeId best = wl::kInvalidNode;
  double best_est = kInfTime;
  for (wl::NodeId j = 0; j < cluster_.num_compute_nodes; ++j) {
    if (j == primary || !alive_[j]) continue;
    std::size_t cached = 0;
    for (wl::FileId f : info.files) cached += state_.has(j, f) ? 1 : 0;
    if (cached < spec.min_cached_inputs) continue;
    const double est = estimate_ect(rank_view(), task, j);
    // Strict < keeps the lowest node id on ties.
    if (est < best_est) {
      best_est = est;
      best = j;
    }
  }
  if (best == wl::kInvalidNode) return wl::kInvalidNode;
  const double est_primary = estimate_ect(rank_view(), task, primary);
  if (!(est_primary > spec.straggler_ratio * best_est)) return wl::kInvalidNode;
  return best;
}

void ExecutionEngine::speculative_commit(const SubBatchPlan& plan,
                                         wl::TaskId task, wl::NodeId primary,
                                         wl::NodeId backup,
                                         ExecutionStats& stats) {
  BSIO_CHECK(record_ == nullptr);
  --spec_remaining_;
  ++stats.speculative_launches;
  if (options_.trace) {
    const double h = compute_tl_[backup].horizon();
    trace_.push_back({TraceEvent::Kind::kSpeculativeLaunch, task,
                      wl::kInvalidFile, primary, backup, h, h});
  }

  // Both attempts are committed in sequence but their simulated windows
  // overlap: they reserve on the same shared timelines, so contention
  // between the duplicate's staging and everything else is priced.
  AttemptRecord prim, back;
  prim.node = primary;
  back.node = backup;

  prim.trace_begin = trace_.size();
  record_ = &prim;
  commit_task(plan, task, primary, prim.delta);
  record_ = nullptr;
  prim.trace_end = trace_.size();

  back.trace_begin = trace_.size();
  record_ = &back;
  commit_task(plan, task, backup, back.delta);
  record_ = nullptr;
  back.trace_end = trace_.size();

  // First finish wins; an exact tie keeps the primary.
  AttemptRecord* winner = nullptr;
  if (prim.completed && back.completed)
    winner = back.completion < prim.completion ? &back : &prim;
  else if (prim.completed)
    winner = &prim;
  else if (back.completed)
    winner = &back;

  if (winner == nullptr) {
    // Both attempts died to node crashes: charge both in full, orphan the
    // task once for the driver's recovery loop.
    stats.accumulate(prim.delta);
    stats.accumulate(back.delta);
    ++stats.task_reexecutions;
    orphaned_.push_back(task);
    return;
  }

  AttemptRecord* loser = winner == &prim ? &back : &prim;
  finalize_task(task, winner->node, winner->completion, stats);
  stats.accumulate(winner->delta);
  if (winner == &back) ++stats.speculative_wins;

  if (loser->crashed) {
    // The losing node really died mid-attempt: its partial work and cache
    // loss already happened, so the delta is charged in full — nothing to
    // roll back.
    stats.accumulate(loser->delta);
  } else {
    cancel_attempt(task, winner->node, *loser, winner->completion, stats);
  }
}

void ExecutionEngine::cancel_attempt(wl::TaskId task, wl::NodeId winner_node,
                                     AttemptRecord& rec, double winner_end,
                                     ExecutionStats& stats) {
  ++stats.speculative_cancels;

  // Staged files that only became usable after the cancellation instant
  // never existed as replicas: drop them from the cache and back their
  // transfer out of the counters, charging the pro-rated in-flight bytes
  // as waste. Files that arrived before `winner_end` stay — the copy
  // completed, the node legitimately holds a replica. Evictions performed
  // for the attempt are NOT restored (deleted bytes cannot be un-deleted),
  // and neither are replica-source touches (the partial read happened).
  ExecutionStats delta = rec.delta;
  for (const AttemptRecord::Staged& s : rec.staged) {
    if (s.avail <= winner_end) continue;
    if (s.remote) {
      --delta.remote_transfers;
      delta.remote_bytes -= s.size;
    } else {
      --delta.replications;
      delta.replica_bytes -= s.size;
    }
    if (s.restaged) --delta.restages;
    if (s.start < winner_end)
      stats.wasted_bytes +=
          s.size * (winner_end - s.start) / (s.avail - s.start);
    state_.remove(rec.node, s.file, s.size);
  }
  stats.accumulate(delta);

  // Reservation rollback: hand back everything that had not started at the
  // cut, truncate what was in flight. Elapsed occupancy of the losing
  // node's own timeline is the duplicate's burnt compute/port time.
  for (auto& [tl, iv] : rec.reservations) {
    const bool loser_compute = tl == &compute_tl_[rec.node];
    if (iv.start >= winner_end) {
      tl->release(iv.start, iv.end);
    } else if (iv.end > winner_end) {
      tl->truncate(iv.start, winner_end);
      if (loser_compute) stats.wasted_seconds += winner_end - iv.start;
    } else if (loser_compute) {
      stats.wasted_seconds += iv.end - iv.start;
    }
  }

  if (options_.trace) {
    // Rewrite the loser's trace range the same way: events that never
    // started vanish, in-flight ones are cut at the cancellation instant.
    std::size_t w = rec.trace_begin;
    for (std::size_t i = rec.trace_begin; i < rec.trace_end; ++i) {
      TraceEvent e = trace_[i];
      if (e.start >= winner_end) continue;
      if (e.end > winner_end) e.end = winner_end;
      trace_[w++] = e;
    }
    trace_.erase(trace_.begin() + static_cast<std::ptrdiff_t>(w),
                 trace_.begin() + static_cast<std::ptrdiff_t>(rec.trace_end));
    trace_.push_back({TraceEvent::Kind::kSpeculativeCancel, task,
                      wl::kInvalidFile, winner_node, rec.node, winner_end,
                      rec.completion});
  }
}

Result<ExecutionStats> ExecutionEngine::execute(const SubBatchPlan& plan) {
  // --- Recoverable plan validation, before any state mutates: the only
  // errors execute() returns. Past this block every transfer completes. ---
  for (const auto& [file, dst] : plan.prefetches) {
    if (file >= workload_.num_files())
      return Err("SubBatchPlan: prefetch names unknown file " +
                 std::to_string(file));
    if (dst >= cluster_.num_compute_nodes)
      return Err("SubBatchPlan: prefetch names invalid compute node " +
                 std::to_string(dst));
    if (!alive_[dst])
      return Err("SubBatchPlan: prefetch targets crashed compute node " +
                 std::to_string(dst));
  }
  if (!(plan.release_time >= 0.0))
    return Err("SubBatchPlan: release_time must be non-negative");
  for (wl::TaskId t : plan.tasks) {
    // Bounded by the engine's admitted-task watermark, not the workload's
    // size: tasks appended to a growable workload become plannable only
    // after admit_new_tasks().
    if (t >= executed_.size())
      return Err("SubBatchPlan: plan names unknown or un-admitted task " +
                 std::to_string(t));
    if (executed_[t])
      return Err("SubBatchPlan: task " + std::to_string(t) +
                 " was already executed");
    auto it = plan.assignment.find(t);
    if (it == plan.assignment.end())
      return Err("SubBatchPlan: task " + std::to_string(t) +
                 " is missing an assignment");
    if (it->second >= cluster_.num_compute_nodes)
      return Err("SubBatchPlan: task " + std::to_string(t) +
                 " is assigned to invalid compute node " +
                 std::to_string(it->second));
    if (!alive_[it->second])
      return Err("SubBatchPlan: task " + std::to_string(t) +
                 " is assigned to crashed compute node " +
                 std::to_string(it->second));
  }

  release_floor_ = plan.release_time;
  ExecutionStats stats;

  // Proactive replications (Data Least Loaded) before task scheduling.
  for (const auto& [file, dst] : plan.prefetches) {
    if (state_.has(dst, file)) continue;
    const double after = std::max(compute_tl_[dst].horizon(), release_floor_);
    commit_transfer(plan, wl::kInvalidTask, file, dst, after, {file}, stats,
                    nullptr);
  }

  // Each node's group holds its tasks' compiled ECT terms and bound rows
  // (sim/rank.h, DESIGN.md §7), built group by group so that one group's
  // terms sit together in memory. The index pushes every residency change
  // logged by ClusterState to the entries that read the file.
  const RankView view = rank_view();
  std::vector<RankGroup> groups;
  groups.reserve(cluster_.num_compute_nodes);
  for (wl::NodeId n = 0; n < cluster_.num_compute_nodes; ++n)
    groups.emplace_back(n);
  for (wl::TaskId t : plan.tasks) groups[plan.assignment.at(t)].add(t);
  for (RankGroup& g : groups) g.build(view);
  const RankIndex index(workload_, groups, rank_file_slot_);
  state_.clear_residency_log();
  RankScratch scratch;

  // Serve the group whose node frees up first (equivalently: whenever a
  // node finishes, it picks its next task by earliest completion time).
  // Selection runs off a lazily-revalidated min-heap of (horizon, node) —
  // O(log K) per event instead of scanning all K groups, which dominated
  // at 1k nodes. (horizon, node) ordering ties to the lower node id,
  // exactly the historical linear scan's tie-break. Entries go stale when
  // a commit moves ANOTHER node's horizon (replica sources gain port
  // reservations), so each pop is checked against the live horizon and
  // re-pushed when it grew. The one path that can LOWER a horizon —
  // speculation cancelling the losing attempt — is handled by re-pushing
  // every non-empty group fresh after a speculative commit.
  using HeapEntry = std::pair<double, wl::NodeId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      ready;
  for (wl::NodeId n = 0; n < groups.size(); ++n)
    if (!groups[n].empty()) ready.push({compute_tl_[n].horizon(), n});

  std::size_t left = plan.tasks.size();
  while (left > 0) {
    BSIO_CHECK(!ready.empty());
    const auto [h, node] = ready.top();
    ready.pop();
    if (groups[node].empty()) continue;  // drained or crash-orphaned
    if (h != compute_tl_[node].horizon()) {
      ready.push({compute_tl_[node].horizon(), node});  // stale: revalidate
      continue;
    }

    // Earliest completion time first, ties to the lowest group position.
    // Entries whose inputs gained or lost a copy since the last pick are
    // recompiled first.
    index.mark(state_.residency_log(), groups);
    state_.clear_residency_log();
    RankGroup& group = groups[node];
    const wl::TaskId task = group.pick(view, scratch);
    --left;

    // Straggler check: duplicate the task onto a cached backup when the
    // assigned node's estimate lags far enough and budget remains.
    wl::NodeId backup = wl::kInvalidNode;
    if (options_.speculation.enabled && spec_remaining_ > 0)
      backup = find_speculation_target(task, node);

    if (backup == wl::kInvalidNode) {
      if (!commit_task(plan, task, node, stats)) {
        // The node crashed killing `task`: orphan it for the driver's
        // re-scheduling loop.
        ++stats.task_reexecutions;
        orphaned_.push_back(task);
      }
    } else {
      // On a double crash speculative_commit already orphaned the task.
      speculative_commit(plan, task, node, backup, stats);
    }

    // Queued siblings of any node that died during this commit are
    // orphaned too.
    for (wl::NodeId n : {node, backup}) {
      if (n == wl::kInvalidNode || alive_[n]) continue;
      left -= groups[n].size();
      groups[n].drain(orphaned_);
    }

    if (backup == wl::kInvalidNode) {
      if (!group.empty()) ready.push({compute_tl_[node].horizon(), node});
    } else {
      // A cancelled attempt may have truncated the loser's timeline below
      // entries already in the heap; refresh everything still pending.
      for (wl::NodeId n = 0; n < groups.size(); ++n)
        if (!groups[n].empty()) ready.push({compute_tl_[n].horizon(), n});
    }
  }

  totals_.accumulate(stats);
  return stats;
}

Status ExecutionEngine::admit_new_tasks() {
  if (workload_.num_files() != pending_requests_.size())
    return Err("admit_new_tasks: the file catalogue changed size; the "
               "growable stream workload keeps files fixed and only appends "
               "tasks");
  const std::size_t old_count = executed_.size();
  if (workload_.num_tasks() < old_count)
    return Err("admit_new_tasks: the workload shrank below the admitted "
               "task count");
  for (std::size_t t = old_count; t < workload_.num_tasks(); ++t)
    for (wl::FileId f : workload_.task(static_cast<wl::TaskId>(t)).files)
      pending_requests_[f] += 1.0;
  executed_.resize(workload_.num_tasks(), false);
  completion_time_.resize(workload_.num_tasks(), 0.0);
  return OkStatus();
}

Result<double> ExecutionEngine::stage_replica(wl::FileId file, wl::NodeId dst,
                                              double after,
                                              double bandwidth_cap) {
  if (file >= workload_.num_files())
    return Err("stage_replica: unknown file " + std::to_string(file));
  if (dst >= cluster_.num_compute_nodes)
    return Err("stage_replica: invalid compute node " + std::to_string(dst));
  if (!alive_[dst])
    return Err("stage_replica: destination node " + std::to_string(dst) +
               " has crashed");
  if (state_.has(dst, file))
    return Err("stage_replica: node " + std::to_string(dst) +
               " already holds file " + std::to_string(file));
  if (!(after >= 0.0))
    return Err("stage_replica: start floor must be non-negative");
  const double size = workload_.file_size(file);
  if (state_.free_bytes(dst) < size)
    return Err("stage_replica: no free space on node " + std::to_string(dst) +
               " (background repair never evicts)");

  // The foreground rule without plan directives; a stale home is no
  // source for a repair copy. A file no node holds fails before any
  // pricing: the replica manager offers each lost version to every
  // destination in every round.
  const auto no_source = [&] {
    return Err("stage_replica: no valid source for file " +
               std::to_string(file) +
               " (home copy stale and no holder may serve it)");
  };
  if (home_valid_[file] == 0 && state_.num_copies(file) == 0)
    return no_source();
  const TransferChoice best =
      best_transfer(nullptr, file, dst, after, bandwidth_cap);
  if (best.stale_home) return no_source();
  if (best.completion() > faults_.crash_time(dst))
    return Err("stage_replica: destination node " + std::to_string(dst) +
               " crashes before the copy completes");

  reserve_transfer(best, compute_tl_[dst]);
  state_.add(dst, file, size, best.completion());

  ++totals_.replicas_created;
  totals_.repair_bytes += size;
  totals_.repair_seconds += best.duration;
  if (options_.trace)
    trace_.push_back({TraceEvent::Kind::kReplicaCreate, wl::kInvalidTask, file,
                      best.src, dst, best.start, best.completion()});
  return best.completion();
}

Result<double> ExecutionEngine::flush_to_home(wl::FileId file, double after,
                                              double bandwidth_cap) {
  if (file >= workload_.num_files())
    return Err("flush_to_home: unknown file " + std::to_string(file));
  if (home_valid_[file] != 0)
    return Err("flush_to_home: the home copy of file " + std::to_string(file) +
               " is already current");
  if (!(after >= 0.0))
    return Err("flush_to_home: start floor must be non-negative");

  const double size = workload_.file_size(file);
  const wl::NodeId home = workload_.file(file).home_storage_node;

  // Best alive holder of the current version; the write-back reuses the
  // remote path's pricing in reverse (link bandwidths are symmetric) and
  // ends on the home storage port, not a compute node.
  TransferChoice best;  // src stays kInvalidNode until a holder qualifies
  const auto holders = state_.holders(file);
  const auto avail = state_.holder_avail(file);
  for (std::size_t k = 0; k < holders.size(); ++k) {
    const wl::NodeId j = holders[k];
    if (!alive_[j]) continue;
    const TransferChoice c = price_transfer(
        false, j, topo_.remote_path(home, j), storage_tl_[home], size,
        std::max(after, avail[k]), bandwidth_cap);
    if (c.completion() > faults_.crash_time(j)) continue;
    if (best.src == wl::kInvalidNode || c.beats(best)) best = c;
  }
  if (best.src == wl::kInvalidNode)
    return Err("flush_to_home: no alive node holds the current version of "
               "file " +
               std::to_string(file) + " (the newest write is lost)");

  reserve_transfer(best, storage_tl_[home]);
  home_valid_[file] = 1;

  ++totals_.home_flushes;
  totals_.repair_bytes += size;
  totals_.repair_seconds += best.duration;
  if (options_.trace)
    trace_.push_back({TraceEvent::Kind::kReplicaCreate, wl::kInvalidTask, file,
                      best.src, home, best.start, best.completion()});
  return best.completion();
}

std::vector<wl::TaskId> ExecutionEngine::take_orphaned() {
  std::vector<wl::TaskId> out;
  out.swap(orphaned_);
  return out;
}

std::size_t ExecutionEngine::alive_count() const {
  std::size_t n = 0;
  for (char a : alive_) n += a != 0;
  return n;
}

std::string trace_to_csv(const std::vector<TraceEvent>& trace) {
  std::vector<TraceEvent> sorted = trace;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });
  std::string out = "kind,task,file,src,dst,start,end\n";
  char buf[160];
  for (const auto& e : sorted) {
    const char* kind = "exec";
    switch (e.kind) {
      case TraceEvent::Kind::kRemoteTransfer:
        kind = "remote";
        break;
      case TraceEvent::Kind::kReplication:
        kind = "replica";
        break;
      case TraceEvent::Kind::kFailedTransfer:
        kind = "failed";
        break;
      case TraceEvent::Kind::kExec:
        kind = "exec";
        break;
      case TraceEvent::Kind::kSpeculativeLaunch:
        kind = "spec_launch";
        break;
      case TraceEvent::Kind::kSpeculativeCancel:
        kind = "spec_cancel";
        break;
      case TraceEvent::Kind::kReplicaCreate:
        kind = "replica_create";
        break;
      case TraceEvent::Kind::kReplicaInvalidate:
        kind = "replica_invalidate";
        break;
    }
    auto id = [](auto v) {
      return v == static_cast<decltype(v)>(-1) ? -1L : static_cast<long>(v);
    };
    std::snprintf(buf, sizeof(buf), "%s,%ld,%ld,%ld,%ld,%.6f,%.6f\n", kind,
                  id(e.task), id(e.file), id(e.src), id(e.dst), e.start,
                  e.end);
    out += buf;
  }
  return out;
}

std::vector<double> ExecutionEngine::completed_task_times() const {
  std::vector<double> out;
  // executed_.size(), not workload_.num_tasks(): appended-but-unadmitted
  // tasks have no completion slot yet.
  for (wl::TaskId t = 0; t < executed_.size(); ++t)
    if (executed_[t]) out.push_back(completion_time_[t]);
  return out;
}

std::vector<double> ExecutionEngine::compute_busy_times() const {
  std::vector<double> out;
  out.reserve(compute_tl_.size());
  for (const auto& tl : compute_tl_) out.push_back(tl.busy_time());
  return out;
}

}  // namespace bsio::sim
