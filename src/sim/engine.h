// Execution engine: realises a sub-batch plan under the paper's Section 6
// runtime rules and reports the simulated batch execution time.
//
// Model summary (see DESIGN.md for the full argument):
//  - every storage node port, every shared link (the optional global
//    uplink and any rack uplinks, per sim/topology.h), and every compute
//    node (its port and CPU are one serialized resource, Eq. 12) is a
//    Timeline of reservations;
//  - tasks assigned to a node run one at a time; the engine picks, per the
//    paper, the next task of each group by earliest completion time,
//    estimating ECT cheaply for candidate ranking and committing the chosen
//    task's file transfers exactly (greedy minimum-TCT-first, tentative
//    Gantt reservations);
//  - a transfer reserves both endpoint timelines (single-port model) plus
//    every shared link on its resolved TransferPath;
//  - destination-side reservations are append-only (at or after the node's
//    horizon), which makes on-demand eviction temporally safe: every file
//    resident on a node stopped being referenced before the node's horizon;
//  - disk-space shortfalls at staging time trigger the configured eviction
//    policy; files needed again later are re-staged (counted as evictions
//    and re-transfers, the effect driving the paper's Fig 5b);
//  - an optional FaultModel (sim/faults.h) injects transient transfer
//    failures (retried with exponential backoff, every attempt and backoff
//    charged on the timelines; the fifth attempt always succeeds, so
//    staging never fails for good), compute-node fail-stop crashes (cache
//    lost, unfinished tasks orphaned for re-scheduling) and storage outage
//    windows (pre-reserved on the storage port, degrading staging to
//    replica-only sourcing until the window ends);
//  - an optional SpeculationConfig arms a straggler detector: a task whose
//    assigned node's ECT estimate lags the best cached-input alternative
//    past the configured ratio runs as two recorded attempts,
//    first-finish-wins — the loser's not-yet-elapsed Timeline reservations
//    and disk holds are rolled back and its burnt time is charged as
//    wasted work (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/faults.h"
#include "sim/plan.h"
#include "sim/rank.h"
#include "sim/state.h"
#include "sim/timeline.h"
#include "sim/topology.h"
#include "util/check.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::sim {

struct EngineOptions {
  EvictionPolicy eviction = EvictionPolicy::kPopularity;
  // Record a TraceEvent per transfer / execution block (off by default;
  // costs one vector push per event).
  bool trace = false;
  // Fault injection (see sim/faults.h). The default injects nothing and
  // leaves every simulation bit-identical to the fault-free engine.
  FaultConfig faults;
  // Speculative task replication (see sim/faults.h and DESIGN.md §10).
  // Disabled by default; when disabled the engine is bit-identical to the
  // non-speculative engine.
  SpeculationConfig speculation;
};

// One row of the execution trace: a remote transfer, a replication, a
// failed transfer attempt, or a task's local-read + compute block, with its
// Gantt placement. An exec block cut short by a node crash is recorded with
// end = crash time. kSpeculativeLaunch marks a duplicate attempt being
// opened (src = primary node, dst = backup node, start = end = the backup's
// horizon at launch); kSpeculativeCancel marks the losing attempt being cut
// (src = winning node, dst = losing node, start = cancellation instant,
// end = the loser's would-have-been completion). kReplicaCreate is a
// background repair copy placed by the replica lifecycle manager (src =
// source node, dst = destination — a storage node id for home flushes);
// kReplicaInvalidate marks a cached copy dropped because a task wrote the
// file (src = writer node, dst = node losing the stale copy, start = end =
// the write's completion instant).
struct TraceEvent {
  enum class Kind {
    kRemoteTransfer,
    kReplication,
    kExec,
    kFailedTransfer,
    kSpeculativeLaunch,
    kSpeculativeCancel,
    kReplicaCreate,
    kReplicaInvalidate
  };
  Kind kind = Kind::kExec;
  wl::TaskId task = wl::kInvalidTask;  // kExec, or the task whose commit
                                       // triggered the transfer
  wl::FileId file = wl::kInvalidFile;  // transfers only
  wl::NodeId src = wl::kInvalidNode;   // storage node (remote) or compute
                                       // node (replication)
  wl::NodeId dst = wl::kInvalidNode;   // compute node
  double start = 0.0;
  double end = 0.0;
};

// Statistics for one execute() call (per sub-batch) and accumulated totals.
//
// Event and byte counters are 64-bit: a 1M-file scale run crosses 2^32
// transfer events across accumulated batches, so the counters are fixed
//-width uint64_t and accumulate() saturates instead of wrapping.
struct ExecutionStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t remote_transfers = 0;
  std::uint64_t replications = 0;
  std::uint64_t evictions = 0;
  std::uint64_t restages = 0;  // stages of a file previously evicted
  std::uint64_t cache_hits = 0;  // needed file already on the node
  double remote_bytes = 0.0;
  double replica_bytes = 0.0;
  // Bytes served straight from a node's cache (one count per (task, file)
  // request that needed no transfer).
  double cache_hit_bytes = 0.0;

  // Failure / recovery counters (all zero with faults disabled).
  std::uint64_t transfer_retries = 0;   // failed transfer attempts
  std::uint64_t task_reexecutions = 0;  // tasks killed by a crash, to re-run
  std::uint64_t node_crashes = 0;       // compute-node crashes applied
  double lost_replica_bytes = 0.0;    // cache bytes dropped by crashes
  // Simulated seconds lost to recovery: failed-attempt windows, retry
  // backoffs, and the partial execution of crash-killed tasks.
  double recovery_seconds = 0.0;

  // Speculation counters (all zero with speculation disabled).
  std::uint64_t speculative_launches = 0;  // duplicate attempts opened
  std::uint64_t speculative_wins = 0;      // duplicates beating the primary
  std::uint64_t speculative_cancels = 0;   // losing attempts cancelled
  // Wasted work charged to cancelled attempts: compute-timeline seconds the
  // losing node spent before the first-finish-wins cut, and the pro-rated
  // bytes of its in-flight transfers at that instant.
  double wasted_seconds = 0.0;
  double wasted_bytes = 0.0;

  // Replica-lifecycle counters (all zero for output-free workloads with no
  // replica::ReplicaManager attached). replicas_created / home_flushes /
  // repair_* count only background traffic placed through stage_replica()
  // and flush_to_home() — foreground demand replication stays in
  // replications / replica_bytes, so the two budgets are separable.
  std::uint64_t replicas_created = 0;      // background copies placed
  std::uint64_t replicas_invalidated = 0;  // stale copies dropped by writes
  std::uint64_t home_flushes = 0;          // dirty versions written back home
  // Reads forced to serve a stale home copy because a write's only current
  // version vanished (writer crash before a flush): a durability loss.
  std::uint64_t lost_versions = 0;
  double repair_bytes = 0.0;
  double repair_seconds = 0.0;

  // Solver observability (filled by the batch driver for IP-backed
  // schedulers; zero for the heuristics). Mirrors lp::SolverStats plus the
  // branch-and-bound node count, so BENCH rows can report kernel behaviour.
  std::int64_t lp_factorizations = 0;
  std::int64_t lp_factor_fill_nnz = 0;  // peak nnz(L)+nnz(U) over all solves
  std::int64_t lp_pivots = 0;
  std::int64_t lp_bound_flips = 0;
  std::int64_t lp_degenerate_pivots = 0;
  std::int64_t mip_nodes = 0;

  // Saturating: counters clamp at their maximum instead of wrapping.
  void accumulate(const ExecutionStats& o);

  // Returns every counter to zero. Callers that reuse one ExecutionStats
  // across batch runs must reset between runs or the per-run numbers
  // silently aggregate — see the scheduler-side guard in
  // sched::Scheduler::begin_batch().
  void reset() { *this = ExecutionStats{}; }
};

class ExecutionEngine {
 public:
  ExecutionEngine(const ClusterConfig& cluster, const wl::Workload& workload,
                  EngineOptions options = {});

  // Executes one sub-batch plan on top of the current cluster state; returns
  // the stats of this call. Every error comes from validating the plan
  // (unknown task/node ids, a task already executed, a missing assignment,
  // work placed on a crashed node, a negative release_time) before any
  // state mutates; once validation passes the call runs to completion.
  // Tasks killed by an injected node crash are NOT executed — they surface
  // via take_orphaned() for re-scheduling. The plan's release_time floors
  // every new reservation (streaming horizon windows); 0 keeps the
  // historical batch behaviour bit for bit.
  Result<ExecutionStats> execute(const SubBatchPlan& plan);

  // Admits tasks appended to the workload since construction (or since the
  // last call) — the streaming service's growable merged workload. The file
  // catalogue must not have changed size: the stream contract fixes files up
  // front and only grows tasks. Newly admitted tasks join the pending-
  // request popularity counters and become valid plan targets.
  Status admit_new_tasks();

  // Batch execution time so far: the latest completion over all executed
  // tasks.
  double makespan() const { return makespan_; }

  const ExecutionStats& totals() const { return totals_; }
  const ClusterState& state() const { return state_; }
  ClusterState& state() { return state_; }

  // The resolved transfer-cost model this engine simulates under. Planners
  // price against the same topology (see SchedulerContext).
  const Topology& topology() const { return topo_; }

  // Remaining request count for a file (popularity numerator, Eq. 22);
  // decremented as tasks execute.
  double pending_requests(wl::FileId f) const { return pending_requests_[f]; }

  // Per-compute-node busy time (utilisation diagnostics).
  std::vector<double> compute_busy_times() const;

  // Completion instants of every task executed so far (unsorted; one entry
  // per executed task). Drivers aggregate these into tail percentiles.
  std::vector<double> completed_task_times() const;

  // Completion instant of an executed task, for the streaming service's
  // per-batch response-time bookkeeping.
  double task_completion(wl::TaskId t) const {
    BSIO_DCHECK(executed_[t]);
    return completion_time_[t];
  }

  // --- Failure recovery surface. ---
  bool node_alive(wl::NodeId node) const { return alive_[node] != 0; }
  std::size_t alive_count() const;
  // Per-compute-node liveness (1 = alive), for scheduler consumption.
  const std::vector<char>& alive_mask() const { return alive_; }
  // Tasks orphaned by node crashes since the last call (killed mid-run or
  // never started on a dead node); the caller owns re-scheduling them.
  std::vector<wl::TaskId> take_orphaned();

  // --- Replica lifecycle surface (driven by replica::ReplicaManager). ---
  //
  // Version epochs: each write to a file bumps its epoch and eagerly drops
  // every cached copy on other nodes, so ClusterState::has() always implies
  // "holds the CURRENT version". The home storage copy cannot be dropped —
  // it goes stale (home_valid() false) until flush_to_home() re-syncs it.
  std::uint32_t file_epoch(wl::FileId f) const { return epoch_[f]; }
  bool home_valid(wl::FileId f) const { return home_valid_[f] != 0; }

  // Schedules one background repair copy of `file` onto alive compute node
  // `dst`, starting no earlier than `after`, from the source foreground
  // staging would pick (a stale home never serves it). The transfer
  // reserves the same port/link Timelines as foreground traffic, with its
  // duration floored by `bandwidth_cap` bytes/s (<= 0 = path bandwidth
  // only) so repair competes honestly without monopolising links. Repair
  // never evicts: a destination without free space is a typed error, as are
  // a dead/duplicate destination and the absence of any valid source.
  // Charges repair counters on totals() and leaves makespan() untouched.
  // Returns the copy's completion instant.
  Result<double> stage_replica(wl::FileId file, wl::NodeId dst, double after,
                               double bandwidth_cap);

  // Writes the current (dirty) version of `file` back to its home storage
  // node from the alive holder that completes first (the foreground tie
  // rule, TransferChoice::beats), reserving source port, path links and
  // the home storage port (the remote path priced in reverse — link
  // bandwidths are symmetric in the topology model). On success the home
  // copy is valid again. Errors when the home is already valid or no alive
  // node holds the current version (the version is lost — reads fall back
  // to the stale home and count lost_versions).
  Result<double> flush_to_home(wl::FileId file, double after,
                               double bandwidth_cap);

  // Execution trace (empty unless EngineOptions::trace was set).
  const std::vector<TraceEvent>& trace() const { return trace_; }

  const Timeline& storage_timeline(wl::NodeId s) const {
    return storage_tl_[s];
  }
  const Timeline& compute_timeline(wl::NodeId c) const {
    return compute_tl_[c];
  }

 private:
  struct TransferChoice {
    bool remote = true;  // the source is a storage node
    // A remote read of a home copy that a write has made stale: only
    // chosen when no alive node may serve the current version.
    bool stale_home = false;
    wl::NodeId src = wl::kInvalidNode;  // storage node or compute node
    double start = 0.0;
    double duration = 0.0;
    TransferPath path;  // shared links the transfer reserves
    double completion() const { return start + duration; }
    // The one tie rule of every source choice: an earlier completion by
    // more than 1e-12 wins; within that, a replica beats a remote read,
    // then the lower source id wins.
    bool beats(const TransferChoice& o) const {
      if (completion() < o.completion() - 1e-12) return true;
      if (!(completion() < o.completion() + 1e-12)) return false;
      if (remote != o.remote) return o.remote;
      return src < o.src;
    }
  };

  // Transactional log of one task attempt, kept only while speculation
  // duplicates a task: every Timeline reservation, every staged file, and
  // the attempt's private stats delta, so a losing attempt can be rolled
  // back at the first-finish-wins instant (DESIGN.md §10).
  struct AttemptRecord {
    struct Staged {
      wl::FileId file = wl::kInvalidFile;
      double size = 0.0;
      double start = 0.0;  // transfer start
      double avail = 0.0;  // transfer completion (file usable from here)
      bool remote = true;
      bool restaged = false;  // counted as a restage when committed
    };
    wl::NodeId node = wl::kInvalidNode;
    bool completed = false;
    bool crashed = false;
    double completion = 0.0;
    std::vector<std::pair<Timeline*, Interval>> reservations;
    std::vector<Staged> staged;
    ExecutionStats delta;
    std::size_t trace_begin = 0;  // half-open range of this attempt's
    std::size_t trace_end = 0;    // events in trace_
  };

  // One missing input of the task commit_task is staging: its price, exact
  // against the current state or a lower bound of it.
  struct StagingEntry {
    wl::FileId file = wl::kInvalidFile;
    TransferChoice choice;
    bool exact = true;
    // No alive node but the destination holds the file, or replication is
    // off: its home fetch is its one source, of a fixed duration.
    bool one_source = true;
  };

  // Earliest common start, no earlier than `after`, of a `duration`-long
  // transfer holding the `src` port, every shared link of `path` and the
  // `dst` port.
  double earliest_transfer_start(Timeline& src, const TransferPath& path,
                                 Timeline& dst, double after, double duration);

  // A `size`-byte copy from `src` (a storage node when `remote`, else a
  // compute node) over `path` onto the `dst` timeline: it lasts size over
  // the path bandwidth, capped at `cap` bytes/s when cap > 0, and starts at
  // the earliest common gap no earlier than `after`.
  TransferChoice price_transfer(bool remote, wl::NodeId src,
                                const TransferPath& path, Timeline& dst,
                                double size, double after, double cap);

  // The one transfer-source rule (paper Section 6) for copying `file` onto
  // compute node `dst` no earlier than `after`: the earliest completion
  // over the home and, under allow_replication, every alive holder that
  // outlives the copy. A flagged stale home wins only when no holder
  // qualifies. A non-null `plan` may fix the source by a staging directive;
  // `cap` > 0 caps every candidate's bandwidth. Non-const only to let its
  // gap queries resume the timelines' monotone cursors.
  TransferChoice best_transfer(const SubBatchPlan* plan, wl::FileId file,
                               wl::NodeId dst, double after, double cap);

  // Reserves `c` on its source port, its shared links and `dst`.
  void reserve_transfer(const TransferChoice& c, Timeline& dst);

  // What the rank unit (sim/rank.h) reads of this engine.
  RankView rank_view() const;

  // Reserves [start, start + duration) on `tl`, logging the interval into
  // the active AttemptRecord when one is recording.
  void reserve_tl(Timeline& tl, double start, double duration);

  // Commits the staging of `file` onto `dst` for `task` (kInvalidTask for
  // a prefetch, which leaves its replica source's recency alone), starting
  // no earlier than `after`. Evicts unpinned files to make room, then
  // injects transient failures: each failed attempt reserves its links for
  // the full window, and the retry waits an exponential backoff before
  // re-picking the then-best source. The first attempt reserves `chosen`
  // when given: the caller priced it against this state, and the eviction
  // touches neither the file's sources nor any timeline. The successful
  // copy joins dst's cache and the active AttemptRecord. Returns its
  // completion instant.
  double commit_transfer(const SubBatchPlan& plan, wl::TaskId task,
                         wl::FileId file, wl::NodeId dst, double after,
                         const std::vector<wl::FileId>& pinned,
                         ExecutionStats& stats, const TransferChoice* chosen);

  // Commits `task` on `node`: stages missing files (minimum-TCT-first),
  // evicting on demand, then reserves the local-read + compute block.
  // Returns false when an injected crash killed the task (the node is
  // dead; the caller owns orphaning). While an AttemptRecord is active the
  // task is NOT finalized — the speculation resolver picks the winner.
  bool commit_task(const SubBatchPlan& plan, wl::TaskId task, wl::NodeId node,
                   ExecutionStats& stats);

  // The reference staging pick: every entry of staging_ priced afresh at
  // `after`, strict < (ties to the lowest position). Checks that each exact
  // entry equals its fresh price and each bound lies at or below it
  // (builds without NDEBUG run this before every staging commit).
  std::size_t staging_full_scan(const SubBatchPlan& plan, wl::NodeId node,
                                double after);

  // Marks `task` done at `completion` on `node`: touches its files, drops
  // pending requests, stamps the completion time and the makespan.
  void finalize_task(wl::TaskId task, wl::NodeId node, double completion,
                     ExecutionStats& stats);

  // Straggler trigger: the alive node (≠ primary) caching at least
  // min_cached_inputs of the task's files with the best ECT estimate, if
  // the primary's estimate exceeds straggler_ratio × that estimate;
  // kInvalidNode otherwise.
  wl::NodeId find_speculation_target(wl::TaskId task, wl::NodeId primary) const;

  // Runs `task` as two recorded attempts (primary then backup in commit
  // order; their simulated windows overlap through the shared timelines),
  // keeps the first finisher and cancels or charges the loser. When both
  // attempts die to crashes the task is orphaned.
  void speculative_commit(const SubBatchPlan& plan, wl::TaskId task,
                          wl::NodeId primary, wl::NodeId backup,
                          ExecutionStats& stats);

  // First-finish-wins rollback of a completed losing attempt: releases its
  // not-yet-started reservations, truncates in-flight ones at `winner_end`,
  // removes never-usable staged files, adjusts counters, and charges
  // wasted_seconds / wasted_bytes.
  void cancel_attempt(wl::TaskId task, wl::NodeId winner_node,
                      AttemptRecord& rec, double winner_end,
                      ExecutionStats& stats);

  // Fail-stops `node`: drops its cached replicas and marks it dead.
  void apply_crash(wl::NodeId node, ExecutionStats& stats);

  // Frees `need` bytes on `node` before a staging that starts at the node
  // horizon; `pinned` lists the current task's files.
  void evict_for(wl::NodeId node, double need,
                 const std::vector<wl::FileId>& pinned,
                 ExecutionStats& stats);

  ClusterConfig cluster_;  // by value: cheap, and callers may pass rvalues
  Topology topo_;          // all transfer bandwidths resolve through this
  const wl::Workload& workload_;
  EngineOptions options_;

  std::vector<Timeline> storage_tl_;
  std::vector<Timeline> compute_tl_;
  // One Timeline per shared link (Topology link ids: the global uplink,
  // then the rack uplinks).
  std::vector<Timeline> link_tl_;

  ClusterState state_;
  std::vector<double> pending_requests_;
  // Mutable-file model: per-file version epoch (bumped by each write) and
  // home-copy validity (0 while the home storage copy lags the newest
  // write). All-zero epochs / all-valid homes for output-free workloads
  // keep every read path bit-identical to the immutable-file engine.
  std::vector<std::uint32_t> epoch_;
  std::vector<char> home_valid_;
  // Per file: its slot in the executing plan's RankIndex (sim/rank.h);
  // RankIndex::kNoSlot outside it.
  std::vector<std::uint32_t> rank_file_slot_;
  std::vector<bool> executed_;
  std::vector<bool> was_evicted_;  // per file: evicted at least once
  // Wall-clock floor of the plan currently executing (SubBatchPlan::
  // release_time); 0 outside streaming windows. Consulted everywhere a new
  // reservation or ECT cursor starts from a compute-node horizon.
  double release_floor_ = 0.0;
  double makespan_ = 0.0;
  ExecutionStats totals_;
  std::vector<TraceEvent> trace_;
  std::vector<double> completion_time_;  // per task; valid iff executed_

  FaultModel faults_;
  std::vector<char> alive_;            // per compute node, 1 = alive
  std::uint64_t transfer_seq_ = 0;     // logical transfer counter
  std::vector<wl::TaskId> orphaned_;   // crash-killed / never-started tasks
  // commit_task's missing inputs, in the task's file order (reused).
  std::vector<StagingEntry> staging_;

  // Speculation state: remaining duplicate-launch budget, and the attempt
  // being recorded (null outside speculative_commit).
  std::size_t spec_remaining_ = 0;
  AttemptRecord* record_ = nullptr;
};

// Renders a trace as CSV (kind,task,file,src,dst,start,end), sorted by
// start time — ready for plotting a Gantt chart.
std::string trace_to_csv(const std::vector<TraceEvent>& trace);

}  // namespace bsio::sim
