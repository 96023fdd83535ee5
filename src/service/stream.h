// The streaming (rolling-horizon) service loop: batch arrivals over time,
// served by ONE sched::ControlLoop (sched/driver.h) for the whole run.
//
// Admitted batches append their tasks to a growable merged workload over
// the shared catalogue, the loop's incremental planner folds them into the
// live plan, and each cycle releases a horizon window whose reservations
// are floored at the admitting clock. One engine lives for the whole run,
// so the disk cache a batch leaves behind is the next batch's head start
// with no hand-over between engines. This file keeps only what is
// particular to a stream: arrival and catalogue validation, admission, and
// per-batch SLO accounting.
//
// The horizon decides how batches overlap. With a finite window
// (window_seconds > 0) a late arrival's tasks can start on idle nodes while
// an earlier batch's tail still runs. The default drain-all horizon
// (window_seconds <= 0) is the batch barrier: a window covers everything
// admitted, no window is planned while another runs, and batches that
// queue meanwhile share the next window.
//
// Admission is SLO-aware: each BatchArrival carries an SloClass, the
// deadline-aware AdmissionQueue orders by effective deadline with priority
// aging, and overload either rejects, sheds the lowest-value queued batch,
// or degrades the newcomer to best-effort. SLO attainment counts shed and
// rejected batches as missed.
//
// Faults, speculation and replication are the batch driver's: StreamOptions
// is a sched::BatchRunOptions, handed whole to the one control loop, so a
// crash orphans tasks for the next cycle as in run_batch (also the live or
// later-epoch tasks already placed on the dead node) and the speculation
// budget (max_speculative_tasks) spans the whole stream.
//
// Quiescence: with a single batch arriving at t = 0 and a drain-all horizon
// (window_seconds <= 0), the stream drives the control loop exactly as
// sched::run_batch does — admit every task at 0, drain — so the two are
// bit-identical by construction, faults and speculation included
// (tests/incremental_test.cc checks it against the topology goldens of
// tests/goldens.h for all four schedulers).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sched/driver.h"
#include "sched/incremental.h"
#include "sched/scheduler.h"
#include "service/admission.h"
#include "service/arrival.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::service {

// The batch driver's run configuration (faults, speculation, replication;
// each validated up front, an invalid one a typed error from run()) plus
// the stream's own admission and horizon. Replica repair also runs in the
// quiescent gaps between admissions.
struct StreamOptions : sched::BatchRunOptions {
  AdmissionOptions admission;
  sched::HorizonOptions horizon;
};

// One batch's stream service record. Exactly one of {completed, shed,
// rejected} ends a batch's life; admit/completion/response are only
// meaningful when the batch was admitted (resp. completed).
struct StreamBatchMetrics {
  std::size_t index = 0;  // arrival index
  std::size_t tasks = 0;
  double arrival_time = 0.0;
  double admit_time = 0.0;       // clock when it left the queue
  double completion_time = 0.0;  // last task's completion
  double response_time = 0.0;    // completion - arrival
  double deadline_seconds = std::numeric_limits<double>::infinity();
  double weight = 1.0;
  bool rejected = false;  // bounced at offer (kReject backpressure)
  bool shed = false;      // evicted from the queue by kShedLowestValue
  bool degraded = false;  // admitted past the bound as best-effort
  bool completed = false;
  // Judged against the ORIGINAL SLO class even for degraded batches.
  bool slo_met = false;
};

struct StreamStats {
  std::size_t batches_arrived = 0;
  std::size_t batches_completed = 0;
  std::size_t rejected_batches = 0;
  std::size_t shed_batches = 0;
  std::size_t degraded_batches = 0;
  std::size_t tasks_executed = 0;
  // Response-time distribution over COMPLETED batches.
  double mean_response = 0.0;
  double p50_response = 0.0;
  double p99_response = 0.0;
  double max_response = 0.0;
  // SLO attainment over ALL arrivals: batches completing within their
  // original deadline divided by batches arrived — shed and rejected
  // batches count as missed.
  std::size_t slo_met = 0;
  double slo_attainment = 0.0;
  double total_planning_seconds = 0.0;  // wall clock in repair/extend/commit
  std::size_t planning_cycles = 0;      // repair+extend+commit rounds
  std::size_t windows_committed = 0;    // horizon windows executed
  double completion_time = 0.0;         // service clock at drain
  // Replica lifecycle (replication enabled only): repair rounds run, and
  // files still below their tier target at drain. Byte/second repair
  // totals live in `exec` (repair_bytes / repair_seconds).
  std::size_t repair_rounds = 0;
  std::size_t replica_deficit = 0;
  sim::ExecutionStats exec;             // engine totals + solver counters
};

struct StreamResult {
  std::vector<StreamBatchMetrics> batches;
  StreamStats stats;
};

class StreamServiceLoop {
 public:
  // `catalog` is the shared file catalogue every arriving batch was built
  // over (make_shared_catalog); arrivals whose batch catalogue disagrees
  // with it are a typed error, since the merged workload fixes files up
  // front and only grows tasks.
  StreamServiceLoop(sched::Scheduler& scheduler,
                    const sim::ClusterConfig& cluster,
                    std::vector<wl::FileInfo> catalog,
                    StreamOptions options = {});

  // Serves the arrival sequence to drain (arrivals must be sorted by time,
  // with indices dense 0..N-1, each once). Typed errors: unsorted arrivals,
  // missing or repeated indices, an empty batch, catalogue mismatch,
  // anything sched::ControlLoop::validate rejects (invalid cluster, fault,
  // speculation or replication config, malformed BSIO_THREADS, an
  // infeasible task), the engine rejecting a window, or every compute node
  // crashed with tasks pending. Rejected and shed batches are counted, not
  // errors.
  Result<StreamResult> run(std::vector<BatchArrival> arrivals);

 private:
  sched::Scheduler& scheduler_;
  sim::ClusterConfig cluster_;
  std::vector<wl::FileInfo> catalog_;
  StreamOptions options_;
};

}  // namespace bsio::service
