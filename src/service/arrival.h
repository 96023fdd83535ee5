// Batch arrival process for the online service.
//
// Two deterministic sources feed the admission queue: a seeded Poisson
// process (exponential interarrival gaps at a configured rate) and a trace
// file of explicit arrival times. Both yield the same BatchArrival records,
// each carrying a ready-built Workload over the service's shared catalogue,
// so the service loop is agnostic of where batches come from.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "service/catalog.h"
#include "util/error.h"
#include "workload/types.h"

namespace bsio::service {

// Per-batch service-level objective: the response-time deadline (relative
// to arrival; infinity = best-effort) and the weight the overload policies
// value the batch at (shed order, attainment reporting).
struct SloClass {
  double deadline_seconds = std::numeric_limits<double>::infinity();
  double weight = 1.0;
};

struct ArrivalConfig {
  // Mean batch arrival rate, batches per simulated second (Poisson mode).
  double rate = 0.01;
  std::size_t num_batches = 8;
  std::uint64_t seed = 1;
  // Non-empty: read arrivals from this trace instead of sampling. Each
  // non-comment line is `<arrival_seconds> [num_tasks [deadline_seconds]]`,
  // times finite and non-decreasing; '#' starts a comment. num_tasks
  // (optional, a positive integer — a zero raises a typed error instead of
  // generating an empty batch) overrides ServiceBatchConfig::tasks_per_batch
  // for that batch; deadline_seconds (optional, positive and finite)
  // overrides the drawn SLO class. Every field must parse in full; a
  // malformed row is a typed error naming the file and line.
  std::string trace_path;
  // Non-empty: every batch draws one of these SLO classes, deterministic in
  // (seed, index) — swapping Poisson for trace arrivals never re-deals the
  // classes. Empty = every batch is best-effort.
  std::vector<SloClass> slo_classes;
};

struct BatchArrival {
  double time = 0.0;      // simulated arrival time, seconds
  std::size_t index = 0;  // 0-based arrival order
  SloClass slo;
  wl::Workload batch;
};

class BatchArrivalProcess {
 public:
  BatchArrivalProcess(std::vector<wl::FileInfo> catalog,
                      ServiceBatchConfig batch_cfg, ArrivalConfig cfg);

  // The full arrival sequence, sorted by time. Deterministic in the seed;
  // batch i's content depends only on (seed, i), not on the arrival times,
  // so Poisson and trace runs over the same seed see the same batches.
  // Errors are typed: unreadable or malformed trace files, non-monotone
  // times, a non-positive rate.
  Result<std::vector<BatchArrival>> generate() const;

 private:
  struct ArrivalRow {
    double time = 0.0;
    std::size_t tasks = 0;  // 0 = configured batch size
    double deadline = std::numeric_limits<double>::quiet_NaN();  // NaN = drawn
  };
  Result<std::vector<ArrivalRow>> arrival_times() const;

  std::vector<wl::FileInfo> catalog_;
  ServiceBatchConfig batch_cfg_;
  ArrivalConfig cfg_;
};

}  // namespace bsio::service
