// Batch arrival process for the online service.
//
// A seeded Poisson process (exponential interarrival gaps at a configured
// rate) feeds the admission queue. Each BatchArrival carries a ready-built
// Workload over the service's shared catalogue.
#pragma once

#include <cstdint>
#include <limits>
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
  // Mean batch arrival rate, batches per simulated second.
  double rate = 0.01;
  std::size_t num_batches = 8;
  std::uint64_t seed = 1;
  // Non-empty: every batch draws one of these SLO classes, deterministic in
  // (seed, index) — a different rate never re-deals the classes. Empty =
  // every batch is best-effort.
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
  // batch i's content and SLO class depend only on (seed, i), not on the
  // arrival times, so runs at different rates see the same batches. Typed
  // errors: a non-positive rate, a batch size of zero.
  Result<std::vector<BatchArrival>> generate() const;

 private:
  std::vector<wl::FileInfo> catalog_;
  ServiceBatchConfig batch_cfg_;
  ArrivalConfig cfg_;
};

}  // namespace bsio::service
