#include "service/arrival.h"

#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace bsio::service {

BatchArrivalProcess::BatchArrivalProcess(std::vector<wl::FileInfo> catalog,
                                         ServiceBatchConfig batch_cfg,
                                         ArrivalConfig cfg)
    : catalog_(std::move(catalog)),
      batch_cfg_(batch_cfg),
      cfg_(std::move(cfg)) {}

Result<std::vector<BatchArrival>> BatchArrivalProcess::generate() const {
  if (!(cfg_.rate > 0.0))
    return Err("Poisson arrival rate must be positive");
  // Caught before any batch is built: an arrival carrying num_tasks == 0
  // describes an empty batch, which the service cannot plan or account for.
  if (batch_cfg_.tasks_per_batch == 0)
    return Err("arrivals carry num_tasks == 0 (empty batches are not "
               "admissible)");

  Rng rng(hash_mix(cfg_.seed ^ 0x6172726976616cULL));  // "arrival"
  std::vector<BatchArrival> arrivals;
  arrivals.reserve(cfg_.num_batches);
  double t = 0.0;
  for (std::size_t i = 0; i < cfg_.num_batches; ++i) {
    // Exponential interarrival gap; 1 - u keeps the argument in (0, 1].
    t += -std::log(1.0 - rng.uniform_double()) / cfg_.rate;
    BatchArrival a;
    a.time = t;
    a.index = i;
    // The SLO class and the content depend on (seed, index) only: the rate
    // changes WHEN batches arrive, never WHAT they are.
    if (!cfg_.slo_classes.empty())
      a.slo = cfg_.slo_classes[hash_mix(cfg_.seed ^
                                        (0x534c4fULL ^
                                         (i * 0x9e3779b97f4a7c15ULL))) %
                              cfg_.slo_classes.size()];
    a.batch =
        make_service_batch(catalog_, batch_cfg_, hash_mix(cfg_.seed ^ i));
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

}  // namespace bsio::service
