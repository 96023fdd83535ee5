#include "service/arrival.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
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

namespace {

// True when `field` is exactly one number of type T, nothing left over.
template <typename T>
bool parse_full(const std::string& field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

// Parsed arrival rows; tasks 0 = use the configured batch size, deadline
// NaN = use the drawn SLO class.
Result<std::vector<BatchArrivalProcess::ArrivalRow>>
BatchArrivalProcess::arrival_times() const {
  std::vector<ArrivalRow> times;
  if (!cfg_.trace_path.empty()) {
    std::ifstream in(cfg_.trace_path);
    if (!in)
      return Err("arrival trace unreadable: " + cfg_.trace_path);
    std::string line;
    std::size_t line_no = 0;
    double prev = 0.0;
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream row(line);
      std::vector<std::string> fields;
      for (std::string f; row >> f;) fields.push_back(std::move(f));
      if (fields.empty()) continue;
      const std::string at = "arrival trace " + cfg_.trace_path + " line " +
                             std::to_string(line_no) + ": ";
      if (fields.size() > 3)
        return Err(at + "expected at most 3 fields, got " +
                   std::to_string(fields.size()));
      ArrivalRow rec;
      if (!parse_full(fields[0], rec.time) || !std::isfinite(rec.time))
        return Err(at + "arrival time '" + fields[0] +
                   "' is not a finite number");
      if (rec.time < prev)
        return Err(at + "arrival times must be non-decreasing");
      if (fields.size() > 1) {
        long n = 0;
        if (!parse_full(fields[1], n))
          return Err(at + "num_tasks '" + fields[1] + "' is not an integer");
        // A zero gets its own typed error: an arrival carrying
        // num_tasks == 0 describes an empty batch, which the service
        // cannot plan or account for.
        if (n == 0)
          return Err(at + "num_tasks == 0 (empty batches are not admissible)");
        if (n < 0) return Err(at + "batch size must be positive");
        rec.tasks = static_cast<std::size_t>(n);
      }
      if (fields.size() > 2) {
        if (!parse_full(fields[2], rec.deadline) ||
            !std::isfinite(rec.deadline) || !(rec.deadline > 0.0))
          return Err(at + "deadline_seconds '" + fields[2] +
                     "' must be positive and finite");
      }
      times.push_back(rec);
      prev = rec.time;
    }
    if (times.empty())
      return Err("arrival trace " + cfg_.trace_path + " contains no arrivals");
    return times;
  }

  if (!(cfg_.rate > 0.0))
    return Err("Poisson arrival rate must be positive");
  Rng rng(hash_mix(cfg_.seed ^ 0x6172726976616cULL));  // "arrival"
  double t = 0.0;
  for (std::size_t i = 0; i < cfg_.num_batches; ++i) {
    // Exponential interarrival gap; 1 - u keeps the argument in (0, 1].
    t += -std::log(1.0 - rng.uniform_double()) / cfg_.rate;
    times.push_back({t, 0, std::numeric_limits<double>::quiet_NaN()});
  }
  return times;
}

Result<std::vector<BatchArrival>> BatchArrivalProcess::generate() const {
  auto times = arrival_times();
  if (!times.ok()) return times.error();

  std::vector<BatchArrival> arrivals;
  arrivals.reserve(times.value().size());
  for (std::size_t i = 0; i < times.value().size(); ++i) {
    const ArrivalRow& row = times.value()[i];
    ServiceBatchConfig cfg = batch_cfg_;
    if (row.tasks > 0) cfg.tasks_per_batch = row.tasks;
    if (cfg.tasks_per_batch == 0)
      return Err("arrival " + std::to_string(i) +
                 " carries num_tasks == 0 (empty batches are not admissible)");
    BatchArrival a;
    a.time = row.time;
    a.index = i;
    // SLO class draw is deterministic in (seed, index), like the batch
    // content: the arrival source never re-deals the classes.
    if (!cfg_.slo_classes.empty())
      a.slo = cfg_.slo_classes[hash_mix(cfg_.seed ^
                                        (0x534c4fULL ^
                                         (i * 0x9e3779b97f4a7c15ULL))) %
                              cfg_.slo_classes.size()];
    if (!std::isnan(row.deadline)) a.slo.deadline_seconds = row.deadline;
    // Content seed depends on (seed, index) only: swapping the arrival
    // source (Poisson vs trace) changes WHEN batches arrive, never WHAT
    // they contain.
    a.batch = make_service_batch(catalog_, cfg, hash_mix(cfg_.seed ^ i));
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

}  // namespace bsio::service
