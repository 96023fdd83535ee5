#include "service/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bsio::service {

namespace {
// Effective relative deadline of a best-effort (infinite-deadline) batch for
// ordering and shed-value purposes.
constexpr double kBestEffortDeadline = 1e9;
}  // namespace

AdmissionQueue::AdmissionQueue(AdmissionOptions options)
    : options_(options) {}

double AdmissionQueue::effective_due(const QueuedBatch& q) const {
  const double rel = std::isfinite(q.effective_slo.deadline_seconds)
                         ? std::min(q.effective_slo.deadline_seconds,
                                    kBestEffortDeadline)
                         : kBestEffortDeadline;
  return q.arrival.time + rel;
}

double AdmissionQueue::deadline_key(const QueuedBatch& q, double now) const {
  return effective_due(q) -
         options_.aging_weight * std::max(0.0, now - q.arrival.time);
}

Status AdmissionQueue::offer(BatchArrival arrival) {
  QueuedBatch q;
  q.effective_slo = arrival.slo;
  q.arrival = std::move(arrival);

  const bool full = options_.max_queue_depth > 0 &&
                    queue_.size() >= options_.max_queue_depth;
  if (!full) {
    queue_.push_back(std::move(q));
    return OkStatus();
  }

  switch (options_.overload) {
    case OverloadPolicy::kReject:
      return Err("admission queue full (depth " +
                 std::to_string(options_.max_queue_depth) + "); batch " +
                 std::to_string(q.arrival.index) + " rejected");
    case OverloadPolicy::kShedLowestValue: {
      // Victim = lowest weight, then latest effective deadline, then latest
      // arrival, among the queue AND the offer.
      auto worse = [&](const QueuedBatch& a, const QueuedBatch& b) {
        if (a.effective_slo.weight != b.effective_slo.weight)
          return a.effective_slo.weight < b.effective_slo.weight;
        const double da = effective_due(a), db = effective_due(b);
        if (da != db) return da > db;
        return a.arrival.time > b.arrival.time;
      };
      const QueuedBatch* victim = &q;
      std::size_t victim_pos = queue_.size();  // sentinel: the offer
      for (std::size_t i = 0; i < queue_.size(); ++i)
        if (worse(queue_[i], *victim)) {
          victim = &queue_[i];
          victim_pos = i;
        }
      if (victim_pos == queue_.size())
        return Err("admission queue full (depth " +
                   std::to_string(options_.max_queue_depth) + "); batch " +
                   std::to_string(q.arrival.index) +
                   " is the lowest-value candidate and was shed");
      shed_.push_back(std::move(queue_[victim_pos]));
      queue_.erase(queue_.begin() +
                   static_cast<std::ptrdiff_t>(victim_pos));
      queue_.push_back(std::move(q));
      return OkStatus();
    }
    case OverloadPolicy::kDegrade:
      // Admit past the bound as best-effort: ordering deadline clamps to
      // the best-effort class, value drops to the floor. SLO attainment is
      // still judged against the original class by the caller.
      q.degraded = true;
      q.effective_slo.deadline_seconds =
          std::numeric_limits<double>::infinity();
      q.effective_slo.weight = 0.0;
      queue_.push_back(std::move(q));
      return OkStatus();
  }
  return Err("unreachable overload policy");
}

QueuedBatch AdmissionQueue::pop(double now) {
  BSIO_CHECK_MSG(!queue_.empty(), "pop() on an empty admission queue");
  auto it = queue_.begin();
  if (options_.policy == AdmissionPolicy::kDeadlineAware) {
    for (auto cand = queue_.begin(); cand != queue_.end(); ++cand)
      if (deadline_key(*cand, now) < deadline_key(*it, now)) it = cand;
    // Ties keep arrival order: strict < never moves off the earliest.
  }
  QueuedBatch q = std::move(*it);
  queue_.erase(it);
  return q;
}

std::vector<QueuedBatch> AdmissionQueue::take_shed() {
  std::vector<QueuedBatch> out;
  out.swap(shed_);
  return out;
}

}  // namespace bsio::service
