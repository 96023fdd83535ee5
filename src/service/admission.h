// Admission queue between the arrival process and the streaming service
// loop (service/stream.h).
//
// Batches that arrive while a window executes are offered together once
// the loop's clock reaches them and leave the queue in policy order. Two
// dequeue disciplines: FIFO, and deadline-aware (earliest effective
// deadline first with priority aging, the streaming service's SLO
// ordering). A bounded queue applies backpressure; what happens to offers
// beyond max_queue_depth is the overload policy's choice: reject the
// newcomer (historical behaviour), shed the lowest-value queued batch to
// make room, or degrade the newcomer to best-effort and admit it past the
// bound.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "service/arrival.h"
#include "util/error.h"

namespace bsio::service {

enum class AdmissionPolicy {
  kFifo,
  // Earliest effective deadline first: key = due - aging * wait, where due
  // clamps a best-effort (infinite-deadline) batch to arrival + 1e9 s so
  // deadline-less traffic cannot starve. Aging (aging_weight seconds of key
  // credit per waiting second) pulls old batches forward across SLO classes.
  kDeadlineAware,
};

enum class OverloadPolicy {
  kReject,  // bounce the offered batch (historical backpressure)
  // Evict the lowest-value batch — smallest SLO weight, then latest
  // effective deadline, then latest arrival — among the queued batches and
  // the offer; the survivor set keeps the bound. Shed batches surface via
  // take_shed() so the service can count their SLOs as missed.
  kShedLowestValue,
  // Admit past the bound, demoting the offer to best-effort (its ordering
  // deadline clamps to the best-effort 1e9 s, weight drops to the floor);
  // the batch still reports against its original SLO.
  kDegrade,
};

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kFifo;
  // Maximum batches waiting (0 = unbounded). Offers beyond the bound go
  // through the overload policy.
  std::size_t max_queue_depth = 0;
  OverloadPolicy overload = OverloadPolicy::kReject;
  // kDeadlineAware: key credit per waiting second (0 = pure EDF).
  double aging_weight = 0.0;
};

struct QueuedBatch {
  BatchArrival arrival;
  // Effective SLO class used for ordering / shedding — the arrival's own
  // class unless the overload policy degraded it.
  SloClass effective_slo;
  bool degraded = false;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  // Enqueues an arrived batch. A typed error means the batch was NOT
  // admitted (bounded queue + kReject, or kShedLowestValue choosing the
  // offer itself as the victim).
  Status offer(BatchArrival arrival);

  // Dequeues per policy. `now` is the service clock, consumed only by the
  // deadline-aware aging term. Requires !empty().
  QueuedBatch pop(double now = 0.0);

  // Batches evicted by kShedLowestValue since the last call. The caller
  // owns their SLO accounting.
  std::vector<QueuedBatch> take_shed();

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  // Ordering key of a queued batch at service time `now` (smaller = first).
  double deadline_key(const QueuedBatch& q, double now) const;
  double effective_due(const QueuedBatch& q) const;

  AdmissionOptions options_;
  std::deque<QueuedBatch> queue_;
  std::vector<QueuedBatch> shed_;
};

}  // namespace bsio::service
