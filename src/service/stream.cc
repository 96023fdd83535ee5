#include "service/stream.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/stats.h"

namespace bsio::service {

StreamServiceLoop::StreamServiceLoop(sched::Scheduler& scheduler,
                                     const sim::ClusterConfig& cluster,
                                     std::vector<wl::FileInfo> catalog,
                                     StreamOptions options)
    : scheduler_(scheduler),
      cluster_(cluster),
      catalog_(std::move(catalog)),
      options_(options) {}

Result<StreamResult> StreamServiceLoop::run(
    std::vector<BatchArrival> arrivals) {
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    if (arrivals[i].time < arrivals[i - 1].time)
      return Err("arrival sequence must be sorted by time");

  // The merged workload fixes the file catalogue up front; every arriving
  // batch must have been built over exactly that catalogue.
  std::vector<const wl::Workload*> inputs(arrivals.size(), nullptr);
  for (const BatchArrival& a : arrivals) {
    if (a.index >= arrivals.size())
      return Err("arrival indices must be dense 0..N-1");
    if (inputs[a.index] != nullptr)
      return Err("arrival index " + std::to_string(a.index) +
                 " repeats; arrival indices must be dense 0..N-1");
    inputs[a.index] = &a.batch;
    const wl::Workload& b = a.batch;
    // An empty batch would end neither completed, shed nor rejected.
    if (b.num_tasks() == 0)
      return Err("arrival " + std::to_string(a.index) +
                 " carries num_tasks == 0 (empty batches are not "
                 "admissible)");
    if (b.num_files() != catalog_.size())
      return Err("arrival " + std::to_string(a.index) + " batch has " +
                 std::to_string(b.num_files()) +
                 " files but the shared catalogue has " +
                 std::to_string(catalog_.size()));
    for (std::size_t f = 0; f < catalog_.size(); ++f)
      if (b.file(f).size_bytes != catalog_[f].size_bytes ||
          b.file(f).home_storage_node != catalog_[f].home_storage_node)
        return Err("arrival " + std::to_string(a.index) + " file " +
                   std::to_string(f) +
                   " disagrees with the shared catalogue");
  }
  scheduler_.reset_run_stats();
  if (const Status v = sched::ControlLoop::validate(scheduler_, cluster_,
                                                    options_, inputs);
      !v.ok())
    return v.error();

  StreamResult result;
  result.batches.resize(arrivals.size());
  for (const BatchArrival& a : arrivals) {
    StreamBatchMetrics& m = result.batches[a.index];
    m.index = a.index;
    m.tasks = a.batch.num_tasks();
    m.arrival_time = a.time;
    m.deadline_seconds = a.slo.deadline_seconds;
    m.weight = a.slo.weight;
  }
  result.stats.batches_arrived = arrivals.size();

  // The one loop of the whole run, over the growable merged workload.
  wl::Workload stream({}, catalog_);
  sched::ControlLoop loop(scheduler_, stream, cluster_, options_);
  AdmissionQueue queue(options_.admission);
  std::vector<wl::TaskId> first_task(arrivals.size(), wl::kInvalidTask);
  double clock = 0.0;
  std::size_t next = 0;

  while (next < arrivals.size()) {
    // Idle service, nothing queued or live: a quiescent gap. Repair runs
    // here first — the links are idle until the next arrival, so the
    // manager's background copies burn otherwise-dead time — then the
    // clock jumps to that arrival.
    if (loop.drained() && queue.empty() && arrivals[next].time > clock) {
      loop.repair_idle(clock);
      clock = arrivals[next].time;
    }

    // Offer everything that has arrived by now; bounced offers are
    // accounted per the overload policy.
    while (next < arrivals.size() && arrivals[next].time <= clock) {
      const std::size_t idx = arrivals[next].index;
      if (const Status s = queue.offer(std::move(arrivals[next])); !s.ok()) {
        BSIO_LOG(kDebug) << "stream: " << s.error().message;
        result.batches[idx].rejected = true;
        ++result.stats.rejected_batches;
      }
      ++next;
    }
    for (const QueuedBatch& victim : queue.take_shed()) {
      result.batches[victim.arrival.index].shed = true;
      ++result.stats.shed_batches;
    }

    // Admit the queued batches: their tasks append to the merged workload
    // and join the next cycle's extend.
    while (!queue.empty()) {
      QueuedBatch q = queue.pop(clock);
      const std::size_t idx = q.arrival.index;
      first_task[idx] = stream.append_tasks(q.arrival.batch.tasks());
      if (const Status s = loop.admit(clock); !s.ok()) return s.error();
      result.batches[idx].admit_time = clock;
      if (q.degraded) {
        result.batches[idx].degraded = true;
        ++result.stats.degraded_batches;
      }
    }
    if (loop.drained()) continue;

    if (const Status s = loop.cycle(options_.horizon); !s.ok())
      return s.error();
    clock = std::max(clock, loop.engine().makespan());
  }
  if (const Status s = loop.drain(options_.horizon, clock); !s.ok())
    return s.error();
  clock = std::max(clock, loop.engine().makespan());

  // Every admitted task has executed: a batch completes with its last task.
  const sim::ExecutionEngine& engine = loop.engine();
  std::vector<double> responses;
  for (StreamBatchMetrics& m : result.batches) {
    const wl::TaskId first = first_task[m.index];
    if (first == wl::kInvalidTask) continue;
    for (wl::TaskId t = first; t < first + m.tasks; ++t)
      m.completion_time =
          std::max(m.completion_time, engine.task_completion(t));
    m.completed = true;
    m.response_time = m.completion_time - m.arrival_time;
    m.slo_met = m.response_time <= m.deadline_seconds;
    ++result.stats.batches_completed;
    if (m.slo_met) ++result.stats.slo_met;
    responses.push_back(m.response_time);
    result.stats.mean_response += m.response_time;
    result.stats.max_response =
        std::max(result.stats.max_response, m.response_time);
  }
  if (!responses.empty()) {
    result.stats.mean_response /= static_cast<double>(responses.size());
    result.stats.p50_response = percentile(responses, 50.0);
    result.stats.p99_response = percentile(responses, 99.0);
  }
  if (result.stats.batches_arrived > 0)
    result.stats.slo_attainment =
        static_cast<double>(result.stats.slo_met) /
        static_cast<double>(result.stats.batches_arrived);
  result.stats.exec = loop.stats();
  result.stats.tasks_executed =
      static_cast<std::size_t>(result.stats.exec.tasks_executed);
  result.stats.total_planning_seconds = loop.planning_seconds();
  result.stats.planning_cycles = loop.cycles();
  result.stats.windows_committed = loop.windows();
  result.stats.repair_rounds = loop.repair_rounds();
  result.stats.replica_deficit = loop.replica_deficit();
  result.stats.completion_time = clock;
  return result;
}

}  // namespace bsio::service
