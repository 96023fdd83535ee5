// Tests of the execution trace facility.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sim/engine.h"
#include "workload/synthetic.h"

namespace bsio {
namespace {

wl::Workload trace_workload(std::uint64_t seed = 5) {
  wl::SyntheticConfig cfg;
  cfg.num_tasks = 16;
  cfg.files_per_task = 3;
  cfg.overlap = 0.5;
  cfg.file_size_bytes = 64.0 * sim::kMB;
  cfg.num_storage_nodes = 2;
  cfg.seed = seed;
  return wl::make_synthetic(cfg);
}

sim::SubBatchPlan spread_plan(const wl::Workload& w, std::size_t nodes) {
  sim::SubBatchPlan p;
  for (const auto& t : w.tasks()) {
    p.tasks.push_back(t.id);
    p.assignment[t.id] = static_cast<wl::NodeId>(t.id % nodes);
  }
  return p;
}

TEST(Trace, DisabledByDefault) {
  wl::Workload w = trace_workload();
  sim::ExecutionEngine eng(sim::xio_cluster(2, 2), w);
  ASSERT_TRUE(eng.execute(spread_plan(w, 2)).ok());
  EXPECT_TRUE(eng.trace().empty());
}

TEST(Trace, EventsMatchStats) {
  wl::Workload w = trace_workload();
  sim::EngineOptions opts;
  opts.trace = true;
  sim::ExecutionEngine eng(sim::xio_cluster(2, 2), w, opts);
  auto stats = eng.execute(spread_plan(w, 2)).value();

  std::size_t remote = 0, replica = 0, exec = 0;
  for (const auto& e : eng.trace()) {
    switch (e.kind) {
      case sim::TraceEvent::Kind::kRemoteTransfer:
        ++remote;
        break;
      case sim::TraceEvent::Kind::kReplication:
        ++replica;
        break;
      case sim::TraceEvent::Kind::kExec:
        ++exec;
        break;
      case sim::TraceEvent::Kind::kFailedTransfer:
      case sim::TraceEvent::Kind::kSpeculativeLaunch:
      case sim::TraceEvent::Kind::kSpeculativeCancel:
      case sim::TraceEvent::Kind::kReplicaCreate:
      case sim::TraceEvent::Kind::kReplicaInvalidate:
        break;
    }
  }
  EXPECT_EQ(remote, stats.remote_transfers);
  EXPECT_EQ(replica, stats.replications);
  EXPECT_EQ(exec, stats.tasks_executed);
}

TEST(Trace, EventsAreWellFormedAndWithinMakespan) {
  wl::Workload w = trace_workload(11);
  sim::EngineOptions opts;
  opts.trace = true;
  sim::ExecutionEngine eng(sim::xio_cluster(3, 2), w, opts);
  ASSERT_TRUE(eng.execute(spread_plan(w, 3)).ok());
  for (const auto& e : eng.trace()) {
    EXPECT_LT(e.start, e.end);
    EXPECT_LE(e.end, eng.makespan() + 1e-9);
    EXPECT_LT(e.dst, 3u);
    if (e.kind == sim::TraceEvent::Kind::kExec) {
      EXPECT_NE(e.task, wl::kInvalidTask);
      EXPECT_EQ(e.file, wl::kInvalidFile);
    } else {
      EXPECT_NE(e.file, wl::kInvalidFile);
      EXPECT_NE(e.src, wl::kInvalidNode);
    }
  }
}

TEST(Trace, PerDestinationEventsDoNotOverlap) {
  // The compute node is a single serialized resource: its incoming
  // transfers and exec blocks must be disjoint in time.
  wl::Workload w = trace_workload(13);
  sim::EngineOptions opts;
  opts.trace = true;
  sim::ExecutionEngine eng(sim::xio_cluster(2, 2), w, opts);
  ASSERT_TRUE(eng.execute(spread_plan(w, 2)).ok());

  std::map<wl::NodeId, std::vector<std::pair<double, double>>> per_node;
  for (const auto& e : eng.trace()) per_node[e.dst].push_back({e.start, e.end});
  for (auto& [node, spans] : per_node) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first + 1e-9)
          << "overlap on node " << node;
  }
}

TEST(Trace, CsvRendering) {
  wl::Workload w = trace_workload(17);
  sim::EngineOptions opts;
  opts.trace = true;
  sim::ExecutionEngine eng(sim::xio_cluster(2, 2), w, opts);
  ASSERT_TRUE(eng.execute(spread_plan(w, 2)).ok());
  std::string csv = sim::trace_to_csv(eng.trace());
  EXPECT_NE(csv.find("kind,task,file,src,dst,start,end"), std::string::npos);
  EXPECT_NE(csv.find("remote"), std::string::npos);
  EXPECT_NE(csv.find("exec"), std::string::npos);
  // One header + one line per event.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            eng.trace().size() + 1);
}

}  // namespace
}  // namespace bsio
