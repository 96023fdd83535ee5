// The four benchmark workloads: how each builds its inputs from a seed, and
// how each is run, untraced through the program's public entry point or
// traced through the same public calls with a span around each.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/driver.h"
#include "service/arrival.h"
#include "service/stream.h"
#include "sim/cluster.h"
#include "spans.h"
#include "workload/types.h"

namespace perfbench {

// Ordered name -> value. Keys are metric names without units.
using Values = std::map<std::string, double>;

struct BuildOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool small = false;  // reduced sizes, for the benchmark's own tests
  // Shrinks every compute disk below one task's input, so every run must
  // fail its output checks (the tests' broken input).
  bool break_disk = false;
};

// Everything a run consumes; built once per setup, never mutated by a run.
struct Inputs {
  std::string name;  // workload name
  bool stream = false;
  std::string scheduler;  // JDP, MinMin-lazy, BiPartition or MinMin
  bsio::sim::ClusterConfig cluster;
  // Batch workloads.
  bsio::wl::Workload batch;
  bsio::sched::BatchRunOptions batch_options;
  // stream-slo.
  std::vector<bsio::wl::FileInfo> catalog;
  std::vector<bsio::service::BatchArrival> arrivals;
  bsio::service::StreamOptions stream_options;
  // Input properties (workload.* metrics) and the one-line shape.
  Values properties;
  std::string shape;
};

bool known_workload(const std::string& name);

// Generator spans (layer "workload") and the calibration run are recorded
// on `tracer`; its root span is the whole setup.
Inputs build_inputs(const BuildOptions& options, Tracer& tracer);

struct RunResult {
  std::string error;  // non-empty: the run or an output check failed
  double wall_s = 0.0;
  // Simulated outputs; must be identical across repeats, thread counts,
  // and traced versus untraced runs.
  Values simulated;
  // Counts and program timers the spans cannot see: planner calls and
  // tasks considered, repair rounds, the stream loop's planning seconds.
  Values layers;
};

// Times the public entry point (sched::run_batch or
// service::StreamServiceLoop::run) with no span inside it.
RunResult run_untraced(const Inputs& in);

// Batch workloads: drives the same public calls run_batch makes, with a
// span around each. stream-slo: one span around StreamServiceLoop::run,
// split with the program's own planning timer.
RunResult run_traced(const Inputs& in, Tracer& tracer);

}  // namespace perfbench
