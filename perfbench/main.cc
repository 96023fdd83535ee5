// bsio_perfbench: runs one benchmark workload in this process and prints
// one JSON object with every raw sample. perfbench/run.py builds this
// binary, runs it, checks the samples and reports the metrics.
//
//   bsio_perfbench --workload <name> --seed <n> [--seconds <s>]
//                  [--trace 0|1] [--small] [--break-disk]
//                  [--chrome-trace <path>]
//
// The inputs are built at least three times, each timed, and for at least a
// second. Then runs repeat at kThreads planner threads until --seconds have
// passed and at least three were made; with --trace 1 they alternate
// untraced and traced, and one untraced run at 1 planner thread follows,
// for the thread-invariance check.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.h"
#include "util/ws_runtime.h"
#include "workloads.h"

namespace {

using perfbench::Values;

// Setups and timed runs are each made at least this often.
constexpr std::size_t kMinSamples = 3;
// Planner threads of every timed run.
constexpr std::size_t kThreads = 2;

struct Rep {
  std::size_t threads = 0;
  bool traced = false;
  perfbench::RunResult result;
  Values span_s;  // traced: summed seconds per span name
  Values self_s;  // traced: self seconds per layer
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const Values& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += quoted(k);
    out += ":";
    out += number(v);
  }
  return out + "}";
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    if (out.size() > 1) out += ",";
    out += number(v);
  }
  return out + "]";
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bsio_perfbench: %s\nusage: bsio_perfbench --workload <name> "
               "--seed <n> [--seconds <s>] [--trace 0|1] [--small] "
               "[--break-disk] [--chrome-trace <path>]\n",
               why);
  std::exit(2);
}

long parse_count(const char* flag, const char* v, long min) {
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < min)
    usage((std::string("bad value for ") + flag).c_str());
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BuildOptions build;
  double seconds = 0.0;
  bool trace = false;
  std::string chrome_trace;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--small") {
      build.small = true;
      continue;
    }
    if (a == "--break-disk") {
      build.break_disk = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") build.workload = v;
    else if (a == "--seed") build.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = parse_count("--trace", v, 0) != 0;
    else if (a == "--chrome-trace") chrome_trace = v;
    else usage(("unknown argument " + a).c_str());
  }
  if (!perfbench::known_workload(build.workload))
    usage("unknown --workload");

  bsio::WsRuntime::set_global_threads(kThreads);
  perfbench::Tracer tracer(trace);

  // Cheap setups repeat for a second, up to 25 times, so their median is
  // steady too.
  std::vector<double> setup_s, gen_s;
  std::optional<perfbench::Inputs> inputs;
  bsio::WallTimer setting_up;
  while (setup_s.size() < kMinSamples ||
         (setting_up.elapsed_seconds() < 1.0 && setup_s.size() < 25)) {
    inputs.reset();
    const std::size_t first_span = tracer.spans().size();
    bsio::WallTimer t;
    inputs.emplace(perfbench::build_inputs(build, tracer));
    setup_s.push_back(t.elapsed_seconds());
    if (trace)
      gen_s.push_back(tracer.layer_self_seconds(
          first_span, tracer.spans().size())["workload"]);
  }

  std::vector<Rep> reps;
  bsio::WallTimer measuring;
  for (std::size_t made = 0;
       made < kMinSamples || measuring.elapsed_seconds() < seconds; ++made) {
    reps.push_back({kThreads, false, perfbench::run_untraced(*inputs), {}, {}});
    // A failed run fails the invocation; the traced loop needs inputs
    // run_batch accepted.
    if (!reps.back().result.error.empty()) break;
    if (!trace) continue;
    const std::size_t first_span = tracer.spans().size();
    Rep traced{kThreads, true, perfbench::run_traced(*inputs, tracer), {}, {}};
    traced.span_s = tracer.name_seconds(first_span, tracer.spans().size());
    traced.self_s =
        tracer.layer_self_seconds(first_span, tracer.spans().size());
    reps.push_back(std::move(traced));
  }
  if (trace && reps.back().result.error.empty()) {
    bsio::WsRuntime::set_global_threads(1);
    reps.push_back({1, false, perfbench::run_untraced(*inputs), {}, {}});
  }

  std::vector<std::string> errors;
  if (!chrome_trace.empty() && !tracer.write_chrome_trace(chrome_trace))
    errors.push_back("cannot write " + chrome_trace);

  std::string out = "{\"workload\":";
  out += quoted(build.workload);
  out += ",\"seed\":" + std::to_string(build.seed);
  out += ",\"shape\":" + quoted(inputs->shape);
  out += ",\"build_type\":" + quoted(BSIO_PERFBENCH_BUILD_TYPE);
  out += ",\"setup_s\":" + array(setup_s);
  out += ",\"gen_s\":" + array(gen_s);
  out += ",\"properties\":" + object(inputs->properties);
  out += ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (i > 0) out += ",";
    out += "{\"threads\":" + std::to_string(r.threads);
    out += ",\"traced\":";
    out += r.traced ? "true" : "false";
    out += ",\"wall_s\":" + number(r.result.wall_s);
    out += ",\"error\":" + quoted(r.result.error);
    out += ",\"simulated\":" + object(r.result.simulated);
    out += ",\"layers\":" + object(r.result.layers);
    out += ",\"span_s\":" + object(r.span_s);
    out += ",\"self_s\":" + object(r.self_s) + "}";
  }
  out += "],\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i)
    out += (i > 0 ? "," : "") + quoted(errors[i]);
  out += "],\"peak_rss_mb\":" + number(peak_rss_mb()) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
