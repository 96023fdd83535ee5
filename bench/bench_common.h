// Shared helpers for the benches: the common workload builders, a single
// CLI flag parser, a streaming JSON emitter and the figure benches'
// experiment runner — so each bench main declares its knobs, schedulers
// and rows instead of re-implementing strcmp loops, fprintf comma
// bookkeeping and table layout.
#pragma once

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/ws_runtime.h"
#include "workload/image.h"
#include "workload/sat.h"
#include "workload/stats.h"

namespace bsio::bench {

// Peak resident set size of this process so far, in MB (getrusage). Every
// BENCH JSON reports it alongside timing so memory regressions surface in
// the same artifacts as slowdowns. Monotone over the process lifetime: a
// sweep's per-point values reflect the high-water mark up to that point.
inline double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes
#endif
}

// Minimal argv scanner for the bench mains. Flags are queried, not
// pre-registered: has("--smoke") consumes a bare flag, value, number and
// thread_list consume `--flag <operand>` pairs. After all queries,
// reject_unknown() reports anything left unconsumed so typos fail loudly
// instead of silently running the default grid. Every rejection prints
// `usage` and exits 2.
class ParseArgs {
 public:
  ParseArgs(int argc, char** argv, const char* usage)
      : argv_(argv + 1, argv + argc),
        used_(argv_.size(), false),
        usage_(usage) {}

  // True (and consumed) if the bare flag is present.
  bool has(const char* name) {
    for (std::size_t i = 0; i < argv_.size(); ++i)
      if (!used_[i] && std::strcmp(argv_[i], name) == 0) {
        used_[i] = true;
        return true;
      }
    return false;
  }

  // `--flag <operand>`: the operand, or `def` when absent.
  const char* value(const char* name, const char* def) {
    for (std::size_t i = 0; i + 1 < argv_.size(); ++i)
      if (!used_[i] && std::strcmp(argv_[i], name) == 0) {
        used_[i] = used_[i + 1] = true;
        return argv_[i + 1];
      }
    return def;
  }

  // `--flag <number>`: a finite, non-negative number, or `def` when
  // absent. Any other operand is rejected: read as 0 it would silently
  // turn off the gate the flag sets.
  double number(const char* name, double def) {
    const char* v = value(name, nullptr);
    if (v == nullptr) return def;
    char* end = nullptr;
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(x) || x < 0.0)
      fail(std::string("bad value '") + v + "' for " + name +
           " (want a finite number >= 0)");
    return x;
  }

  // `--flag <t1,t2,...>`: a comma list of thread counts, each an integer
  // in 1..WsRuntime::kMaxThreads, or `def` when absent. Any other operand
  // is rejected: `2x` must not run at 2 threads, nor a typo such as
  // `40000` start that many OS threads.
  std::vector<std::size_t> thread_list(const char* name,
                                       std::vector<std::size_t> def) {
    const char* v = value(name, nullptr);
    if (v == nullptr) return def;
    std::vector<std::size_t> out;
    const char* const last = v + std::strlen(v);
    for (const char* p = v;;) {
      std::size_t t = 0;
      const auto [end, ec] = std::from_chars(p, last, t);
      if (ec != std::errc() || t < 1 || t > WsRuntime::kMaxThreads ||
          (end != last && *end != ','))
        fail(std::string("bad value '") + v + "' for " + name +
             " (want a comma list of integers in 1.." +
             std::to_string(WsRuntime::kMaxThreads) + ")");
      out.push_back(t);
      if (end == last) return out;
      p = end + 1;  // past the comma
    }
  }

  // Rejects any argument never consumed. Call after the last query.
  void reject_unknown() const {
    for (std::size_t i = 0; i < argv_.size(); ++i)
      if (!used_[i]) fail(std::string("unknown argument '") + argv_[i] + "'");
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::fprintf(stderr, "%s\nusage: %s\n", what.c_str(), usage_);
    std::exit(2);
  }

  std::vector<char*> argv_;
  std::vector<bool> used_;
  const char* usage_;
};

// Streaming JSON emitter with automatic comma placement. Keys and string
// values are emitted verbatim (the benches only write identifier-like
// strings — no escaping). Nesting is tracked by a stack; mismatched
// begin/end aborts via the C library (fclose on nullptr never happens —
// open failure exits immediately with a message).
class JsonWriter {
 public:
  explicit JsonWriter(const char* path) : f_(std::fopen(path, "w")) {
    if (f_ == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      std::exit(1);
    }
  }
  ~JsonWriter() {
    if (f_ != nullptr) std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object(const char* key = nullptr) { open('{', key); }
  void end_object() { close('}'); }
  void begin_array(const char* key = nullptr) { open('[', key); }
  void end_array() { close(']'); }

  void field(const char* key, const char* v) {
    prefix(key);
    std::fprintf(f_, "\"%s\"", v);
  }
  void field(const char* key, const std::string& v) { field(key, v.c_str()); }
  void field(const char* key, bool v) {
    prefix(key);
    std::fprintf(f_, "%s", v ? "true" : "false");
  }
  void field(const char* key, double v, int precision = 6) {
    prefix(key);
    std::fprintf(f_, "%.*f", precision, v);
  }
  void field(const char* key, std::size_t v) {
    prefix(key);
    std::fprintf(f_, "%zu", v);
  }
  void field(const char* key, long v) {
    prefix(key);
    std::fprintf(f_, "%ld", v);
  }
  void field(const char* key, unsigned v) {
    prefix(key);
    std::fprintf(f_, "%u", v);
  }

 private:
  // Comma-separates siblings, then writes the key (inside objects).
  void prefix(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) std::fputs(",", f_);
      first_.back() = false;
      std::fputs("\n", f_);
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", f_);
    }
    if (key != nullptr) std::fprintf(f_, "\"%s\": ", key);
  }
  void open(char bracket, const char* key) {
    prefix(key);
    std::fputc(bracket, f_);
    first_.push_back(true);
  }
  void close(char bracket) {
    const bool empty = first_.back();
    first_.pop_back();
    if (!empty) {
      std::fputs("\n", f_);
      for (std::size_t i = 0; i < first_.size(); ++i) std::fputs("  ", f_);
    }
    std::fputc(bracket, f_);
    if (first_.empty()) std::fputs("\n", f_);
  }

  std::FILE* f_;
  std::vector<bool> first_;  // per open scope: no element emitted yet
};

inline void banner(const std::string& fig, const std::string& setup,
                   const std::string& expectation) {
  std::printf("=====================================================\n");
  std::printf("%s\n", fig.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("paper-expected shape: %s\n", expectation.c_str());
  std::printf("=====================================================\n");
  std::fflush(stdout);
}

inline std::string overlap_label(double ov) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%% overlap", ov * 100.0);
  return buf;
}

// The paper's Fig 3/4 IMAGE workload: 100 tasks, 8 files/task average.
inline wl::Workload image_workload(double overlap, std::size_t tasks = 100,
                                   std::size_t storage_nodes = 4,
                                   std::uint64_t seed = 1) {
  wl::ImageConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_storage_nodes = storage_nodes;
  cfg.seed = seed;
  return wl::make_image_calibrated(cfg, overlap).workload;
}

// The paper's Fig 3/4 SAT workload: 100 tasks, 8 files/task at high overlap
// and 14 at medium/low.
inline wl::Workload sat_workload(double overlap, std::size_t tasks = 100,
                                 std::size_t storage_nodes = 4,
                                 std::uint64_t seed = 1) {
  wl::SatConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_storage_nodes = storage_nodes;
  cfg.seed = seed;
  if (overlap < 0.5) cfg.files_per_task = 14.0;
  return wl::make_sat_calibrated(cfg, overlap).workload;
}

// --- Experiment runner: schedulers x cases -> the paper-style tables. ---

// Makes a fresh scheduler for every run: run_batch refuses an IP scheduler
// still holding the solver counters of a previous run.
using SchedulerFactory = std::function<std::unique_ptr<sched::Scheduler>()>;

template <typename S, typename... Args>
SchedulerFactory factory_of(Args... args) {
  return [=] { return std::make_unique<S>(args...); };
}

// The IP scheduler of the planning-cost benches (perf_makespan,
// scale_sweep, service_throughput): default_options() slices one 32-task
// wave per IP solve, and each round gets a tight budget. Measured on the
// bench workloads, branch-and-bound polish past the warm-started incumbent
// never changes the plan (a 10 s budget and a 40 ms budget produce
// bit-identical makespans), so the budget only sets how much planning time
// the bench pays per sub-batch — and the sliced plans beat the old
// single-shot 2 s configuration on simulated makespan.
inline std::unique_ptr<sched::Scheduler> make_ip() {
  sched::IpSchedulerOptions o = sched::IpScheduler::default_options();
  o.selection_mip.time_limit_seconds = 0.04;
  o.allocation_mip.time_limit_seconds = 0.04;
  o.selection_mip.stall_node_limit = 64;
  o.allocation_mip.stall_node_limit = 64;
  return std::make_unique<sched::IpScheduler>(o);
}

// The paper's four schemes in the figures' column order.
inline std::vector<SchedulerFactory> paper_schedulers(
    const sched::IpSchedulerOptions& ip) {
  return {factory_of<sched::IpScheduler>(ip),
          factory_of<sched::BiPartitionScheduler>(),
          factory_of<sched::MinMinScheduler>(),
          factory_of<sched::JobDataPresentScheduler>()};
}

struct ExperimentCase {
  std::string label;  // e.g. "high overlap" or "500 tasks"
  wl::Workload workload;
  sim::ClusterConfig cluster;
};

struct CaseResult {
  std::string label;
  std::vector<sched::BatchRunResult> runs;  // one per scheduler, in order
};

// Runs every scheduler on every case; `echo_progress` prints one stderr
// line per run.
inline std::vector<CaseResult> run_experiment(
    const std::vector<ExperimentCase>& cases,
    const std::vector<SchedulerFactory>& schedulers,
    bool echo_progress = true) {
  std::vector<CaseResult> results;
  results.reserve(cases.size());
  for (const ExperimentCase& c : cases) {
    CaseResult cr{c.label, {}};
    for (const SchedulerFactory& make : schedulers) {
      WallTimer timer;
      cr.runs.push_back(sched::run_batch(*make(), c.workload, c.cluster));
      if (echo_progress)
        std::fprintf(stderr, "  [%s] %-14s batch=%s wall=%.1fs\n",
                     c.label.c_str(), cr.runs.back().scheduler.c_str(),
                     format_seconds(cr.runs.back().batch_time).c_str(),
                     timer.elapsed_seconds());
    }
    results.push_back(std::move(cr));
  }
  return results;
}

// "case x scheduler -> batch time (s)" (the shape of Figs 3-5), then the
// same columns relative to the first scheduler. Column names are the
// first case's BatchRunResult::scheduler.
inline Table batch_time_table(const std::vector<CaseResult>& results) {
  std::vector<std::string> header{"case"};
  if (!results.empty()) {
    for (const auto& run : results.front().runs)
      header.push_back(run.scheduler + " (s)");
    for (const auto& run : results.front().runs)
      header.push_back(run.scheduler + " (rel)");
  }
  Table t(std::move(header));
  for (const auto& r : results) {
    std::vector<std::string> row{r.label};
    const double base = r.runs.empty() ? 1.0 : r.runs.front().batch_time;
    for (const auto& run : r.runs)
      row.push_back(format_fixed(run.batch_time, 1));
    for (const auto& run : r.runs)
      row.push_back(format_fixed(run.batch_time / base, 2));
    t.add_row(std::move(row));
  }
  return t;
}

// Per-task scheduling overhead in ms (the shape of Fig 6b).
inline Table overhead_table(const std::vector<CaseResult>& results) {
  std::vector<std::string> header{"case"};
  if (!results.empty())
    for (const auto& run : results.front().runs)
      header.push_back(run.scheduler + " (ms/task)");
  Table t(std::move(header));
  for (const auto& r : results) {
    std::vector<std::string> row{r.label};
    for (const auto& run : r.runs)
      row.push_back(format_fixed(run.per_task_scheduling_ms, 3));
    t.add_row(std::move(row));
  }
  return t;
}

// Transfer statistics: remote/replica counts and bytes, evictions.
inline Table transfer_table(const std::vector<CaseResult>& results) {
  Table t({"case", "algorithm", "remote", "replica", "evictions", "restages",
           "remote bytes", "replica bytes", "sub-batches"});
  for (const auto& r : results)
    for (const auto& run : r.runs)
      t.add_row({r.label, run.scheduler,
                 std::to_string(run.stats.remote_transfers),
                 std::to_string(run.stats.replications),
                 std::to_string(run.stats.evictions),
                 std::to_string(run.stats.restages),
                 format_bytes(run.stats.remote_bytes),
                 format_bytes(run.stats.replica_bytes),
                 std::to_string(run.sub_batches)});
  return t;
}

}  // namespace bsio::bench
