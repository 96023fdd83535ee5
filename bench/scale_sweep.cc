// Scale-out planning sweep: the ROADMAP's 1k-node / 100k-task / 1M-file
// regime, exercising the bucketed timelines, the holder-indexed cluster
// state, the bit-packed planner presence, the heap-based engine event core,
// and the streaming workload generator together.
//
// Runs MinMin (lazy, bounded staleness), JobDataPresent, and BiPartition
// across a grid of
// {8, 64, 256, 1024} compute nodes x {1k, 10k, 100k} tasks drawn from a
// 2M-file virtual universe (100k tasks x 8 files/task touch ~660k distinct
// files), recording planning wall-seconds, simulated makespan, and peak RSS
// per point into BENCH_scale.json. The IP scheduler stays node-capped: its
// MIP rows grow with nodes x tasks x files and the solve budget makes it a
// small-instance tool (see EXPERIMENTS.md for the cliff), so it runs only
// at the 8-node / 1k-task corner for reference.
//
//   scale_sweep [--smoke] [--out <path>] [--max-point-seconds <s>]
//               [--max-rss-mb <mb>] [--threads <t1,t2,...>] [--point <i>]
//
// --smoke shrinks the grid for CI ({8, 64} nodes x 1k tasks; IP at 8 only);
// --max-point-seconds / --max-rss-mb turn the sweep into an acceptance
// gate: any point whose planning time or peak RSS exceeds the ceiling
// fails the run. --threads re-runs every point at each listed runtime
// thread count and adds a speedup_vs_1t column per row (the first listed
// count is the baseline); the same column says whether the row's makespan
// equals the baseline's bit for bit, and any row where it does not fails
// the run (plans are bit-identical at every thread count). IP rows print
// n/a there: their MIPs stop at a wall-clock limit, so two runs at one
// thread count may already differ.
//
// Every row runs in a fresh process: the sweep re-runs this binary with
// its own arguments plus --point <i>, which runs only row i of the grid
// and prints it as one line. A row's peak RSS is therefore that row's
// high-water mark, not that of every row before it in one process.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sched/bipartition.h"
#include "sched/driver.h"
#include "sched/ip_scheduler.h"
#include "sched/job_data_present.h"
#include "sched/minmin.h"
#include "sim/cluster.h"
#include "util/ws_runtime.h"
#include "workload/synthetic.h"

namespace {

using namespace bsio;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Row {
  std::string scheduler;
  std::size_t nodes = 0;
  std::size_t tasks = 0;
  std::size_t files = 0;  // distinct files the batch draws
  std::size_t threads = 0;
  double planning_seconds = 0.0;
  double wall_seconds = 0.0;  // planning + simulated execution
  double makespan_seconds = 0.0;
  // Whether the makespan equals the first --threads entry's bit for bit.
  bool same = true;
  double speedup_vs_1t = 1.0;  // vs the first --threads entry at this point
  double peak_rss_mb = 0.0;  // the row's own process high-water mark
};

struct SchedulerSpec {
  std::string label;
  std::size_t max_nodes;  // skip larger points
  std::size_t max_tasks;
  std::unique_ptr<sched::Scheduler> (*make)();
  bool deterministic = true;  // plans independent of timing
};

// Refresh-cascade cap for MinMin's lazy heap. Unbounded, every commit's
// perturbation of the shared storage ports forces ~2k full-row refreshes
// per commit at 10k tasks (74 s at 10k x 64; hours at 100k) — with the cap
// the same point plans in 2.6 s and the makespan moves by under 0.2%.
constexpr std::size_t kMinMinStaleRetryBudget = 32;

std::unique_ptr<sched::Scheduler> make_minmin() {
  // Always the lazy-heap path: exact MinMin is O(T^2 N) and already
  // intractable at 10k tasks x 256 nodes.
  return std::make_unique<sched::MinMinScheduler>(0, kMinMinStaleRetryBudget);
}
std::unique_ptr<sched::Scheduler> make_jdp() {
  return std::make_unique<sched::JobDataPresentScheduler>();
}
std::unique_ptr<sched::Scheduler> make_bipartition() {
  return std::make_unique<sched::BiPartitionScheduler>();
}

sim::ClusterConfig scale_cluster(std::size_t compute_nodes,
                                 std::size_t storage_nodes) {
  sim::ClusterConfig c;
  c.num_compute_nodes = compute_nodes;
  c.num_storage_nodes = storage_nodes;
  c.storage_disk_bw = 50.0 * sim::kMB;
  c.storage_net_bw = 500.0 * sim::kMB;
  c.compute_net_bw = 400.0 * sim::kMB;
  c.local_disk_bw = 200.0 * sim::kMB;
  // Unlimited disks: the sweep measures planning scalability, not eviction
  // behaviour (fig5b covers that); capacity pressure at this scale would
  // make eviction policy the variable instead of the data structures.
  c.disk_capacity = sim::kUnlimited;
  return c;
}

// One row of the grid: a scheduler on a (tasks, nodes) point at one
// runtime thread count.
struct Point {
  std::size_t tasks = 0;
  std::size_t nodes = 0;
  const SchedulerSpec* spec = nullptr;
  std::size_t threads = 0;  // 0 = the runtime default
};

constexpr std::size_t kUniverse = 2'000'000;

// Plans and simulates one point in this process. False (with a message on
// stderr) if the run fails.
bool run_point(const Point& p, Row& row) {
  const std::size_t storage_nodes = std::max<std::size_t>(4, p.nodes / 8);
  wl::StreamingSyntheticConfig wcfg;
  wcfg.num_tasks = p.tasks;
  wcfg.files_per_task = 8;
  wcfg.universe_files = kUniverse;
  wcfg.zipf_s = 0.0;  // uniform: maximal distinct-file pressure
  wcfg.file_size_bytes = 50.0 * sim::kMB;
  wcfg.file_size_jitter = 0.25;
  wcfg.num_storage_nodes = storage_nodes;
  wcfg.seed = 7;
  const wl::Workload w = wl::make_synthetic_streaming(wcfg);
  const sim::ClusterConfig cluster = scale_cluster(p.nodes, storage_nodes);

  WsRuntime::set_global_threads(p.threads);
  auto scheduler = p.spec->make();
  const Clock::time_point t0 = Clock::now();
  const sched::BatchRunResult r = sched::run_batch(*scheduler, w, cluster);
  if (!r.ok()) {
    std::fprintf(stderr,
                 "scale_sweep: %s at %zu nodes / %zu tasks failed: %s\n",
                 p.spec->label.c_str(), p.nodes, p.tasks, r.error.c_str());
    return false;
  }
  row.scheduler = p.spec->label;
  row.nodes = p.nodes;
  row.tasks = p.tasks;
  row.files = w.num_files();
  row.threads = r.planning_threads;
  row.planning_seconds = r.scheduling_seconds;
  row.wall_seconds = seconds_since(t0);
  row.makespan_seconds = r.batch_time;
  row.peak_rss_mb = bench::peak_rss_mb();
  return true;
}

// The one line a --point run prints and the sweep parses back.
constexpr const char* kRowFormat =
    "row %s %zu %zu %zu %zu %.17g %.17g %.17g %.17g\n";
constexpr const char* kRowScan = "row %63s %zu %zu %zu %zu %lf %lf %lf %lf";

// Runs row `i` in a fresh process: this binary with the sweep's own
// arguments plus --point i, its standard output read back through a pipe.
bool run_in_fresh_process(int argc, char** argv, std::size_t i, Row& row) {
  std::string index = std::to_string(i);
  std::string flag = "--point";
  std::vector<char*> child_argv(argv, argv + argc);
  child_argv.push_back(flag.data());
  child_argv.push_back(index.data());
  child_argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawnp(&pid, argv[0], &actions, nullptr,
                                   child_argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
      out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) return false;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return false;

  char label[64] = {};
  if (std::sscanf(out.c_str(), kRowScan, label, &row.nodes, &row.tasks,
                  &row.files, &row.threads, &row.planning_seconds,
                  &row.wall_seconds, &row.makespan_seconds,
                  &row.peak_rss_mb) != 9)
    return false;
  row.scheduler = label;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs args(
      argc, argv,
      "scale_sweep [--smoke] [--out <path>] [--max-point-seconds <s>] "
      "[--max-rss-mb <mb>] [--threads <t1,t2,...>] [--point <i>]");
  const bool smoke = args.has("--smoke");
  const char* out_path = args.value("--out", "BENCH_scale.json");
  const double max_point_seconds = args.number("--max-point-seconds", 0.0);
  const double max_rss_mb = args.number("--max-rss-mb", 0.0);
  // Absent -> {0}: the runtime default, no speedup comparison.
  const std::vector<std::size_t> thread_grid =
      args.thread_list("--threads", {0});
  const char* point_arg = args.value("--point", nullptr);
  args.reject_unknown();

  const std::vector<std::size_t> node_grid =
      smoke ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 64, 256, 1024};
  const std::vector<std::size_t> task_grid =
      smoke ? std::vector<std::size_t>{1000}
            : std::vector<std::size_t>{1000, 10000, 100000};

  const std::vector<SchedulerSpec> specs = {
      {"MinMin", static_cast<std::size_t>(-1), static_cast<std::size_t>(-1),
       &make_minmin},
      {"JobDataPresent", static_cast<std::size_t>(-1),
       static_cast<std::size_t>(-1), &make_jdp},
      {"BiPartition", static_cast<std::size_t>(-1),
       static_cast<std::size_t>(-1), &make_bipartition},
      // Node-capped: IP's MIPs do not survive past small instances.
      {"IP", 8, 1000, &bench::make_ip, /*deterministic=*/false},
  };

  std::vector<Point> points;
  for (std::size_t tasks : task_grid)
    for (std::size_t nodes : node_grid)
      for (const auto& spec : specs) {
        if (nodes > spec.max_nodes || tasks > spec.max_tasks) continue;
        for (std::size_t threads : thread_grid)
          points.push_back({tasks, nodes, &spec, threads});
      }

  if (point_arg != nullptr) {
    std::size_t i = 0;
    const char* last = point_arg + std::strlen(point_arg);
    const auto [end, ec] = std::from_chars(point_arg, last, i);
    if (ec != std::errc() || end != last || i >= points.size()) {
      std::fprintf(stderr, "scale_sweep: --point %s is not a row of the "
                   "grid (0..%zu)\n",
                   point_arg, points.size() - 1);
      return 2;
    }
    Row row;
    if (!run_point(points[i], row)) return 1;
    std::printf(kRowFormat, row.scheduler.c_str(), row.nodes, row.tasks,
                row.files, row.threads, row.planning_seconds,
                row.wall_seconds, row.makespan_seconds, row.peak_rss_mb);
    return 0;
  }

  std::printf("scale_sweep: %zu-file universe%s, threads {", kUniverse,
              smoke ? " (smoke)" : "");
  for (std::size_t t : thread_grid) std::printf(" %zu", t);
  std::printf(" }\n");
  std::printf("%-16s %6s %7s %8s %4s %12s %10s %12s %8s %5s %10s\n",
              "scheduler", "nodes", "tasks", "files", "thr", "plan [s]",
              "wall [s]", "makespan [s]", "speedup", "same", "rss [MB]");
  std::fflush(stdout);

  std::vector<Row> rows;
  bool ceilings_ok = true;
  bool all_same = true;
  double base_planning = 0.0;
  double base_makespan = 0.0;
  double peak_rss_mb = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    Row row;
    if (!run_in_fresh_process(argc, argv, i, row)) {
      std::fprintf(stderr, "scale_sweep: row %zu (%s at %zu nodes / %zu "
                   "tasks) did not complete\n",
                   i, p.spec->label.c_str(), p.nodes, p.tasks);
      return 1;
    }
    if (p.threads == thread_grid.front()) {
      base_planning = row.planning_seconds;
      base_makespan = row.makespan_seconds;
    }
    row.speedup_vs_1t =
        row.planning_seconds > 0.0 ? base_planning / row.planning_seconds : 1.0;
    // Rows cross the pipe as %.17g, so equal bits survive the round trip.
    row.same = std::bit_cast<std::uint64_t>(row.makespan_seconds) ==
               std::bit_cast<std::uint64_t>(base_makespan);
    if (p.spec->deterministic) all_same = all_same && row.same;
    peak_rss_mb = std::max(peak_rss_mb, row.peak_rss_mb);
    const char* same = "n/a";
    if (p.spec->deterministic) same = row.same ? "yes" : "NO";
    std::printf(
        "%-16s %6zu %7zu %8zu %4zu %12.3f %10.2f %12.1f %7.2fx %5s %10.1f\n",
        row.scheduler.c_str(), row.nodes, row.tasks, row.files, row.threads,
        row.planning_seconds, row.wall_seconds, row.makespan_seconds,
        row.speedup_vs_1t, same, row.peak_rss_mb);
    std::fflush(stdout);
    if (max_point_seconds > 0.0 && row.planning_seconds > max_point_seconds) {
      std::fprintf(stderr,
                   "scale_sweep: %s at %zu nodes / %zu tasks planned in "
                   "%.3f s, over the --max-point-seconds ceiling %.3f\n",
                   row.scheduler.c_str(), row.nodes, row.tasks,
                   row.planning_seconds, max_point_seconds);
      ceilings_ok = false;
    }
    if (max_rss_mb > 0.0 && row.peak_rss_mb > max_rss_mb) {
      std::fprintf(stderr,
                   "scale_sweep: peak RSS %.1f MB for %s at %zu nodes / %zu "
                   "tasks, over the --max-rss-mb ceiling %.1f\n",
                   row.peak_rss_mb, row.scheduler.c_str(), row.nodes,
                   row.tasks, max_rss_mb);
      ceilings_ok = false;
    }
    rows.push_back(std::move(row));
  }

  bench::JsonWriter j(out_path);
  j.begin_object();
  j.field("bench", "scale_sweep");
  j.begin_object("config");
  j.field("universe_files", kUniverse);
  j.field("files_per_task", static_cast<std::size_t>(8));
  j.field("file_size_mb", 50.0, 0);
  j.field("minmin_stale_retry_budget", kMinMinStaleRetryBudget);
  j.field("smoke", smoke);
  j.end_object();
  j.field("peak_rss_mb", peak_rss_mb, 1);
  j.begin_array("results");
  for (const Row& r : rows) {
    j.begin_object();
    j.field("scheduler", r.scheduler);
    j.field("nodes", r.nodes);
    j.field("tasks", r.tasks);
    j.field("files", r.files);
    j.field("threads", r.threads);
    j.field("planning_seconds", r.planning_seconds, 3);
    j.field("speedup_vs_1t", r.speedup_vs_1t, 3);
    j.field("same", r.same);
    j.field("wall_seconds", r.wall_seconds, 2);
    j.field("makespan_seconds", r.makespan_seconds, 1);
    j.field("peak_rss_mb", r.peak_rss_mb, 1);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("\nwrote %s (%zu rows)\n", out_path, rows.size());

  if (!all_same)
    std::fprintf(stderr,
                 "scale_sweep: makespans diverged across thread counts\n");
  return ceilings_ok && all_same ? 0 : 1;
}
