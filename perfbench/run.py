#!/usr/bin/env python3
"""Whole-system benchmark of bsio: four workloads, each loading another layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s>
                             --trace <0|1> [--small] [--break-disk]

Builds the bsio libraries and the benchmark runner (perfbench/*.cc) in
Release into .bench_build/ on first use, runs the workload in its own
process, checks its outputs and prints its metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.

--trace 0 times the program's entry point with tracing off. --trace 1
alternates untraced runs with traced runs, in which the runner places a
span around each of its calls into a layer, and writes the spans as Chrome
trace-event JSON to .bench_build/traces/ (open in chrome://tracing or
Perfetto); the runner adds one untraced run at 1 planner thread. Every
invocation keeps the runner's raw samples in .bench_build/samples/.

The command exits non-zero, after printing its result, when a run fails an
output check: a run error, fewer tasks executed than admitted, a replica
deficit on disk-bipartition, broken stream accounting, or any simulated
output that differs between the runs of one invocation (repeats, traced
versus untraced, 1 versus 2 planner threads). It exits non-zero without a
result when the program cannot be built.

--workload all runs every workload with both --trace values (unless
--trace is given). --small shrinks every workload and --break-disk shrinks
every disk below one task's input; the benchmark's own tests use both.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bsio_perfbench")

WORKLOADS = ["engine-rank", "plan-wide", "disk-bipartition", "stream-slo"]

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("makespan_s", "s"), ("p50_response_s", "s"), ("p95_response_s", "s"),
    ("slo_attainment", "frac"), ("executed_frac", "frac"),
]
PER_LAYER = [
    ("workload.gen_s", "s"), ("workload.tasks", "count"),
    ("workload.files", "count"), ("workload.shared_request_frac", "frac"),
    ("workload.working_set_gb", "GB"), ("workload.aggregate_disk_gb", "GB"),
    ("sched.plan_s", "s"), ("sched.plan_calls", "count"),
    ("sched.considered_per_planned", "ratio"), ("sched.driver_s", "s"),
    ("sim.execute_s", "s"), ("sim.execute_calls", "count"),
    ("sim.remote_transfers", "count"), ("sim.replications", "count"),
    ("sim.cache_hits", "count"), ("sim.cache_hit_frac", "frac"),
    ("sim.evictions", "count"), ("sim.restages", "count"),
    ("sim.remote_gb", "GB"), ("sim.replica_gb", "GB"),
    ("sim.transfer_retries", "count"), ("sim.task_reexecutions", "count"),
    ("sim.recovery_s", "s"),
    ("replica.repair_s", "s"), ("replica.rounds", "count"),
    ("replica.replicas_created", "count"), ("replica.home_flushes", "count"),
    ("replica.replicas_invalidated", "count"), ("replica.repair_gb", "GB"),
    ("replica.deficit", "count"), ("replica.lost_versions", "count"),
    ("service.run_s", "s"), ("service.plan_s", "s"), ("service.engine_s", "s"),
    ("service.planning_cycles", "count"), ("service.windows", "count"),
    ("service.queue_wait_p50_s", "s"), ("service.shed", "count"),
    ("service.rejected", "count"), ("service.degraded", "count"),
    ("runtime.threads", "count"), ("trace.overhead_s", "s"),
]
# Per-layer metrics a workload cannot separate from outside the program;
# they print as n/a and report 0.
NOT_SEPARABLE = {
    "batch": {"service.run_s", "service.plan_s", "service.engine_s",
              "service.planning_cycles", "service.windows",
              "service.queue_wait_p50_s", "service.shed", "service.rejected",
              "service.degraded"},
    "stream": {"sched.considered_per_planned", "sched.driver_s",
               "sim.execute_s", "sim.execute_calls", "replica.repair_s"},
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or runner failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner under a lock; incremental."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "bsio_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


def run_binary(workload, seed, seconds, trace, small, break_disk):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces",
                                  f"{workload}-seed{seed}.json")
        cmd += ["--chrome-trace", trace_path]
    if small:
        cmd.append("--small")
    if break_disk:
        cmd.append("--break-disk")
    env = {k: v for k, v in os.environ.items() if k != "BSIO_THREADS"}
    # The setups, the three-run minimum and the check run take well under
    # 150 s; the timed loop takes `seconds`, up to 3x that on a slow host.
    timeout = 150 + 3 * seconds
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: runner exceeded {timeout:g} s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: runner exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: runner printed nothing")
    os.makedirs(os.path.join(BUILD, "samples"), exist_ok=True)
    with open(os.path.join(BUILD, "samples",
                           f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as f:
        f.write(lines[-1] + "\n")
    return json.loads(lines[-1]), trace_path


def timed_walls(d):
    """Host seconds of the untraced runs at the timed thread count (that of
    the first run), leaving out the thread-invariance check run."""
    threads = d["reps"][0]["threads"]
    return [r["wall_s"] for r in d["reps"]
            if not r["traced"] and r["threads"] == threads]


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / median(values)


def check(d):
    """Output checks; returns the list of failures."""
    failures = list(d["errors"])
    reps = d["reps"]
    failures += [f"run {i}: {r['error']}" for i, r in enumerate(reps)
                 if r["error"]]
    if failures:
        return failures
    base = reps[0]["simulated"]
    for i, r in enumerate(reps[1:], 1):
        if r["simulated"] != base:
            diff = sorted(k for k in set(base) | set(r["simulated"])
                          if base.get(k) != r["simulated"].get(k))
            kind = ("traced" if r["traced"] else "untraced") + \
                f" at {r['threads']} threads"
            failures.append(f"run {i} ({kind}) differs from run 0 in "
                            + ", ".join(diff))
    return failures


def end_to_end(d):
    sim = d["reps"][0]["simulated"]
    walls = timed_walls(d)
    # The fastest run: other tenants of a shared host only ever add time.
    return {
        "wall_s": min(walls),
        "setup_s": median(d["setup_s"]),
        "peak_rss_mb": d["peak_rss_mb"],
        "makespan_s": sim["makespan_s"],
        "p50_response_s": sim["p50_response_s"],
        "p95_response_s": sim["p95_response_s"],
        "slo_attainment": sim["slo_attainment"],
        "executed_frac": sim["tasks_executed"] / sim["tasks_attempted"],
    }, walls


def per_layer(d):
    stream = d["workload"] == "stream-slo"
    sim = d["reps"][0]["simulated"]
    traced = [r for r in d["reps"] if r["traced"]]

    def span(name):
        return median([r["span_s"].get(name, 0.0) for r in traced])

    def layer_count(name):
        return traced[0]["layers"].get(name, 0.0)

    m = {k: d["properties"][k] for k in d["properties"]}
    m["workload.gen_s"] = median(d["gen_s"])
    for k in ["sim.remote_transfers", "sim.replications", "sim.cache_hits",
              "sim.cache_hit_frac", "sim.evictions", "sim.restages",
              "sim.remote_gb", "sim.replica_gb", "sim.transfer_retries",
              "sim.task_reexecutions", "sim.recovery_s",
              "replica.replicas_created", "replica.home_flushes",
              "replica.replicas_invalidated", "replica.repair_gb",
              "replica.deficit", "replica.lost_versions"]:
        m[k] = sim[k]
    if stream:
        total = span("StreamServiceLoop::run")
        plan = median([r["layers"]["service.plan_s"] for r in traced])
        m.update({
            "service.run_s": total, "service.plan_s": plan,
            "service.engine_s": total - plan,
            "sched.plan_s": plan,
            "sched.plan_calls": sim["service.planning_cycles"],
            "replica.rounds": sim["replica.rounds"],
        })
        for k in ["service.planning_cycles", "service.windows",
                  "service.queue_wait_p50_s", "service.shed",
                  "service.rejected", "service.degraded"]:
            m[k] = sim[k]
        self_s = {"workload": m["workload.gen_s"], "sched": plan,
                  "service": total - plan}
    else:
        total = span("run_batch")
        plan = span("Scheduler::plan_sub_batch")
        execute = span("ExecutionEngine::execute")
        repair = median([r["self_s"].get("replica", 0.0) for r in traced])
        m.update({
            "sched.plan_s": plan,
            "sched.plan_calls": layer_count("sched.plan_calls"),
            "sched.considered_per_planned":
                layer_count("sched.considered_per_planned"),
            "sched.driver_s": total - plan - execute - repair,
            "sim.execute_s": execute,
            "sim.execute_calls": sim["sim.execute_calls"],
            "replica.repair_s": repair,
            "replica.rounds": layer_count("replica.rounds"),
        })
        self_s = {"workload": m["workload.gen_s"]}
        for layer in ["sched", "sim", "replica"]:
            self_s[layer] = median([r["self_s"].get(layer, 0.0)
                                    for r in traced])
    m["runtime.threads"] = traced[0]["threads"]
    m["trace.overhead_s"] = total - median(timed_walls(d))
    for name, _ in PER_LAYER:
        m.setdefault(name, 0.0)
    return m, self_s, total


def run_one(args, workload, trace):
    d, trace_path = run_binary(workload, args.seed, args.seconds, trace,
                               args.small, args.break_disk)
    failures = check(d)
    h = host()
    print(f"== {workload}: {d['shape']}, seed {d['seed']}, "
          f"{d['reps'][0]['threads']} planner threads, trace {trace}")
    print(f"   host: {h['nproc']} CPUs, {h['cpu']}, build {d['build_type']}")
    n_untraced = len(timed_walls(d))
    n_traced = sum(1 for r in d["reps"] if r["traced"])
    n_check = len(d["reps"]) - n_untraced - n_traced
    print(f"   runs: {n_untraced} untraced, {n_traced} traced, {n_check} "
          f"thread-invariance check; setups: {len(d['setup_s'])}")
    attempted = int(d["properties"]["workload.tasks"])
    failed = attempted
    if not failures:
        failed -= int(d["reps"][0]["simulated"]["tasks_executed"])
    if failures:
        metrics = {}
    elif trace:
        values, self_s, total = per_layer(d)
        units = dict(PER_LAYER)
        kind = "stream" if workload == "stream-slo" else "batch"
        print("   per-layer self time of one traced run (median):")
        for layer, s in self_s.items():
            share = f"{100 * s / total:5.1f} %" if layer != "workload" \
                else "setup"
            print(f"     {layer:10s} {s:10.4f} s  {share}")
        print(f"     traced total {total:.4f} s, "
              f"trace.overhead_s {values['trace.overhead_s']:+.4f} s")
        setup = median(d["setup_s"])
        print(f"     workload.gen_s is "
              f"{100 * values['workload.gen_s'] / setup:.1f} % of setup "
              f"({setup:.4f} s)")
        print(f"   chrome trace: {os.path.relpath(trace_path, ROOT)}")
        for name, unit in PER_LAYER:
            shown = "n/a" if name in NOT_SEPARABLE[kind] \
                else f"{values[name]:.6g}"
            print(f"   {name:30s} {shown:>14s} {unit}")
        metrics = {k: {"value": values[k], "unit": units[k]}
                   for k, _ in PER_LAYER}
    else:
        values, walls = end_to_end(d)
        for name, unit in END_TO_END:
            note = ""
            if name == "wall_s":
                note = f"  fastest of {len(walls)}; median " \
                       f"{median(walls):.4f} s, IQR/median " \
                       f"{spread(walls):.3f}"
            elif name == "setup_s":
                note = f"  median of {len(d['setup_s'])}"
            print(f"   {name:30s} {values[name]:14.6g} {unit}{note}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    for f in failures:
        print(f"   CHECK FAILED: {f}")
    if not failures:
        print(f"   checks: ok ({len(d['reps'])} runs agree on every "
              "simulated output)")
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running runner binary before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--small", action="store_true")
    p.add_argument("--break-disk", action="store_true")
    args = p.parse_args()

    try:
        build()
        if args.workload != "all":
            result = run_one(args, args.workload,
                             args.trace if args.trace is not None else 0)
        else:
            traces = [args.trace] if args.trace is not None else [0, 1]
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for w in WORKLOADS:
                for t in traces:
                    r = run_one(args, w, t)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    for k, v in r["metrics"].items():
                        result["metrics"][f"{w}.{k}"] = v
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
