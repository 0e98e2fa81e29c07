#!/usr/bin/env python3
"""End-to-end benchmark of the trace -> simulator -> server -> cluster stack.

Run from the repository root:

    python3 perfbench/run.py --workload sim_gd_pressure --seed 1 \
        --seconds 20 --trace 0

It builds perfbench_driver from this directory (CMake, into
.bench_build/perfbench), then runs one workload in three processes:

  setup   generate the workload from --seed and compile it to .ftrace
          (timed from the process's start: setup_s; peak RSS:
          setup_peak_rss_mb);
  replay  replay the .ftrace repeatedly for --seconds after a warm-up
          replay (median replay time -> replay_inv_per_s; peak RSS:
          peak_rss_mb; payload size: result_bytes);
  check   verify the result against references computed apart from
          the replay (checks a-g, see README.md).

--trace 1 runs the same phases traced and reports the per-layer
metrics instead, and writes the phase spans as Chrome trace-event JSON
to .bench_build/perfbench-out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `python3 perfbench/run.py
--selftest` shows every check rejecting a corrupted result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("sim_gd_pressure", "server_azure", "cluster_faults")

# Host-speed normalisation (see README.md, "Steadiness"): each timed
# replay is divided by the host probe's time right around it, and the
# median ratio is scaled back to seconds at this probe time, the
# probe's typical time on the 4-core reference machine.
REFERENCE_PROBE_S = 0.030

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "replay_inv_per_s": "inv/s",
    "peak_rss_mb": "MB",
    "result_bytes": "bytes",
}

PER_LAYER_UNITS = {
    "trace.generate_s": "s",
    "trace.invocations": "count",
    "trace.functions": "count",
    "trace.ftrace_bytes": "bytes",
    "trace.decode_inv_per_s": "inv/s",
    "trace.source_s": "s",
    "trace.source_calls_per_inv": "ratio",
    "core.select_victims_calls": "count",
    "core.select_victims_s": "s",
    "core.victims_per_call": "ratio",
    "core.victims_evicted_ratio": "ratio",
    "core.notify_s": "s",
    "core.expired_s": "s",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.result_encode_s": "s",
    "sim.warm_starts": "count",
    "sim.cold_starts": "count",
    "sim.dropped": "count",
    "sim.evictions": "count",
    "sim.eviction_rounds": "count",
    "platform.server.run_s": "s",
    "platform.server.self_s": "s",
    "platform.server.result_encode_s": "s",
    "platform.server.latency_samples": "count",
    "platform.server.warm_starts": "count",
    "platform.server.cold_starts": "count",
    "platform.server.dropped": "count",
    "platform.server.evictions": "count",
    "platform.server.latency_p50_s": "s",
    "platform.server.latency_p99_s": "s",
    "platform.cluster.run_s": "s",
    "platform.cluster.cpu_s": "s",
    "platform.cluster.parallelism": "ratio",
    "platform.cluster.cursors_opened": "count",
    "platform.cluster.decoded_per_arrival": "ratio",
    "platform.cluster.result_encode_s": "s",
    "platform.cluster.warm_starts": "count",
    "platform.cluster.cold_starts": "count",
    "platform.cluster.retries": "count",
    "platform.cluster.failovers": "count",
    "platform.cluster.shed_requests": "count",
    "platform.cluster.failed_requests": "count",
    "platform.cluster.breaker_opens": "count",
    "platform.cluster.spawn_failures": "count",
    "bench.trace_overhead": "ratio",
    "bench.wall_inv_per_s": "inv/s",
    "bench.host_probe_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; every timing starts after this."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as build_log:
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BUILD_DIR, "-j", "4"],
        ):
            if subprocess.call(cmd, stdout=build_log,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def spawn(args):
    """Run the driver; return (its JSON output lines merged, exit code,
    wall seconds from spawn to exit)."""
    start = time.monotonic()
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE)
    wall = time.monotonic() - start
    out = {}
    for line in proc.stdout.decode().splitlines():
        if line.startswith("{"):
            out.update(json.loads(line))
    if not out:
        raise BenchError("driver %s printed nothing (exit %d)"
                         % (args[0], proc.returncode))
    return out, proc.returncode, wall


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace):
    run_dir = os.path.join(RUNS_DIR, "%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace, run_dir):
    ftrace = os.path.join(run_dir, "workload.ftrace")
    payload = os.path.join(run_dir, "result.payload")
    setup_spans = os.path.join(run_dir, "setup.spans.json")
    replay_spans = os.path.join(run_dir, "replay.spans.json")
    traced = ["--spans", setup_spans] if trace else []

    setup, code, setup_s = spawn(
        ["setup", "--workload", workload, "--seed", str(seed),
         "--out", ftrace] + traced)
    if code != 0:
        raise BenchError("setup failed")

    traced = ["--spans", replay_spans] if trace else []
    replay, code, _ = spawn(
        ["replay", "--workload", workload, "--ftrace", ftrace,
         "--seconds", str(seconds), "--payload-out", payload] + traced)
    if code != 0:
        raise BenchError("replay failed")

    check_start = time.monotonic()
    check, code, _ = spawn(
        ["check", "--workload", workload, "--seed", str(seed),
         "--ftrace", ftrace, "--payload", payload])
    check_end = time.monotonic()
    for c in check["checks"]:
        if not c["ok"]:
            log("check %s failed: %s" % (c["name"], c["detail"]))

    invocations = int(replay["invocations"])
    replay_s = replay["replay_s"]
    probe_s = replay["probe_s"]
    reps = len(replay_s)
    # Each replay over the mean of the probes just before and after it.
    ratios = [r / ((a + b) / 2) for r, a, b in zip(replay_s, probe_s, probe_s[1:])]
    normalised_s = statistics.median(ratios) * REFERENCE_PROBE_S
    unresolved = abs(invocations - int(replay["resolved"]))
    correct = bool(check["ok"]) and code == 0 and replay["deterministic"]

    if trace:
        metrics = {"trace.generate_s": setup["generate_s"],
                   "trace.invocations": setup["invocations"],
                   "trace.functions": setup["functions"],
                   "trace.ftrace_bytes": setup["ftrace_bytes"]}
        metrics.update(replay["layers"])
        metrics["bench.wall_inv_per_s"] = invocations / statistics.median(replay_s)
        metrics["bench.host_probe_s"] = statistics.median(probe_s)
        missing = set(PER_LAYER_UNITS) - set(metrics)
        if missing:
            raise BenchError("per-layer metrics missing: %s" % sorted(missing))
        metrics = {k: metric(metrics[k], PER_LAYER_UNITS[k])
                   for k in PER_LAYER_UNITS}
        write_trace(workload, seed, [setup_spans, replay_spans],
                    check_start, check_end)
    else:
        metrics = {
            "setup_s": setup_s,
            "setup_peak_rss_mb": setup["peak_rss_mb"],
            "replay_inv_per_s": invocations / normalised_s,
            "peak_rss_mb": replay["peak_rss_mb"],
            "result_bytes": replay["payload_bytes"],
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return {
        "correct": correct,
        "attempted": invocations * reps,
        "failed": unresolved * reps,
        "metrics": metrics,
    }


def write_trace(workload, seed, span_files, check_start, check_end):
    """Merge the processes' spans and the check span into one Chrome
    trace-event file."""
    events = []
    for path in span_files:
        with open(path) as f:
            events.extend(json.load(f)["traceEvents"])
    events.append({"name": "check", "ph": "X", "pid": os.getpid(), "tid": 1,
                   "ts": check_start * 1e6,
                   "dur": (check_end - check_start) * 1e6,
                   "args": {"id": 0, "parent": -1, "parent_name": ""}})
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d.trace.json" % (workload, seed))
    with open(out, "w") as f:
        json.dump({"traceEvents": events}, f, indent=1)
    log("phase spans written to " + os.path.relpath(out, ROOT))


def selftest():
    run_dir = os.path.join(RUNS_DIR, "selftest-p%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    try:
        return subprocess.call([DRIVER, "selftest", "--dir", run_dir])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.selftest:
            return selftest()
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
