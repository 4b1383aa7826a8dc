#!/usr/bin/env python3
"""End-to-end benchmark of the hqw workspace.

    python3 e2ebench/run.py --workload <detect-ra|fabric-hybrid> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the harness package in this directory
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0`: times SETUP_LAUNCHES set-up-only launches of the harness for
  `setup_s`, refuses the workload if its thread topology breaks the guard,
  runs the timed phase and prints every end-to-end metric;
* `--trace 1`: runs the traced pass and prints every per-layer metric,
  reading the fabric's stage spans from the Chrome trace the harness wrote.

A human-readable table (metric, value, unit, samples) goes to stderr; the
last line of stdout is the result object. Any failed frame makes the result
`"correct": false` and the exit status 1. See NOTES.md for what each metric
means and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("detect-ra", "fabric-hybrid")
SETUP_LAUNCHES = 11
# Timings report this percentile of their samples, not their median. The
# host's cores are shared: for stretches of one second to a minute the same
# work takes up to 1.9 times as long, on thread CPU time as much as on wall
# time, and a run may spend 10% or 90% of its time in such stretches. A
# median measures that share; the fast end measures the program.
FAST_PCT = 2
STAGES = ("enqueue", "admit", "form", "wait", "solve")

# Which end-to-end metric each layer metric should move, on which workload
# (printed with the traced pass; NOTES.md explains each row). The realtime
# service has no timed workload (NOTES.md says why), so its `rt.` rows feed
# only `rt.serve_frames_per_sec`, the service's own traced-pass throughput.
MOVES = (
    ("phy.frame_gen_us", "frames_per_sec and setup_s", "fabric-hybrid"),
    ("phy.mmse_us", "frames_per_sec (the fallback lane)", "fabric-hybrid"),
    ("qubo.sa_ns_per_sweep", "cpu_us_per_frame", "fabric-hybrid"),
    ("anneal.pimc_read_us", "frames_per_sec", "detect-ra and fabric-hybrid"),
    ("solver.greedy_us", "frames_per_sec", "detect-ra"),
    ("fabric.", "frames_per_sec (us_per_job, embed_hit_rate), served_rate (quote_ratio)",
     "fabric-hybrid"),
    ("sched.decide_ns_per_job", "frames_per_sec", "fabric-hybrid"),
    ("rt.", "rt.serve_frames_per_sec (per-layer only)", "the traced realtime calls"),
    ("trace.overhead", "nothing: traced / untraced rt.serve_frames_per_sec",
     "the traced realtime calls"),
)


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


# ---------------------------------------------------------------------------
# Aggregation (unit-tested in test_run.py)
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: `(value, sample count)`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def thread_guard(topology, nproc):
    """Reasons the workload's thread topology is refused (empty = allowed)."""
    problems = []
    if topology["producers"] != 1:
        problems.append(f"{topology['producers']} producers (need 1)")
    if topology["queue_shards"] != 1:
        problems.append(f"{topology['queue_shards']} queue shards (need 1)")
    if topology["backend_lanes"] > nproc:
        problems.append(f"{topology['backend_lanes']} busy backend lanes > nproc {nproc}")
    bad = [t for t in topology["threads"] if t != 1]
    if bad:
        problems.append(f"sampler/SA threads {bad} (need 1)")
    return problems


def count_failures(workload, run):
    """`(frames attempted, frames failed)` of one timed run.

    detect-ra counts its own bad decisions (missing or wrong-length bits).
    On fabric-hybrid every frame of a call fails when the call reports
    another frame count than it was given, or when its untimed replay (every
    few calls) differs from it by a single bit of BER. Fallbacks are not
    failures.
    """
    if workload == "detect-ra":
        return run["frames"], run["failed"]
    attempted = failed = 0
    for call in run["calls"]:
        attempted += call["expected_frames"]
        replay = call.get("replay_ber", call["ber"])
        if call["frames"] != call["expected_frames"] or replay != call["ber"]:
            failed += call["expected_frames"]
    return attempted, failed


def fast_percentile(times):
    """The fast end of a sample of times: `(FAST_PCT-th percentile, count)`."""
    return percentile(times, FAST_PCT)


def end_to_end(workload, run, setup_walls):
    """Every end-to-end metric: `{name: (value, unit, samples)}`.

    Timings are the fast end (`fast_percentile`) of many short samples:
    single frames on detect-ra, 256-frame calls on fabric-hybrid.
    """
    if workload == "detect-ra":
        frames = run["frames"]
        frame_us = run["frame_us"]
        cpu_us = run["frame_cpu_us"]
        served = 1.0
        ber = run["ber"]
    else:
        # Per frame of work given: a call that lost frames has failed.
        calls = run["calls"]
        given = [c["expected_frames"] for c in calls]
        frames = sum(given)
        frame_us = [c["call_s"] * 1e6 / n for c, n in zip(calls, given)]
        cpu_us = [c["cpu_s"] * 1e6 / n for c, n in zip(calls, given)]
        served = 1.0 - sum(c["fallbacks"] for c in calls) / frames
        ber = sum(c["ber"] * n for c, n in zip(calls, given)) / frames
    us, n_time = fast_percentile(frame_us)
    cpu, n_cpu = fast_percentile(cpu_us)
    return {
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "frames_per_sec": (1e6 / us, "1/s", n_time),
        "cpu_us_per_frame": (cpu, "us", n_cpu),
        "served_rate": (served, "ratio", frames),
        "ber": (ber, "ratio", frames),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MiB", 1),
    }


def trace_layers(chrome, suffix):
    """Stage percentiles, lane utilization and queue-depth maxima of one
    realtime run, from its Chrome trace document."""
    spans = {stage: [] for stage in STAGES}
    util = {}
    depth = {}
    for event in chrome["traceEvents"]:
        if event["ph"] == "X" and event.get("cat") == "stage" and event["name"] in spans:
            spans[event["name"]].append(event["dur"])
        elif event["ph"] == "C" and event["name"] == "utilization":
            for lane, value in event["args"].items():
                util.setdefault(lane, []).append(value)
        elif event["ph"] == "C" and event["name"] == "queues":
            for queue, value in event["args"].items():
                depth[queue] = max(depth.get(queue, 0.0), value)
    m = {}
    for stage, durations in spans.items():
        for p in (50, 99):
            value, n = percentile(durations, p)
            m[f"rt.stage.{stage}_us.p{p}.{suffix}"] = (value, "us", n)
    for lane, values in util.items():
        m[f"rt.util.{lane}.{suffix}"] = (statistics.fmean(values), "ratio", len(values))
    for queue, value in depth.items():
        m[f"rt.depth_max.{queue}.{suffix}"] = (value, "count", 1)
    return m


# ---------------------------------------------------------------------------
# Driving the harness
# ---------------------------------------------------------------------------

def build():
    """Builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        raise BenchError("the hqw crates are not next to the benchmark; run from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("building the harness failed")
    return os.path.join(target, "release", "e2ebench"), target


class HarnessCrash(BenchError):
    """The harness exited with a non-zero status."""


def launch(binary, mode, args, *extra):
    """Runs the harness once: `(parsed JSON line, wall seconds)`."""
    cmd = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessCrash(f"harness {mode} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def declared(kind):
    """The metric names BENCHMARK.json declares under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(metrics, kind, attempted, failed):
    """Checks the metric set against BENCHMARK.json, prints the table to
    stderr and the result object to stdout; returns the exit status."""
    names = declared(kind)
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    for name, (value, unit, samples) in sorted(metrics.items()):
        if unit != names[name]:
            raise BenchError(f"{name}: unit {unit} but BENCHMARK.json says {names[name]}")
        sys.stderr.write(f"  {name:<44} {value:>14.6g} {unit:<6} n={samples}\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_timed(binary, args):
    setups = [launch(binary, "setup", args) for _ in range(SETUP_LAUNCHES)]
    head = setups[0][0]
    problems = thread_guard(head["topology"], head["nproc"])
    if problems:
        raise BenchError(f"thread guard refuses {args.workload}: " + "; ".join(problems))
    try:
        doc, _ = launch(binary, "run", args)
    except HarnessCrash as e:
        # A crashed timed run is a failed run, reported as such.
        sys.stderr.write(f"e2ebench: {e}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    run = doc["run"]
    attempted, failed = count_failures(args.workload, run)
    metrics = end_to_end(args.workload, run, [wall for _, wall in setups])
    sys.stderr.write(f"{args.workload} seed={args.seed} nproc={head['nproc']} "
                     f"attempted={attempted} failed={failed}\n")
    return emit(metrics, "end_to_end", attempted, failed)


def run_traced(binary, target, args):
    trace_dir = os.path.join(target, "e2ebench-trace", args.workload)
    doc, _ = launch(binary, "trace", args, "--trace-dir", trace_dir)
    metrics = {name: (value, unit, 1) for name, (value, unit) in doc["trace"]["layers"].items()}
    for workload, path in doc["trace"]["traces"].items():
        with open(path) as f:
            metrics.update(trace_layers(json.load(f), workload))
    sys.stderr.write("traced pass (the same for every workload); each layer metric moves:\n")
    for prefix, metric, workload in MOVES:
        sys.stderr.write(f"  {prefix:<24} -> {metric} on {workload}\n")
    for name in sorted(n for n in metrics if n.startswith("trace.overhead")):
        sys.stderr.write(f"tracing overhead: {name} = {metrics[name][0]:.3f} "
                         "(traced / untraced rt.serve_frames_per_sec)\n")
    return emit(metrics, "per_layer", 1, 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or not 1 <= args.seconds <= 600:
        parser.error("--seed must fit in 64 bits and --seconds be 1..600")
    try:
        binary, target = build()
        if args.trace:
            return run_traced(binary, target, args)
        return run_timed(binary, args)
    except BenchError as e:
        sys.stderr.write(f"e2ebench: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
