#!/usr/bin/env python3
"""Bench-regression gate: parse BENCH_*.json and fail on invariant violations.

Checked invariants (exit status 1 on any violation, with a diagnostic):

BENCH_kernels.json
  * the incremental-CSR SA sweep kernel keeps a >= 3x speedup over the
    baseline adjacency-list kernel on the dense 256-spin problem, and
    >= 1.5x at 512 spins (sparse);
  * (the PIMC/SVMC engine reads have one kernel, so their anneal_read/*
    rows carry no ratio floor; the --history walk tracks the PIMC-16 read
    and the served 16-read PIMC-8 submission)
  * the all-cores 16-read batch is strictly faster than the serial batch
    when the measuring machine actually has multiple cores (the `machine`
    stanza says so); on a single-core box the comparison is pure scheduler
    noise, so only a generous no-pathological-overhead floor (>= 0.85x)
    is enforced;
  * every measurement is positive.
  With --kernels-baseline OLD.json (e.g. the committed file before a
  re-measurement), prints an old-vs-new delta table for every measurement
  name the two files share — informational, not a gate.

BENCH_stream.json
  * every cell's rates are in [0, 1], latencies ordered (p99 >= p50 > 0),
    and served frames add up;
  * warm-started SA reaches cold-start solution quality in no more sweeps
    than the cold start at coherence rho >= 0.5, and in *strictly fewer*
    sweeps at rho >= 0.9 (the streaming warm-start payoff; at rho ~ 0 the
    previous decision carries no information, so no ordering is required);
  * for the non-adaptive policies (always-classical / always-hybrid), the
    deadline-miss rate is monotone non-decreasing in offered load (shorter
    arrival period) at fixed rho.  The deadline-aware policy re-routes by
    queue state, so its miss rate is exempt by design.

BENCH_ber.json
  * the report covers >= 3 detector families with at least one
    QUBO/anneal-backed arm, every curve is non-empty, and every rate is a
    probability.

hqw_manifest.json (--manifest, checked when the file is given)
  * the `hqw list --json` registry manifest is well-formed: a spec_version,
    unique experiment names with non-empty descriptions, and exactly the 12
    registered experiments: the five grids (ber/stream/fabric/fabric-rt/
    sched) plus the seven paper figures (fig3, fig4-softinfo,
    fig5-schedules, fig6, fig7, fig8, headline).

BENCH_fabric_rt.json
  * every realtime point's rates are in [0, 1], wall-clock latency
    percentiles ordered (p99.9 >= p99 >= p50 > 0), sustained throughput
    and scheduler decision cost positive (decision cost under 1 ms/job —
    the control plane must stay off the data path's critical path);
  * replay_divergences == 0 on every point: the service's routing
    decisions replayed bit-exactly through the virtual-time sim.  This is
    the realtime CI contract (re-checked independently by `hqw replay` in
    the realtime-replay job).

--history (standalone mode)
  * walks the committed BENCH_*.json files across git history and prints a
    perf-trajectory table (one row per commit that touched a BENCH file);
    its pimc16 column is the PIMC-16 engine read's ns/iter
    (anneal_read/ra_pimc16/64) and its pimc8x16 column the served shape's,
    detect-ra's 16-read PIMC-8 submission (anneal_read/ra_pimc8_16reads/16),
    and its pimc8x1 column the same submission with one read
    (anneal_read/ra_pimc8_1read/16, the per-submission fixed cost); its
    ra060x16 and ra055x16 columns the 16-read submission at s_p 0.60 and
    0.55, where reverse reads flip many times
    (anneal_read/ra_pimc8_16reads_sp0{60,55}/16), and its fa8x16 column
    the paper's 16-read FA on the same frame
    (anneal_read/fa_pimc8_16reads/16); its mockqpu and sajob columns are
    fabric-hybrid's two served kernels, the mock QPU's 4-read forward
    PIMC-8 job (anneal_read/fa_mockqpu_pimc8/32) and the SA pool's job
    (sa_job/48x2/8); its prog16 column the served frame's QUBO -> CSR
    build (program/qubo_to_csr/16) and its embed8 column the mock QPU's
    programming of an 8-variable job, that build plus the clique embedding
    onto C2 (program/embed_c2/8); its reduce16 column the ML -> QUBO
    reduction of detect-ra's 8-user frame (program/reduce_qubo/16); its
    raframe column detect-ra's whole served frame, the hybrid solve plus
    the decision's relabel, per frame over 2,000 frames
    (served/detect_ra_frame/16); "-" where a commit did not record it;
  * gates that the *newest* committed BENCH_kernels.json still holds the
    dense-256 SA sweep-kernel speedup floor (>= 3x, the same floor the
    fresh-measurement gate applies) — history may wander, the present may
    not.

BENCH_fabric.json
  * every point's rates are in [0, 1], latencies ordered (p99 >= p50 > 0),
    per-backend utilization is in [0, 1], batch histograms account for
    exactly the jobs served, and backend jobs + classical fallbacks add up
    to the offered total;
  * mock-QPU backends that ran batches derived each embedding shape exactly
    once (cache misses >= 1, hits + misses == batch calls);
  * the *degraded-service* rate (served-job deadline misses + classical
    fallbacks — disjoint job sets, so a true rate) is monotone
    non-decreasing in offered load (shorter arrival period) at fixed
    (mix, cell count).  The raw miss rate alone is exempt for the same
    reason the stream gate exempts the deadline-aware policy: the fabric's
    admission control re-routes overload to the fast local fallback, which
    *lowers* misses as load grows;
  * at every (cell count, load), the batched mock-QPU mix's charged
    service per served job (backend busy time / jobs) is no worse than the
    unbatched mix's — batch formation amortizes network + programming +
    embedding overhead across the batch — strictly better wherever batches
    actually formed, and the batched mix falls back no more often (its
    amortized capacity admits more of the offered load).  Mean *end-to-end*
    served latency is deliberately not compared: admission control gives
    the two arms different served populations (the unbatched arm rejects
    most overload and serves a fast-path minority), so that comparison
    carries survivor bias;
  * at least one point actually formed a multi-job batch.

BENCH_sched.json (--sched, standalone mode)
  * the static-vs-adaptive scheduling comparison: every point's rates are
    probabilities, latency percentiles ordered, per-class accounting covers
    every job;
  * on the *calibrated* workload the adaptive arm is identical to the
    static arm, point for point — the learned identity correction is a
    bitwise no-op;
  * on the *mispredicted* workload (admission quotes from a cost model
    that underestimates sweep cost 10x) the adaptive arm's misses and p99
    are <= the static arm's, strictly better on at least one — the
    learned scheduler must dominate the static one exactly where the
    static model is wrong;
  * class tails are ordered on every summary row
    (URLLC p99 <= eMBB p99 <= Bulk p99) and the adaptive arm surfaces a
    positive prediction error under miscalibration;
  * preemption counts are consistent with the class mix: a single-class
    row never preempts, the calibrated arms preempt identically, and a
    multi-class overloaded grid preempts somewhere.

--telemetry-trace TRACE.json [--telemetry-bench BENCH_fabric_rt.json]
  (standalone mode)
  * the Chrome trace-event document is well-formed: only M/X/i/C phases,
    non-negative timestamps and durations, every span's (pid, tid) covered
    by process/thread name metadata;
  * per-job stage spans (enqueue -> admit -> form -> wait -> solve) are
    contained in their job's end-to-end span and their durations sum to no
    more than the end-to-end duration (small float slack) — the stage
    chain is contiguous by construction, so a violation means the spans
    lie about the lifecycle;
  * when --telemetry-bench is given, its TELEMETRY stanza has ordered
    percentiles (p50 <= p90 <= p99 <= max) per stage and end-to-end, all
    five realtime stages present with equal counts, and counter maxima
    present for the queue/utilization series.

--overhead ON.json OFF.json (standalone mode)
  * telemetry-on aggregate realtime throughput (sum of frames_per_sec over
    matched grid points) stays within 5% of the telemetry-off run — the
    observability plane must not tax the data path.

SHARD_*.json (via --shards, standalone mode)
  * every document is a well-formed ShardReport: bench == "shard",
    schema_version == 1, a 16-hex-digit fingerprint, a shardable
    experiment family (any registered experiment but fabric-rt), point_ids matching the embedded points exactly,
    all ids strictly increasing and inside [0, total_points);
  * across the group: one spec fingerprint, one (family, total_points),
    pairwise-disjoint point sets that together cover the full grid.

Usage: ci/check_bench.py [--kernels PATH] [--stream PATH] [--fabric PATH]
                         [--fabric-rt PATH] [--ber PATH] [--manifest PATH]
       ci/check_bench.py --sched BENCH_sched.json
       ci/check_bench.py --history
       ci/check_bench.py --shards SHARD.json [SHARD.json ...]
       ci/check_bench.py --telemetry-trace TRACE.json [--telemetry-bench PATH]
       ci/check_bench.py --overhead ON.json OFF.json
"""

import argparse
import json
import subprocess
import sys

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)


# (derived key, floor, description) gates for BENCH_kernels.json.
KERNEL_RATIO_FLOORS = [
    ("sa_sweep_speedup_256", 3.0, "dense-256 SA sweep kernel"),
    ("sa_sweep_speedup_512", 1.5, "sparse-512 SA sweep kernel"),
]


def check_kernels(path, baseline_path=None):
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "kernels", f"{path}: wrong bench tag")
    results = bench.get("results", [])
    check(bool(results), f"{path}: no kernel measurements")
    for r in results:
        check(r["ns_per_iter"] > 0, f"{path}: non-positive time for {r['name']}")
    derived = bench.get("derived", {})
    for key, floor, what in KERNEL_RATIO_FLOORS:
        ratio = derived.get(key)
        check(ratio is not None, f"{path}: missing derived.{key}")
        if ratio is not None:
            check(
                ratio >= floor,
                f"{path}: {what} speedup regressed to {ratio}x "
                f"(floor: {floor}x)",
            )

    # The serial-vs-all-cores comparison only means something on a machine
    # with more than one core; the emitter records what it ran on.
    machine = bench.get("machine", {})
    check(bool(machine), f"{path}: missing machine stanza")
    cores = machine.get("available_parallelism", 0)
    par = derived.get("parallel_16reads_speedup_256")
    check(par is not None, f"{path}: missing derived.parallel_16reads_speedup_256")
    if par is not None:
        if cores > 1:
            check(
                par > 1.0,
                f"{path}: all-cores 16-read batch not strictly faster than "
                f"serial ({par}x on {cores} cores)",
            )
        else:
            check(
                par >= 0.85,
                f"{path}: single-core fan-out overhead out of the noise "
                f"band ({par}x; floor 0.85x)",
            )

    if baseline_path is not None:
        _print_kernel_deltas(baseline_path, path, results)

    print(
        f"{path}: {len(results)} measurements OK "
        f"(dense-256 sweep kernel {derived.get('sa_sweep_speedup_256')}x, "
        f"{cores}-core box)"
    )


def _print_kernel_deltas(baseline_path, path, results):
    """Old-vs-new per-measurement table (informational, never a gate)."""
    with open(baseline_path) as f:
        old_bench = json.load(f)
    old = {r["name"]: r["ns_per_iter"] for r in old_bench.get("results", [])}
    shared = [r for r in results if r["name"] in old]
    if not shared:
        print(f"{path}: no measurement names shared with {baseline_path}")
        return
    if all(old[r["name"]] == r["ns_per_iter"] for r in shared):
        print(f"{path}: identical to committed baseline {baseline_path}")
        return
    print(f"{path}: deltas vs {baseline_path} (negative = faster now):")
    name_w = max(len(r["name"]) for r in shared)
    print(f"  {'name':<{name_w}} {'old ns':>12} {'new ns':>12} {'delta':>8}")
    for r in shared:
        o, n = old[r["name"]], r["ns_per_iter"]
        delta = 100.0 * (n - o) / o
        print(f"  {r['name']:<{name_w}} {o:>12.0f} {n:>12.0f} {delta:>+7.1f}%")
    for r in results:
        if r["name"] not in old:
            print(f"  {r['name']:<{name_w}} {'-':>12} {r['ns_per_iter']:>12.0f}      new")


def check_ber(path):
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "ber", f"{path}: wrong bench tag")
    series = bench.get("series", [])
    check(len(series) >= 3, f"{path}: need >= 3 detectors, got {len(series)}")
    check(
        any(s.get("qubo_backed") for s in series),
        f"{path}: no QUBO/anneal-backed arm",
    )
    for s in series:
        tag = f"{path}: [{s.get('detector', '?')}]"
        check(bool(s.get("points")), f"{tag} empty curve")
        for p in s.get("points", []):
            check(
                0.0 <= p["ber"] <= 1.0,
                f"{tag} BER {p['ber']} out of range at {p['snr_db']} dB",
            )
            check(
                0.0 <= p["bler"] <= 1.0,
                f"{tag} BLER {p['bler']} out of range at {p['snr_db']} dB",
            )
    print(f"{path}: {len(series)} detector curves OK")


# Every registered experiment: the five grids plus the seven paper figures.
REGISTRY_NAMES = {
    "ber", "stream", "fabric", "fabric-rt", "sched",
    "fig3", "fig4-softinfo", "fig5-schedules", "fig6", "fig7", "fig8", "headline",
}


def check_manifest(path):
    with open(path) as f:
        manifest = json.load(f)
    check(
        isinstance(manifest.get("spec_version"), int),
        f"{path}: missing integer spec_version",
    )
    experiments = manifest.get("experiments", [])
    names = [e.get("name") for e in experiments]
    check(len(set(names)) == len(names), f"{path}: duplicate experiment names")
    check(
        set(names) == REGISTRY_NAMES,
        f"{path}: registry is {sorted(names)}, expected {sorted(REGISTRY_NAMES)}",
    )
    for e in experiments:
        check(
            bool(e.get("name")) and bool(e.get("description")),
            f"{path}: entry {e} needs a name and a description",
        )
    print(f"{path}: {len(experiments)} registered experiments OK")


def check_stream(path):
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "stream", f"{path}: wrong bench tag")
    cells = bench.get("cells", [])
    check(bool(cells), f"{path}: no stream cells")

    frames = bench["scenario"]["frames"]
    for c in cells:
        tag = f"{path}: [{c['policy']} rho={c['rho']} period={c['arrival_period_us']}]"
        check(0.0 <= c["ber"] <= 1.0, f"{tag} BER {c['ber']} out of range")
        check(
            0.0 <= c["deadline_miss_rate"] <= 1.0,
            f"{tag} miss rate {c['deadline_miss_rate']} out of range",
        )
        check(
            c["p99_latency_us"] >= c["p50_latency_us"] > 0.0,
            f"{tag} latency percentiles disordered",
        )
        check(c["throughput_per_ms"] > 0.0, f"{tag} non-positive throughput")
        check(
            c["classical_frames"] + c["hybrid_frames"] == frames,
            f"{tag} served frames do not add up",
        )
        if c["warm_pairs"] > 0:
            warm, cold = c["warm_sweeps_to_solution"], c["cold_sweeps_to_solution"]
            if c["rho"] >= 0.9:
                check(
                    warm < cold,
                    f"{tag} warm starts must beat cold strictly at high "
                    f"coherence: warm {warm} vs cold {cold}",
                )
            elif c["rho"] >= 0.5:
                check(
                    warm <= cold,
                    f"{tag} warm starts regressed: warm {warm} vs cold {cold}",
                )

    # Miss-rate monotonicity in offered load for the non-adaptive policies.
    groups = {}
    for c in cells:
        if c["policy"] in ("always-classical", "always-hybrid"):
            groups.setdefault((c["policy"], c["rho"]), []).append(c)
    for (policy, rho), group in sorted(groups.items()):
        group.sort(key=lambda c: -c["arrival_period_us"])  # increasing load
        rates = [c["deadline_miss_rate"] for c in group]
        check(
            all(a <= b for a, b in zip(rates, rates[1:])),
            f"{path}: [{policy} rho={rho}] miss rate not monotone in load: {rates}",
        )
    n_high = sum(1 for c in cells if c["rho"] >= 0.9 and c["warm_pairs"] > 0)
    check(n_high > 0, f"{path}: no high-coherence cells exercise warm starts")
    print(f"{path}: {len(cells)} cells OK ({n_high} high-coherence warm-start cells)")


def check_fabric(path):
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "fabric", f"{path}: wrong bench tag")
    points = bench.get("points", [])
    check(bool(points), f"{path}: no fabric points")

    frames_per_cell = bench["scenario"]["frames_per_cell"]
    any_batched = False
    for p in points:
        tag = f"{path}: [{p['mix']} cells={p['n_cells']} period={p['arrival_period_us']}]"
        check(p["jobs"] == frames_per_cell * p["n_cells"], f"{tag} wrong job count")
        for rate in ("ber", "deadline_miss_rate", "fallback_rate", "served_miss_rate"):
            check(0.0 <= p[rate] <= 1.0, f"{tag} {rate} {p[rate]} out of range")
        check(
            p["served_miss_rate"] + p["fallback_rate"] <= 1.0 + 1e-12,
            f"{tag} served misses and fallbacks overlap",
        )
        check(
            p["served_miss_rate"] <= p["deadline_miss_rate"] + 1e-12,
            f"{tag} served-miss rate exceeds the overall miss rate",
        )
        check(
            p["p99_latency_us"] >= p["p50_latency_us"] > 0.0,
            f"{tag} latency percentiles disordered",
        )
        backend_jobs = sum(b["jobs"] for b in p["backends"])
        fallback_jobs = round(p["fallback_rate"] * p["jobs"])
        check(
            backend_jobs + fallback_jobs == p["jobs"],
            f"{tag} backend jobs + fallbacks != offered jobs",
        )
        for b in p["backends"]:
            btag = f"{tag} {b['name']}"
            check(
                0.0 <= b["utilization"] <= 1.0,
                f"{btag} utilization {b['utilization']} out of [0, 1]",
            )
            hist_jobs = sum((i + 1) * c for i, c in enumerate(b["batch_histogram"]))
            check(hist_jobs == b["jobs"], f"{btag} batch histogram loses jobs")
            if b["mean_batch"] > 1.0:
                any_batched = True
            if b["name"] == "mock-qpu" and b["batches"] > 0:
                check(
                    b["embed_cache_misses"] >= 1,
                    f"{btag} served batches without deriving an embedding",
                )
                check(
                    b["embed_cache_hits"] + b["embed_cache_misses"] == b["batches"],
                    f"{btag} cache lookups != batch calls",
                )
    check(any_batched, f"{path}: no point ever formed a multi-job batch")

    # Degraded-service monotonicity in offered load at fixed (mix, cells).
    groups = {}
    for p in points:
        groups.setdefault((p["mix"], p["n_cells"]), []).append(p)
    for (mix, cells), group in sorted(groups.items()):
        group.sort(key=lambda p: -p["arrival_period_us"])  # increasing load
        # served_miss_rate and fallback_rate are disjoint job sets, so this
        # is a true rate (<= 1): the fraction of jobs the fabric did not
        # serve within budget.
        degraded = [p["served_miss_rate"] + p["fallback_rate"] for p in group]
        check(
            all(a <= b + 1e-12 for a, b in zip(degraded, degraded[1:])),
            f"{path}: [{mix} cells={cells}] degraded-service rate not "
            f"monotone in load: {degraded}",
        )

    # Batched mock-QPU must beat (or match) unbatched at equal load.
    qpu = {}
    for p in points:
        if p["mix"] in ("qpu-batched", "qpu-unbatched"):
            qpu.setdefault((p["n_cells"], p["arrival_period_us"]), {})[p["mix"]] = p
    pairs = 0
    for (cells, period), arms in sorted(qpu.items()):
        if len(arms) != 2:
            continue
        pairs += 1
        batched, unbatched = arms["qpu-batched"], arms["qpu-unbatched"]
        b_qpu = batched["backends"][0]
        u_qpu = unbatched["backends"][0]
        if b_qpu["jobs"] > 0 and u_qpu["jobs"] > 0:
            amortized = b_qpu["mean_service_us"] <= u_qpu["mean_service_us"]
            if b_qpu["mean_batch"] > 1.0:
                amortized = b_qpu["mean_service_us"] < u_qpu["mean_service_us"]
            check(
                amortized,
                f"{path}: [cells={cells} period={period}] batched QPU charged "
                f"{b_qpu['mean_service_us']} us/job (mean batch "
                f"{b_qpu['mean_batch']}), not amortizing vs unbatched "
                f"{u_qpu['mean_service_us']} us/job",
            )
        check(
            batched["fallback_rate"] <= unbatched["fallback_rate"],
            f"{path}: [cells={cells} period={period}] batched QPU falls back "
            f"more ({batched['fallback_rate']}) than unbatched "
            f"({unbatched['fallback_rate']})",
        )
    check(pairs > 0, f"{path}: no batched-vs-unbatched QPU pairs to compare")
    print(f"{path}: {len(points)} points OK ({pairs} batched-vs-unbatched pairs)")


def check_fabric_rt(path):
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "fabric-rt", f"{path}: wrong bench tag")
    points = bench.get("points", [])
    check(bool(points), f"{path}: no realtime points")

    frames_per_cell = bench["scenario"]["frames_per_cell"]
    for p in points:
        tag = f"{path}: [{p['mix']} cells={p['n_cells']} period={p['arrival_period_us']}]"
        check(p["jobs"] == frames_per_cell * p["n_cells"], f"{tag} wrong job count")
        for rate in ("ber", "fallback_rate"):
            check(0.0 <= p[rate] <= 1.0, f"{tag} {rate} {p[rate]} out of range")
        check(p["frames_per_sec"] > 0.0, f"{tag} non-positive throughput")
        check(
            p["p999_ms"] >= p["p99_ms"] >= p["p50_ms"] > 0.0,
            f"{tag} wall-clock latency percentiles disordered",
        )
        # The charge-only control plane must stay cheap: a scheduling
        # decision is virtual bookkeeping, never a solve.
        check(
            0.0 < p["decision_ns_per_job"] < 1e6,
            f"{tag} scheduler decision cost {p['decision_ns_per_job']} ns/job "
            f"out of the sane band (0, 1 ms)",
        )
        check(
            p["replay_divergences"] == 0,
            f"{tag} {p['replay_divergences']} routing decision(s) diverged "
            f"from the virtual-time sim",
        )
    peak = max(p["frames_per_sec"] for p in points)
    print(f"{path}: {len(points)} realtime points OK (peak {peak:.0f} frames/s)")


# Urgency order of the scheduling plane's priority classes: tails must be
# ordered this way on every (workload, arm) summary row.
SCHED_CLASS_ORDER = ("urllc", "embb", "bulk")


def check_sched(path):
    """Validate a BENCH_sched.json static-vs-adaptive comparison document."""
    with open(path) as f:
        bench = json.load(f)
    check(bench.get("bench") == "sched", f"{path}: wrong bench tag")
    points = bench.get("points", [])
    check(bool(points), f"{path}: no sched points")

    frames_per_cell = bench["scenario"]["frames_per_cell"]
    for p in points:
        tag = (
            f"{path}: [{p['workload']} cells={p['n_cells']} "
            f"period={p['arrival_period_us']}]"
        )
        for arm in ("static", "adaptive"):
            r = p[arm]
            atag = f"{tag} {arm}"
            check(
                r["jobs"] == frames_per_cell * p["n_cells"],
                f"{atag}: wrong job count",
            )
            for rate in ("ber", "deadline_miss_rate", "fallback_rate"):
                check(
                    0.0 <= r[rate] <= 1.0, f"{atag}: {rate} {r[rate]} out of range"
                )
            check(
                r["p99_latency_us"] >= r["p50_latency_us"] > 0.0,
                f"{atag}: latency percentiles disordered",
            )
            classes = r.get("classes", [])
            check(bool(classes), f"{atag}: no per-class accounting")
            check(
                sum(c["jobs"] for c in classes) == r["jobs"],
                f"{atag}: per-class jobs do not cover the run",
            )
            for c in classes:
                check(
                    c["misses"] <= c["jobs"],
                    f"{atag}: class {c['class']} misses exceed its jobs",
                )
        # The static policy never learns, so it must report zero
        # prediction error (the key is omitted at zero).
        check(
            p["static"].get("prediction_mae_us", 0.0) == 0.0,
            f"{tag}: static arm claims a learned prediction error",
        )
        if p["workload"] == "calibrated":
            check(
                p["static"] == p["adaptive"],
                f"{tag}: calibrated arms diverge — the identity correction "
                f"must be a bitwise no-op",
            )

    check(
        any(
            p["adaptive"].get("prediction_mae_us", 0.0) > 0.0
            for p in points
            if p["workload"] == "mispredicted"
        ),
        f"{path}: adaptive arm surfaces no prediction error under "
        f"miscalibration",
    )

    summary = bench.get("summary", [])
    rows = {(a["workload"], a["arm"]): a for a in summary}
    check(
        len(rows) == len(summary) == 4,
        f"{path}: expected 4 summary rows (2 workloads x 2 arms), "
        f"got {len(summary)}",
    )
    multi_class = False
    for a in summary:
        tag = f"{path}: [{a['workload']}/{a['arm']}]"
        check(
            sum(c["jobs"] for c in a["classes"]) == a["jobs"],
            f"{tag} summary classes do not cover the arm's jobs",
        )
        if len(a["classes"]) >= 2:
            multi_class = True
        else:
            check(
                a["preemptions"] == 0,
                f"{tag} preempted {a['preemptions']} job(s) with a single "
                f"class — nothing outranks anything",
            )
        p99s = {c["class"]: c["p99_latency_us"] for c in a["classes"]}
        present = [name for name in SCHED_CLASS_ORDER if name in p99s]
        for hi, lo in zip(present, present[1:]):
            check(
                p99s[hi] <= p99s[lo],
                f"{tag} class tails disordered: {hi} p99 {p99s[hi]} > "
                f"{lo} p99 {p99s[lo]}",
            )

    cal_static = rows.get(("calibrated", "static"))
    cal_adaptive = rows.get(("calibrated", "adaptive"))
    if cal_static and cal_adaptive:
        for key in ("jobs", "misses", "fallback_rate", "p99_latency_us", "preemptions"):
            check(
                cal_static[key] == cal_adaptive[key],
                f"{path}: calibrated summaries differ on {key} "
                f"({cal_static[key]} vs {cal_adaptive[key]})",
            )

    mis_static = rows.get(("mispredicted", "static"))
    mis_adaptive = rows.get(("mispredicted", "adaptive"))
    if mis_static and mis_adaptive:
        check(
            mis_adaptive["misses"] <= mis_static["misses"],
            f"{path}: adaptive misses {mis_adaptive['misses']} exceed static "
            f"{mis_static['misses']} on the mispredicted workload",
        )
        check(
            mis_adaptive["p99_latency_us"] <= mis_static["p99_latency_us"],
            f"{path}: adaptive p99 {mis_adaptive['p99_latency_us']} us exceeds "
            f"static {mis_static['p99_latency_us']} us on the mispredicted "
            f"workload",
        )
        check(
            mis_adaptive["misses"] < mis_static["misses"]
            or mis_adaptive["p99_latency_us"] < mis_static["p99_latency_us"],
            f"{path}: adaptive does not strictly beat static anywhere on the "
            f"mispredicted workload",
        )

    if multi_class:
        check(
            sum(a["preemptions"] for a in summary) > 0,
            f"{path}: a multi-class overloaded grid never preempted",
        )
    if not failures:
        print(
            f"{path}: {len(points)} points OK (mispredicted misses "
            f"{mis_adaptive['misses']} adaptive vs {mis_static['misses']} "
            f"static; p99 {mis_adaptive['p99_latency_us']} vs "
            f"{mis_static['p99_latency_us']} us)"
        )


# The realtime frame lifecycle, in pipeline order. The sequencer emits the
# first three stages, the worker lanes the last two; together they tile the
# delivered -> completed interval exactly.
RT_STAGES = ("enqueue", "admit", "form", "wait", "solve")

# Absolute slack (µs) for float round-off when comparing span arithmetic.
SPAN_SLACK_US = 1.0


def check_telemetry(trace_path, bench_path=None):
    """Validate a Chrome trace-event file (and optionally the TELEMETRY
    stanza of the BENCH_fabric_rt.json emitted by the same run)."""
    with open(trace_path) as f:
        doc = json.load(f)
    check(
        doc.get("displayTimeUnit") == "ms",
        f"{trace_path}: missing displayTimeUnit",
    )
    events = doc.get("traceEvents", [])
    check(bool(events), f"{trace_path}: no trace events")
    for e in events:
        check(
            e.get("ph") in ("M", "X", "i", "C"),
            f"{trace_path}: unexpected event phase {e.get('ph')!r}",
        )
        if e.get("ph") != "M":
            check(
                e.get("ts", -1.0) >= 0.0,
                f"{trace_path}: negative timestamp on {e.get('name')!r}",
            )

    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    check(bool(spans), f"{trace_path}: no span events")
    named_pids = set()
    named_threads = set()
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            named_pids.add(e["pid"])
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            named_threads.add((e["pid"], e["tid"]))
    for e in spans:
        check(
            e.get("dur", -1.0) >= 0.0,
            f"{trace_path}: negative duration on {e.get('name')!r}",
        )
        check(
            e["pid"] in named_pids,
            f"{trace_path}: span {e.get('name')!r} in unnamed process {e['pid']}",
        )
        check(
            (e["pid"], e["tid"]) in named_threads,
            f"{trace_path}: span {e.get('name')!r} on unnamed thread "
            f"({e['pid']}, {e['tid']})",
        )

    # Per-job stage chains vs their end-to-end span.
    stage_spans = {}  # (pid, job) -> {stage: (ts, dur)}
    job_spans = {}  # (pid, job) -> (ts, dur)
    for e in spans:
        job = e.get("args", {}).get("job")
        if job is None:
            continue
        key = (e["pid"], job)
        if e.get("cat") == "stage":
            check(
                e["name"] not in stage_spans.get(key, {}),
                f"{trace_path}: duplicate stage {e['name']!r} for job {key}",
            )
            stage_spans.setdefault(key, {})[e["name"]] = (e["ts"], e["dur"])
        elif e.get("cat") == "job":
            check(job_spans.get(key) is None, f"{trace_path}: duplicate job span {key}")
            job_spans[key] = (e["ts"], e["dur"])
    checked_jobs = 0
    for key, stages in stage_spans.items():
        if key not in job_spans:
            continue
        checked_jobs += 1
        job_ts, job_dur = job_spans[key]
        stage_sum = 0.0
        for stage, (ts, dur) in stages.items():
            stage_sum += dur
            check(
                ts >= job_ts - SPAN_SLACK_US
                and ts + dur <= job_ts + job_dur + SPAN_SLACK_US,
                f"{trace_path}: stage {stage!r} of job {key} "
                f"[{ts}, {ts + dur}] escapes its end-to-end span "
                f"[{job_ts}, {job_ts + job_dur}]",
            )
        check(
            stage_sum <= job_dur * (1.0 + 1e-9) + SPAN_SLACK_US,
            f"{trace_path}: job {key} stage durations sum to {stage_sum} us, "
            f"more than the end-to-end {job_dur} us",
        )
    check(checked_jobs > 0, f"{trace_path}: no job carries both stage and job spans")

    if bench_path is not None:
        _check_telemetry_stanza(bench_path)

    print(
        f"{trace_path}: {len(spans)} spans over {checked_jobs} jobs, "
        f"{len(counters)} counter samples OK"
    )


def _check_telemetry_stanza(bench_path):
    """Validate the TELEMETRY stanza a --telemetry realtime run embeds."""
    with open(bench_path) as f:
        bench = json.load(f)
    stanza = bench.get("telemetry")
    check(stanza is not None, f"{bench_path}: no telemetry stanza")
    if stanza is None:
        return
    check(stanza.get("spans", 0) > 0, f"{bench_path}: telemetry saw no spans")
    check(stanza.get("samples", 0) > 0, f"{bench_path}: sampler took no readings")
    stages = {s["stage"]: s for s in stanza.get("stages", [])}
    for name in RT_STAGES:
        check(name in stages, f"{bench_path}: telemetry stage {name!r} missing")
    counts = {s["count"] for s in stages.values()}
    check(
        len(counts) <= 1,
        f"{bench_path}: stage counts differ {sorted(counts)} — the lifecycle "
        f"must record every stage once per job",
    )
    for entry in list(stanza.get("stages", [])) + [stanza.get("end_to_end", {})]:
        name = entry.get("stage", "?")
        check(entry.get("count", 0) > 0, f"{bench_path}: [{name}] empty histogram")
        check(
            0.0 <= entry.get("p50_us", -1.0)
            <= entry.get("p90_us", -1.0)
            <= entry.get("p99_us", -1.0)
            <= entry.get("max_us", -1.0),
            f"{bench_path}: [{name}] percentiles disordered: {entry}",
        )
    counter_names = {c["name"] for c in stanza.get("counters", [])}
    for series in ("in_flight",):
        check(
            series in counter_names,
            f"{bench_path}: counter series {series!r} missing from telemetry",
        )


# One-sided floor: telemetry-on aggregate throughput vs telemetry-off.
OVERHEAD_FLOOR = 0.95


def check_overhead(on_path, off_path):
    """Gate the observability tax: a --telemetry realtime run must keep at
    least OVERHEAD_FLOOR of the plain run's aggregate throughput."""

    def points_by_key(path):
        with open(path) as f:
            bench = json.load(f)
        check(bench.get("bench") == "fabric-rt", f"{path}: wrong bench tag")
        return {
            (p["mix"], p["n_cells"], p["arrival_period_us"]): p
            for p in bench.get("points", [])
        }

    on, off = points_by_key(on_path), points_by_key(off_path)
    shared = sorted(set(on) & set(off))
    check(bool(shared), f"--overhead: {on_path} and {off_path} share no grid points")
    check(
        set(on) == set(off),
        f"--overhead: {on_path} and {off_path} cover different grids",
    )
    if not shared:
        return
    total_on = sum(on[k]["frames_per_sec"] for k in shared)
    total_off = sum(off[k]["frames_per_sec"] for k in shared)
    ratio = total_on / total_off if total_off > 0 else 0.0
    check(
        ratio >= OVERHEAD_FLOOR,
        f"--overhead: telemetry-on throughput is {ratio:.3f}x of the plain "
        f"run (floor: {OVERHEAD_FLOOR}x) — observation is taxing the data path",
    )
    print(
        f"telemetry overhead OK: {len(shared)} points, on/off aggregate "
        f"throughput ratio {ratio:.3f}x (floor {OVERHEAD_FLOOR}x)"
    )


# Experiment families `hqw run --shard` can produce documents for: every
# registered experiment but the wall-clock realtime fabric.
SHARDABLE_FAMILIES = REGISTRY_NAMES - {"fabric-rt"}


def check_shard(paths):
    """Validate a group of ShardReport documents as one shard partition."""
    docs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        check(doc.get("bench") == "shard", f"{path}: bench != 'shard'")
        check(
            doc.get("schema_version") == 1,
            f"{path}: schema_version {doc.get('schema_version')} != 1",
        )
        fingerprint = doc.get("fingerprint", "")
        check(
            len(fingerprint) == 16
            and all(c in "0123456789abcdef" for c in fingerprint),
            f"{path}: fingerprint '{fingerprint}' is not 16 lowercase hex digits",
        )
        check(
            doc.get("experiment") in SHARDABLE_FAMILIES,
            f"{path}: experiment '{doc.get('experiment')}' is not shardable",
        )
        shard = doc.get("shard", {})
        index, count = shard.get("index"), shard.get("count")
        check(
            isinstance(index, int) and isinstance(count, int) and 1 <= index <= count,
            f"{path}: bad shard selector {shard}",
        )
        total = doc.get("total_points")
        check(isinstance(total, int) and total > 0, f"{path}: bad total_points {total}")
        point_ids = doc.get("point_ids", [])
        body_ids = [p.get("id") for p in doc.get("points", [])]
        check(
            point_ids == body_ids,
            f"{path}: point_ids header does not match the points array",
        )
        check(
            all(isinstance(i, int) and 0 <= i < total for i in point_ids),
            f"{path}: point id(s) outside [0, {total})",
        )
        check(
            point_ids == sorted(set(point_ids)),
            f"{path}: point ids are not strictly increasing",
        )
        docs.append((path, doc))

    if not docs:
        check(False, "--shards: no shard files given")
        return
    path0, doc0 = docs[0]
    key0 = (doc0.get("fingerprint"), doc0.get("experiment"), doc0.get("total_points"))
    for path, doc in docs[1:]:
        key = (doc.get("fingerprint"), doc.get("experiment"), doc.get("total_points"))
        check(
            key == key0,
            f"{path}: (fingerprint, experiment, total_points) {key} "
            f"differs from {path0}'s {key0}",
        )
    owner = {}
    for path, doc in docs:
        for i in doc.get("point_ids", []):
            check(
                i not in owner,
                f"point id {i} appears in both {owner.get(i)} and {path}",
            )
            owner[i] = path
    total = doc0.get("total_points") or 0
    missing = [i for i in range(total) if i not in owner]
    check(
        not missing,
        f"shard group misses point id(s) {missing[:8]} of 0..{total}",
    )
    if not failures:
        print(
            f"shards OK: {len(docs)} document(s) tile all {total} "
            f"{doc0.get('experiment')} grid points, fingerprint {key0[0]}"
        )


def _sched_summary(bench, workload, arm):
    """The (workload, arm) summary row of a BENCH_sched.json document."""
    for a in bench["summary"]:
        if a["workload"] == workload and a["arm"] == arm:
            return a
    return None


def _sched_class_p99(bench, workload, arm, name):
    """Per-class p99 from a BENCH_sched.json summary row, None if absent."""
    row = _sched_summary(bench, workload, arm)
    if row is None:
        return None
    for c in row["classes"]:
        if c["class"] == name:
            return c["p99_latency_us"]
    return None


def _stage_p50(bench, stage):
    """p50 of a telemetry stage, None when the run carried no telemetry
    (the committed BENCH files are generated without --telemetry)."""
    for s in bench["telemetry"]["stages"]:
        if s["stage"] == stage:
            return s["p50_us"]
    return None


def _result_ns(bench, name):
    """Best-of-repeats ns/iter of one kernel-bench measurement."""
    return next((r["ns_per_iter"] for r in bench["results"] if r["name"] == name), None)


# The committed BENCH files the --history walk tracks, with the metrics
# each contributes to the trajectory table (file, column, extractor).
HISTORY_COLUMNS = [
    ("BENCH_kernels.json", "exact256", lambda b: b["derived"]["sa_sweep_speedup_256"]),
    ("BENCH_kernels.json", "pimc16", lambda b: _result_ns(b, "anneal_read/ra_pimc16/64")),
    ("BENCH_kernels.json", "pimc8x16", lambda b: _result_ns(b, "anneal_read/ra_pimc8_16reads/16")),
    ("BENCH_kernels.json", "pimc8x1", lambda b: _result_ns(b, "anneal_read/ra_pimc8_1read/16")),
    ("BENCH_kernels.json", "ra060x16", lambda b: _result_ns(b, "anneal_read/ra_pimc8_16reads_sp060/16")),
    ("BENCH_kernels.json", "ra055x16", lambda b: _result_ns(b, "anneal_read/ra_pimc8_16reads_sp055/16")),
    ("BENCH_kernels.json", "fa8x16", lambda b: _result_ns(b, "anneal_read/fa_pimc8_16reads/16")),
    ("BENCH_kernels.json", "mockqpu", lambda b: _result_ns(b, "anneal_read/fa_mockqpu_pimc8/32")),
    ("BENCH_kernels.json", "sajob", lambda b: _result_ns(b, "sa_job/48x2/8")),
    ("BENCH_kernels.json", "prog16", lambda b: _result_ns(b, "program/qubo_to_csr/16")),
    ("BENCH_kernels.json", "embed8", lambda b: _result_ns(b, "program/embed_c2/8")),
    ("BENCH_kernels.json", "reduce16", lambda b: _result_ns(b, "program/reduce_qubo/16")),
    ("BENCH_kernels.json", "raframe", lambda b: _result_ns(b, "served/detect_ra_frame/16")),
    ("BENCH_fabric.json", "fab_pts", lambda b: len(b["points"])),
    ("BENCH_fabric_rt.json", "rt_pts", lambda b: len(b["points"])),
    ("BENCH_fabric_rt.json", "rt_fps", lambda b: max(p["frames_per_sec"] for p in b["points"])),
    ("BENCH_fabric_rt.json", "rt_dec_ns", lambda b: max(p["decision_ns_per_job"] for p in b["points"])),
    ("BENCH_fabric_rt.json", "solve_p50", lambda b: _stage_p50(b, "solve")),
    ("BENCH_fabric_rt.json", "wait_p50", lambda b: _stage_p50(b, "wait")),
    ("BENCH_fabric_rt.json", "e2e_p50", lambda b: b["telemetry"]["end_to_end"]["p50_us"]),
    ("BENCH_sched.json", "sch_ad_p99", lambda b: _sched_summary(b, "mispredicted", "adaptive")["p99_latency_us"]),
    ("BENCH_sched.json", "sch_st_p99", lambda b: _sched_summary(b, "mispredicted", "static")["p99_latency_us"]),
    ("BENCH_sched.json", "urllc_p99", lambda b: _sched_class_p99(b, "mispredicted", "adaptive", "urllc")),
    ("BENCH_sched.json", "embb_p99", lambda b: _sched_class_p99(b, "mispredicted", "adaptive", "embb")),
    ("BENCH_sched.json", "bulk_p99", lambda b: _sched_class_p99(b, "mispredicted", "adaptive", "bulk")),
]

# Floor the newest commit in the walk must hold (the committed state, as
# opposed to the fresh re-measurement the regular gate checks): the same
# dense-256 floor that gate applies.
HISTORY_EXACT256_FLOOR = dict((k, f) for k, f, _ in KERNEL_RATIO_FLOORS)["sa_sweep_speedup_256"]


def _git(*argv):
    return subprocess.run(
        ["git", *argv], check=True, capture_output=True, text=True
    ).stdout


def _show_json(sha, path):
    try:
        out = subprocess.run(
            ["git", "show", f"{sha}:{path}"], check=True, capture_output=True, text=True
        ).stdout
        return json.loads(out)
    except (subprocess.CalledProcessError, json.JSONDecodeError):
        return None


def check_history():
    """Prints the perf trajectory of every committed BENCH_*.json and gates
    the newest commit's dense-256 SA sweep-kernel speedup."""
    tracked = sorted({file for file, _, _ in HISTORY_COLUMNS})
    log = _git("log", "--format=%H|%h|%cs", "--", *tracked)
    commits = [line.split("|") for line in log.splitlines() if line]
    if not commits:
        check(False, "--history: no commits touch any BENCH_*.json")
        return
    commits.reverse()  # oldest first

    columns = [name for _, name, _ in HISTORY_COLUMNS]
    header = f"{'commit':<10} {'date':<11}" + "".join(f" {c:>10}" for c in columns)
    print("perf trajectory (committed BENCH_*.json across git history):")
    print(header)
    print("-" * len(header))
    newest_exact256 = None
    for sha, short, date in commits:
        docs = {file: _show_json(sha, file) for file in tracked}
        row = [f"{short:<10} {date:<11}"]
        for file, _, extract in HISTORY_COLUMNS:
            doc = docs[file]
            try:
                value = extract(doc) if doc is not None else None
            except (KeyError, TypeError, ValueError):
                value = None
            if value is None:
                row.append(f" {'-':>10}")
            elif isinstance(value, int):
                row.append(f" {value:>10}")
            else:
                row.append(f" {value:>10.1f}")
        print("".join(row))
        kernels = docs.get("BENCH_kernels.json")
        if kernels is not None:
            exact = kernels.get("derived", {}).get("sa_sweep_speedup_256")
            if exact is not None:
                newest_exact256 = exact

    check(
        newest_exact256 is not None,
        "--history: no commit carries derived.sa_sweep_speedup_256",
    )
    if newest_exact256 is not None:
        check(
            newest_exact256 >= HISTORY_EXACT256_FLOOR,
            f"--history: newest committed dense-256 SA sweep-kernel speedup "
            f"{newest_exact256}x under the {HISTORY_EXACT256_FLOOR}x floor",
        )
        print(
            f"\nnewest committed dense-256 SA sweep-kernel speedup: {newest_exact256}x "
            f"(floor: {HISTORY_EXACT256_FLOOR}x)"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", default="BENCH_kernels.json")
    parser.add_argument(
        "--kernels-baseline",
        default=None,
        help="older BENCH_kernels.json; prints an old-vs-new delta table",
    )
    parser.add_argument("--stream", default="BENCH_stream.json")
    parser.add_argument("--fabric", default="BENCH_fabric.json")
    parser.add_argument("--fabric-rt", default="BENCH_fabric_rt.json")
    parser.add_argument("--ber", default="BENCH_ber.json")
    parser.add_argument(
        "--manifest",
        default=None,
        help="hqw list --json output; registry shape is checked when given",
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help="standalone mode: print the committed BENCH_*.json perf "
        "trajectory across git history and gate the newest commit",
    )
    parser.add_argument(
        "--shards",
        nargs="+",
        default=None,
        metavar="SHARD.json",
        help="standalone mode: validate a group of hqw ShardReport "
        "documents (headers, fingerprints, exact grid coverage)",
    )
    parser.add_argument(
        "--telemetry-trace",
        default=None,
        metavar="TRACE.json",
        help="standalone mode: validate a Chrome trace-event file emitted "
        "by a --telemetry run (span nesting, stage-sum containment)",
    )
    parser.add_argument(
        "--telemetry-bench",
        default=None,
        metavar="PATH",
        help="with --telemetry-trace: also validate the TELEMETRY stanza "
        "of this BENCH_fabric_rt.json (ordered percentiles, all stages)",
    )
    parser.add_argument(
        "--overhead",
        nargs=2,
        default=None,
        metavar=("ON.json", "OFF.json"),
        help="standalone mode: gate telemetry-on vs telemetry-off "
        "aggregate realtime throughput (one-sided 5%% band)",
    )
    parser.add_argument(
        "--sched",
        default=None,
        metavar="BENCH_sched.json",
        help="standalone mode: gate the static-vs-adaptive scheduler "
        "comparison (calibrated byte-identity, adaptive dominance on the "
        "mispredicted workload, per-class tail ordering)",
    )
    args = parser.parse_args()

    if args.history:
        check_history()
    elif args.shards is not None:
        check_shard(args.shards)
    elif args.telemetry_trace is not None:
        check_telemetry(args.telemetry_trace, bench_path=args.telemetry_bench)
    elif args.overhead is not None:
        check_overhead(args.overhead[0], args.overhead[1])
    elif args.sched is not None:
        check_sched(args.sched)
    else:
        check_kernels(args.kernels, baseline_path=args.kernels_baseline)
        check_ber(args.ber)
        check_stream(args.stream)
        check_fabric(args.fabric)
        check_fabric_rt(args.fabric_rt)
        if args.manifest is not None:
            check_manifest(args.manifest)

    if failures:
        print(f"\nBENCH GATE FAILED ({len(failures)} violation(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("bench gate: all invariants hold")


if __name__ == "__main__":
    main()
