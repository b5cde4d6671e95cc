#!/usr/bin/env python3
"""Benchmark entry point for the ``repro`` simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every iteration of the workload runs in a
fresh process (:mod:`perfbench.iteration`) that imports ``repro`` from
``src/``; it repeats iterations until ``--seconds`` have passed
(at least three), checks every correctness gate, and prints one JSON
object as its last line:

* ``--trace 0`` — the end-to-end metrics of BENCHMARK.json, as medians
  over the iterations, measured with tracing off (``cluster_sharded``
  with its two shards in-process), times at reference host speed
  (:mod:`perfbench.calibrate`);
* ``--trace 1`` — the per-layer metrics: pairs of an untraced and a
  profiled iteration (plus, for ``cluster_sharded``, a forked iteration
  with the shard-window barriers timed), reported as medians.

``attempted``/``failed`` count the workload's operations (round trips,
tasks or requests) over all iterations; an iteration whose fingerprint
differs from the first one's counts as wholly failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
#: one iteration is about a second; a hung one must not outlive the
#: benchmark's own three-minute budget
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed gate)."""


def child(workload: str, seed: int, size: str, mode: str = "plain",
          serial: bool = False, windows: bool = False,
          calibrate: bool = False) -> dict:
    """Run one iteration in a fresh interpreter and return its JSON line."""
    cmd = [
        sys.executable, "-m", "perfbench.iteration",
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--mode", mode,
    ]
    if serial:
        cmd.append("--serial")
    if windows:
        cmd.append("--windows")
    if calibrate:
        cmd.append("--calibrate")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration timed out after {CHILD_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} iteration exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def spread(values) -> str:
    if len(values) < 2:
        return "n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


def gate_totals(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over runs of one workload, fingerprints included."""
    from perfbench.workloads import fingerprint_failures

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failed += fingerprint_failures(
        [r["fingerprint"] for r in runs], [r["attempted"] for r in runs]
    )
    return attempted, min(failed, attempted)


def report_fingerprint(workload: str, seed: int, size: str, fingerprint: str) -> None:
    """Compare with the fingerprint recorded in reference.json.  A mismatch
    is reported, not failed: a change may alter fingerprints if it says so."""
    ref = json.loads((HERE / "reference.json").read_text())
    recorded = ref["fingerprints"].get(workload, {}).get(str(seed)) if size == "full" else None
    if recorded is None:
        verdict = "no recorded fingerprint for this seed"
    elif recorded == fingerprint:
        verdict = "matches the recorded fingerprint"
    else:
        verdict = f"DIFFERS from the recorded {recorded[:16]}"
    print(f"fingerprint {workload} seed={seed}: {fingerprint[:16]} {verdict}")


def end_to_end(args) -> tuple[dict, list[dict]]:
    # The cluster's timed runs keep both shards in-process: with forked
    # shards, three processes on a 2-CPU shared host spread run_s by 20-57%
    # between runs.  The forked protocol is timed by --trace 1 (shard.*).
    serial = args.workload == "cluster_sharded"
    runs = []
    deadline = time.monotonic() + args.seconds
    took = 0.0
    # no iteration starts that the last one's length says would end past
    # the deadline
    while len(runs) < MIN_RUNS or time.monotonic() + took < deadline:
        start = time.monotonic()
        runs.append(child(args.workload, args.seed, args.size, serial=serial,
                          calibrate=True))
        took = time.monotonic() - start
    gated = list(runs)
    if args.workload == "node_tables":
        paper_err = statistics.median([r["paper_err_pct"] for r in runs])
    else:
        # The cluster and spin-polling worlds have no published reference:
        # accuracy is the Table I/II sweep at the same seed, run once
        # after the timed iterations.
        probe = child("node_tables", args.seed, args.size)
        paper_err = probe["paper_err_pct"]
        print(f"paper accuracy probe (node_tables sweep, seed {args.seed}): "
              f"{paper_err:.4f}%")
        gated.append(probe)
    for key in ("run_s", "setup_s", "peak_rss_mb", "run_wall_s", "setup_wall_s", "probe_s"):
        values = [r[key] for r in runs if key in r]
        if values:
            print(f"{args.workload} {key}: median {statistics.median(values):.6g} ({spread(values)})")
    metrics = {
        "run_s": statistics.median([r["run_s"] for r in runs]),
        "setup_s": statistics.median([r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "paper_err_pct": paper_err,
    }
    return metrics, gated


def traced(args) -> tuple[dict, list[dict]]:
    from perfbench import ledger

    cluster = args.workload == "cluster_sharded"
    plains, profiles, windows = [], [], []
    deadline = time.monotonic() + args.seconds
    while not profiles or time.monotonic() < deadline:
        # the cluster is profiled in-process (serial shards); its untraced
        # twin is serial too, so the overhead compares the same program
        plains.append(child(args.workload, args.seed, args.size, serial=cluster))
        profiles.append(child(args.workload, args.seed, args.size, "profile",
                              serial=cluster))
        if cluster:
            windows.append(child(args.workload, args.seed, args.size, windows=True))

    metrics: dict = {}
    coverages = []
    for p in profiles:
        coverages.append(ledger.coverage(p["ledger"], p["wall_s"]))
    for layer in ledger.LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median([p["ledger"][layer] for p in profiles])
    rows_total = sum(metrics[f"{layer}.self_s"] for layer in ledger.LAYERS)
    metrics["obs.share"] = metrics["obs.self_s"] / rows_total if rows_total else 0.0
    traced_wall = statistics.median([p["wall_s"] for p in profiles])
    untraced_wall = statistics.median([p["wall_s"] for p in plains])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall
    metrics["ledger.coverage"] = statistics.median(coverages)
    for key in profiles[0]["counts"]:
        metrics[key] = statistics.median([p["counts"][key] for p in profiles])
    for key in profiles[0]["setup_parts"]:
        metrics[key] = statistics.median([p["setup_parts"][key] for p in profiles])
    shard_keys = (
        "shard.windows", "shard.windows_per_virtual_ms",
        "shard.window_wait_p50_us", "shard.window_wait_p99_us",
        "shard.cross_frames", "shard.imbalance", "par.spawn_s",
    )
    for key in shard_keys:
        metrics[key] = statistics.median([w["shard"][key] for w in windows]) if windows else 0
    merges = windows if cluster else plains
    metrics["obs.merge_s"] = statistics.median([r["merge_s"] for r in merges])

    ok = abs(metrics["ledger.coverage"] - 1.0) <= ledger.COVERAGE_TOLERANCE
    print(
        f"ledger {args.workload}: rows sum to {metrics['ledger.coverage']:.4f} of "
        f"the traced wall {traced_wall:.4f} s (tolerance +/-"
        f"{ledger.COVERAGE_TOLERANCE:.0%}): {'ok' if ok else 'OUT OF TOLERANCE'}"
    )
    print(
        f"tracing overhead {args.workload}: {metrics['trace.overhead']:.3f}x "
        f"(traced {traced_wall:.4f} s / untraced {untraced_wall:.4f} s, "
        f"{len(profiles)} pair(s))"
    )
    for layer in ledger.LAYERS:
        share = metrics[f"{layer}.self_s"] / rows_total if rows_total else 0.0
        print(f"  {layer + '.self_s':<18} {metrics[layer + '.self_s']:10.4f} s  {share:6.1%}")
    write_spans(args, profiles + plains + windows)
    return metrics, plains + profiles + windows


def write_spans(args, runs: list[dict]) -> None:
    """Write the traced invocation's spans once the benchmark ends."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-{args.seed}.json"
    doc = [{"mode": r["mode"], "spans": r["spans"]} for r in runs]
    path.write_text(json.dumps(doc, indent=1))
    print(f"spans written to {path.relative_to(ROOT)}")


def select(declared: list[dict], values: dict) -> dict:
    """The declared metrics, by name with unit, in BENCHMARK.json order."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny runs exist for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path.name} not found at the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: src/repro is missing; run from a full checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    try:
        if args.trace:
            values, runs = traced(args)
            declared = spec["per_layer"]
        else:
            values, runs = end_to_end(args)
            declared = spec["end_to_end"]
        metrics = select(declared, values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    own = [r for r in runs if r["workload"] == args.workload]
    report_fingerprint(args.workload, args.seed, args.size, own[0]["fingerprint"])
    attempted, failed = gate_totals(own)
    for other in {r["workload"] for r in runs} - {args.workload}:
        a, f = gate_totals([r for r in runs if r["workload"] == other])
        attempted, failed = attempted + a, failed + f
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
