"""Tests of the benchmark itself: tiny-scale smoke runs and gate checks.

    python -m pytest perfbench/tests -q

Run from the repository root.  The smoke runs drive ``perfbench/run.py``
end to end at ``--size tiny``; the gate tests feed the gate functions
broken input and check that they trip.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, ledger, workloads  # noqa: E402
from perfbench.run import gate_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = last_json(bench("--workload", workload, "--seed", "3", "--seconds",
                          "0.1", "--trace", str(trace), "--size", "tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    assert abs(metrics["ledger.coverage"] - 1) <= ledger.COVERAGE_TOLERANCE
    if workload == "node_tables":
        assert metrics["leap.cycles_elided"] == 0
    if workload == "node_idle":
        assert metrics["leap.cycles_elided"] > 0
    if workload == "node_storm":
        assert metrics["faults.cancel_hits"] > 0
    if workload == "cluster_sharded":
        assert metrics["shard.windows"] > 0 and metrics["nmad.sends"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "node_idle", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fingerprint_gate_trips_on_a_differing_run():
    assert workloads.fingerprint_failures(["a", "a", "a"], [5, 5, 5]) == 0
    assert workloads.fingerprint_failures(["a", "b", "a"], [5, 5, 5]) == 5
    runs = [
        {"attempted": 5, "failed": 0, "fingerprint": fp} for fp in ("a", "a", "b")
    ]
    assert gate_totals(runs) == (15, 5)


def test_node_gate_trips_on_a_lost_or_pending_task():
    assert workloads.node_failures(10, 10, 8, 2, 0) == 0
    assert workloads.node_failures(10, 10, 8, 1, 0) == 1
    assert workloads.node_failures(10, 10, 9, 0, 1) == 2
    assert workloads.node_failures(10, 9, 9, 0, 0) == 1


def test_cluster_gate_trips_on_a_snapshot_missing_one_request():
    wl = workloads.make("cluster_sharded", 5, "tiny", serial=True)
    wl.setup(workloads.Spans())
    wl.run(workloads.Spans())
    snapshot = dict(wl.res.snapshot)
    assert workloads.cluster_failures(snapshot, wl.spec) == 0
    served = next(k for k, v in sorted(snapshot.items())
                  if k.startswith("workload.") and k.endswith(".served") and v)
    snapshot[served] -= 1
    assert workloads.cluster_failures(snapshot, wl.spec) >= 1


def test_cluster_gate_trips_on_unbalanced_frames():
    wl = workloads.make("cluster_sharded", 5, "tiny", serial=True)
    wl.setup(workloads.Spans())
    wl.run(workloads.Spans())
    snapshot = dict(wl.res.snapshot)
    sent = next(k for k in sorted(snapshot) if k.endswith(".frames_sent"))
    snapshot[sent] += 1
    assert workloads.cluster_failures(snapshot, wl.spec) == 1


def test_ledger_rows_cover_every_module():
    assert ledger.layer_of("/x/src/repro/core/leap.py") == "leap"
    assert ledger.layer_of("/x/src/repro/core/manager.py") == "core"
    assert ledger.layer_of("/x/src/repro/nmad/library.py") == "nmad"
    assert ledger.layer_of("/x/perfbench/workloads.py") == "other"
    assert ledger.layer_of("~") == "other"
    assert ledger.coverage({"sim": 1.0, "other": 1.0}, 2.0) == 1.0


def test_sampler_takes_slices_out_and_scales_by_their_slowdown():
    ref = calibrate.REFERENCE_SLICE_S
    sampler = calibrate.Sampler()
    # slices at [1, 2] (reference speed) and [4, 5] (host 2x slower)
    sampler.slices = [(1.0, 2.0, ref), (4.0, 5.0, 2 * ref)]
    assert sampler.seconds(0.0, 5.0, damping=0.0) == 3.0
    assert sampler.seconds(0.0, 1.0, damping=1.0) == 1.0
    assert sampler.seconds(2.0, 4.0, damping=1.0) == 1.0
    assert sampler.seconds(0.0, 5.0, damping=1.0) == 2.0
    # a span that ends before the slice that scales it
    assert sampler.seconds(3.0, 3.5, damping=1.0) == 0.25


def test_sampler_stops_its_timer():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(period_s=0.01) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.slices) >= 4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
