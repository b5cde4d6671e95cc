"""Helpers for the quick-perf-matrix identity tests (fixture in conftest)."""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def perf_quick(out, *, leap: str, core: str) -> dict:
    """Run ``python -m repro.bench perf --quick --out OUT`` in a fresh
    process with ``REPRO_LEAP``/``REPRO_ENGINE_CORE`` set; return the
    scenarios by name."""
    env = dict(os.environ, REPRO_LEAP=leap, REPRO_ENGINE_CORE=core)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "perf", "--quick", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return {s["name"]: s for s in json.loads(out.read_text())["scenarios"]}


def diverged_scenarios(a: dict, b: dict) -> list[str]:
    """Scenarios whose fingerprint or virtual clock differs between two
    quick-matrix runs (which must hold the same scenario set)."""
    assert a.keys() == b.keys(), (sorted(a), sorted(b))
    return [
        name for name, s in a.items()
        if s["fingerprint"] != b[name]["fingerprint"]
        or s["virtual_ns"] != b[name]["virtual_ns"]
    ]
