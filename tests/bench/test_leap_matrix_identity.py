"""Quiescence-leap identity over the whole quick perf matrix.

Runs ``python -m repro.bench perf --quick`` twice, each in a fresh
process: once with the leap on (the default) and once with
``REPRO_LEAP=0``.  Every scenario must simulate bit-for-bit the same
either way — the leap replays the exact accounting the slow path would
have produced, engine-internal counters included.  The in-matrix
``leap_on``/``leap_off`` pair (same seed, leap pinned per instance) must
also have fully identical fingerprints.  A mismatch fails with the
``bench diff`` blame report (which scenario, which counters).
Throughput is never gated here — identity is.

CI's leap-identity step runs this file.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.obs.diff import diff_files, format_diff

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _perf_quick(out, leap: str) -> dict:
    env = dict(os.environ, REPRO_LEAP=leap)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "perf", "--quick", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return {s["name"]: s for s in json.loads(out.read_text())["scenarios"]}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    d = tmp_path_factory.mktemp("leap_matrix")
    on_path, off_path = d / "perf_smoke.json", d / "perf_smoke_noleap.json"
    on = _perf_quick(on_path, "1")
    off = _perf_quick(off_path, "0")
    return on, off, on_path, off_path


def test_quick_matrix_identical_leap_off_vs_on(reports):
    on, off, on_path, off_path = reports
    assert on.keys() == off.keys()
    diverged = [
        name for name, a in on.items()
        if a["fingerprint"] != off[name]["fingerprint"]
        or a["virtual_ns"] != off[name]["virtual_ns"]
    ]
    assert not diverged, (
        f"leap changed the simulation of {diverged}\n"
        + format_diff(diff_files(str(off_path), str(on_path)))
    )


def test_in_matrix_leap_pair_identical(reports):
    on = reports[0]
    assert on["leap_on"]["fingerprint"] == on["leap_off"]["fingerprint"], \
        "leap_on/leap_off pair diverged"
