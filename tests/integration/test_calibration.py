"""Calibration guard: measured-vs-paper ratios must stay in band.

The latency constants in the machine specs were fitted once against the
paper's uncontended rows (docs/INTERNALS.md §5); everything contended is
emergent.  These bands pin both against regressions: if a scheduler or
memory-model change silently shifts the physics, this file fails before
the EXPERIMENTS.md regeneration and its byte-diff do.
"""

import pytest

from repro.bench.paper_targets import targets_for
from repro.bench.task_microbench import run_task_microbench
from repro.topology import borderline, kwak


@pytest.fixture(scope="module")
def results():
    return {
        "borderline": run_task_microbench(borderline(), reps=150, seed=1),
        "kwak": run_task_microbench(kwak(), reps=150, seed=1),
    }


# (machine, row label, allowed measured/paper band)
BANDS = [
    # fitted rows: tight
    ("borderline", "core#0", (0.85, 1.15)),
    ("kwak", "core#0", (0.85, 1.15)),
    ("kwak", "core#8", (0.85, 1.25)),  # remote NUMA
    # emergent rows: shape bands
    ("borderline", "core#4", (0.9, 1.4)),
    ("borderline", "chip#1", (0.6, 1.3)),
    ("borderline", "global", (0.5, 1.3)),
    ("kwak", "core#1", (0.9, 1.6)),
    ("kwak", "cache#1", (0.6, 1.3)),
    ("kwak", "global", (0.6, 1.5)),
]


@pytest.mark.parametrize("machine_name,label,band", BANDS)
def test_row_within_band(results, machine_name, label, band):
    res = results[machine_name]
    paper = targets_for(machine_name)[label]
    measured = res.row_by_label(label).mean_ns
    ratio = measured / paper
    lo, hi = band
    assert lo <= ratio <= hi, (
        f"{machine_name}/{label}: measured {measured:.0f} ns vs paper "
        f"{paper} ns -> ratio {ratio:.2f} outside [{lo}, {hi}]"
    )


def test_kwak_vs_borderline_global_ratio(results):
    """Paper: 13585/4720 = 2.88x growth from 8 to 16 cores."""
    ratio = (
        results["kwak"].global_row.mean_ns
        / results["borderline"].global_row.mean_ns
    )
    assert 1.8 <= ratio <= 5.0, f"global-queue growth ratio {ratio:.2f}"
