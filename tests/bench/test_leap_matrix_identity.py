"""Quiescence-leap identity over the whole quick perf matrix.

Runs ``python -m repro.bench perf --quick`` twice, each in a fresh
process: once with the leap on (the default) and once with
``REPRO_LEAP=0``.  Every scenario must simulate bit-for-bit the same
either way — the leap replays the exact accounting the slow path would
have produced, engine-internal counters included; ``leap_on`` and
``idle_spin`` are the rows where it does the most.  A mismatch fails
with the ``bench diff`` blame report (which scenario, which counters).
Throughput is never gated here — identity is.

CI's leap-identity step runs this file.
"""

from repro.obs.diff import diff_files, format_diff

from tests.bench.quickmatrix import diverged_scenarios


def test_quick_matrix_identical_leap_off_vs_on(quick_matrix):
    on, on_path = quick_matrix(leap="1")
    off, off_path = quick_matrix(leap="0")
    diverged = diverged_scenarios(on, off)
    assert not diverged, (
        f"leap changed the simulation of {diverged}\n"
        + format_diff(diff_files(str(off_path), str(on_path)))
    )
