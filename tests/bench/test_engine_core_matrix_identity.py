"""Wheel-vs-heap event-core identity over the whole quick perf matrix.

Runs ``python -m repro.bench perf --quick`` twice, each in a fresh
process: once with ``REPRO_ENGINE_CORE=wheel`` (the default) and once
with ``=heap``.  The timer wheel must realise exactly the (time, seq)
order the heap defines, so every scenario's fingerprint and virtual clock
must match bit-for-bit.  A mismatch fails with the ``bench diff`` blame
report (which scenario, which counters).  Throughput is never gated
here — identity is.

CI's wheel-vs-heap step runs this file.
"""

from repro.obs.diff import diff_files, format_diff

from tests.bench.quickmatrix import diverged_scenarios


def test_quick_matrix_identical_wheel_vs_heap(quick_matrix):
    wheel, wheel_path = quick_matrix(core="wheel")
    heap, heap_path = quick_matrix(core="heap")
    diverged = diverged_scenarios(wheel, heap)
    assert not diverged, (
        f"event core changed the simulation of {diverged}\n"
        + format_diff(diff_files(str(wheel_path), str(heap_path)))
    )
