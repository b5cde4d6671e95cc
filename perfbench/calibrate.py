"""Host-speed calibration for the benchmark's timings.

On a shared host the interpreter's speed drifts by up to 2x within
seconds, as other tenants load the machine.  Each timed iteration
therefore runs a :class:`Sampler`: a ``SIGALRM`` interval timer that
interrupts the workload every :data:`PERIOD_S` and times one short slice
of a fixed, benchmark-owned probe, a toy discrete-event loop (a heap of
generator processes, like the simulator's own hot path, but sharing no
code with ``repro``, so a change to the program cannot move it).

:meth:`Sampler.seconds` gives the time a span spent in the workload, with
the probe slices taken out, and scales each stretch of it by the slowdown
of the slice that ends it, against :data:`REFERENCE_SLICE_S` (the slice's
time on a quiet host), so the figures keep their unit.  Slices every few
tens of milliseconds follow host-speed swings that a probe before and
after a multi-second run misses.

The probe is more sensitive to contention than the simulator, so a full
correction over-shoots; the slowdown is raised to :data:`DAMPING`.  In
five sets of eight same-input iterations (the four workloads) on a 2-CPU
shared host whose speed swung by up to 1.6x, the spread (IQR / median)
of ``run_s`` averaged 16% raw, 4.9% at exponent 3/4 and 4.7% at 1; the
geometric mean of those two calibrations, which 7/8 approximates,
averaged 4.2%.  A memory-heavier probe (1024 processes, a 20k-entry
table) tracked the workloads no better.
"""

from __future__ import annotations

import heapq
import signal
import time

#: one probe slice's time, between workload steps, on a quiet 2-CPU
#: Intel Xeon host (Python 3.11)
REFERENCE_SLICE_S = 0.0025
#: exponent on a slice's slowdown (see the module docstring)
DAMPING = 0.875
#: wall seconds between probe slices (a slice takes 2.5-4 ms in a step)
PERIOD_S = 0.04

_PROCS = 48
_SLICE_STEPS = 3_000


def _process(ident: int):
    """A toy simulated process: yields its next wake-up time forever."""
    now = 0
    while True:
        now = yield now + (ident * 7919 + now) % 97 + 1


def probe_once(steps: int = _SLICE_STEPS) -> float:
    """Seconds to run the fixed toy event loop for ``steps`` events."""
    t0 = time.perf_counter()
    procs = [_process(i) for i in range(_PROCS)]
    heap = []
    for i, proc in enumerate(procs):
        heapq.heappush(heap, (next(proc), i, proc))
    counts: dict[int, int] = {}
    seq = _PROCS
    for _ in range(steps):
        now, ident, proc = heapq.heappop(heap)
        counts[ident % 8] = counts.get(ident % 8, 0) + 1
        seq += 1
        heapq.heappush(heap, (proc.send(now), seq, proc))
    if sum(counts.values()) != steps:  # consume the result
        raise AssertionError("probe miscounted")
    return time.perf_counter() - t0


class Sampler:
    """Probe slices on a wall-clock interval timer, while active.

    Use as a context manager around the timed steps; times are
    ``time.perf_counter()`` minus ``origin``, as in ``workloads.Spans``.
    ``slices`` holds ``(start, end, seconds)`` per slice, in order.
    """

    def __init__(self, origin: float = 0.0, period_s: float = PERIOD_S) -> None:
        self.origin = origin
        self.period_s = period_s
        self.slices: list[tuple[float, float, float]] = []

    def _slice(self, *_ignored) -> None:
        start = time.perf_counter()
        took = probe_once()
        self.slices.append((start - self.origin, time.perf_counter() - self.origin, took))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def probe_s(self) -> float:
        """Mean slice time (seconds): the host's average speed while active."""
        return sum(s[2] for s in self.slices) / len(self.slices)

    def seconds(self, start: float, end: float, damping: float = DAMPING) -> float:
        """Workload seconds in ``[start, end]`` at reference host speed:
        the span minus the probe slices inside it, each stretch between
        slices scaled by the slowdown of the slice that ends it."""
        total, cursor = 0.0, start
        for s0, s1, took in self.slices:
            if s1 <= cursor:
                continue
            scale = (REFERENCE_SLICE_S / took) ** damping
            total += max(0.0, min(s0, end) - cursor) * scale
            cursor = max(cursor, s1)
            if cursor >= end:
                return total
        # past the last slice (only when the sampler stopped before ``end``)
        return total + (end - cursor) * (REFERENCE_SLICE_S / self.slices[-1][2]) ** damping
