"""Per-layer host-time ledger: profiler self time bucketed by package.

Every profiled function's self time (``tottime``) lands in exactly one
row, keyed by the ``src/repro`` package that defines it; the quiescence
leap (``repro/core/leap.py``) gets its own ``leap`` row so its cost is
visible apart from the rest of ``core``.  Builtins, the standard library
and the benchmark's own code go to ``other``.  The rows therefore
sum to the profiler's total, which :func:`coverage` compares with the
traced wall time.
"""

from __future__ import annotations

import pstats
import re

LAYERS = (
    "sim", "threads", "core", "leap", "sync", "mem", "faults", "net",
    "nmad", "mpi", "cluster", "par", "obs", "topology", "bench", "pioio",
    "other",
)

#: the ledger rows must sum to the traced wall within this share
COVERAGE_TOLERANCE = 0.10

_PACKAGE = re.compile(r"[\\/]repro[\\/](\w+)[\\/](\w+)\.py$")


def layer_of(filename: str) -> str:
    m = _PACKAGE.search(filename)
    if m is None:
        return "other"
    package, module = m.groups()
    if package == "core" and module == "leap":
        return "leap"
    return package if package in LAYERS else "other"


def self_times(stats: pstats.Stats) -> dict[str, float]:
    """Seconds of self time per layer."""
    rows = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        rows[layer_of(filename)] += tottime
    return rows


def cumulative(stats: pstats.Stats, module_suffix: str, func: str) -> float:
    """Cumulative seconds in every function ``func`` of a module whose
    path ends in ``module_suffix`` (``"topology/builder.py"``)."""
    return sum(
        ct
        for (filename, _line, name), (_cc, _nc, _tt, ct, _callers) in stats.stats.items()
        if name == func and filename.replace("\\", "/").endswith("/" + module_suffix)
    )


def coverage(rows: dict[str, float], wall_s: float) -> float:
    """Share of the traced wall time the ledger rows account for."""
    return sum(rows.values()) / wall_s if wall_s > 0 else 0.0
