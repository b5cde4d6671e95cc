"""Benchmark harnesses regenerating every table and figure of the paper."""

from repro.bench.task_microbench import (
    MicrobenchResult,
    RowResult,
    measure_queue,
    run_task_microbench,
)
from repro.bench.paper_targets import (
    ANOMALIES,
    PAPER_TABLES,
    TABLE1_BORDERLINE,
    TABLE2_KWAK,
    targets_for,
)
from repro._lazy import lazy_exports

# the figure harnesses and formatters load on first use (see repro._lazy)
__getattr__, __dir__ = lazy_exports(__name__, {
    "latency": ("LatencyPoint", "LatencySeries", "run_fig4", "run_latency_once"),
    "overlap": (
        "OverlapPoint",
        "OverlapSeries",
        "PLACEMENTS",
        "compute_grid",
        "run_overlap_figure",
        "run_overlap_once",
    ),
    "reporting": ("format_latency", "format_microbench", "format_overlap", "sparkline"),
})

__all__ = [
    "MicrobenchResult",
    "RowResult",
    "measure_queue",
    "run_task_microbench",
    "LatencyPoint",
    "LatencySeries",
    "run_fig4",
    "run_latency_once",
    "OverlapPoint",
    "OverlapSeries",
    "PLACEMENTS",
    "compute_grid",
    "run_overlap_figure",
    "run_overlap_once",
    "TABLE1_BORDERLINE",
    "TABLE2_KWAK",
    "PAPER_TABLES",
    "ANOMALIES",
    "targets_for",
    "format_microbench",
    "format_latency",
    "format_overlap",
    "sparkline",
]
