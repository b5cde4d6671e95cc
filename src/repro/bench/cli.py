"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.bench table1
    python -m repro.bench table2 --reps 300
    python -m repro.bench fig4 --threads 1,2,4,8,16,32,64,128
    python -m repro.bench fig5 --points 9
    python -m repro.bench fig6 fig7
    python -m repro.bench all --json results.json   # machine-readable dump
    python -m repro.bench all --jobs 4              # multi-process fan-out
    python -m repro.bench scalability bandwidth     # extensions
    python -m repro.bench ablations                 # design-choice matrix
    python -m repro.bench table1 --metrics-out m.json --trace-out t.json
    python -m repro.bench analyze --trace t.json    # offline trace analysis
    python -m repro.bench analyze --trace t.json --analysis-out a.json
    python -m repro.bench analyze --trace t.json --critical-path
    python -m repro.bench diff A.json B.json        # ranked blame report
    python -m repro.bench render --trace t.json --gantt-out g.svg
    python -m repro.bench render --trace t.json --term
    python -m repro.bench perf                      # host events/sec matrix
    python -m repro.bench perf --quick --baseline BENCH_host_perf.json
    python -m repro.bench perf --jobs 4 --parallel-report BENCH_parallel.json

(also installed as the ``repro-bench`` console script).

``--jobs N`` fans independent targets out over ``repro.par`` worker
processes; every simulation is seeded and shared-nothing, so the output
(tables, JSON, metrics, traces) is bit-identical to a serial run — only
the wall clock changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional, Sequence

from repro.bench.targets import (
    ALL_TARGETS,
    INNER_PARALLEL_TARGETS,
    TargetOutput,
    to_jsonable,
)
from repro.par import JobFailure, JobSpec, run_jobs_strict

#: kept for backwards compatibility — predates the targets extraction
_to_jsonable = to_jsonable


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def jobs_arg(text: str) -> int:
    """``--jobs`` values: a positive count, or 0/'auto' = every CPU."""
    from repro.par import resolve_jobs

    try:
        return resolve_jobs(int(text))
    except ValueError:
        return resolve_jobs(text)


def check_outputs(*outputs: tuple[str, Optional[str]]) -> int:
    """Refuse output paths that cannot be written, before any work runs.

    ``outputs`` are ``(flag, path)`` pairs; unset paths are skipped.
    Returns 0 when every path looks writable, else prints one line naming
    the first bad flag and returns 2 (the argparse usage-error status).
    """
    for flag, path in outputs:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            why = "is a directory"
        elif not os.path.isdir(parent):
            why = f"directory {parent} does not exist"
        elif not os.access(parent, os.W_OK | os.X_OK):
            why = f"directory {parent} is not writable"
        elif os.path.exists(path) and not os.access(path, os.W_OK):
            why = "file is not writable"
        else:
            continue
        print(f"repro-bench: error: {flag} {path}: {why}", file=sys.stderr)
        return 2
    return 0


def _analyze_main(argv: Sequence[str]) -> int:
    """The ``analyze`` subcommand: offline report over a --trace-out file."""
    from repro.obs.analyze import analyze_trace_file, format_analysis

    ap = argparse.ArgumentParser(
        prog="repro-bench analyze",
        description="Analyze a --trace-out JSON file: per-core utilization, "
        "submit→run latency percentiles per queue level, lock contention, "
        "slowest tasks.",
    )
    ap.add_argument("--trace", metavar="PATH", required=True,
                    help="Chrome-trace JSON written by --trace-out")
    ap.add_argument("--top", type=int, default=10,
                    help="how many slowest tasks to list (default 10)")
    ap.add_argument("--cores", type=int, default=None,
                    help="force the per-core section to cover N cores "
                    "(default: the count stamped in the trace, else the "
                    "cores observed)")
    ap.add_argument("--analysis-out", metavar="PATH", default=None,
                    help="also dump the analysis as JSON to PATH")
    ap.add_argument("--scenario", default=None,
                    help="scenario name for the meta header (default: the "
                    "name stamped in the trace, if any)")
    ap.add_argument("--critical-path", action="store_true",
                    help="walk the causal edges backward from the last "
                    "completion and print the makespan attribution")
    ap.add_argument("--critpath-out", metavar="PATH", default=None,
                    help="dump the critical path as JSON to PATH")
    args = ap.parse_args(argv)
    if check_outputs(
        ("--analysis-out", args.analysis_out),
        ("--critpath-out", args.critpath_out),
    ):
        return 2
    analysis = analyze_trace_file(
        args.trace, ncores=args.cores, top_n=args.top, scenario=args.scenario
    )
    print(format_analysis(analysis))
    if args.critical_path or args.critpath_out:
        from repro.obs.critpath import (
            extract_critical_path_file,
            format_critical_path,
        )

        cp = extract_critical_path_file(args.trace)
        print()
        print(format_critical_path(cp))
        if args.critpath_out:
            with open(args.critpath_out, "w") as fh:
                json.dump(cp.to_jsonable(), fh, indent=1)
            print(f"\nwrote {args.critpath_out}")
    if args.analysis_out:
        with open(args.analysis_out, "w") as fh:
            json.dump(analysis.to_jsonable(), fh, indent=1)
        print(f"\nwrote {args.analysis_out}")
    return 0


def _diff_main(argv: Sequence[str]) -> int:
    """The ``diff`` subcommand: ranked blame report between two documents."""
    from repro.obs.diff import diff_files, format_diff

    ap = argparse.ArgumentParser(
        prog="repro-bench diff",
        description="Compare two hostperf/analysis/metrics/trace JSON "
        "documents and print a ranked blame report (worst regression "
        "first, dominant subsystem named).",
    )
    ap.add_argument("a", metavar="A.json", help="baseline document")
    ap.add_argument("b", metavar="B.json", help="new document")
    ap.add_argument("--top", type=int, default=4,
                    help="counters shown per entry (default 4)")
    ap.add_argument("--json-out", metavar="PATH", default=None,
                    help="also dump the structured diff to PATH")
    args = ap.parse_args(argv)
    if check_outputs(("--json-out", args.json_out)):
        return 2
    try:
        report = diff_files(args.a, args.b)
    except ValueError as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 1
    print(format_diff(report, top_items=args.top))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.to_jsonable(), fh, indent=1)
        print(f"\nwrote {args.json_out}")
    return 0


def _render_main(argv: Sequence[str]) -> int:
    """The ``render`` subcommand: Gantt/utilization charts over a trace."""
    from repro.obs.critpath import extract_critical_path
    from repro.obs.gantt import render_gantt_svg, render_gantt_term

    ap = argparse.ArgumentParser(
        prog="repro-bench render",
        description="Render a --trace-out JSON file as a Gantt chart: "
        "per-core lanes, task slices colored by state, critical path "
        "overlaid (SVG via --gantt-out, terminal via --term).",
    )
    ap.add_argument("--trace", metavar="PATH", required=True,
                    help="Chrome-trace JSON written by --trace-out")
    ap.add_argument("--gantt-out", metavar="PATH", default=None,
                    help="write an SVG Gantt chart to PATH")
    ap.add_argument("--term", action="store_true",
                    help="print a block-character chart to stdout "
                    "(default when no --gantt-out is given)")
    ap.add_argument("--width", type=int, default=1000,
                    help="SVG width in px (default 1000)")
    ap.add_argument("--term-width", type=int, default=72,
                    help="terminal chart columns (default 72)")
    ap.add_argument("--title", default="", help="SVG title line")
    args = ap.parse_args(argv)
    with open(args.trace) as fh:
        doc = json.load(fh)
    cp = extract_critical_path(doc)
    if args.gantt_out:
        svg = render_gantt_svg(
            doc, critical_path=cp, width=args.width, title=args.title
        )
        with open(args.gantt_out, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.gantt_out}")
    if args.term or not args.gantt_out:
        print(render_gantt_term(doc, critical_path=cp, width=args.term_width))
    return 0


def _build_specs(
    targets: Sequence[str], args, observe: bool
) -> list[JobSpec]:
    """One spec per requested target, plus the dedicated observed run.

    Spec names are the target names (suffixed only when a target is
    requested twice); the instrumented run is the *first* table target,
    matching the old inline loop's attach-once rule.  When a single
    fan-out-capable target gets the whole ``--jobs`` budget, the budget
    moves inside it.
    """
    inner_jobs = (
        args.jobs
        if len(targets) == 1 and targets[0] in INNER_PARALLEL_TARGETS
        else 1
    )
    inst_index = next(
        (i for i, t in enumerate(targets) if t in ("table1", "table2")), None
    )
    specs: list[JobSpec] = []
    seen: dict[str, int] = {}
    for i, target in enumerate(targets):
        n = seen.get(target, 0)
        seen[target] = n + 1
        specs.append(
            JobSpec(
                name=target if n == 0 else f"{target}[{n}]",
                target="repro.bench.targets:run_target",
                kwargs={
                    "name": target,
                    "reps": args.reps,
                    "seed": args.seed,
                    "threads": list(args.threads),
                    "points": args.points,
                    "iters": args.iters,
                    "observe": observe and i == inst_index,
                    "jobs": inner_jobs,
                },
                timeout_s=args.job_timeout,
            )
        )
    if observe and inst_index is None:
        specs.append(
            JobSpec(
                name="_observed",
                target="repro.bench.targets:run_dedicated_observed",
                kwargs={"reps": args.reps, "seed": args.seed},
                timeout_s=args.job_timeout,
            )
        )
    return specs


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        return _analyze_main(list(argv[1:]))
    if argv and argv[0] == "diff":
        return _diff_main(list(argv[1:]))
    if argv and argv[0] == "render":
        return _render_main(list(argv[1:]))
    if argv and argv[0] == "perf":
        from repro.bench.hostperf import main as perf_main

        return perf_main(list(argv[1:]))
    if argv and argv[0] == "cluster-scale":
        from repro.bench.cluster_scale import main as scale_main

        return scale_main(list(argv[1:]))
    ap = argparse.ArgumentParser(
        prog="repro-bench", description="Regenerate the paper's tables and figures."
    )
    ap.add_argument(
        "targets",
        nargs="+",
        choices=ALL_TARGETS + ("all",),
        help="which artifacts to regenerate",
    )
    ap.add_argument("--reps", type=int, default=200, help="microbench repetitions")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--threads", type=_ints, default=[1, 2, 4, 8, 16, 32, 64, 128],
        help="fig4 thread counts (comma separated)",
    )
    ap.add_argument("--points", type=int, default=9, help="overlap points per curve")
    ap.add_argument("--iters", type=int, default=4, help="fig4 iterations per thread")
    ap.add_argument(
        "--jobs", type=jobs_arg, default=1, metavar="N",
        help="fan independent targets out over N worker processes "
        "('auto' or 0 = every CPU; default 1 = in-process serial; "
        "results are bit-identical either way)",
    )
    ap.add_argument(
        "--job-timeout", type=float, default=None, metavar="S",
        help="per-target wall-clock limit in seconds when using --jobs",
    )
    ap.add_argument(
        "--json", metavar="PATH", default=None,
        help="also dump every regenerated series to PATH as JSON",
    )
    ap.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="dump a flat MetricsRegistry snapshot of an instrumented "
        "global-queue microbench run to PATH as JSON",
    )
    ap.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="dump the instrumented run's task timeline to PATH as "
        "Chrome-trace JSON (load in chrome://tracing or ui.perfetto.dev)",
    )
    args = ap.parse_args(argv)
    if check_outputs(
        ("--json", args.json),
        ("--metrics-out", args.metrics_out),
        ("--trace-out", args.trace_out),
    ):
        return 2
    collected: dict[str, Any] = {}

    targets = list(args.targets)
    if "all" in targets:
        targets = list(ALL_TARGETS)

    # Observability instrumentation attaches to the first table target
    # regenerated (or to a dedicated small run when no table target was
    # requested); the artifacts are written at the end.
    observe = bool(args.metrics_out or args.trace_out)
    specs = _build_specs(targets, args, observe)
    try:
        outputs: list[TargetOutput] = run_jobs_strict(
            specs, jobs=args.jobs, timeout_s=args.job_timeout
        )
    except JobFailure as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1

    instrumented: Optional[TargetOutput] = None
    for out in outputs:
        if out.instrumented and instrumented is None:
            instrumented = out
        if out.target == "_observed":
            continue
        print(f"\n{out.header}")
        print(out.text)
        collected[out.target] = out.data

    if observe and instrumented is not None:
        if args.metrics_out:
            snap = instrumented.metrics
            with open(args.metrics_out, "w") as fh:
                json.dump(
                    {"meta": {"source": instrumented.instrumented}, "metrics": snap},
                    fh, indent=1,
                )
            print(f"\nwrote {args.metrics_out} ({len(snap)} counters, "
                  f"{instrumented.instrumented})")
        if args.trace_out:
            doc = instrumented.trace
            with open(args.trace_out, "w") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} trace "
                  f"events, {instrumented.instrumented})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
