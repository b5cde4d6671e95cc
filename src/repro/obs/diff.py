"""Regression blame: ranked diffs between two recorded documents.

``python -m repro.bench diff A.json B.json`` compares two runs and says
*what got slower and why*, instead of the bare ratio the CI gate used to
print.  Three document kinds are understood (detected automatically):

* **hostperf reports** (``bench perf --out``): per-scenario events/sec
  ratios ranked worst-first, each with the fingerprint counters that
  moved and the subsystem the dominant mover belongs to —
  ``fault_net  -12.3% ev/s  dominant: nic/retransmit (retransmits +8.1%)``;
* **analysis documents** (``bench analyze --analysis-out``): makespan,
  completion percentiles, per-level queue waits, lock waits and fault
  impacts diffed head to head;
* **metrics snapshots** (``--metrics-out``): every counter that moved,
  ranked by relative change.

A Chrome-trace document is accepted too — it is analyzed on the fly and
diffed as an analysis.  ``repro.bench.hostperf`` calls :func:`diff_docs`
from its regression gate so a perf-smoke failure ships its own blame
report.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional

#: hostperf fingerprint counter -> subsystem named in the blame line
_FP_SUBSYSTEM = {
    "drops": "nic/retransmit",
    "retransmits": "nic/retransmit",
    "reorders": "nic/retransmit",
    "messages": "net",
    "exchanges": "net",
    "round_trips": "latency",
    "sum_latency_ns": "latency",
    "lock_preemptions": "lock wait",
    "cancel_attempts": "faults",
    "cancel_hits": "faults",
    "slow_cores": "faults",
    "submits": "scheduler",
    "executions": "scheduler",
    "schedule_passes": "scheduler",
    "summary_hits": "scheduler",
    "virtual_ns": "makespan",
    "fired": "engine",
}


@dataclass
class BlameItem:
    """One counter/metric that moved between the two documents."""

    name: str
    a: Optional[float]
    b: Optional[float]
    #: relative change (b-a)/a; None when a is 0/absent (rendered "new")
    rel: Optional[float] = None
    subsystem: str = ""

    @property
    def magnitude(self) -> float:
        if self.rel is None:
            return float("inf")
        return abs(self.rel)


@dataclass
class DiffEntry:
    """One compared unit (a scenario, or the whole analysis/snapshot)."""

    name: str
    #: B-over-A throughput ratio (<1 = regressed); None when unmeasurable
    ratio: Optional[float]
    headline: str
    dominant: str = ""
    items: list[BlameItem] = field(default_factory=list)


@dataclass
class DiffReport:
    kind: str
    entries: list[DiffEntry] = field(default_factory=list)
    headline: str = ""
    #: scenario names present only in B / only in A.  The matrix grows
    #: over time, so a baseline recorded before a new scenario existed is
    #: the *common* case for the perf-smoke blame report — disjoint sets
    #: are reported, never an error.
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)

    def to_jsonable(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# kind detection / loading
# ---------------------------------------------------------------------------
def doc_kind(doc: dict) -> str:
    """Classify a loaded JSON document; raises on unknown shapes."""
    meta = doc.get("meta")
    if (isinstance(meta, dict) and meta.get("kind") == "host_perf") or (
        "scenarios" in doc and "aggregate" in doc
    ):
        return "host_perf"
    if "traceEvents" in doc:
        return "trace"
    if "metrics" in doc:
        return "metrics"
    if "cores" in doc and "levels" in doc:
        return "analysis"
    raise ValueError(
        "unrecognized document: expected a hostperf report, analysis, "
        "metrics snapshot, or Chrome trace"
    )


def load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rel(a: Optional[float], b: Optional[float]) -> Optional[float]:
    # fingerprints may hold digests (strings): those only "change"
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)) or a == 0:
        return None
    return (b - a) / a


def _fmt_rel(item: BlameItem) -> str:
    if item.rel is None:
        if item.a in (None, 0):
            return "new"
        return "gone" if item.b is None else "changed"
    return f"{100 * item.rel:+.1f}%"


# ---------------------------------------------------------------------------
# hostperf reports
# ---------------------------------------------------------------------------
def _diff_hostperf(a: dict, b: dict) -> DiffReport:
    a_by = {s["name"]: s for s in a.get("scenarios", [])}
    b_by = {s["name"]: s for s in b.get("scenarios", [])}
    entries: list[DiffEntry] = []
    added = sorted(set(b_by) - set(a_by))
    removed = sorted(set(a_by) - set(b_by))
    for name in sorted(set(a_by) | set(b_by)):
        sa, sb = a_by.get(name), b_by.get(name)
        if sa is None or sb is None:
            entries.append(
                DiffEntry(
                    name=name,
                    ratio=None,
                    headline="added (only in B)" if sa is None
                    else "removed (only in A)",
                )
            )
            continue
        ea, eb = sa.get("events_per_sec"), sb.get("events_per_sec")
        ratio = (eb / ea) if ea and eb else None
        items: list[BlameItem] = []
        fa = dict(sa.get("fingerprint") or {})
        fb = dict(sb.get("fingerprint") or {})
        fa.setdefault("virtual_ns", sa.get("virtual_ns"))
        fb.setdefault("virtual_ns", sb.get("virtual_ns"))
        for key in sorted(set(fa) | set(fb)):
            va, vb = fa.get(key), fb.get(key)
            if va == vb:
                continue
            items.append(
                BlameItem(
                    name=key,
                    a=va,
                    b=vb,
                    rel=_rel(va, vb),
                    subsystem=_FP_SUBSYSTEM.get(key, "other"),
                )
            )
        items.sort(key=lambda it: -it.magnitude)
        dominant = ""
        if items:
            top = items[0]
            dominant = f"{top.subsystem} ({top.name} {_fmt_rel(top)})"
        if ratio is None:
            headline = "ev/s n/a"
        else:
            headline = f"{100 * (ratio - 1):+.1f}% ev/s"
        entries.append(
            DiffEntry(
                name=name, ratio=ratio, headline=headline,
                dominant=dominant, items=items,
            )
        )
    # worst regression first; unmeasurable entries last
    entries.sort(key=lambda e: e.ratio if e.ratio is not None else float("inf"))
    agg_a = (a.get("aggregate") or {}).get("events_per_sec")
    agg_b = (b.get("aggregate") or {}).get("events_per_sec")
    agg = _rel(agg_a, agg_b)
    headline = (
        f"aggregate {100 * agg:+.1f}% ev/s" if agg is not None else "aggregate n/a"
    )
    if added or removed:
        # disjoint scenario sets are normal (the matrix grows); say so in
        # the headline instead of letting the aggregate ratio mislead
        bits = []
        if added:
            bits.append(f"{len(added)} scenario{'s' if len(added) > 1 else ''} added")
        if removed:
            bits.append(
                f"{len(removed)} scenario{'s' if len(removed) > 1 else ''} removed"
            )
        headline += " (" + ", ".join(bits) + " — compared on the overlap)"
    return DiffReport(
        kind="host_perf", entries=entries, headline=headline,
        added=added, removed=removed,
    )


# ---------------------------------------------------------------------------
# analysis documents
# ---------------------------------------------------------------------------
def _analysis_items(a: dict, b: dict) -> list[BlameItem]:
    def meta_makespan(doc: dict) -> Optional[float]:
        return (doc.get("meta") or {}).get("makespan_ns") or doc.get("span_ns")

    pairs: list[tuple[str, Optional[float], Optional[float], str]] = [
        ("makespan_ns", meta_makespan(a), meta_makespan(b), "makespan"),
        ("completion_p50_ns", a.get("completion_p50_ns"),
         b.get("completion_p50_ns"), "latency"),
        ("completion_p99_ns", a.get("completion_p99_ns"),
         b.get("completion_p99_ns"), "latency"),
        ("completion_p999_ns", a.get("completion_p999_ns"),
         b.get("completion_p999_ns"), "latency tail"),
    ]
    la = {lv["level"]: lv for lv in a.get("levels", [])}
    lb = {lv["level"]: lv for lv in b.get("levels", [])}
    for level in sorted(set(la) | set(lb)):
        va = (la.get(level) or {}).get("mean_ns")
        vb = (lb.get(level) or {}).get("mean_ns")
        pairs.append((f"queue_wait.{level}.mean_ns", va, vb, "queue wait"))
    ka = {lk["lock"]: lk for lk in a.get("locks", [])}
    kb = {lk["lock"]: lk for lk in b.get("locks", [])}
    for lock in sorted(set(ka) | set(kb)):
        va = (ka.get(lock) or {}).get("total_wait_ns")
        vb = (kb.get(lock) or {}).get("total_wait_ns")
        pairs.append((f"lock_wait.{lock}.total_ns", va, vb, "lock wait"))
    fa = {f["kind"]: f for f in a.get("faults", [])}
    fb = {f["kind"]: f for f in b.get("faults", [])}
    for kind in sorted(set(fa) | set(fb)):
        va = (fa.get(kind) or {}).get("events")
        vb = (fb.get(kind) or {}).get("events")
        sub = "nic/retransmit" if kind in ("drop", "retransmit", "reorder") else "faults"
        pairs.append((f"fault.{kind}.events", va, vb, sub))
    items = [
        BlameItem(name=n, a=va, b=vb, rel=_rel(va, vb), subsystem=sub)
        for n, va, vb, sub in pairs
        if not (va is None and vb is None) and va != vb
    ]
    items.sort(key=lambda it: -it.magnitude)
    return items


def _diff_analysis(a: dict, b: dict) -> DiffReport:
    items = _analysis_items(a, b)
    name = (
        (b.get("meta") or {}).get("scenario")
        or (a.get("meta") or {}).get("scenario")
        or "analysis"
    )
    ma = (a.get("meta") or {}).get("makespan_ns") or a.get("span_ns")
    mb = (b.get("meta") or {}).get("makespan_ns") or b.get("span_ns")
    # throughput convention (<1 regressed): makespan growing = regression
    ratio = (ma / mb) if ma and mb else None
    rel = _rel(ma, mb)
    headline = f"makespan {100 * rel:+.1f}%" if rel is not None else "makespan n/a"
    dominant = ""
    if items:
        top = items[0]
        dominant = f"{top.subsystem} ({top.name} {_fmt_rel(top)})"
    entry = DiffEntry(
        name=name, ratio=ratio, headline=headline, dominant=dominant, items=items
    )
    return DiffReport(kind="analysis", entries=[entry], headline=headline)


# ---------------------------------------------------------------------------
# metrics snapshots
# ---------------------------------------------------------------------------
def _diff_metrics(a: dict, b: dict) -> DiffReport:
    ma = a.get("metrics") or {}
    mb = b.get("metrics") or {}
    items: list[BlameItem] = []
    for key in sorted(set(ma) | set(mb)):
        va, vb = ma.get(key), mb.get(key)
        if va == vb:
            continue
        if va is not None and not isinstance(va, (int, float)):
            continue
        if vb is not None and not isinstance(vb, (int, float)):
            continue
        items.append(
            BlameItem(name=key, a=va, b=vb, rel=_rel(va, vb),
                      subsystem=key.split(".", 1)[0])
        )
    items.sort(key=lambda it: -it.magnitude)
    moved = len(items)
    headline = f"{moved} metrics moved"
    entry = DiffEntry(name="metrics", ratio=None, headline=headline, items=items)
    if items:
        top = items[0]
        entry.dominant = f"{top.subsystem} ({top.name} {_fmt_rel(top)})"
    return DiffReport(kind="metrics", entries=[entry], headline=headline)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def diff_docs(a: dict, b: dict) -> DiffReport:
    """Diff two loaded documents (A = baseline, B = new)."""
    ka, kb = doc_kind(a), doc_kind(b)
    if ka == "trace":
        from repro.obs.analyze import analyze_trace

        a, ka = analyze_trace(a).to_jsonable(), "analysis"
    if kb == "trace":
        from repro.obs.analyze import analyze_trace

        b, kb = analyze_trace(b).to_jsonable(), "analysis"
    if ka != kb:
        raise ValueError(f"cannot diff {ka} against {kb}")
    if ka == "host_perf":
        return _diff_hostperf(a, b)
    if ka == "analysis":
        return _diff_analysis(a, b)
    return _diff_metrics(a, b)


def diff_files(path_a: str, path_b: str) -> DiffReport:
    return diff_docs(load_doc(path_a), load_doc(path_b))


def format_diff(report: DiffReport, top_items: int = 4) -> str:
    """Ranked text blame report, worst regression first."""
    lines = [f"== bench diff ({report.kind}): B vs A — {report.headline} =="]
    for i, e in enumerate(report.entries, 1):
        dom = f"  dominant: {e.dominant}" if e.dominant else ""
        lines.append(f" {i:>2}. {e.name:<22} {e.headline}{dom}")
        for it in e.items[:top_items]:
            lines.append(
                f"       {it.name}: {it.a} -> {it.b} ({_fmt_rel(it)})"
            )
        extra = len(e.items) - top_items
        if extra > 0:
            lines.append(f"       ... {extra} more")
    if report.added:
        lines.append(f"  added in B: {', '.join(report.added)}")
    if report.removed:
        lines.append(f"  removed in B: {', '.join(report.removed)}")
    if not report.entries:
        lines.append("  (nothing to compare)")
    return "\n".join(lines)
