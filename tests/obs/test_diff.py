"""bench diff: ranked regression blame between two recorded documents."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.obs import diff_docs, diff_files, format_diff
from repro.obs.diff import doc_kind


def _hostperf_doc(*, fault_ev_s=100_000.0, retransmits=10):
    def scen(name, ev_s, fp):
        return {
            "name": name,
            "events_per_sec": ev_s,
            "virtual_ns": 1_000_000,
            "fingerprint": fp,
        }

    return {
        "meta": {"kind": "host_perf"},
        "scenarios": [
            scen("steady", 200_000.0, {"submits": 64, "executions": 64}),
            scen(
                "fault_net",
                fault_ev_s,
                {"retransmits": retransmits, "drops": 4, "messages": 24},
            ),
        ],
        "aggregate": {"events_per_sec": 150_000.0 + fault_ev_s / 2},
    }


def test_hostperf_diff_ranks_regressed_scenario_first():
    """Acceptance: regressed scenario first, dominant names the subsystem."""
    a = _hostperf_doc()
    b = _hostperf_doc(fault_ev_s=88_000.0, retransmits=18)
    report = diff_docs(a, b)
    assert report.kind == "host_perf"
    assert report.entries[0].name == "fault_net"
    assert report.entries[0].ratio == pytest.approx(0.88)
    assert "nic/retransmit" in report.entries[0].dominant
    assert "retransmits" in report.entries[0].dominant
    text = format_diff(report)
    assert text.splitlines()[1].lstrip().startswith("1. fault_net")
    assert "-12.0% ev/s" in text
    assert "retransmits: 10 -> 18 (+80.0%)" in text


def test_hostperf_diff_improvement_is_not_ranked_first():
    a = _hostperf_doc()
    b = _hostperf_doc(fault_ev_s=140_000.0)
    report = diff_docs(a, b)
    assert report.entries[0].name == "steady"  # ratio 1.0 < 1.4
    assert report.entries[1].ratio == pytest.approx(1.4)


def test_hostperf_diff_blames_a_changed_digest():
    """Fingerprints may carry digests (the sharded scenario's merged
    snapshot hash); a changed digest is blamed, not a crash."""
    a, b = _hostperf_doc(), _hostperf_doc()
    a["scenarios"][0]["fingerprint"]["run_fingerprint"] = "8a3e750b"
    b["scenarios"][0]["fingerprint"]["run_fingerprint"] = "7546aef6"
    report = diff_docs(a, b)
    steady = next(e for e in report.entries if e.name == "steady")
    assert [it.name for it in steady.items] == ["run_fingerprint"]
    assert "run_fingerprint: 8a3e750b -> 7546aef6 (changed)" in format_diff(report)


def _analysis_doc(*, makespan=80_000, retx_events=2):
    return {
        "meta": {"kind": "trace_analysis", "makespan_ns": makespan,
                 "scenario": "fault_net"},
        "span_ns": makespan,
        "cores": [],
        "levels": [{"level": "machine", "mean_ns": 900, "count": 4}],
        "locks": [{"lock": "lock:q", "total_wait_ns": 300}],
        "faults": [{"kind": "retransmit", "events": retx_events}],
        "completion_p50_ns": 4000,
        "completion_p99_ns": 9000,
    }


def test_analysis_diff_blames_fault_counters():
    a = _analysis_doc()
    b = _analysis_doc(makespan=96_000, retx_events=6)
    report = diff_docs(a, b)
    assert report.kind == "analysis"
    (entry,) = report.entries
    assert entry.name == "fault_net"
    assert entry.ratio == pytest.approx(80_000 / 96_000)
    assert "makespan +20.0%" in entry.headline
    assert "nic/retransmit" in entry.dominant
    names = [it.name for it in entry.items]
    assert "fault.retransmit.events" in names and "makespan_ns" in names


def test_metrics_diff_lists_moved_counters():
    a = {"metrics": {"nic.0.retransmits": 2, "pioman.executions": 50,
                     "note": "text"}}
    b = {"metrics": {"nic.0.retransmits": 8, "pioman.executions": 50,
                     "note": "other"}}
    report = diff_docs(a, b)
    assert report.kind == "metrics"
    items = report.entries[0].items
    assert [it.name for it in items] == ["nic.0.retransmits"]
    assert items[0].subsystem == "nic"


def test_kind_mismatch_and_unknown_doc_raise():
    with pytest.raises(ValueError, match="cannot diff"):
        diff_docs(_hostperf_doc(), _analysis_doc())
    with pytest.raises(ValueError, match="unrecognized"):
        doc_kind({"what": "ever"})


def test_trace_docs_are_analyzed_then_diffed():
    from repro.obs import chrome_trace
    from repro.sim.trace import Tracer

    tr = Tracer(enabled=True)
    tr.emit(5000, "pioman", "core0", "completed t", phase="run", task="t",
            queue="q:machine", core=0, start=2000, complete=True)
    doc = chrome_trace(tr, meta={"ncores": 1})
    report = diff_docs(doc, doc)
    assert report.kind == "analysis"
    assert report.entries[0].items == []  # identical runs: nothing moved


def test_cli_diff_subcommand(tmp_path, capsys):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(_hostperf_doc()))
    pb.write_text(json.dumps(_hostperf_doc(fault_ev_s=88_000.0,
                                           retransmits=18)))
    out_json = tmp_path / "diff.json"
    rc = bench_main(["diff", str(pa), str(pb), "--json-out", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench diff (host_perf)" in out
    assert "fault_net" in out
    doc = json.loads(out_json.read_text())
    assert doc["kind"] == "host_perf"
    assert doc["entries"][0]["name"] == "fault_net"

    # mismatched kinds exit nonzero with a message on stderr
    pc = tmp_path / "c.json"
    pc.write_text(json.dumps(_analysis_doc()))
    rc = bench_main(["diff", str(pa), str(pc)])
    assert rc == 1
    assert "cannot diff" in capsys.readouterr().err


def _matrix_doc(names, ev_s=100_000.0):
    return {
        "meta": {"kind": "host_perf"},
        "scenarios": [
            {
                "name": n,
                "events_per_sec": ev_s,
                "virtual_ns": 1_000_000,
                "fingerprint": {"fired": 100},
            }
            for n in names
        ],
        "aggregate": {"events_per_sec": ev_s},
    }


# the matrix before the fault/core/leap scenarios were added — the shape
# of a committed BENCH_host_perf.json recorded several PRs ago
_OLD7 = [
    "micro_local", "micro_global", "latency_mt", "scal_numa32",
    "cluster_ring", "idle_spin", "idle_spin_nosummary",
]
_NEW = _OLD7[:-1] + [
    "fault_net", "fault_slowcore", "fault_storm",
    "core_wheel", "core_heap", "leap_on", "leap_off",
]


def test_hostperf_diff_reports_added_and_removed_scenarios():
    """Matrix growth: an old baseline diffs cleanly against a wider run,
    with the set change reported explicitly instead of raising."""
    report = diff_docs(_matrix_doc(_OLD7), _matrix_doc(_NEW, ev_s=110_000.0))
    assert report.kind == "host_perf"
    assert report.added == sorted(set(_NEW) - set(_OLD7))
    assert report.removed == ["idle_spin_nosummary"]
    # comparable scenarios still get ratios; set-only entries sort last
    by_name = {e.name: e for e in report.entries}
    assert by_name["micro_local"].ratio == pytest.approx(1.1)
    assert by_name["leap_on"].ratio is None
    assert by_name["leap_on"].headline == "added (only in B)"
    assert by_name["idle_spin_nosummary"].headline == "removed (only in A)"
    assert "added" in report.headline and "removed" in report.headline
    text = format_diff(report)
    assert "added in B: " in text and "leap_on" in text
    assert "removed in B: idle_spin_nosummary" in text
    # JSON artifact carries the set change for machine consumers (CI)
    doc = report.to_jsonable()
    assert doc["added"] == report.added and doc["removed"] == report.removed


def test_hostperf_diff_fully_disjoint_sets_do_not_raise():
    report = diff_docs(_matrix_doc(["gone"]), _matrix_doc(["fresh"]))
    assert report.added == ["fresh"] and report.removed == ["gone"]
    assert all(e.ratio is None for e in report.entries)
    assert "(nothing to compare)" not in format_diff(report)


def test_diff_files_roundtrip(tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(_hostperf_doc()))
    pb.write_text(json.dumps(_hostperf_doc(fault_ev_s=90_000.0)))
    report = diff_files(str(pa), str(pb))
    assert report.entries[0].name == "fault_net"
    assert report.headline.startswith("aggregate")
