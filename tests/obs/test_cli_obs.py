"""Bench CLI observability flags: --metrics-out / --trace-out artifacts."""

import json

from repro.bench.cli import main
from repro.obs import MetricsRegistry


def test_cli_emits_metrics_and_trace(tmp_path, capsys):
    m_out = tmp_path / "m.json"
    t_out = tmp_path / "t.json"
    rc = main(
        [
            "table1", "--reps", "10",
            "--metrics-out", str(m_out),
            "--trace-out", str(t_out),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert str(m_out) in out and str(t_out) in out

    metrics = json.loads(m_out.read_text())
    snap = metrics["metrics"]
    # the acceptance triple: per-queue lost_races, per-lock contention
    # ratio, per-core execution shares
    assert any(k.endswith(".lost_races") for k in snap)
    assert any(k.endswith(".lock.contention_ratio") for k in snap)
    shares = {k: v for k, v in snap.items() if ".shares." in k}
    assert shares and abs(sum(shares.values()) - 1.0) < 1e-9
    assert any(k.endswith(".latency.submit_to_complete.p99") for k in snap)

    trace = json.loads(t_out.read_text())
    assert trace["traceEvents"]
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_cli_metrics_without_table_target_runs_dedicated_pass(tmp_path, capsys):
    m_out = tmp_path / "m.json"
    rc = main(["fig5", "--points", "2", "--metrics-out", str(m_out)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dedicated" in out
    snap = json.loads(m_out.read_text())["metrics"]
    assert any(k.startswith("pioman.q:") for k in snap)


def test_cli_snapshot_diff_round_trip(tmp_path, capsys):
    """Two instrumented runs diff cleanly through MetricsRegistry.diff."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["table1", "--reps", "5", "--metrics-out", str(a)])
    main(["table1", "--reps", "10", "--metrics-out", str(b)])
    capsys.readouterr()
    snap_a = json.loads(a.read_text())["metrics"]
    snap_b = json.loads(b.read_text())["metrics"]
    delta = MetricsRegistry.diff(snap_a, snap_b)
    # more reps -> strictly more submits; unchanged zero counters omitted
    assert delta["pioman.submits"] == 5
    assert all(v != 0 for v in delta.values())
