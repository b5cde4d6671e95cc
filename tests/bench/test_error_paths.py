"""Error paths and boundary arguments in the bench harnesses."""

import pytest

from repro.bench.latency import LatencySeries
from repro.bench.overlap import OverlapSeries, run_overlap_once
from repro.bench.task_microbench import measure_queue
from repro.mpi import MadMPI
from repro.topology import CpuSet, borderline


def test_latency_series_unknown_count():
    s = LatencySeries(impl="X")
    with pytest.raises(KeyError):
        s.latency_at(5)


def test_overlap_series_unknown_compute():
    s = OverlapSeries(impl="X", placement="sender", size_bytes=1024)
    with pytest.raises(KeyError):
        s.ratio_at(123)


def test_overlap_bad_placement_rejected():
    with pytest.raises(ValueError):
        run_overlap_once(MadMPI, "diagonal", 1024, 0)


def test_measure_queue_explicit_wait_mode():
    m = borderline()
    row = measure_queue(
        m, CpuSet.single(0), reps=20, wait_mode="block", label="block-mode"
    )
    assert row.mean_ns > 0 and row.shares == {0: 1.0}


def test_measure_queue_warmup_fraction_applied():
    m = borderline()
    full = measure_queue(m, CpuSet.single(2), reps=30, warmup_frac=0.0)
    trimmed = measure_queue(m, CpuSet.single(2), reps=30, warmup_frac=0.5)
    # both sane; trimming only drops early samples
    assert full.mean_ns > 0 and trimmed.mean_ns > 0


def test_cli_rejects_unknown_target(capsys):
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("flag", ["--json", "--metrics-out", "--trace-out"])
def test_cli_rejects_missing_output_dir_before_running(flag, tmp_path, capsys):
    """A bad output path fails at once with one line naming the flag —
    not with a traceback after the whole run."""
    from repro.bench.cli import main

    bad = str(tmp_path / "missing" / "out.json")
    assert main(["table1", "--reps", "10", flag, bad]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no target ran
    assert err.splitlines() == [
        f"repro-bench: error: {flag} {bad}: directory "
        f"{tmp_path / 'missing'} does not exist"
    ]


def test_cli_rejects_directory_as_output(tmp_path, capsys):
    from repro.bench.cli import main

    assert main(["table1", "--reps", "10", "--json", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"repro-bench: error: --json {tmp_path}: is a directory"


def test_diff_rejects_missing_json_out_dir(tmp_path, capsys):
    import json

    from repro.bench.cli import main

    doc = tmp_path / "m.json"
    doc.write_text(json.dumps({"metrics": {"a.b": 1}}))
    bad = str(tmp_path / "missing" / "diff.json")
    assert main(["diff", str(doc), str(doc), "--json-out", bad]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"repro-bench: error: --json-out {bad}: directory "
        f"{tmp_path / 'missing'} does not exist"
    ]
    # the same call with a writable path succeeds
    good = tmp_path / "diff.json"
    assert main(["diff", str(doc), str(doc), "--json-out", str(good)]) == 0
    assert json.loads(good.read_text()) is not None
