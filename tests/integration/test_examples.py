"""The fast examples must run end-to-end (the slow latency/overlap runs
are exercised by the EXPERIMENTS.md regeneration instead)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    out = _run("quickstart.py", capsys)
    assert "pinned ran on: 9" in out
    assert "poll attempts: 3" in out
    assert "execution shares by core" in out


def test_io_offload_example(capsys):
    out = _run("io_offload.py", capsys)
    assert out.count("I/O fully hidden behind computation: True") == 2


def test_multirail_aggregation_example(capsys):
    out = _run("multirail_aggregation.py", capsys)
    assert "aggregated_wrappers=12" in out
    assert "chunks=2" in out
    assert "x faster" in out


def test_comm_io_pipeline_example(capsys):
    out = _run("comm_io_pipeline.py", capsys)
    assert "pipeline achieved" in out
    # pipelining must beat the serial phases
    import re

    m = re.search(r"\((\d+\.\d+)x vs running", out)
    assert m and float(m.group(1)) > 1.2
