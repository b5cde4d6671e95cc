"""Quick perf matrices shared by the identity tests in this directory."""

import pytest

from tests.bench.quickmatrix import perf_quick


@pytest.fixture(scope="session")
def quick_matrix(tmp_path_factory):
    """``quick_matrix(leap=...)`` returns ``(scenarios by name, report
    path)`` of one ``perf --quick`` run in a fresh process.  Each setting
    runs once per session."""
    runs = {}

    def run(*, leap: str = "1"):
        if leap not in runs:
            out = tmp_path_factory.mktemp("quick_matrix") / f"perf_leap{leap}.json"
            runs[leap] = perf_quick(out, leap=leap), out
        return runs[leap]

    return run
