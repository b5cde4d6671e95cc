"""Quick perf matrices shared by the identity tests in this directory."""

import pytest

from tests.bench.quickmatrix import perf_quick


@pytest.fixture(scope="session")
def quick_matrix(tmp_path_factory):
    """``quick_matrix(leap=..., core=...)`` returns ``(scenarios by name,
    report path)`` of one ``perf --quick`` run in a fresh process.  Each
    setting runs once per session, so the default leg (leap on, wheel
    core) is shared by every identity test."""
    runs = {}

    def run(*, leap: str = "1", core: str = "wheel"):
        if (leap, core) not in runs:
            out = tmp_path_factory.mktemp("quick_matrix") / f"perf_leap{leap}_{core}.json"
            runs[leap, core] = perf_quick(out, leap=leap, core=core), out
        return runs[leap, core]

    return run
