"""What ``import repro`` costs, and that deferring it hides nothing.

Each package ``__init__`` loads on import only what a simulation run
needs; offline tooling (trace analysis, Gantt rendering, blame diffs,
the figure harnesses, the MPI baselines, PIO-I/O, the job pool) and the
communication stack stay importable but load on first access
(:mod:`repro._lazy`).  The budget is checked in a fresh interpreter,
because this test process has long since imported everything.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: what a node world imports (perfbench's node_idle/node_storm set-up)
NODE_WORLD = (
    "repro",
    "repro.core.manager",
    "repro.threads.scheduler",
    "repro.sim.engine",
    "repro.topology.builder",
    "repro.obs.registry",
)

#: must not be loaded by NODE_WORLD
DEFERRED = (
    "repro.obs.analyze",
    "repro.obs.critpath",
    "repro.obs.diff",
    "repro.obs.gantt",
    "repro.obs.chrometrace",
    "repro.sim.debug",
    "repro.sim.report",
    "repro.bench.latency",
    "repro.bench.overlap",
    "repro.bench.reporting",
    "repro.bench.hostperf",
    "repro.bench.ablations",
    "repro.mpi.baseline",
    "repro.pioio",
    "repro.par.pool",
    "numpy",
    "multiprocessing",
)

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_node_world_imports_no_offline_tooling():
    code = "\n".join(f"import {m}" for m in NODE_WORLD) + (
        "\nimport sys\n"
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], "loaded on import: " + proc.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """Eager or deferred, every ``__all__`` name imports, is listed by
    ``dir()`` and comes along with ``from package import *``."""
    proc = _fresh_python(
        f"import {package} as pkg\n"
        "names = list(pkg.__all__)\n"
        "missing = [n for n in names if n not in dir(pkg)]\n"
        "assert not missing, f'not in dir(): {missing}'\n"
        "for n in names:\n"
        "    getattr(pkg, n)\n"
        "ns = {}\n"
        f"exec('from {package} import *', ns)\n"
        "assert set(names) <= set(ns), set(names) - set(ns)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_deferred_submodules_resolve_as_attributes():
    """As when every ``__init__`` imported them: ``repro.cluster`` and
    ``repro.obs.gantt`` need no import statement of their own."""
    proc = _fresh_python(
        "import repro\n"
        "assert repro.cluster.Cluster is repro.Cluster\n"
        "assert repro.obs.gantt.render_gantt_svg is repro.obs.render_gantt_svg\n"
        "assert repro.mpi.baseline.IMPLEMENTATIONS is repro.mpi.IMPLEMENTATIONS\n"
        "assert repro.sim.debug.__name__ == 'repro.sim.debug'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_still_raises_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.obs.nope  # noqa: B018
    with pytest.raises(ImportError):
        from repro.obs import nope  # noqa: F401


def test_quickstart_from_the_package_docstring_runs():
    """The quickstart is a node world: it must run, and still load none of
    the deferred modules."""
    doc = repro.__doc__
    body = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    code = "\n".join(line[4:] for line in body.splitlines())
    proc = _fresh_python(
        code + "\nimport sys\n"
        "assert pioman.stats.tasks_completed == 1, pioman.stats\n"
        "print(engine.now)\n"
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    now, *loaded = proc.stdout.split()
    assert int(now) > 0
    assert loaded == [], "quickstart loaded: " + " ".join(loaded)
