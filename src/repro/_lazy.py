"""Deferred package exports (PEP 562).

A package ``__init__`` imports eagerly only the modules a simulation run
needs and lists the rest here; each such name is imported on first
attribute access and then cached in the package namespace, so
``from repro.obs import analyze_trace`` and ``from repro.obs import *``
work as before while ``import repro`` stays cheap::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "analyze": ("TraceAnalysis", "analyze_trace"),
    }, submodules=("debug",))

``attrs`` maps a submodule (relative to the package) to the names it
provides.  Those submodules, and any listed in ``submodules``, are also
exported as modules, so ``repro.obs.analyze`` still resolves after a bare
``import repro.obs``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    attrs: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``."""
    origin = {name: module for module, names in attrs.items() for name in names}
    submodules = frozenset(submodules) | attrs.keys()
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | submodules | set(origin))

    return __getattr__, __dir__
