"""Discrete-event simulation substrate.

Every other subsystem (topology-aware memory model, spinlocks, the thread
scheduler, NICs, PIOMan itself) runs on top of this engine.  The engine
maintains a virtual clock in **nanoseconds** and a heap of pending events.
Runs are fully deterministic: ties on the timestamp are broken by a
monotonically increasing sequence number, and all randomness used anywhere
in the package flows from a single seeded :class:`Rng`.

The simulated time unit is the nanosecond throughout the whole project;
helpers :data:`US` and :data:`MS` exist for readability.
"""

from repro.sim.engine import Engine, Event, SimulationError, DeadlockError
from repro.sim.rng import Rng
from repro.sim.trace import Tracer, TraceRecord
from repro.sim.units import NS, US, MS, SEC, fmt_ns
from repro._lazy import lazy_exports

# the debugging and report helpers load on first use (see repro._lazy)
__getattr__, __dir__ = lazy_exports(__name__, {}, submodules=("debug", "report"))

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "DeadlockError",
    "Rng",
    "Tracer",
    "TraceRecord",
    "report",
    "debug",
    "NS",
    "US",
    "MS",
    "SEC",
    "fmt_ns",
]
