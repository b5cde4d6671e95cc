"""repro — a reproduction of *"A scalable and generic task scheduling
system for communication libraries"* (Trahay & Denis, CLUSTER 2009).

The package rebuilds the paper's whole stack on a deterministic
discrete-event simulator (see DESIGN.md for the substitution rationale):

* :mod:`repro.core` — **PIOMan**, the hierarchical lightweight task
  scheduler (the paper's contribution);
* :mod:`repro.topology`, :mod:`repro.mem`, :mod:`repro.sync`,
  :mod:`repro.threads`, :mod:`repro.sim` — the machine substrate
  (topology-aware cache-line costs, spinlocks, Marcel-like scheduler with
  keypoints, virtual clock);
* :mod:`repro.net`, :mod:`repro.nmad`, :mod:`repro.mpi`,
  :mod:`repro.cluster` — the communication substrate (NIC/fabric models,
  NewMadeleine, Mad-MPI and the MVAPICH/OpenMPI-like baselines);
* :mod:`repro.bench` — harnesses regenerating every table and figure.

``import repro`` loads only the node substrate.  The communication stack,
PIO-I/O and the offline tooling (trace analysis and rendering, the
figure harnesses, the MPI baselines) load on first access: ``repro.Cluster``
works as before, but a node-only run never compiles them (docs/PERFORMANCE.md,
"Cold start").

Quickstart::

    from repro import Engine, Scheduler, PIOMan, LTask, CpuSet, borderline
    from repro.core import piom_wait

    machine = borderline()
    engine = Engine()
    sched = Scheduler(machine, engine)
    pioman = PIOMan(machine, engine, sched)

    def main(ctx):
        task = LTask(None, cpuset=CpuSet.single(3), name="hello")
        yield from pioman.submit(ctx.core_id, task)
        yield from piom_wait(pioman, ctx.core_id, task)

    sched.spawn(main, core=0)
    engine.run()
"""

from repro.sim import Engine, Rng, Tracer, NS, US, MS, fmt_ns
from repro.topology import (
    CpuSet,
    Level,
    Machine,
    MachineSpec,
    borderline,
    kwak,
    numa_machine,
    smp,
)
from repro.sync import AtomicCounter, Condition, LockStats, Mutex, SpinLock
from repro.threads import Flag, Prio, Scheduler, SimThread, ThreadCtx
from repro.core import (
    LTask,
    PIOMan,
    QueueHierarchy,
    TaskOption,
    TaskQueue,
    TaskState,
    piom_wait,
)
from repro.obs import MetricsRegistry
from repro._lazy import lazy_exports

__version__ = "1.0.0"

# The communication stack, PIO-I/O and the trace exporter load on first
# use (see repro._lazy), so a node-only run never compiles them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "cluster": ("Cluster", "Node"),
    "nmad": ("NMad",),
    "mpi": ("MadMPI", "MVAPICHLike", "OpenMPILike"),
    "obs": ("chrome_trace", "write_chrome_trace"),
    "pioio": ("BlockDevice", "PIOIo"),
}, submodules=("faults", "net", "par"))

__all__ = [
    "Engine", "Rng", "Tracer", "NS", "US", "MS", "fmt_ns",
    "MetricsRegistry", "chrome_trace", "write_chrome_trace",
    "CpuSet", "Level", "Machine", "MachineSpec",
    "borderline", "kwak", "smp", "numa_machine",
    "SpinLock", "Mutex", "Condition", "AtomicCounter", "LockStats",
    "Flag", "Prio", "Scheduler", "SimThread", "ThreadCtx",
    "LTask", "TaskOption", "TaskState", "TaskQueue", "QueueHierarchy",
    "PIOMan", "piom_wait",
    "Cluster", "Node", "NMad", "BlockDevice", "PIOIo",
    "MadMPI", "MVAPICHLike", "OpenMPILike",
    "__version__",
]
