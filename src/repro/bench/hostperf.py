"""Host-performance benchmark harness (``python -m repro.bench perf``).

Everything else in :mod:`repro.bench` measures *virtual* nanoseconds —
the numbers the paper reports.  This module measures the **host**: how
many simulator events per wall-clock second the discrete-event core
sustains on a fixed, seeded workload matrix (``BENCH_host_perf.json``);
host speed is what bounds how large fig4, the scalability sweep and
cluster runs can get.

The matrix is one table, :data:`MATRIX`, one row per workload: Table-I
submit→complete round-trips (``micro_local``/``micro_global``), a fig4
multi-threaded ping-pong over the cluster stack (``latency_mt``), a
32-core NUMA scalability rung (``scal_numa32``), a 4-node ring
(``cluster_ring``), idle-heavy spin-polling for the occupancy-summary
fast path and the quiescence leap (``idle_spin``/``leap_on``),
:mod:`repro.faults` worlds (``fault_net``/``fault_slowcore``/
``fault_storm``) and a generated workload run whole and in two shards
(``cluster_shard2``).

:func:`run_scenario` is the one runner: it builds a row's world, times
the simulation, fails loudly on a stall and returns a **fingerprint** of
the simulated outcome (virtual time, events fired, the row's counters).
An optimization that changes a fingerprint changed the simulation, not
just its speed.  The fast path's and the leap's on/off identity is gated
by tests (``tests/bench/test_hostperf.py``,
``test_summary_matrix_identity.py``, ``test_leap_matrix_identity.py``)
that rerun a row with ``fastpath=False`` or ``leap=False``, not by
matrix rows.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from repro.sim.engine import Engine


@dataclass
class ScenarioResult:
    """One scenario: host throughput plus a semantic fingerprint."""

    name: str
    events: int
    wall_ms: float
    events_per_sec: float
    virtual_ns: int
    fingerprint: dict = field(default_factory=dict)


@dataclass
class HostPerfReport:
    """The matrix plus the aggregate headline.  ``total_wall_ms`` sums the
    scenarios' own run times; ``elapsed_wall_ms`` is the matrix's
    end-to-end wall clock, which parallel fan-out (``jobs > 1``) shrinks."""

    scenarios: list[ScenarioResult] = field(default_factory=list)
    total_events: int = 0
    total_wall_ms: float = 0.0
    aggregate_events_per_sec: float = 0.0
    jobs: int = 1
    elapsed_wall_ms: float = 0.0

    def finish(self) -> "HostPerfReport":
        self.total_events = sum(s.events for s in self.scenarios)
        self.total_wall_ms = sum(s.wall_ms for s in self.scenarios)
        if self.total_wall_ms > 0:
            self.aggregate_events_per_sec = self.total_events / (self.total_wall_ms / 1e3)
        return self


# builders: ``build(seed=, **kwargs)`` prepares a world and returns its
# ``run()``, which simulates and returns ``(events, virtual_ns, outcome)``;
# ``outcome()`` raises RuntimeError on a stall, else returns the counters
# a row may fingerprint.  Only ``run()`` is timed.
def _engine_run(engine: Engine, until: int, threads: list, outcome: Callable):
    """``run()`` of a one-engine world: spawn ``threads`` (``(scheduler,
    body, core, name)``), then run the engine to ``until``."""

    def run():
        fired0 = engine.fired
        for sched, body, core, name in threads:
            sched.spawn(body, core, name=name)
        engine.run(until=until)
        return engine.fired - fired0, engine.now, outcome

    return run


def _pioman_world(machine, seed: int, *, true_spin: bool = False, **kwargs):
    """A seeded scheduler on ``machine`` with PIOMan (``kwargs``) attached."""
    from repro.core.manager import PIOMan
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler

    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=true_spin)
    return engine, sched, PIOMan(machine, engine, sched, **kwargs)


def _pioman_counters(pioman) -> dict:
    st = pioman.stats
    return {"submits": st.submits, "executions": st.executions,
            "schedule_passes": st.schedule_passes,
            "summary_hits": pioman.hierarchy.summary_stats.summary_hits}


def _roundtrip(
    *, seed: int, machine: str, cpuset: str, reps: int,
    until_per_rep: int = 1_000_000, slow_cores: tuple = (), factor: float = 1.0,
):
    """Submit→``piom_wait`` round-trips from core 0 to its own queue
    (``cpuset="local"``, active wait) or the machine-wide one
    (``"global"``, spin wait).  ``machine`` is a ``MACHINES`` name or
    ``"numa32"`` (the scalability sweep's 4x8 rung).  ``slow_cores`` run
    ``factor``x slower (the fault injector's per-core skew)."""
    from repro.bench.scalability import scaled_machine
    from repro.core.progress import piom_wait
    from repro.core.task import LTask
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan, SlowCores
    from repro.topology.builder import MACHINES
    from repro.topology.cpuset import CpuSet

    m = scaled_machine(4, 8) if machine == "numa32" else MACHINES[machine]()
    engine, sched, pioman = _pioman_world(m, seed)
    injector = None
    if slow_cores:
        plan = FaultPlan(seed=seed, slow_cores=SlowCores(cores=tuple(slow_cores), factor=factor))
        injector = FaultInjector(plan).install(scheduler=sched, pioman=pioman)
    local = cpuset == "local"
    cpus = CpuSet.single(0) if local else m.all_cores()
    mode = "active" if local else "spin"

    def submitter(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=cpus, name=f"rt{i}")
            yield from pioman.submit(0, task)
            yield from piom_wait(pioman, 0, task, mode=mode)

    def outcome() -> dict:
        if pioman.stats.tasks_completed < reps:
            raise RuntimeError(f"stalled at {pioman.stats.tasks_completed}/{reps}")
        return {**_pioman_counters(pioman),
                "slow_cores": injector.stats.slow_cores if injector else 0}

    return _engine_run(engine, reps * until_per_rep,
                       [(sched, submitter, 0, "rt-submitter")], outcome)


def _cluster(
    *, seed: int, pattern: str, iters: int, size: int, nnodes: int = 2,
    nthreads: int = 1, drop_p: float = 0.0, reorder_p: float = 0.0,
):
    """MPI exchanges over a cluster.  ``pingpong``: a sender on node 0
    round-trips ``iters`` times with each of ``nthreads`` receiver threads
    on node 1 (fig4).  ``ring``: every node sends to its successor,
    ``iters`` times, all at once.  ``stream``: node 0 sends ``iters`` eager
    messages to node 1 through ``Nic.post_send``, where seeded
    drops/reorders (``drop_p``/``reorder_p``) and the retransmit bite."""
    from repro.cluster.cluster import Cluster
    from repro.faults.plan import FaultPlan, NetFaults
    from repro.mpi import MadMPI

    plan = None
    if drop_p or reorder_p:
        plan = FaultPlan(seed=seed, net=NetFaults(drop_p=drop_p, reorder_p=reorder_p))
    cluster = Cluster(nnodes, seed=seed, faults=plan)
    mpi = MadMPI(cluster)
    comms = [mpi.comm(i) for i in range(nnodes)]
    # threads as (node, core, name, steps); a step is a sequence of
    # (peer, tag, payload) operations: a send, or a receive when the
    # payload is None
    if pattern == "pingpong":
        ncores = cluster.nodes[1].machine.ncores
        threads = [(1, tid % ncores, f"recv{tid}", [((0, tid, None), (0, tid, b"r"))] * iters)
                   for tid in range(nthreads)]
        # last, so lats[-1] holds the round-trip latencies
        threads.append((0, 0, "sender", [((1, tid, b"p"), (1, tid, None))
                                         for _ in range(iters) for tid in range(nthreads)]))
        until = iters * nthreads * 3_000_000 + 50_000_000
    elif pattern == "ring":
        threads = [(r, 0, f"ring{r}", [(((r + 1) % nnodes, it, b"x"), ((r - 1) % nnodes, it, None))
                                      for it in range(iters)])
                   for r in range(nnodes)]
        until = iters * nnodes * 5_000_000 + 50_000_000
    elif pattern == "stream":
        threads = [(0, 0, "stream-send", [((1, i, b"x"),) for i in range(iters)]),
                   (1, 0, "stream-recv", [((0, i, None),) for i in range(iters)])]
        until = iters * 10_000_000 + 100_000_000
    else:
        raise ValueError(f"unknown cluster pattern {pattern!r}")
    lats: list[list[int]] = [[] for _ in threads]  # per-step latency, per thread

    def body(comm, steps, lat):
        def run(ctx):
            for step in steps:
                t0 = ctx.now
                for peer, tag, payload in step:
                    if payload is None:
                        yield from comm.recv(ctx.core_id, peer, tag)
                    else:
                        yield from comm.send(ctx.core_id, peer, tag, size, payload=payload)
                lat.append(ctx.now - t0)

        return run

    def outcome() -> dict:
        done, want = [len(lat) for lat in lats], [len(t[3]) for t in threads]
        if done != want:
            raise RuntimeError(f"stalled at {done} of {want} steps")
        counters = {"round_trips": len(lats[-1]), "sum_latency_ns": sum(lats[-1]),
                    "exchanges": sum(done), "messages": sum(done)}
        if plan is not None:
            fs = cluster.faults.stats
            counters.update(drops=fs.drops, retransmits=fs.retransmits, reorders=fs.reorders)
        return counters

    return _engine_run(cluster.engine, until, [
        (cluster.nodes[node].scheduler, body(comms[node], steps, lat), core, name)
        for (node, core, name, steps), lat in zip(threads, lats)
    ], outcome)


def _idle_spin(
    *, seed: int, duration_us: int, gap_us: int, fastpath: bool = True,
    leap: Optional[bool] = None,
):
    """Idle-heavy spin-polling on a 24-core chiplet machine: one driver
    core submits a small single-core task every ``gap_us`` while the
    other 23 cores spin-poll an almost-always-empty hierarchy — a
    communication library between messages.  ``fastpath=False`` runs the
    same simulation with the occupancy-summary fast path off; ``leap``
    pins the quiescence leap on or off (``None``: the process default)."""
    from repro.core.task import LTask
    from repro.threads.instructions import Compute
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet

    duration, gap = duration_us * 1_000, gap_us * 1_000
    machine = ccx_machine()
    ncores = machine.ncores
    engine, sched, pioman = _pioman_world(machine, seed, true_spin=True,
                                          summary_fastpath=fastpath,
                                          quiescence_leap=leap)

    def driver(ctx):
        i = 0
        while engine.now < duration:
            yield Compute(gap)
            cpus = CpuSet.single(1 + (5 * i + 3) % (ncores - 1))
            yield from pioman.submit(0, LTask(None, cpuset=cpus, name=f"idle{i}"))
            i += 1

    def outcome() -> dict:
        if pioman.stats.tasks_completed == 0:
            raise RuntimeError("no task ever completed")
        return _pioman_counters(pioman)

    return _engine_run(engine, duration, [(sched, driver, 0, "idle-driver")], outcome)


def _storm(*, seed: int, decoys: int, gap_us: int):
    """Cancellation storm + lock-holder preemption on a spin-polling host:
    decoy tasks pinned to the driver's core linger in its queue while
    storm ticks fire ``PIOMan.cancel`` at them — racing in-flight
    execution on purpose — and every queue-lock grant may eat an injected
    descheduling window.  The outcome checks submitted = executed +
    cancelled."""
    from repro.core.task import LTask
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import CancelStorm, FaultPlan, LockPreemption
    from repro.threads.instructions import Compute
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet

    gap = gap_us * 1_000
    engine, sched, pioman = _pioman_world(ccx_machine(), seed, true_spin=True)
    plan = FaultPlan(
        seed=seed,
        # the double-checked fallback keeps empty queues lock-free, so
        # grants are scarce — a high p is needed to see preemptions at all
        lock_preemption=LockPreemption(p=0.25, window_ns=30_000),
        cancel_storm=CancelStorm(count=max(2, decoys // 4), interval_ns=3 * gap, start_ns=gap),
    )
    fs = FaultInjector(plan).install(scheduler=sched, pioman=pioman).stats

    def driver(ctx):
        for i in range(decoys):
            yield Compute(gap)
            yield from pioman.submit(0, LTask(None, cpuset=CpuSet.single(0), name=f"decoy{i}"))

    def outcome() -> dict:
        st = pioman.stats
        if st.executions + fs.cancel_hits < st.submits:
            raise RuntimeError(f"lost tasks ({st.submits} submitted, {st.executions} "
                               f"ran, {fs.cancel_hits} cancelled)")
        return {**_pioman_counters(pioman), "cancel_attempts": fs.cancel_attempts,
                "cancel_hits": fs.cancel_hits, "lock_preemptions": fs.lock_preemptions}

    return _engine_run(engine, decoys * gap + 50_000_000,
                       [(sched, driver, 0, "storm-driver")], outcome)


def _sharded(*, seed: int, nnodes: int, reqs: int):
    """A generated ring workload run single-process (``nshards=1``) and
    split in two (``nshards=2``), both serial — matrix rows may run in
    daemonic ``--jobs`` workers, which cannot fork.  The fingerprints must
    be identical (the shard identity contract); both runs are timed."""
    from repro.cluster.shard import run_sharded
    from repro.cluster.workload import WorkloadSpec, verify_completion

    spec = WorkloadSpec(
        nnodes=nnodes, requests_per_node=reqs, pattern="ring", arrival="closed",
        mean_gap_ns=20_000, think_ns=5_000, rdv_fraction=0.25, seed=seed,
    )
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
    builder = "repro.cluster.workload:build_workload_cluster"

    def run():
        one = run_sharded(builder, kwargs, nshards=1, serial=True)
        two = run_sharded(builder, kwargs, nshards=2, serial=True)

        def outcome() -> dict:
            if one.fingerprint() != two.fingerprint():
                raise RuntimeError(
                    "sharded fingerprint diverged from single-process "
                    f"({two.fingerprint()[:16]}… vs {one.fingerprint()[:16]}…)"
                )
            verify_completion(one.snapshot, spec)
            return {"fired": one.fired, "windows_2shard": two.windows,
                    "run_fingerprint": one.fingerprint(), "identical": True}

        return one.fired + two.fired, one.virtual_ns, outcome

    return run


# the matrix: one table, one runner
class Row(NamedTuple):
    """One matrix scenario."""

    build: Callable
    seed: int  # offset from the matrix seed
    keys: tuple  # counters fingerprinted after fired/virtual_ns
    quick: dict  # builder kwargs of the quick matrix
    full: dict  # what the full matrix overrides (4x the work)


_PASSES = ("submits", "executions", "schedule_passes")
_IDLE = _PASSES + ("summary_hits",)

#: Seed offsets, ``until`` bounds and fingerprint keys are fixed: a row
#: that changes any of them no longer matches its committed fingerprint.
MATRIX: dict[str, Row] = {
    "micro_local": Row(_roundtrip, 0, _PASSES, dict(machine="borderline", cpuset="local",
                                                    reps=150), dict(reps=600)),
    "micro_global": Row(_roundtrip, 1, _PASSES, dict(machine="borderline", cpuset="global",
                                                     reps=100), dict(reps=400)),
    "latency_mt": Row(_cluster, 2, ("round_trips", "sum_latency_ns"),
                      dict(pattern="pingpong", nthreads=8, size=4, iters=2), dict(iters=8)),
    "scal_numa32": Row(_roundtrip, 3, ("submits", "executions"),
                       dict(machine="numa32", cpuset="global", reps=30), dict(reps=120)),
    "cluster_ring": Row(_cluster, 4, ("exchanges",),
                        dict(pattern="ring", nnodes=4, size=1024, iters=4), dict(iters=16)),
    "idle_spin": Row(_idle_spin, 5, _IDLE, dict(duration_us=75, gap_us=20),
                     dict(duration_us=300, best_of=5)),
    "leap_on": Row(_idle_spin, 10, _IDLE, dict(duration_us=150, gap_us=25),
                   dict(duration_us=600, best_of=3)),
    "fault_net": Row(_cluster, 6, ("messages", "drops", "retransmits", "reorders"),
                     dict(pattern="stream", size=4096, drop_p=0.12, reorder_p=0.2, iters=6),
                     dict(iters=24)),
    "fault_slowcore": Row(_roundtrip, 7, ("submits", "executions", "slow_cores"),
                          dict(machine="borderline", cpuset="global", until_per_rep=2_000_000,
                               slow_cores=(1, 3), factor=3.0, reps=40),
                          dict(reps=160)),
    "fault_storm": Row(_storm, 8, ("submits", "executions", "cancel_attempts",
                                   "cancel_hits", "lock_preemptions"),
                       dict(decoys=10, gap_us=20), dict(decoys=40)),
    "cluster_shard2": Row(_sharded, 11, ("fired", "windows_2shard", "run_fingerprint",
                                         "identical"),
                          dict(nnodes=6, reqs=2), dict(reqs=8)),
}


def run_scenario(name: str, seed: int, best_of: int = 1, **kwargs) -> ScenarioResult:
    """Run matrix row ``name``: its quick-matrix kwargs, overridden by
    ``kwargs``.  ``best_of`` rebuilds and reruns the identical world and
    keeps the fastest wall time: idle passes are microsecond-scale, so
    one run is at the mercy of host scheduling noise."""
    row = MATRIX[name]
    best = None
    for _ in range(max(1, best_of)):
        run = row.build(seed=seed, **{**row.quick, **kwargs})
        t0 = time.perf_counter()
        events, virtual_ns, outcome = run()
        wall_ms = (time.perf_counter() - t0) * 1e3
        if best is None or wall_ms < best[1]:
            best = (events, wall_ms, virtual_ns, outcome)
    events, wall_ms, virtual_ns, outcome = best
    try:
        counters = outcome()
    except RuntimeError as exc:
        raise RuntimeError(f"{name}: {exc}") from None
    fingerprint = {"fired": events, "virtual_ns": virtual_ns}
    fingerprint.update((k, counters[k]) for k in row.keys)
    ev_s = events / (wall_ms / 1e3) if wall_ms else 0.0
    return ScenarioResult(name, events, wall_ms, ev_s, virtual_ns, fingerprint)


def matrix_specs(*, quick: bool = False, seed: int = 7) -> list:
    """The matrix as :class:`repro.par.JobSpec` jobs, in table order.  Each
    carries its own seed, so its fingerprint is fixed before any worker
    runs: identical serially, in parallel, in any completion order."""
    from repro.par import JobSpec

    specs = []
    for name, row in MATRIX.items():
        kwargs = {"name": name, "seed": seed + row.seed, **row.quick}
        if not quick:
            kwargs.update(row.full)
        specs.append(JobSpec(name=name, target=f"{__name__}:run_scenario", kwargs=kwargs))
    return specs


def run_host_perf(
    *, quick: bool = False, seed: int = 7, jobs: int = 1, timeout_s: Optional[float] = None,
) -> HostPerfReport:
    """Run the matrix; ``quick`` shrinks it for CI smoke.  ``jobs > 1``
    fans it out over ``repro.par`` workers: fingerprints stay
    bit-identical to serial, only ``elapsed_wall_ms`` drops."""
    from repro.par import run_jobs_strict

    t0 = time.perf_counter()
    results = run_jobs_strict(matrix_specs(quick=quick, seed=seed), jobs=jobs, timeout_s=timeout_s)
    report = HostPerfReport(scenarios=list(results), jobs=max(1, jobs))
    report.elapsed_wall_ms = (time.perf_counter() - t0) * 1e3
    return report.finish()


def format_host_perf(report: HostPerfReport) -> str:
    lines = [
        "Host performance (simulator events per wall-clock second)",
        f"{'scenario':<20}{'events':>10}{'wall ms':>10}{'events/s':>12}{'virtual ms':>12}",
    ]
    lines.extend(
        f"{s.name:<20}{s.events:>10}{s.wall_ms:>10.1f}"
        f"{s.events_per_sec:>12.0f}{s.virtual_ns / 1e6:>12.2f}"
        for s in report.scenarios
    )
    lines.append(
        f"{'AGGREGATE':<20}{report.total_events:>10}{report.total_wall_ms:>10.1f}"
        f"{report.aggregate_events_per_sec:>12.0f}"
    )
    if report.jobs > 1:
        lines.append(f"(elapsed {report.elapsed_wall_ms:.1f} ms end-to-end over "
                     f"{report.jobs} worker processes)")
    return "\n".join(lines)


def report_to_jsonable(report: HostPerfReport, *, quick: bool, seed: int) -> dict:
    return {
        "meta": {"kind": "host_perf", "quick": quick, "seed": seed, "jobs": report.jobs,
                 "python": sys.version.split()[0]},
        "aggregate": {
            "events": report.total_events,
            "wall_ms": round(report.total_wall_ms, 3),
            "elapsed_wall_ms": round(report.elapsed_wall_ms, 3),
            "events_per_sec": round(report.aggregate_events_per_sec, 1),
        },
        "scenarios": [
            {"name": s.name, "events": s.events, "wall_ms": round(s.wall_ms, 3),
             "events_per_sec": round(s.events_per_sec, 1), "virtual_ns": s.virtual_ns,
             "fingerprint": s.fingerprint}
            for s in report.scenarios
        ],
    }


# parallel fan-out: serial vs N-worker comparison (BENCH_parallel.json)
@dataclass
class ParallelComparison:
    """Serial vs ``--jobs N`` for the same matrix: speedup + identity."""

    jobs: int
    serial: HostPerfReport
    parallel: HostPerfReport
    mismatches: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        par = self.parallel.elapsed_wall_ms
        return self.serial.elapsed_wall_ms / par if par else 0.0


def compare_fingerprints(a: HostPerfReport, b: HostPerfReport) -> list[str]:
    """Scenario-by-scenario fingerprint differences (empty = identical)."""
    names_a = [s.name for s in a.scenarios]
    names_b = [s.name for s in b.scenarios]
    if names_a != names_b:
        return [f"scenario sets differ: {names_a} vs {names_b}"]
    return [
        f"{sa.name}: fingerprint diverged ({sa.fingerprint} vs {sb.fingerprint})"
        for sa, sb in zip(a.scenarios, b.scenarios)
        if sa.fingerprint != sb.fingerprint
    ]


def run_parallel_comparison(
    *, jobs: int = 4, quick: bool = False, seed: int = 7, timeout_s: Optional[float] = None,
) -> ParallelComparison:
    """Run the matrix serially, then with ``jobs`` workers, and compare.
    Any fingerprint divergence is a bug in the shared-nothing contract;
    the speedup is whatever the host gives, only identity is gated on."""
    if jobs < 2:
        raise ValueError(f"parallel comparison needs jobs >= 2, got {jobs}")
    serial = run_host_perf(quick=quick, seed=seed, jobs=1)
    parallel = run_host_perf(quick=quick, seed=seed, jobs=jobs, timeout_s=timeout_s)
    return ParallelComparison(jobs, serial, parallel, compare_fingerprints(serial, parallel))


def format_parallel_comparison(cmp: ParallelComparison) -> str:
    lines = [
        f"Parallel fan-out: serial vs --jobs {cmp.jobs} (same seeds, same virtual outcomes)",
        f"{'scenario':<20}{'serial ms':>11}{'par ms':>9}{'fingerprint':>13}",
    ]
    lines.extend(
        f"{ss.name:<20}{ss.wall_ms:>11.1f}{ps.wall_ms:>9.1f}"
        f"{'identical' if ss.fingerprint == ps.fingerprint else 'DIVERGED':>13}"
        for ss, ps in zip(cmp.serial.scenarios, cmp.parallel.scenarios)
    )
    lines.append(
        f"{'ELAPSED':<20}{cmp.serial.elapsed_wall_ms:>11.1f}"
        f"{cmp.parallel.elapsed_wall_ms:>9.1f}{cmp.speedup:>11.2f}x"
    )
    return "\n".join(lines)


def parallel_report_to_jsonable(cmp: ParallelComparison, *, quick: bool, seed: int) -> dict:
    return {
        "meta": {
            "kind": "host_perf_parallel", "quick": quick, "seed": seed, "jobs": cmp.jobs,
            # wall-time speedup is bounded by the cores the host grants;
            # identity of the virtual outcomes is what CI gates on
            "host_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "speedup": round(cmp.speedup, 3),
        "identical": cmp.identical,
        "mismatches": cmp.mismatches,
        "serial_elapsed_wall_ms": round(cmp.serial.elapsed_wall_ms, 3),
        "parallel_elapsed_wall_ms": round(cmp.parallel.elapsed_wall_ms, 3),
        "scenarios": [
            {"name": ss.name, "serial_wall_ms": round(ss.wall_ms, 3),
             "parallel_wall_ms": round(ps.wall_ms, 3), "fingerprint": ss.fingerprint,
             "fingerprint_identical": ss.fingerprint == ps.fingerprint}
            for ss, ps in zip(cmp.serial.scenarios, cmp.parallel.scenarios)
        ],
    }


def check_regression(
    report: HostPerfReport, baseline_path: str, *, max_regression: float = 2.0
) -> list[str]:
    """Failures (empty = pass) against a committed ``BENCH_host_perf.json``:
    a scenario (or the aggregate) whose events/sec dropped more than
    ``max_regression``x — generous on purpose, since hosts vary.  A
    scenario with no baseline entry is announced and skipped, so a
    renamed one can't dodge the gate unnoticed."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    by_name = {s["name"]: s for s in baseline.get("scenarios", [])}
    failures: list[str] = []
    for s in report.scenarios:
        ref = by_name.get(s.name)
        if ref is None or not ref.get("events_per_sec"):
            print(f"{s.name}: no baseline entry, skipped")
            continue
        floor = ref["events_per_sec"] / max_regression
        if s.events_per_sec < floor:
            failures.append(f"{s.name}: {s.events_per_sec:.0f} ev/s < floor {floor:.0f} "
                            f"(committed {ref['events_per_sec']:.0f}, "
                            f"max regression {max_regression}x)")
    agg_ref = baseline.get("aggregate", {}).get("events_per_sec")
    if agg_ref:
        floor = agg_ref / max_regression
        if report.aggregate_events_per_sec < floor:
            failures.append(f"aggregate: {report.aggregate_events_per_sec:.0f} ev/s < "
                            f"floor {floor:.0f} (committed {agg_ref:.0f})")
    return failures


def _profile_rows(items, top: int) -> list[dict]:
    """The ``top`` rows ``(func key, (ncalls, tottime, cumtime))`` by
    tottime, as jsonable dicts."""
    rows = sorted(items, key=lambda kv: kv[1][1], reverse=True)[:top]
    return [
        {"func": f"{fname}:{lineno}:{func}", "ncalls": nc,
         "tottime_ms": round(tt * 1e3, 3), "cumtime_ms": round(ct * 1e3, 3)}
        for (fname, lineno, func), (nc, tt, ct) in rows
    ]


def run_profiled(*, quick: bool = False, seed: int = 7, top: int = 25) -> dict:
    """Run the matrix serially under cProfile (``perf --profile``): per
    scenario, the ``top`` functions by tottime and the (profiler-
    distorted) throughput, plus an **aggregate** ranking merged over the
    whole matrix, so a regression the gate flags can be attributed to a
    function from one artifact."""
    import cProfile
    import pstats

    scenarios = []
    merged: dict = {}  # func key -> [ncalls, tottime, cumtime]
    for spec in matrix_specs(quick=quick, seed=seed):
        prof = cProfile.Profile()
        result = prof.runcall(spec.run)
        # pstats values are (cc, nc, tt, ct, callers)
        stats = {key: stat[1:4] for key, stat in pstats.Stats(prof).stats.items()}
        for key, stat in stats.items():
            acc = merged.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(stat):
                acc[i] += v
        scenarios.append({
            "name": spec.name,
            "events": result.events,
            "events_per_sec": round(result.events_per_sec, 1),
            "top": _profile_rows(stats.items(), top),
        })
    return {
        "meta": {"kind": "host_perf_profile", "quick": quick, "seed": seed, "top": top,
                 "profiled": True, "python": sys.version.split()[0]},
        "scenarios": scenarios,
        "aggregate_profile": {
            "events": sum(s["events"] for s in scenarios),
            "top": _profile_rows(merged.items(), top),
        },
    }


def format_profile(doc: dict, *, show: int = 5) -> str:
    lines = ["Host performance profile (cProfile, tottime per scenario)"]
    sections = [(f"{s['name']}  ({s['events']} events)", s["top"][:show])
                for s in doc["scenarios"]]
    agg = doc.get("aggregate_profile")
    if agg:
        sections.append((f"AGGREGATE (whole matrix, {agg['events']} events)",
                         agg["top"][: 2 * show]))
    for title, rows in sections:
        lines.append(title)
        lines.extend(f"  {row['tottime_ms']:>9.2f} ms  {row['ncalls']:>8} calls  {row['func']}"
                     for row in rows)
    return "\n".join(lines)


def _dump(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote {path}")


def main(argv: Optional[list[str]] = None) -> int:
    """The ``perf`` subcommand body (called from :mod:`repro.bench.cli`)."""
    import argparse

    from repro.bench.cli import check_outputs, jobs_arg

    ap = argparse.ArgumentParser(
        prog="repro-bench perf",
        description="Host-speed benchmark: events/sec over a fixed seeded "
        "workload matrix; writes BENCH_host_perf.json.",
    )
    ap.add_argument("--out", metavar="PATH", default="BENCH_host_perf.json",
                    help="where to write the JSON report (default ./BENCH_host_perf.json)")
    ap.add_argument("--quick", action="store_true", help="reduced matrix for CI smoke runs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                    help="run the scenario matrix over N worker processes "
                    "('auto' or 0 = every CPU; default 1 = serial; virtual "
                    "outcomes are identical either way)")
    ap.add_argument("--job-timeout", type=float, default=None, metavar="S",
                    help="per-scenario wall-clock limit in seconds when using --jobs")
    ap.add_argument("--parallel-report", metavar="PATH", default=None,
                    help="run the matrix serially AND with --jobs workers, write the "
                    "speedup/identity comparison to PATH (exits non-zero if the "
                    "fingerprints diverge)")
    ap.add_argument("--baseline", metavar="PATH", default=None, help="compare against a "
                    "committed BENCH_host_perf.json and exit non-zero on regression")
    ap.add_argument("--max-regression", type=float, default=2.0, help="events/sec slowdown "
                    "factor that fails --baseline comparison (default 2.0)")
    ap.add_argument("--profile", metavar="PATH", default=None,
                    help="run the matrix serially under cProfile and write the top "
                    "functions by tottime per scenario to PATH as JSON; profiled "
                    "throughput is distorted, so no BENCH report is written")
    ap.add_argument("--profile-top", type=int, default=25, metavar="N",
                    help="functions kept per scenario in the --profile artifact (default 25)")
    args = ap.parse_args(argv)
    # each mode writes one report, after the matrix: check it up front
    if check_outputs(
        ("--profile", args.profile),
        ("--parallel-report", args.parallel_report),
        ("--out", None if args.profile or args.parallel_report else args.out),
    ):
        return 2
    if args.profile:
        doc = run_profiled(quick=args.quick, seed=args.seed, top=args.profile_top)
        print(format_profile(doc))
        _dump(args.profile, doc)
        return 0
    if args.parallel_report:
        cmp = run_parallel_comparison(
            jobs=args.jobs if args.jobs > 1 else 4, quick=args.quick, seed=args.seed,
            timeout_s=args.job_timeout,
        )
        print(format_parallel_comparison(cmp))
        _dump(args.parallel_report,
              parallel_report_to_jsonable(cmp, quick=args.quick, seed=args.seed))
        for m in cmp.mismatches:
            print(f"PARALLEL DIVERGENCE: {m}", file=sys.stderr)
        return 0 if cmp.identical else 1
    report = run_host_perf(quick=args.quick, seed=args.seed, jobs=args.jobs,
                           timeout_s=args.job_timeout)
    print(format_host_perf(report))
    doc = report_to_jsonable(report, quick=args.quick, seed=args.seed)
    if args.out:
        _dump(args.out, doc)
    if args.baseline:
        failures = check_regression(report, args.baseline, max_regression=args.max_regression)
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            # Attribution instead of a bare ratio: diff this run against
            # the baseline so the gate failure names what moved.
            try:
                from repro.obs.diff import diff_docs, format_diff

                with open(args.baseline) as fh:
                    base_doc = json.load(fh)
                print("\nregression blame (bench diff vs baseline):")
                print(format_diff(diff_docs(base_doc, doc)))
            except Exception as exc:  # blame is best-effort on a failing gate
                print(f"(blame report unavailable: {exc})", file=sys.stderr)
            return 1
        print(f"perf check ok vs {args.baseline} (max regression {args.max_regression}x)")
    return 0
