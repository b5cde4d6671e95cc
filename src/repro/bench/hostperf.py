"""Host-performance benchmark harness (``python -m repro.bench perf``).

Everything else in :mod:`repro.bench` measures *virtual* nanoseconds —
the numbers the paper reports.  This module measures the **host**: how
many simulator events per wall-clock second the discrete-event core
sustains on a fixed, seeded workload matrix.  Host speed is what gates
how large fig4 (128 receiver threads), the scalability sweep and
multi-node cluster runs can get, so it is tracked as a first-class
number in ``BENCH_host_perf.json``.

The matrix deliberately spans the simulator's distinct hot paths:

* ``micro_local`` / ``micro_global`` — Table-I-style submit→complete
  round-trips (engine + PIOMan + queue + lock fast paths);
* ``latency_mt`` — a fig4-style multi-threaded ping-pong over the full
  cluster stack (NICs, nmad, MPI, doorbells);
* ``scal_numa32`` — one rung of the scalability sweep on a 32-core NUMA
  machine (wide hierarchies, long scan paths);
* ``cluster_ring`` — a 4-node ring exchange (fabric + multi-node
  scheduling);
* ``idle_spin`` / ``idle_spin_nosummary`` — an idle-heavy spin-polling
  steady state on a deep chiplet machine, run with the occupancy-summary
  fast path on and off: the pair's ev/s ratio is the fast path's measured
  speedup, and their virtual outcomes must be identical;
* ``leap_on`` / ``leap_off`` — the same idle-heavy steady state with the
  quiescence leap (:mod:`repro.core.leap`) pinned on and off: the pair's
  ev/s ratio is the leap's measured speedup and their fingerprints must
  be fully identical (the leap replays every counter);
* ``fault_net`` / ``fault_slowcore`` / ``fault_storm`` — the same stack
  under :mod:`repro.faults` injection (packet loss + reorder with
  timeout retransmit, straggler cores, cancellation storms with
  lock-holder preemption): hostile worlds are part of the determinism
  contract too, so their fault counters live in the fingerprints;
* ``cluster_shard2`` — a generated workload run whole and split into two
  serial shards (:mod:`repro.cluster.shard`): the pair's fingerprints
  must be identical, so the perf gate also covers the conservative
  window-sync protocol on every PR.

Each scenario also returns a **fingerprint** of the simulated outcome
(final virtual time, events fired, key scheduler counters).  The
fingerprints are what the determinism golden test and the perf-smoke CI
job key on: an optimization that changes a fingerprint changed the
simulation, not just its speed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """The full matrix plus the aggregate throughput headline.

    ``total_wall_ms`` sums the scenarios' own (in-worker) run times;
    ``elapsed_wall_ms`` is the end-to-end wall clock of the whole matrix,
    which is what parallel fan-out (``jobs > 1``) actually shrinks.
    """

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
            self.aggregate_events_per_sec = self.total_events / (
                self.total_wall_ms / 1e3
            )
        return self

    def scenario(self, name: str) -> ScenarioResult:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise KeyError(name)


def _timed(engine: Engine, run: Callable[[], None]) -> tuple[int, float, int]:
    """Run a prepared workload; returns (events, wall_ms, virtual_ns)."""
    fired0 = engine.fired
    t0 = time.perf_counter()
    run()
    wall_ms = (time.perf_counter() - t0) * 1e3
    return engine.fired - fired0, wall_ms, engine.now


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _microbench_scenario(
    name: str, machine_name: str, cpuset_kind: str, reps: int, seed: int,
    engine_core: Optional[str] = None,
) -> ScenarioResult:
    """Table-I-style submit→wait loop on one queue of the hierarchy.

    ``engine_core`` pins the event core ("wheel" or "heap") regardless of
    the process default — the core_wheel/core_heap matrix pair uses it to
    run the same simulation on both cores back to back.
    """
    from repro.core.manager import PIOMan
    from repro.core.progress import piom_wait
    from repro.core.task import LTask
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import MACHINES
    from repro.topology.cpuset import CpuSet

    machine = MACHINES[machine_name]()
    engine = Engine(core=engine_core)
    sched = Scheduler(machine, engine, rng=Rng(seed))
    pioman = PIOMan(machine, engine, sched)
    cpuset = (
        CpuSet.single(0) if cpuset_kind == "local" else machine.all_cores()
    )
    wait_mode = "active" if cpuset_kind == "local" else "spin"

    def submitter(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=cpuset, name=f"perf{i}")
            yield from pioman.submit(0, task)
            yield from piom_wait(pioman, 0, task, mode=wait_mode)

    def run() -> None:
        sched.spawn(submitter, 0, name="perf-submitter")
        engine.run(until=reps * 1_000_000)

    events, wall_ms, virtual_ns = _timed(engine, run)
    if pioman.stats.tasks_completed < reps:
        raise RuntimeError(f"{name}: stalled at {pioman.stats.tasks_completed}/{reps}")
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "submits": pioman.stats.submits,
            "executions": pioman.stats.executions,
            "schedule_passes": pioman.stats.schedule_passes,
        },
    )


def _latency_scenario(name: str, nthreads: int, iters: int, seed: int) -> ScenarioResult:
    """fig4-style multi-threaded ping-pong over the full cluster stack."""
    from repro.cluster.cluster import Cluster
    from repro.mpi import MadMPI

    cluster = Cluster(2, seed=seed)
    mpi = MadMPI(cluster)
    c_send = mpi.comm(0)
    c_recv = mpi.comm(1)
    ncores = cluster.nodes[1].machine.ncores
    samples: list[int] = []

    def receiver_body(tid: int):
        def body(ctx):
            for _ in range(iters):
                yield from c_recv.recv(ctx.core_id, 0, tid)
                yield from c_recv.send(ctx.core_id, 0, tid, 4, payload=b"r")

        return body

    def sender_body(ctx):
        for _ in range(iters):
            for tid in range(nthreads):
                t0 = ctx.now
                yield from c_send.send(ctx.core_id, 1, tid, 4, payload=b"p")
                yield from c_send.recv(ctx.core_id, 1, tid)
                samples.append(ctx.now - t0)

    def run() -> None:
        for tid in range(nthreads):
            cluster.nodes[1].scheduler.spawn(
                receiver_body(tid), tid % ncores, name=f"recv{tid}"
            )
        cluster.nodes[0].scheduler.spawn(sender_body, 0, name="sender")
        cluster.run(until=iters * nthreads * 3_000_000 + 50_000_000)

    engine = cluster.engine
    events, wall_ms, virtual_ns = _timed(engine, run)
    if len(samples) < iters * nthreads:
        raise RuntimeError(f"{name}: stalled at {len(samples)} round-trips")
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "round_trips": len(samples),
            "sum_latency_ns": sum(samples),
        },
    )


def _scalability_scenario(name: str, reps: int, seed: int) -> ScenarioResult:
    """One rung of the scalability sweep: global queue on a 32-core NUMA box."""
    from repro.bench.scalability import scaled_machine
    from repro.core.manager import PIOMan
    from repro.core.progress import piom_wait
    from repro.core.task import LTask
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler

    machine = scaled_machine(4, 8)  # 32 cores
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed))
    pioman = PIOMan(machine, engine, sched)
    cpuset = machine.all_cores()

    def submitter(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=cpuset, name=f"scal{i}")
            yield from pioman.submit(0, task)
            yield from piom_wait(pioman, 0, task, mode="spin")

    def run() -> None:
        sched.spawn(submitter, 0, name="scal-submitter")
        engine.run(until=reps * 1_000_000)

    events, wall_ms, virtual_ns = _timed(engine, run)
    if pioman.stats.tasks_completed < reps:
        raise RuntimeError(f"{name}: stalled at {pioman.stats.tasks_completed}/{reps}")
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "submits": pioman.stats.submits,
            "executions": pioman.stats.executions,
        },
    )


def _cluster_ring_scenario(name: str, nnodes: int, iters: int, seed: int) -> ScenarioResult:
    """Multi-node smoke: every node sends around a ring simultaneously."""
    from repro.cluster.cluster import Cluster
    from repro.mpi import MadMPI

    cluster = Cluster(nnodes, seed=seed)
    mpi = MadMPI(cluster)
    comms = [mpi.comm(i) for i in range(nnodes)]
    done = [0] * nnodes

    def ring_body(rank: int):
        nxt = (rank + 1) % nnodes
        prev = (rank - 1) % nnodes

        def body(ctx):
            for it in range(iters):
                yield from comms[rank].send(
                    ctx.core_id, nxt, it, 1024, payload=b"x"
                )
                yield from comms[rank].recv(ctx.core_id, prev, it)
                done[rank] += 1

        return body

    def run() -> None:
        for rank in range(nnodes):
            cluster.nodes[rank].scheduler.spawn(
                ring_body(rank), 0, name=f"ring{rank}"
            )
        cluster.run(until=iters * nnodes * 5_000_000 + 50_000_000)

    engine = cluster.engine
    events, wall_ms, virtual_ns = _timed(engine, run)
    if done != [iters] * nnodes:
        raise RuntimeError(f"{name}: ring stalled ({done})")
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "exchanges": sum(done),
        },
    )


def _idle_spin_scenario(
    name: str,
    duration_us: int,
    gap_us: int,
    seed: int,
    fastpath: bool = True,
    best_of: int = 3,
    leap: Optional[bool] = None,
) -> ScenarioResult:
    """Idle-heavy spin-polling on a deep chiplet machine (24 cores).

    One driver core submits a small single-core task every ``gap_us``
    while the other 23 cores spin-poll an almost-always-empty hierarchy —
    the steady-state shape of a communication library between messages,
    and the workload the occupancy-summary fast path exists for.  Run
    with ``fastpath=False`` it measures the same simulation with the
    summary disabled; the two entries' ev/s ratio is the fast path's
    speedup and their fingerprints (minus ``summary_hits``) must match
    exactly — determinism is part of the contract.

    ``leap`` pins the quiescence leap (:mod:`repro.core.leap`) on or off
    regardless of the process default; the leap_on/leap_off matrix pair
    uses it to run the same simulation both ways, and that pair's
    fingerprints must be **fully** identical — the leap replays every
    counter, including ``summary_hits``.

    ``best_of`` re-runs the identical workload in fresh engines and keeps
    the fastest wall time: idle passes are microsecond-scale, so a single
    run is at the mercy of host scheduling noise.
    """
    from repro.core.manager import PIOMan
    from repro.core.task import LTask
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet
    from repro.threads.instructions import Compute

    duration = duration_us * 1_000
    gap = gap_us * 1_000
    best: Optional[tuple] = None
    for _ in range(max(1, best_of)):
        machine = ccx_machine()
        engine = Engine()
        sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=True)
        kwargs = {} if leap is None else {"quiescence_leap": leap}
        pioman = PIOMan(machine, engine, sched, summary_fastpath=fastpath, **kwargs)
        ncores = machine.ncores

        def driver(ctx):
            i = 0
            while engine.now < duration:
                yield Compute(gap)
                task = LTask(
                    None,
                    cpuset=CpuSet.single(1 + (5 * i + 3) % (ncores - 1)),
                    name=f"idle{i}",
                )
                yield from pioman.submit(0, task)
                i += 1

        def run() -> None:
            sched.spawn(driver, 0, name="idle-driver")
            engine.run(until=duration)

        events, wall_ms, virtual_ns = _timed(engine, run)
        if pioman.stats.tasks_completed == 0:
            raise RuntimeError(f"{name}: no task ever completed")
        if best is None or wall_ms < best[1]:
            best = (events, wall_ms, virtual_ns, pioman)
    events, wall_ms, virtual_ns, pioman = best
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "submits": pioman.stats.submits,
            "executions": pioman.stats.executions,
            "schedule_passes": pioman.stats.schedule_passes,
            "summary_hits": pioman.hierarchy.summary_stats.summary_hits,
        },
    )


def _fault_net_scenario(
    name: str, msgs: int, size: int, drop_p: float, reorder_p: float, seed: int
) -> ScenarioResult:
    """Eager 2-node exchange under seeded packet loss + reordering.

    Every payload stays below the rendezvous threshold so it crosses the
    wire through ``Nic.post_send`` — the path the injector's drop/reorder
    hooks and the driver's timeout retransmit cover.  The fingerprint
    pins the fault counters themselves: a change in when (or whether) a
    frame is dropped is a semantic change, not noise.
    """
    from repro.cluster.cluster import Cluster
    from repro.faults.plan import FaultPlan, NetFaults
    from repro.mpi import MadMPI

    plan = FaultPlan(seed=seed, net=NetFaults(drop_p=drop_p, reorder_p=reorder_p))
    cluster = Cluster(2, seed=seed, faults=plan)
    mpi = MadMPI(cluster)
    c0, c1 = mpi.comm(0), mpi.comm(1)
    done = [0, 0]

    def sender(ctx):
        for i in range(msgs):
            yield from c0.send(ctx.core_id, 1, i, size, payload=b"x")
            done[0] += 1

    def receiver(ctx):
        for i in range(msgs):
            yield from c1.recv(ctx.core_id, 0, i)
            done[1] += 1

    def run() -> None:
        cluster.nodes[0].scheduler.spawn(sender, 0, name="fault-send")
        cluster.nodes[1].scheduler.spawn(receiver, 0, name="fault-recv")
        cluster.run(until=msgs * 10_000_000 + 100_000_000)

    engine = cluster.engine
    events, wall_ms, virtual_ns = _timed(engine, run)
    if done != [msgs, msgs]:
        raise RuntimeError(f"{name}: stalled at {done}/{msgs}")
    fs = cluster.faults.stats
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "messages": sum(done),
            "drops": fs.drops,
            "retransmits": fs.retransmits,
            "reorders": fs.reorders,
        },
    )


def _fault_slowcore_scenario(
    name: str, reps: int, slow_cores: tuple, factor: float, seed: int
) -> ScenarioResult:
    """Global-queue round-trips with frequency-skewed straggler cores.

    Same shape as ``micro_global`` but some cores run ``factor``x slower
    (the injector's per-core skew in the scheduler's ``_advance`` cost
    accounting): NUMA capture keeps routing work to whichever core grabs
    the queue lock, so stragglers stretch the whole round-trip tail.
    """
    from repro.core.manager import PIOMan
    from repro.core.progress import piom_wait
    from repro.core.task import LTask
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan, SlowCores
    from repro.sim.rng import Rng
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import MACHINES

    machine = MACHINES["borderline"]()
    engine = Engine()
    sched = Scheduler(machine, engine, rng=Rng(seed))
    pioman = PIOMan(machine, engine, sched)
    plan = FaultPlan(
        seed=seed, slow_cores=SlowCores(cores=tuple(slow_cores), factor=factor)
    )
    injector = FaultInjector(plan).install(scheduler=sched, pioman=pioman)
    cpuset = machine.all_cores()

    def submitter(ctx):
        for i in range(reps):
            task = LTask(None, cpuset=cpuset, name=f"slow{i}")
            yield from pioman.submit(0, task)
            yield from piom_wait(pioman, 0, task, mode="spin")

    def run() -> None:
        sched.spawn(submitter, 0, name="slow-submitter")
        engine.run(until=reps * 2_000_000)

    events, wall_ms, virtual_ns = _timed(engine, run)
    if pioman.stats.tasks_completed < reps:
        raise RuntimeError(f"{name}: stalled at {pioman.stats.tasks_completed}/{reps}")
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "submits": pioman.stats.submits,
            "executions": pioman.stats.executions,
            "slow_cores": injector.stats.slow_cores,
        },
    )


def _fault_storm_scenario(
    name: str, decoys: int, gap_us: int, seed: int,
    engine_core: Optional[str] = None, best_of: int = 1,
) -> ScenarioResult:
    """Cancellation storm + lock-holder preemption on a spin-polling host.

    ``engine_core`` pins the event core ("wheel"/"heap"); the
    core_wheel/core_heap matrix pair runs this same simulation on both
    cores, so the pair's ev/s ratio is the wheel's measured speedup on
    the workload that stresses the event core hardest (same-instant
    cancel bursts + retransmit-style timers).  ``best_of`` keeps the
    fastest of N identical runs to shave host-scheduling noise.

    A driver pins decoy tasks to its own core so they linger in the queue
    (spin-polling neighbours can't steal them), while storm ticks pick
    queued victims and fire ``PIOMan.cancel`` half an interval later —
    racing in-flight execution on purpose — and every queue-lock grant
    may eat an injected descheduling window.  The fingerprint pins the
    submitted = executed + cancelled accounting.
    """
    from repro.core.manager import PIOMan
    from repro.core.task import LTask
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import CancelStorm, FaultPlan, LockPreemption
    from repro.sim.rng import Rng
    from repro.threads.instructions import Compute
    from repro.threads.scheduler import Scheduler
    from repro.topology.builder import ccx_machine
    from repro.topology.cpuset import CpuSet

    gap = gap_us * 1_000
    best: Optional[tuple] = None
    for _ in range(max(1, best_of)):
        machine = ccx_machine()
        engine = Engine(core=engine_core)
        sched = Scheduler(machine, engine, rng=Rng(seed), true_spin=True)
        pioman = PIOMan(machine, engine, sched)
        plan = FaultPlan(
            seed=seed,
            # the double-checked fallback keeps empty queues lock-free, so
            # grants are scarce — a high p is needed to see preemptions at all
            lock_preemption=LockPreemption(p=0.25, window_ns=30_000),
            cancel_storm=CancelStorm(
                count=max(2, decoys // 4), interval_ns=3 * gap, start_ns=gap
            ),
        )
        injector = FaultInjector(plan).install(scheduler=sched, pioman=pioman)

        def driver(ctx):
            for i in range(decoys):
                yield Compute(gap)
                task = LTask(None, cpuset=CpuSet.single(0), name=f"decoy{i}")
                yield from pioman.submit(0, task)

        def run() -> None:
            sched.spawn(driver, 0, name="storm-driver")
            engine.run(until=decoys * gap + 50_000_000)

        events, wall_ms, virtual_ns = _timed(engine, run)
        st = pioman.stats
        fs = injector.stats
        if st.executions + fs.cancel_hits < st.submits:
            raise RuntimeError(
                f"{name}: lost tasks ({st.submits} submitted, "
                f"{st.executions} ran, {fs.cancel_hits} cancelled)"
            )
        if best is None or wall_ms < best[1]:
            best = (events, wall_ms, virtual_ns, pioman.stats, injector.stats)
    events, wall_ms, virtual_ns, st, fs = best
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=virtual_ns,
        fingerprint={
            "fired": events,
            "virtual_ns": virtual_ns,
            "submits": st.submits,
            "executions": st.executions,
            "cancel_attempts": fs.cancel_attempts,
            "cancel_hits": fs.cancel_hits,
            "lock_preemptions": fs.lock_preemptions,
        },
    )


def _cluster_sharded_scenario(
    name: str, nnodes: int, reqs: int, seed: int
) -> ScenarioResult:
    """Compact sharded-cluster run: the conservative-lookahead shard
    protocol (:mod:`repro.cluster.shard`) on a generated workload.

    Runs the same scenario single-process (``nshards=1``) and split in
    two (``nshards=2``), both in serial mode — hostperf scenarios may
    themselves run inside daemonic ``--jobs`` workers, which cannot fork.
    The two fingerprints must be identical (the shard identity contract);
    the reported throughput is the two runs combined, so the perf gate
    covers the window-sync machinery itself, not just one shard count.
    """
    from repro.cluster.shard import run_sharded
    from repro.cluster.workload import WorkloadSpec, verify_completion

    spec = WorkloadSpec(
        nnodes=nnodes, requests_per_node=reqs, pattern="ring",
        arrival="closed", mean_gap_ns=20_000, think_ns=5_000,
        rdv_fraction=0.25, seed=seed,
    )
    kwargs = {"spec": spec, "machine": "smp1x2", "trace": False}
    builder = "repro.cluster.workload:build_workload_cluster"
    r1 = run_sharded(builder, kwargs, nshards=1, serial=True)
    r2 = run_sharded(builder, kwargs, nshards=2, serial=True)
    if r1.fingerprint() != r2.fingerprint():
        raise RuntimeError(
            f"{name}: sharded fingerprint diverged from single-process "
            f"({r2.fingerprint()[:16]}… vs {r1.fingerprint()[:16]}…)"
        )
    verify_completion(r1.snapshot, spec)
    events = r1.fired + r2.fired
    wall_ms = r1.wall_ms + r2.wall_ms
    return ScenarioResult(
        name=name,
        events=events,
        wall_ms=wall_ms,
        events_per_sec=events / (wall_ms / 1e3) if wall_ms else 0.0,
        virtual_ns=r1.virtual_ns,
        fingerprint={
            "fired": r1.fired,
            "virtual_ns": r1.virtual_ns,
            "windows_2shard": r2.windows,
            "run_fingerprint": r1.fingerprint(),
            "identical": True,
        },
    )


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def matrix_specs(*, quick: bool = False, seed: int = 7) -> list:
    """The fixed 15-scenario matrix as :class:`repro.par.JobSpec` jobs.

    Each scenario carries its own derived seed in the spec, so its
    simulated outcome (the fingerprint) is fixed before any worker runs —
    identical serially, in parallel, and under any completion order.
    """
    from repro.par import JobSpec

    scale = 1 if quick else 4
    mod = "repro.bench.hostperf"
    return [
        JobSpec(
            name="micro_local",
            target=f"{mod}:_microbench_scenario",
            kwargs=dict(name="micro_local", machine_name="borderline",
                        cpuset_kind="local", reps=150 * scale, seed=seed),
        ),
        JobSpec(
            name="micro_global",
            target=f"{mod}:_microbench_scenario",
            kwargs=dict(name="micro_global", machine_name="borderline",
                        cpuset_kind="global", reps=100 * scale, seed=seed + 1),
        ),
        JobSpec(
            name="latency_mt",
            target=f"{mod}:_latency_scenario",
            kwargs=dict(name="latency_mt", nthreads=8, iters=2 * scale,
                        seed=seed + 2),
        ),
        JobSpec(
            name="scal_numa32",
            target=f"{mod}:_scalability_scenario",
            kwargs=dict(name="scal_numa32", reps=30 * scale, seed=seed + 3),
        ),
        JobSpec(
            name="cluster_ring",
            target=f"{mod}:_cluster_ring_scenario",
            kwargs=dict(name="cluster_ring", nnodes=4, iters=4 * scale,
                        seed=seed + 4),
        ),
        # idle_spin / idle_spin_nosummary share a seed on purpose: they run
        # the SAME simulation with the occupancy-summary fast path on/off,
        # so their ev/s ratio is the fast path's measured speedup and their
        # fingerprints (minus summary_hits) must be identical.
        JobSpec(
            name="idle_spin",
            target=f"{mod}:_idle_spin_scenario",
            kwargs=dict(name="idle_spin", duration_us=75 * scale, gap_us=20,
                        seed=seed + 5, fastpath=True,
                        best_of=1 if quick else 5),
        ),
        JobSpec(
            name="idle_spin_nosummary",
            target=f"{mod}:_idle_spin_scenario",
            kwargs=dict(name="idle_spin_nosummary", duration_us=75 * scale,
                        gap_us=20, seed=seed + 5, fastpath=False,
                        best_of=1 if quick else 5),
        ),
        # leap_on / leap_off share a seed on purpose: the SAME simulation
        # with the quiescence leap (repro.core.leap) on and off, so the
        # pair's ev/s ratio is the leap's measured speedup — and their
        # fingerprints must be FULLY identical (the leap replays every
        # counter, summary_hits included; nothing is excluded from the
        # comparison the way idle_spin_nosummary excludes summary_hits).
        JobSpec(
            name="leap_on",
            target=f"{mod}:_idle_spin_scenario",
            kwargs=dict(name="leap_on", duration_us=150 * scale, gap_us=25,
                        seed=seed + 10, fastpath=True, leap=True,
                        best_of=1 if quick else 3),
        ),
        JobSpec(
            name="leap_off",
            target=f"{mod}:_idle_spin_scenario",
            kwargs=dict(name="leap_off", duration_us=150 * scale, gap_us=25,
                        seed=seed + 10, fastpath=True, leap=False,
                        best_of=1 if quick else 3),
        ),
        # hostile-world scenarios (repro.faults): same determinism contract
        # as the clean ones — the *fault* counters are in the fingerprint,
        # so a change in what gets dropped/preempted/cancelled is a diff
        JobSpec(
            name="fault_net",
            target=f"{mod}:_fault_net_scenario",
            kwargs=dict(name="fault_net", msgs=6 * scale, size=4096,
                        drop_p=0.12, reorder_p=0.2, seed=seed + 6),
        ),
        JobSpec(
            name="fault_slowcore",
            target=f"{mod}:_fault_slowcore_scenario",
            kwargs=dict(name="fault_slowcore", reps=40 * scale,
                        slow_cores=(1, 3), factor=3.0, seed=seed + 7),
        ),
        JobSpec(
            name="fault_storm",
            target=f"{mod}:_fault_storm_scenario",
            kwargs=dict(name="fault_storm", decoys=10 * scale, gap_us=20,
                        seed=seed + 8),
        ),
        # core_wheel / core_heap share a seed on purpose: the SAME
        # simulation on the two event cores (timer wheel vs binary heap),
        # so their ev/s ratio is the wheel's measured speedup on this
        # workload and their fingerprints must be bit-identical.
        JobSpec(
            name="core_wheel",
            target=f"{mod}:_fault_storm_scenario",
            kwargs=dict(name="core_wheel", decoys=5 * scale, gap_us=20,
                        seed=seed + 9, engine_core="wheel",
                        best_of=1 if quick else 3),
        ),
        JobSpec(
            name="core_heap",
            target=f"{mod}:_fault_storm_scenario",
            kwargs=dict(name="core_heap", decoys=5 * scale, gap_us=20,
                        seed=seed + 9, engine_core="heap",
                        best_of=1 if quick else 3),
        ),
        # the shard protocol itself: a generated workload run whole and
        # split in two (serial shards), fingerprints required identical —
        # the perf-regression gate covers the window-sync path on every PR
        JobSpec(
            name="cluster_shard2",
            target=f"{mod}:_cluster_sharded_scenario",
            kwargs=dict(name="cluster_shard2", nnodes=6, reqs=2 * scale,
                        seed=seed + 11),
        ),
    ]


def run_host_perf(
    *,
    quick: bool = False,
    seed: int = 7,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
) -> HostPerfReport:
    """Run the fixed workload matrix; ``quick`` shrinks it for CI smoke.

    ``jobs > 1`` fans the scenarios out over ``repro.par`` worker
    processes; the fingerprints are bit-identical to serial execution
    (the equivalence tests assert this), only ``elapsed_wall_ms`` drops.
    """
    from repro.par import run_jobs_strict

    t0 = time.perf_counter()
    results = run_jobs_strict(
        matrix_specs(quick=quick, seed=seed), jobs=jobs, timeout_s=timeout_s
    )
    report = HostPerfReport(scenarios=list(results), jobs=max(1, jobs))
    report.elapsed_wall_ms = (time.perf_counter() - t0) * 1e3
    return report.finish()


def format_host_perf(report: HostPerfReport) -> str:
    lines = [
        "Host performance (simulator events per wall-clock second)",
        f"{'scenario':<20}{'events':>10}{'wall ms':>10}{'events/s':>12}{'virtual ms':>12}",
    ]
    for s in report.scenarios:
        lines.append(
            f"{s.name:<20}{s.events:>10}{s.wall_ms:>10.1f}"
            f"{s.events_per_sec:>12.0f}{s.virtual_ns / 1e6:>12.2f}"
        )
    lines.append(
        f"{'AGGREGATE':<20}{report.total_events:>10}{report.total_wall_ms:>10.1f}"
        f"{report.aggregate_events_per_sec:>12.0f}"
    )
    try:
        on = report.scenario("idle_spin")
        off = report.scenario("idle_spin_nosummary")
        if off.events_per_sec:
            lines.append(
                "occupancy-summary fast path: "
                f"{on.events_per_sec / off.events_per_sec:.2f}x on idle_spin"
            )
    except KeyError:
        pass
    try:
        wheel = report.scenario("core_wheel")
        heap = report.scenario("core_heap")
        if heap.events_per_sec:
            lines.append(
                "event core (wheel vs heap): "
                f"{wheel.events_per_sec / heap.events_per_sec:.2f}x on core pair"
            )
    except KeyError:
        pass
    try:
        lon = report.scenario("leap_on")
        loff = report.scenario("leap_off")
        if loff.events_per_sec:
            lines.append(
                "quiescence leap: "
                f"{lon.events_per_sec / loff.events_per_sec:.2f}x on leap pair"
            )
    except KeyError:
        pass
    if report.jobs > 1:
        lines.append(
            f"(elapsed {report.elapsed_wall_ms:.1f} ms end-to-end over "
            f"{report.jobs} worker processes)"
        )
    return "\n".join(lines)


def report_to_jsonable(report: HostPerfReport, *, quick: bool, seed: int) -> dict:
    return {
        "meta": {
            "kind": "host_perf",
            "quick": quick,
            "seed": seed,
            "jobs": report.jobs,
            "python": sys.version.split()[0],
        },
        "aggregate": {
            "events": report.total_events,
            "wall_ms": round(report.total_wall_ms, 3),
            "elapsed_wall_ms": round(report.elapsed_wall_ms, 3),
            "events_per_sec": round(report.aggregate_events_per_sec, 1),
        },
        "scenarios": [
            {
                "name": s.name,
                "events": s.events,
                "wall_ms": round(s.wall_ms, 3),
                "events_per_sec": round(s.events_per_sec, 1),
                "virtual_ns": s.virtual_ns,
                "fingerprint": s.fingerprint,
            }
            for s in report.scenarios
        ],
    }


# ----------------------------------------------------------------------
# parallel fan-out: serial vs N-worker comparison (BENCH_parallel.json)
# ----------------------------------------------------------------------
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
        if not self.parallel.elapsed_wall_ms:
            return 0.0
        return self.serial.elapsed_wall_ms / self.parallel.elapsed_wall_ms


def compare_fingerprints(a: HostPerfReport, b: HostPerfReport) -> list[str]:
    """Scenario-by-scenario fingerprint differences (empty = identical)."""
    mismatches: list[str] = []
    names_a = [s.name for s in a.scenarios]
    names_b = [s.name for s in b.scenarios]
    if names_a != names_b:
        return [f"scenario sets differ: {names_a} vs {names_b}"]
    for sa, sb in zip(a.scenarios, b.scenarios):
        if sa.fingerprint != sb.fingerprint:
            mismatches.append(
                f"{sa.name}: fingerprint diverged "
                f"({sa.fingerprint} vs {sb.fingerprint})"
            )
    return mismatches


def run_parallel_comparison(
    *,
    jobs: int = 4,
    quick: bool = False,
    seed: int = 7,
    timeout_s: Optional[float] = None,
) -> ParallelComparison:
    """Run the matrix serially, then with ``jobs`` workers, and compare.

    The virtual outcomes must match exactly — a fingerprint divergence
    means the fan-out changed the simulation, which would be a bug in the
    shared-nothing contract, never acceptable noise.  The speedup is
    whatever the host gives; only identity is gated on.
    """
    if jobs < 2:
        raise ValueError(f"parallel comparison needs jobs >= 2, got {jobs}")
    serial = run_host_perf(quick=quick, seed=seed, jobs=1)
    parallel = run_host_perf(quick=quick, seed=seed, jobs=jobs, timeout_s=timeout_s)
    return ParallelComparison(
        jobs=jobs,
        serial=serial,
        parallel=parallel,
        mismatches=compare_fingerprints(serial, parallel),
    )


def format_parallel_comparison(cmp: ParallelComparison) -> str:
    lines = [
        f"Parallel fan-out: serial vs --jobs {cmp.jobs} "
        "(same seeds, same virtual outcomes)",
        f"{'scenario':<20}{'serial ms':>11}{'par ms':>9}{'fingerprint':>13}",
    ]
    for ss, ps in zip(cmp.serial.scenarios, cmp.parallel.scenarios):
        same = ss.fingerprint == ps.fingerprint
        lines.append(
            f"{ss.name:<20}{ss.wall_ms:>11.1f}{ps.wall_ms:>9.1f}"
            f"{'identical' if same else 'DIVERGED':>13}"
        )
    lines.append(
        f"{'ELAPSED':<20}{cmp.serial.elapsed_wall_ms:>11.1f}"
        f"{cmp.parallel.elapsed_wall_ms:>9.1f}"
        f"{cmp.speedup:>11.2f}x"
    )
    return "\n".join(lines)


def parallel_report_to_jsonable(
    cmp: ParallelComparison, *, quick: bool, seed: int
) -> dict:
    return {
        "meta": {
            "kind": "host_perf_parallel",
            "quick": quick,
            "seed": seed,
            "jobs": cmp.jobs,
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
            {
                "name": ss.name,
                "serial_wall_ms": round(ss.wall_ms, 3),
                "parallel_wall_ms": round(ps.wall_ms, 3),
                "fingerprint": ss.fingerprint,
                "fingerprint_identical": ss.fingerprint == ps.fingerprint,
            }
            for ss, ps in zip(cmp.serial.scenarios, cmp.parallel.scenarios)
        ],
    }


def check_regression(
    report: HostPerfReport, baseline_path: str, *, max_regression: float = 2.0
) -> list[str]:
    """Compare against a committed ``BENCH_host_perf.json``.

    Returns a list of failure strings (empty = pass).  A scenario fails
    when its events/sec dropped by more than ``max_regression``x against
    the committed number — generous on purpose, since CI machines vary;
    the committed file is the trajectory anchor, not a tight SLO.
    Scenarios with no usable baseline entry are announced and skipped
    rather than silently ignored, so a renamed scenario can't dodge the
    gate unnoticed.
    """
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
            failures.append(
                f"{s.name}: {s.events_per_sec:.0f} ev/s < floor {floor:.0f} "
                f"(committed {ref['events_per_sec']:.0f}, "
                f"max regression {max_regression}x)"
            )
    agg_ref = baseline.get("aggregate", {}).get("events_per_sec")
    if agg_ref:
        floor = agg_ref / max_regression
        if report.aggregate_events_per_sec < floor:
            failures.append(
                f"aggregate: {report.aggregate_events_per_sec:.0f} ev/s < "
                f"floor {floor:.0f} (committed {agg_ref:.0f})"
            )
    return failures


def run_profiled(
    *, quick: bool = False, seed: int = 7, top: int = 25
) -> dict:
    """Run the matrix serially under cProfile, one profile per scenario.

    Returns a jsonable artifact: for each scenario, the ``top`` functions
    by tottime plus the scenario's (distorted — the profiler adds per-call
    overhead) throughput, and an **aggregate** section merging every
    scenario's stats into one matrix-wide ranking — the next optimisation
    target is readable from one artifact instead of eyeballing per-
    scenario lists against each other.  Meant for ``perf --profile``, so
    a regression flagged by the gate can be attributed to a function
    without rerunning anything by hand.
    """
    import cProfile
    import pstats

    from repro.par.jobs import resolve_target

    scenarios = []
    merged: dict = {}  # func key -> [ncalls, tottime, cumtime]
    for spec in matrix_specs(quick=quick, seed=seed):
        fn = resolve_target(spec.target)
        prof = cProfile.Profile()
        result = prof.runcall(fn, **spec.kwargs)
        stats = pstats.Stats(prof)
        for key, (cc, nc, tt, ct, _callers) in stats.stats.items():
            acc = merged.get(key)
            if acc is None:
                merged[key] = [nc, tt, ct]
            else:
                acc[0] += nc
                acc[1] += tt
                acc[2] += ct
        rows = sorted(
            stats.stats.items(), key=lambda kv: kv[1][2], reverse=True
        )[:top]
        scenarios.append({
            "name": spec.name,
            "events": result.events,
            "events_per_sec": round(result.events_per_sec, 1),
            "top": [
                {
                    "func": f"{fname}:{lineno}:{func}",
                    "ncalls": nc,
                    "tottime_ms": round(tt * 1e3, 3),
                    "cumtime_ms": round(ct * 1e3, 3),
                }
                for (fname, lineno, func), (cc, nc, tt, ct, _callers) in rows
            ],
        })
    agg_rows = sorted(merged.items(), key=lambda kv: kv[1][1], reverse=True)[:top]
    aggregate = {
        "events": sum(s["events"] for s in scenarios),
        "top": [
            {
                "func": f"{fname}:{lineno}:{func}",
                "ncalls": nc,
                "tottime_ms": round(tt * 1e3, 3),
                "cumtime_ms": round(ct * 1e3, 3),
            }
            for (fname, lineno, func), (nc, tt, ct) in agg_rows
        ],
    }
    return {
        "meta": {
            "kind": "host_perf_profile",
            "quick": quick,
            "seed": seed,
            "top": top,
            "profiled": True,
            "python": sys.version.split()[0],
        },
        "scenarios": scenarios,
        "aggregate_profile": aggregate,
    }


def format_profile(doc: dict, *, show: int = 5) -> str:
    lines = ["Host performance profile (cProfile, tottime per scenario)"]
    for s in doc["scenarios"]:
        lines.append(f"{s['name']}  ({s['events']} events)")
        for row in s["top"][:show]:
            lines.append(
                f"  {row['tottime_ms']:>9.2f} ms  {row['ncalls']:>8} calls  "
                f"{row['func']}"
            )
    agg = doc.get("aggregate_profile")
    if agg:
        lines.append(f"AGGREGATE (whole matrix, {agg['events']} events)")
        for row in agg["top"][: 2 * show]:
            lines.append(
                f"  {row['tottime_ms']:>9.2f} ms  {row['ncalls']:>8} calls  "
                f"{row['func']}"
            )
    return "\n".join(lines)


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
    ap.add_argument("--quick", action="store_true",
                    help="reduced matrix for CI smoke runs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                    help="run the scenario matrix over N worker processes "
                    "('auto' or 0 = every CPU; default 1 = serial; virtual "
                    "outcomes are identical either way)")
    ap.add_argument("--job-timeout", type=float, default=None, metavar="S",
                    help="per-scenario wall-clock limit in seconds when "
                    "using --jobs")
    ap.add_argument("--parallel-report", metavar="PATH", default=None,
                    help="run the matrix serially AND with --jobs workers, "
                    "write the speedup/identity comparison to PATH "
                    "(exits non-zero if the fingerprints diverge)")
    ap.add_argument("--baseline", metavar="PATH", default=None,
                    help="compare against a committed BENCH_host_perf.json "
                    "and exit non-zero on regression")
    ap.add_argument("--max-regression", type=float, default=2.0,
                    help="events/sec slowdown factor that fails --baseline "
                    "comparison (default 2.0)")
    ap.add_argument("--profile", metavar="PATH", default=None,
                    help="run the matrix serially under cProfile and write "
                    "the top functions by tottime per scenario to PATH as "
                    "JSON; profiled throughput is distorted, so no "
                    "BENCH report is written in this mode")
    ap.add_argument("--profile-top", type=int, default=25, metavar="N",
                    help="functions kept per scenario in the --profile "
                    "artifact (default 25)")
    args = ap.parse_args(argv)
    # each mode writes one report, after the matrix: check it up front
    if check_outputs(
        ("--profile", args.profile),
        ("--parallel-report", args.parallel_report),
        ("--out", None if args.profile or args.parallel_report else args.out),
    ):
        return 2
    if args.profile:
        doc = run_profiled(
            quick=args.quick, seed=args.seed, top=args.profile_top
        )
        print(format_profile(doc))
        with open(args.profile, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"\nwrote {args.profile}")
        return 0
    if args.parallel_report:
        jobs = args.jobs if args.jobs > 1 else 4
        cmp = run_parallel_comparison(
            jobs=jobs, quick=args.quick, seed=args.seed,
            timeout_s=args.job_timeout,
        )
        print(format_parallel_comparison(cmp))
        with open(args.parallel_report, "w") as fh:
            json.dump(
                parallel_report_to_jsonable(cmp, quick=args.quick, seed=args.seed),
                fh, indent=1,
            )
        print(f"\nwrote {args.parallel_report}")
        if not cmp.identical:
            for m in cmp.mismatches:
                print(f"PARALLEL DIVERGENCE: {m}", file=sys.stderr)
            return 1
        return 0
    report = run_host_perf(
        quick=args.quick, seed=args.seed, jobs=args.jobs,
        timeout_s=args.job_timeout,
    )
    print(format_host_perf(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report_to_jsonable(report, quick=args.quick, seed=args.seed),
                      fh, indent=1)
        print(f"\nwrote {args.out}")
    if args.baseline:
        failures = check_regression(
            report, args.baseline, max_regression=args.max_regression
        )
        if failures:
            for f in failures:
                print(f"PERF REGRESSION: {f}", file=sys.stderr)
            # Attribution instead of a bare ratio: diff this run against
            # the baseline so the gate failure names what moved.
            try:
                from repro.obs.diff import diff_docs, format_diff

                with open(args.baseline) as fh:
                    base_doc = json.load(fh)
                new_doc = report_to_jsonable(
                    report, quick=args.quick, seed=args.seed
                )
                print("\nregression blame (bench diff vs baseline):")
                print(format_diff(diff_docs(base_doc, new_doc)))
            except Exception as exc:  # blame is best-effort on a failing gate
                print(f"(blame report unavailable: {exc})", file=sys.stderr)
            return 1
        print(f"perf check ok vs {args.baseline} "
              f"(max regression {args.max_regression}x)")
    return 0
