"""The benchmark's four workloads, built from public ``repro`` entry points.

Each workload is a class with the same four steps, which
:mod:`perfbench.iteration` times and checks:

* ``setup(spans)`` — build the world before the first event.  ``repro``
  is imported *inside* this step on purpose: import time is part of the
  set-up a user pays, so it must land in ``setup_s``.
* ``run(spans)`` — from the first event to the verified, merged result
  (``run_s``).
* ``outcome()`` — ``(attempted, failed, fingerprint)`` from the
  correctness gates, plus ``paper_err_pct`` where a reference exists.
* ``counts()`` — per-layer counters for a traced run, read from
  registry snapshots and public stats attributes.

No workload uses the private ``repro.bench.hostperf`` scenario functions.
Every input is derived from the workload seed, and every run is a pure
function of it, so all runs in one invocation share one fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from contextlib import contextmanager
from typing import Optional

WORKLOADS = ("node_tables", "node_idle", "node_storm", "cluster_sharded")

#: run sizes; ``tiny`` exists for the benchmark's own smoke tests
SIZES = {
    "node_tables": {"full": {"reps": 200}, "tiny": {"reps": 12}},
    "node_idle": {
        "full": {"ntasks": 120, "gap_us": 50},
        "tiny": {"ntasks": 12, "gap_us": 20},
    },
    "node_storm": {
        "full": {"decoys": 200, "gap_us": 20},
        "tiny": {"decoys": 8, "gap_us": 20},
    },
    "cluster_sharded": {
        "full": {"nnodes": 32, "requests": 12},
        "tiny": {"nnodes": 4, "requests": 4},
    },
}

#: the cluster's traffic matrix (destinations, sizes, arrival gaps, link
#: jitter) comes from this fixed spec seed; the workload seed drives its
#: fault streams.  Between traffic seeds, the critical path of a 32-node
#: world moves by +/-30% of host time, which would swamp the 10% changes
#: the benchmark has to resolve.
CLUSTER_TRAFFIC_SEED = 7

#: virtual time the node worlds run past their last scheduled submission:
#: a generous bound (every task has finished or been cancelled long before
#: it), and nearly free, because the quiescence leap skips the idle tail
DRAIN_NS = 50_000_000


class Spans:
    """In-memory spans around the benchmark's calls into each layer.

    A record is ``{"name", "parent", "start", "end"}`` in seconds since
    ``origin`` (the iteration's first instruction, before any import).
    """

    def __init__(self, origin: Optional[float] = None) -> None:
        self.origin = time.perf_counter() if origin is None else origin
        self.records: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append(
                {
                    "name": name,
                    "parent": parent,
                    "start": start - self.origin,
                    "end": end - self.origin,
                }
            )

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


def digest(obj) -> str:
    """sha256 over a canonical JSON rendering."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def total(snapshot: dict, pattern: str):
    """Sum of every snapshot counter whose path matches ``pattern``."""
    rx = re.compile(pattern)
    return sum(v for k, v in snapshot.items() if rx.fullmatch(k))


def fingerprint_failures(fingerprints: list[str], attempted_each: list[int]) -> int:
    """Operations of every run whose fingerprint differs from the first run's.

    All runs in one invocation simulate the same seeded inputs, so a
    differing fingerprint means the program is not deterministic.
    """
    if not fingerprints:
        return 0
    ref = fingerprints[0]
    return sum(n for fp, n in zip(fingerprints, attempted_each) if fp != ref)


def node_failures(intended: int, submits: int, executions: int,
                  cancelled: int, pending: int) -> int:
    """Tasks lost by a node world: submitted = executed + cancelled, with
    nothing pending at drain, and every intended task submitted."""
    return (
        max(0, intended - submits)
        + abs(submits - executions - cancelled)
        + pending
    )


def cluster_failures(snapshot: dict, spec) -> int:
    """Requests the merged snapshot shows as lost, plus unbalanced frames.

    ``verify_completion`` must pass, and every NIC frame sent was either
    received or dropped by the wire (retransmits are new sends).
    """
    from repro.cluster.workload import expected_counters, verify_completion

    missing = 0
    try:
        verify_completion(snapshot, spec)
    except RuntimeError:
        want = expected_counters(spec)
        got = {k: total(snapshot, rf"workload\.node\d+\.{k}") for k in want}
        missing = max(1, sum(abs(want[k] - got[k]) for k in want))
    unbalanced = (
        total(snapshot, r"nic\..*\.frames_sent")
        - total(snapshot, r"nic\..*\.frames_recv")
        - total(snapshot, r"nic\..*\.drops")
    )
    return missing + abs(unbalanced)


def capturing_registry():
    """A :class:`repro.obs.MetricsRegistry` that also keeps the
    :class:`repro.core.PIOMan` objects registering into it (in ``.managers``).

    ``measure_queue`` builds its world internally and returns only the
    timing row; the registry it is handed is the one public hook through
    which the benchmark can read that world's engine and manager
    counters afterwards.
    """
    from repro.core.manager import PIOMan
    from repro.obs.registry import MetricsRegistry

    class _Registry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.managers: list = []

        def register(self, path, source, *, replace=False) -> None:
            super().register(path, source, replace=replace)
            owner = getattr(source, "__self__", None)
            if isinstance(owner, PIOMan) and owner not in self.managers:
                self.managers.append(owner)

    return _Registry()


# ----------------------------------------------------------------------
# per-layer counters shared by every workload
# ----------------------------------------------------------------------
def layer_counts(snapshot: dict, managers: list, engines: list,
                 virtual_ns: int) -> dict:
    """Per-layer counters from a merged snapshot and the live objects.

    ``managers`` are the run's PIOMan instances (one per node or per
    table row), ``engines`` its distinct engines.  Latency percentiles
    come from the managers' histograms merged exactly.
    """
    from repro.obs.histogram import Histogram

    def merged(field: str) -> Histogram:
        out = Histogram()
        for m in managers:
            out.merge(getattr(m.latency, field))
        return out

    def frac(num, den) -> float:
        return num / den if den else 0.0

    passes = sum(m.stats.schedule_passes for m in managers)
    productive = sum(m.latency.schedule_pass_productive.count for m in managers)
    queues = [q for m in managers for q in m.hierarchy.queues()]
    core_ns = sum(m.machine.ncores * m.engine.now for m in managers)
    busy = sum(sum(m.scheduler.core_busy_ns()) for m in managers)
    leaps = [e.leap for e in engines if e.leap is not None]
    s2c = merged("submit_to_complete")
    reads = total(snapshot, r".*\.mem\.reads")
    acquires = total(snapshot, r".*\.lock\.acquires")
    polls = total(snapshot, r"nic\..*\.polls")
    return {
        "sim.events": sum(e.fired for e in engines),
        "sim.virtual_ns": virtual_ns,
        "threads.keypoints": total(snapshot, r"sched\..*\.core\d+\.keypoints\..*"),
        "threads.ctx_switches": total(snapshot, r"sched\..*\.core\d+\.ctx_switches"),
        "threads.busy_frac": frac(busy, core_ns),
        "core.submits": sum(m.stats.submits for m in managers),
        "core.schedule_passes": passes,
        "core.productive_pass_frac": frac(productive, passes),
        "core.summary_hit_frac": frac(
            sum(m.hierarchy.summary_stats.summary_hits for m in managers), passes
        ),
        "core.lost_races": sum(q.stats.lost_races for q in queues),
        "core.cancel_hits": sum(q.stats.removes for q in queues)
        + sum(m.stats.cancels_inflight for m in managers),
        "core.queue_wait_p99_ns": merged("queue_wait").percentile(99),
        "core.submit_to_complete_p50_ns": s2c.percentile(50),
        "core.submit_to_complete_p99_ns": s2c.percentile(99),
        "leap.leaps": sum(lp.leaps for lp in leaps),
        "leap.cycles_elided": sum(lp.cycles_elided for lp in leaps),
        "sync.acquires": acquires,
        "sync.contended_frac": frac(total(snapshot, r".*\.lock\.contended"), acquires),
        "sync.spin_ns": total(snapshot, r".*\.lock\.total_spin_ns"),
        "mem.read_miss_frac": frac(total(snapshot, r".*\.mem\.read_misses"), reads),
        "mem.invalidations": total(snapshot, r".*\.mem\.invalidations"),
        "mem.transfer_ns": total(snapshot, r".*\.mem\.transfer_ns_total"),
        "faults.drops": total(snapshot, r"faults(\.node\d+)?\.drops"),
        "faults.retransmits": total(snapshot, r"faults(\.node\d+)?\.retransmits"),
        "faults.lock_preemptions": total(
            snapshot, r"faults(\.node\d+)?\.lock_preemptions"
        ),
        "faults.cancel_hits": total(snapshot, r"faults(\.node\d+)?\.cancel_hits"),
        "net.frames_sent": total(snapshot, r"nic\..*\.frames_sent"),
        "net.empty_poll_frac": frac(total(snapshot, r"nic\..*\.empty_polls"), polls),
        "nmad.sends": total(snapshot, r"nmad\.node\d+\.sends"),
        "nmad.rdv_sends": total(snapshot, r"nmad\.node\d+\.rdv_sends"),
        "nmad.aggregated_pw": total(snapshot, r"nmad\.node\d+\.gate\d+\.aggregated_pw"),
        "nmad.unexpected_hits": total(snapshot, r"nmad\.node\d+\.unexpected_hits"),
        "mpi.collectives": total(snapshot, r"workload\.node\d+\.collectives"),
    }


# ----------------------------------------------------------------------
# node_tables
# ----------------------------------------------------------------------
class NodeTables:
    """Paper Tables I/II: a submit -> wait loop on core #0 over every queue
    of the borderline and kwak hierarchies, one ``measure_queue`` world
    per row, with the same per-row seeds as ``run_task_microbench``.
    ``measure_queue`` drops the first 20% of round trips as warm-up."""

    MACHINES = ("borderline", "kwak")

    def __init__(self, seed: int, reps: int) -> None:
        self.seed = seed
        self.reps = reps

    def setup(self, spans: Spans) -> None:
        with spans.span("setup.imports"):
            import repro  # noqa: F401
            from repro.bench.task_microbench import measure_queue  # noqa: F401
        from repro.core.hierarchy import QueueHierarchy
        from repro.sim.engine import Engine
        from repro.topology.builder import MACHINES
        from repro.topology.cpuset import CpuSet
        from repro.topology.machine import Level

        with spans.span("setup.topology"):
            self.machines = {name: MACHINES[name]() for name in self.MACHINES}
        with spans.span("setup.routes"):
            # The per-row plan run_task_microbench sweeps: every core
            # queue, every interior queue with more than one core, and
            # the global queue.
            self.plan = []
            for name, machine in self.machines.items():
                for c in range(machine.ncores):
                    self.plan.append((name, f"core#{c}", CpuSet.single(c), c))
                ref = QueueHierarchy(machine, Engine())
                for queue in ref.queues():
                    node = queue.node
                    if (
                        node.level == Level.CORE
                        or node.cpuset == machine.root.cpuset
                        or len(node.cpuset) <= 1
                    ):
                        continue
                    label = f"{node.level.name.lower()}#{node.index}"
                    self.plan.append((name, label, node.cpuset, 100 + node.index))
                self.plan.append((name, "global", machine.all_cores(), 999))

    def run(self, spans: Spans) -> None:
        from repro.bench.task_microbench import measure_queue

        self.rows = []
        self.registries = []
        self.stalled = []
        with spans.span("run.engine"):
            for name, label, cpuset, offset in self.plan:
                registry = capturing_registry()
                try:
                    row = measure_queue(
                        self.machines[name], cpuset, label=label,
                        reps=self.reps, seed=self.seed + offset,
                        registry=registry,
                    )
                except RuntimeError:
                    self.stalled.append((name, label))
                    continue
                self.rows.append((name, row))
                self.registries.append(registry)
        with spans.span("run.merge"):
            from repro.obs.merge import sum_snapshots

            self.snapshot = sum_snapshots([r.snapshot() for r in self.registries])
            self.managers = [m for r in self.registries for m in r.managers]
            self.result = self.outcome()

    def paper_err_pct(self) -> float:
        from repro.bench.paper_targets import targets_for

        errs = []
        got = {(name, row.label): row.mean_ns for name, row in self.rows}
        for name in self.MACHINES:
            for label, ref in targets_for(name).items():
                if (name, label) in got:
                    errs.append(abs(got[(name, label)] - ref) / ref)
        return 100.0 * sum(errs) / len(errs) if errs else float("nan")

    def outcome(self) -> dict:
        from repro.bench.paper_targets import targets_for

        attempted = len(self.plan) * self.reps
        failed = len(self.stalled) * self.reps
        for m in self.managers:
            failed += max(0, self.reps - m.stats.tasks_completed)
        # every paper row (anomalies included) must be among the rows run
        have = {(name, row.label) for name, row in self.rows}
        for name in self.MACHINES:
            for label in targets_for(name, include_anomalies=True):
                if (name, label) not in have:
                    failed += self.reps
        engines = [m.engine for m in self.managers]
        return {
            "attempted": attempted,
            "failed": failed,
            "fingerprint": digest(
                {
                    "rows": [
                        [name, r.label, r.mean_ns, r.min_ns, r.max_ns]
                        for name, r in self.rows
                    ],
                    "snapshot": self.snapshot,
                    "events": sum(e.fired for e in engines),
                    "virtual_ns": sum(e.now for e in engines),
                }
            ),
            "paper_err_pct": self.paper_err_pct(),
        }

    def counts(self) -> dict:
        engines = [m.engine for m in self.managers]
        return layer_counts(
            self.snapshot, self.managers, engines, sum(e.now for e in engines)
        )


# ----------------------------------------------------------------------
# node_idle and node_storm: one spin-polling ccx_machine world
# ----------------------------------------------------------------------
class _NodeWorld:
    """A 24-core ``ccx_machine()`` with a ``true_spin`` scheduler, so every
    idle core spin-polls the hierarchy and the quiescence leap installs."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.injector = None

    def _build(self, spans: Spans) -> None:
        with spans.span("setup.imports"):
            import repro  # noqa: F401
            from repro.core.manager import PIOMan
            from repro.obs.registry import MetricsRegistry
            from repro.sim.engine import Engine
            from repro.sim.rng import Rng
            from repro.threads.scheduler import Scheduler
            from repro.topology.builder import ccx_machine
        with spans.span("setup.topology"):
            self.machine = ccx_machine()
        with spans.span("setup.world"):
            self.engine = Engine()
            self.registry = MetricsRegistry()
            self.sched = Scheduler(
                self.machine, self.engine, rng=Rng(self.seed), true_spin=True,
                registry=self.registry,
            )
            self.pioman = PIOMan(
                self.machine, self.engine, self.sched, registry=self.registry
            )

    def run(self, spans: Spans) -> None:
        with spans.span("run.engine"):
            self.sched.spawn(self.submitter, 0, name="bench-submitter")
            self.engine.run(until=self.until)
        with spans.span("run.merge"):
            self.snapshot = self.registry.snapshot()
            self.result = self.outcome()

    def outcome(self) -> dict:
        st = self.pioman.stats
        cancelled = self.injector.stats.cancel_hits if self.injector else 0
        failed = node_failures(
            self.intended, st.submits, st.executions, cancelled,
            self.pioman.pending_tasks(),
        )
        return {
            "attempted": self.intended,
            "failed": failed,
            "fingerprint": digest(
                {
                    "snapshot": self.snapshot,
                    "events": self.engine.fired,
                    "virtual_ns": self.engine.now,
                }
            ),
        }

    def counts(self) -> dict:
        return layer_counts(
            self.snapshot, [self.pioman], [self.engine], self.engine.now
        )


class NodeIdle(_NodeWorld):
    """One submitter on core 0 submits an empty single-core task every ~G us
    (seeded gap in [G/2, 3G/2], seeded target among cores 1..23) while the
    other 23 cores spin-poll an almost-empty hierarchy."""

    def __init__(self, seed: int, ntasks: int, gap_us: int) -> None:
        super().__init__(seed)
        self.intended = ntasks
        self.gap_ns = gap_us * 1_000

    def setup(self, spans: Spans) -> None:
        self._build(spans)
        from repro.core.task import LTask
        from repro.par.jobs import derive_seed
        from repro.sim.rng import Rng
        from repro.threads.instructions import Compute
        from repro.topology.cpuset import CpuSet

        with spans.span("setup.routes"):
            rng = Rng(derive_seed(self.seed, "node_idle"))
            n = self.machine.ncores
            schedule = [
                (rng.randint(self.gap_ns // 2, 3 * self.gap_ns // 2),
                 rng.randint(1, n - 1))
                for _ in range(self.intended)
            ]
        self.until = sum(gap for gap, _ in schedule) + DRAIN_NS
        pioman = self.pioman

        def submitter(ctx):
            for i, (gap, core) in enumerate(schedule):
                yield Compute(gap)
                task = LTask(None, cpuset=CpuSet.single(core), name=f"idle{i}")
                yield from pioman.submit(0, task)

        self.submitter = submitter


class NodeStorm(_NodeWorld):
    """A submitter on core 0 pins decoy tasks to its own core (so they linger
    queued), while a seeded ``FaultPlan`` fires a cancel storm against
    queued tasks and preempts queue-lock holders."""

    def __init__(self, seed: int, decoys: int, gap_us: int) -> None:
        super().__init__(seed)
        self.intended = decoys
        self.gap_ns = gap_us * 1_000

    def setup(self, spans: Spans) -> None:
        self._build(spans)
        from repro.core.task import LTask
        from repro.faults import CancelStorm, FaultInjector, FaultPlan, LockPreemption
        from repro.threads.instructions import Compute
        from repro.topology.cpuset import CpuSet

        gap, decoys = self.gap_ns, self.intended
        with spans.span("setup.world"):
            plan = FaultPlan(
                seed=self.seed,
                # empty queues are probed lock-free, so grants are scarce:
                # a high p is needed to see preemptions at all
                lock_preemption=LockPreemption(p=0.25, window_ns=30_000),
                cancel_storm=CancelStorm(
                    count=max(2, decoys // 4), interval_ns=3 * gap, start_ns=gap
                ),
            )
            self.injector = FaultInjector(plan).install(
                scheduler=self.sched, pioman=self.pioman, registry=self.registry
            )
        self.until = decoys * gap + DRAIN_NS
        pioman = self.pioman

        def submitter(ctx):
            for i in range(decoys):
                yield Compute(gap)
                task = LTask(None, cpuset=CpuSet.single(0), name=f"decoy{i}")
                yield from pioman.submit(0, task)

        self.submitter = submitter


# ----------------------------------------------------------------------
# cluster_sharded
# ----------------------------------------------------------------------
def build_cluster(shard=None, *, sink: Optional[list] = None, **kwargs):
    """``run_sharded`` build target: ``build_workload_cluster`` plus, when the
    shard lives in this process, a handle on the built cluster in ``sink``
    (forked shards append to their own copy, which nobody reads)."""
    from repro.cluster.workload import build_workload_cluster

    cluster = build_workload_cluster(shard, **kwargs)
    if sink is not None:
        sink.append(cluster)
    return cluster


@contextmanager
def shard_pool_probe(spans: Spans, windows: bool):
    """Spans around the coordinator's calls into ``ShardPool``: its
    construction (fork + per-shard world build) and, with ``windows``,
    every ``scatter("window", ...)`` barrier plus the frames it carried,
    and the coordinator's ``union_snapshots`` merge.  Restores the
    patched attributes on exit."""
    from repro.obs import merge
    from repro.par.shardpool import ShardPool

    init, scatter = ShardPool.__init__, ShardPool.scatter
    union = merge.union_snapshots
    probe = {"window_s": [], "cross_frames": 0, "merge_s": 0.0}

    def timed_init(self, *args, **kwargs):
        with spans.span("setup.shards"):
            init(self, *args, **kwargs)

    def timed_scatter(self, method, *args, **kwargs):
        if method != "window":
            return scatter(self, method, *args, **kwargs)
        t0 = time.perf_counter()
        replies = scatter(self, method, *args, **kwargs)
        probe["window_s"].append(time.perf_counter() - t0)
        probe["cross_frames"] += sum(len(reply[0]) for reply in replies)
        return replies

    def timed_union(snapshots):
        t0 = time.perf_counter()
        try:
            return union(snapshots)
        finally:
            probe["merge_s"] += time.perf_counter() - t0

    ShardPool.__init__ = timed_init
    if windows:
        ShardPool.scatter = timed_scatter
        merge.union_snapshots = timed_union
    try:
        yield probe
    finally:
        ShardPool.__init__, ShardPool.scatter = init, scatter
        merge.union_snapshots = union


class ClusterSharded:
    """32 ``smp1x2`` nodes from a ``WorkloadSpec`` (hotspot, open arrivals,
    bursts, diurnal rate, 10% rendezvous, allreduce every 4 requests) with
    light seeded ``NetFaults`` (drops force retransmits), run by
    ``run_sharded`` over 2 shards: forked, or in-process with
    ``serial=True`` (same window protocol, same fingerprint)."""

    BUILD_TARGET = "perfbench.workloads:build_cluster"

    def __init__(self, seed: int, nnodes: int, requests: int,
                 serial: bool = False, windows: bool = False) -> None:
        self.seed = seed
        self.nnodes = nnodes
        self.requests = requests
        self.serial = serial
        self.windows = windows

    def setup(self, spans: Spans) -> None:
        with spans.span("setup.imports"):
            import repro  # noqa: F401
            from repro.cluster.shard import run_sharded  # noqa: F401
            from repro.cluster.workload import WorkloadSpec
            from repro.faults import FaultPlan, NetFaults
        with spans.span("setup.world"):
            self.spec = WorkloadSpec(
                nnodes=self.nnodes, requests_per_node=self.requests,
                pattern="hotspot", arrival="open", mean_gap_ns=20_000,
                burst_len=4, diurnal_period=16, rdv_fraction=0.1,
                collective_every=4, seed=CLUSTER_TRAFFIC_SEED,
            )
            self.plan = FaultPlan(
                seed=self.seed, net=NetFaults(drop_p=0.01, reorder_p=0.02)
            )
        # The shard fork and per-shard world build happen inside
        # run_sharded; the pool probe's "setup.shards" span moves them
        # from run_s to setup_s (see iteration.py).

    def run(self, spans: Spans) -> None:
        from repro.cluster.shard import run_sharded
        from repro.sim.engine import DeadlockError

        self.sink: list = []
        self.deadlocked = False
        kwargs = {
            "spec": self.spec, "machine": "smp1x2", "faults": self.plan,
            "sink": self.sink,
        }
        with shard_pool_probe(spans, self.windows) as probe:
            with spans.span("run.engine"):
                try:
                    self.res = run_sharded(
                        self.BUILD_TARGET, kwargs, nshards=2, serial=self.serial
                    )
                except DeadlockError:
                    self.deadlocked = True
        self.probe = probe
        with spans.span("run.merge"):
            self.result = self.outcome()

    def outcome(self) -> dict:
        attempted = self.spec.total_requests()
        if self.deadlocked:
            return {"attempted": attempted, "failed": attempted, "fingerprint": ""}
        return {
            "attempted": attempted,
            "failed": cluster_failures(self.res.snapshot, self.spec),
            "fingerprint": self.res.fingerprint(),
        }

    def peak_rss_kb(self) -> int:
        return max(self.res.maxrss_kb) if not self.deadlocked else 0

    def counts(self) -> dict:
        """Per-layer counters; needs the in-process (serial) run."""
        managers = [n.pioman for c in self.sink for n in c.nodes]
        engines = [c.engine for c in self.sink]
        return layer_counts(self.res.snapshot, managers, engines, self.res.virtual_ns)

    def shard_counts(self) -> dict:
        """Coordinator-side protocol metrics; needs ``windows=True``."""
        import statistics

        waits = sorted(self.probe["window_s"]) or [0.0]
        fired = self.res.shard_fired
        virtual_ms = self.res.virtual_ns / 1e6
        return {
            "shard.windows": self.res.windows,
            "shard.windows_per_virtual_ms": self.res.windows / virtual_ms
            if virtual_ms else 0.0,
            "shard.window_wait_p50_us": 1e6 * statistics.median(waits),
            "shard.window_wait_p99_us": 1e6 * waits[min(len(waits) - 1,
                                                         int(0.99 * len(waits)))],
            "shard.cross_frames": self.probe["cross_frames"],
            "shard.imbalance": max(fired) / statistics.mean(fired)
            if fired and sum(fired) else 0.0,
        }


def make(name: str, seed: int, size: str = "full", **extra):
    """The workload object for ``name`` at ``size``."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
    params = dict(SIZES[name][size], **extra)
    cls = {
        "node_tables": NodeTables,
        "node_idle": NodeIdle,
        "node_storm": NodeStorm,
        "cluster_sharded": ClusterSharded,
    }[name]
    return cls(seed, **params)
