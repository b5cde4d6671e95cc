"""Critical-path extraction: synthetic chains, fault_net attribution,
sum-to-makespan invariant, zero-overhead of the edge instrumentation,
and the faulty-run trace the fault-smoke CI job analyzes."""

import pytest

from repro.cluster.cluster import Cluster
from repro.faults import FaultPlan, LockPreemption, NetFaults
from repro.mpi import MadMPI
from repro.obs import (
    analyze_trace,
    analyze_trace_file,
    chrome_trace,
    extract_critical_path,
    format_analysis,
    format_critical_path,
    write_chrome_trace,
)
from repro.obs.critpath import CATEGORIES
from repro.sim.trace import NULL_TRACER, Tracer


def _chain_tracer() -> Tracer:
    """Hand-built causal chain: sub -> enq -> run -> done with a NIC hop."""
    tr = Tracer(enabled=True)
    tr.edge(150, "core0", "submit", "T:t/sub", "T:t/enq", 100, queue="q:machine")
    tr.edge(400, "core1", "queue_wait", "T:t/enq", "T:t/run0", 150,
            queue="q:machine")
    tr.edge(900, "core1", "compute", "T:t/run0", "T:t/done", 400,
            queue="q:machine")
    return tr


def test_synthetic_chain_totals_sum_to_makespan():
    cp = extract_critical_path(_chain_tracer())
    assert cp.terminal == "T:t/done"
    assert (cp.t_start, cp.terminal_time) == (100, 900)
    assert cp.makespan_ns == 800
    assert sum(cp.totals.values()) == 800
    assert cp.totals["compute"] == 50 + 500  # submit hop + final run
    assert cp.totals["queue_wait"] == 250
    assert cp.totals["untraced"] == 0
    assert cp.level_ns == {"global": 250}
    assert set(cp.totals) == set(CATEGORIES)


def test_latest_cause_wins_at_a_join():
    tr = _chain_tracer()
    # a doorbell wake arriving later than the enqueue must explain the run
    tr.edge(350, "core1", "dispatch", "C:node0.1/wake@350", "T:t/run0", 330)
    cp = extract_critical_path(tr)
    kinds = [s.kind for s in cp.segments]
    assert "dispatch" in kinds and "queue_wait" not in kinds
    assert sum(cp.totals.values()) == cp.makespan_ns


def test_untraced_head_and_empty_trace():
    tr = Tracer(enabled=True)
    # a run record widens the trace span beyond the causal chain
    tr.emit(5000, "pioman", "core0", "completed x", phase="run", task="x",
            queue="q:machine", core=0, start=20, complete=True)
    tr.edge(4000, "core0", "compute", "T:y/run0", "T:y/done", 3000)
    cp = extract_critical_path(tr)
    assert cp.t_start == 20 and cp.terminal_time == 4000
    assert cp.segments[0].category == "untraced"
    assert cp.segments[0].start == 20 and cp.segments[0].end == 3000
    assert sum(cp.totals.values()) == cp.makespan_ns == 3980

    empty = extract_critical_path(Tracer(enabled=True))
    assert empty.segments == [] and empty.makespan_ns == 0
    assert "no traced makespan" in format_critical_path(empty)


def test_edgeless_trace_is_all_untraced():
    tr = Tracer(enabled=True)
    tr.emit(1000, "pioman", "core0", "submit t -> q:machine",
            phase="submit", task="t", queue="q:machine", core=0)
    tr.emit(5000, "pioman", "core0", "completed t", phase="run", task="t",
            queue="q:machine", core=0, start=2000, complete=True)
    cp = extract_critical_path(tr)
    assert [s.category for s in cp.segments] == ["untraced"]
    assert cp.totals["untraced"] == cp.makespan_ns == 4000


def test_lock_overlay_reallocates_wait_time():
    tr = _chain_tracer()
    # a contended handoff covering 200..300 inside the queue wait
    tr.emit(300, "lock", "core1", "contended lock:q:machine",
            phase="lock", lock="lock:q:machine", core=1,
            wait_ns=100, start=200)
    cp = extract_critical_path(tr)
    assert cp.totals["lock_wait"] == 100
    assert cp.totals["queue_wait"] == 150
    assert cp.level_ns == {"global": 150}
    assert sum(cp.totals.values()) == cp.makespan_ns


def _fault_cluster_run(
    tracer, plan=FaultPlan(seed=42, net=NetFaults(drop_p=0.15, reorder_p=0.2))
):
    cl = Cluster(2, seed=7, tracer=tracer, faults=plan)
    mpi = MadMPI(cl)
    c0, c1 = mpi.comm(0), mpi.comm(1)
    done = []

    def sender(ctx):
        for i in range(12):
            yield from c0.send(ctx.core_id, 1, i, 4096, payload=b"x")
        done.append("send")

    def receiver(ctx):
        for i in range(12):
            yield from c1.recv(ctx.core_id, 0, i)
        done.append("recv")

    cl.nodes[0].scheduler.spawn(sender, 0)
    cl.nodes[1].scheduler.spawn(receiver, 0)
    cl.run(until=100_000_000)
    assert sorted(done) == ["recv", "send"]
    return cl


@pytest.fixture(scope="module")
def fault_net_tracer():
    tracer = Tracer(enabled=True)
    _fault_cluster_run(tracer)
    return tracer


def test_fault_net_attributes_retransmit_wait(fault_net_tracer):
    """Acceptance: nonzero retransmit share, totals sum to makespan."""
    cp = extract_critical_path(fault_net_tracer)
    assert cp.edge_count > 0
    assert cp.terminal.endswith("/done")
    assert sum(cp.totals.values()) == cp.makespan_ns > 0
    assert cp.totals["retransmit"] > 0
    assert cp.shares()["retransmit"] > 0
    assert cp.totals["nic"] > 0
    # the rendered report names the bucket
    text = format_critical_path(cp)
    assert "retransmit" in text and "ns makespan" in text


def test_fault_net_doc_roundtrip_identical(fault_net_tracer):
    """Chrome-trace export preserves every edge the walker needs."""
    live = extract_critical_path(fault_net_tracer)
    doc = chrome_trace(fault_net_tracer, meta={"ncores": 8})
    from_doc = extract_critical_path(doc)
    assert from_doc.totals == live.totals
    assert from_doc.terminal == live.terminal
    assert len(from_doc.segments) == len(live.segments)


def test_edge_instrumentation_changes_no_simulated_outcome():
    """Zero-overhead contract: tracing on vs off, same virtual world."""
    cl_off = _fault_cluster_run(NULL_TRACER)
    cl_on = _fault_cluster_run(Tracer(enabled=True))
    assert cl_off.engine.now == cl_on.engine.now
    assert cl_off.engine.fired == cl_on.engine.fired
    for n_off, n_on in zip(cl_off.nodes, cl_on.nodes):
        s_off, s_on = n_off.nics[0].stats, n_on.nics[0].stats
        assert s_off.frames_sent == s_on.frames_sent
        assert s_off.retransmits == s_on.retransmits
        assert s_off.drops == s_on.drops
        assert n_off.pioman.stats.executions == n_on.pioman.stats.executions


def test_analysis_meta_counts_edges(fault_net_tracer):
    a = analyze_trace(fault_net_tracer)
    assert a.meta["events"] == len(fault_net_tracer.records)
    assert a.meta["makespan_ns"] == a.span_ns > 0
    assert a.meta["events_per_sec"] > 0
    # the analyzer sees the injected faults of a real run and reports them
    kinds = {f.kind: f.events for f in a.faults}
    assert kinds.get("drop", 0) > 0 and kinds.get("retransmit", 0) > 0, kinds
    assert "injected-fault tail impact" in format_analysis(a)


def test_faulty_run_writes_fault_trace(tmp_path_factory):
    """Writes ``fault_trace.json`` at the root of pytest's base temp dir:
    net loss/reorder plus lock-holder preemption on the exchange above.
    The fault-smoke CI job pins that dir with ``--basetemp`` and feeds
    the file to the ``analyze`` and ``render`` CLI steps."""
    tracer = Tracer(enabled=True)
    cl = _fault_cluster_run(tracer, FaultPlan(
        seed=42,
        net=NetFaults(drop_p=0.15, reorder_p=0.2),
        lock_preemption=LockPreemption(p=0.1, window_ns=30_000),
    ))
    path = str(tmp_path_factory.getbasetemp() / "fault_trace.json")
    n = write_chrome_trace(path, tracer,
                           meta={"ncores": cl.nodes[0].machine.ncores})
    assert n > 0
    assert cl.faults.stats.lock_preemptions > 0
    assert analyze_trace_file(path).fault_events > 0
