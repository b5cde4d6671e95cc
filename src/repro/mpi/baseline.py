"""Baseline MPI models: MVAPICH2-like and OpenMPI-like.

The paper attributes the baselines' behaviour to two design choices, and
these models implement exactly those choices (not the codebases):

1. **Progress only inside MPI calls** (no progression threads, no task
   offload): a blocked/waiting caller loops { take the *global library
   lock*; poll the NIC; release; yield }.  Nothing happens between calls,
   so a rendezvous that needs receiver CPU stalls while the receiver
   computes — no receiver-side overlap (Figs. 6-7).
2. **RDMA-read rendezvous** [10]: the RTS carries a memory handle; the
   *receiver* pulls the body with an RDMA read that consumes no sender
   CPU, then sends FIN.  Sender-side overlap therefore works (Fig. 5).

The global lock plus per-call polling is also what makes multi-threaded
latency climb with the number of receiving threads (Fig. 4): every waiting
thread burns its core polling, contending on the lock, and past the core
count they queue behind each other's scheduling quanta.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.mpi.madmpi import MadMPI
from repro.net.frame import Completion, Frame
from repro.net.nic import Nic
from repro.nmad.requests import ANY, RecvRequest, ReqState, SendRequest
from repro.sync.spinlock import SpinLock
from repro.threads.instructions import (
    Acquire,
    Compute,
    Instr,
    Release,
    SetFlag,
    YieldCPU,
)
from repro.threads.flag import Flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster, Node

_msg_ids = itertools.count(1)


class _BigLockNode:
    """Per-node library state for a big-lock MPI implementation."""

    def __init__(self, node: "Node", driver_name: str, eager_threshold: int) -> None:
        self.node = node
        self.nic: Nic = node.nic_by_driver(driver_name)
        self.eager_threshold = eager_threshold
        self.lock = SpinLock(
            node.machine, node.engine, home=0, name=f"mpilock@{node.id}"
        )
        self.expected: list[RecvRequest] = []
        self.unexpected: list[dict] = []
        self.rdv_out: dict[int, SendRequest] = {}
        self.rdv_in: dict[int, RecvRequest] = {}
        #: sequence counters for ordered matching
        self._send_seq: dict[tuple[int, int], int] = {}

    def next_seq(self, dst: int, tag: int) -> int:
        key = (dst, tag)
        s = self._send_seq.get(key, 0)
        self._send_seq[key] = s + 1
        return s

    # -- host-instant protocol machine (caller holds the big lock) -------
    def progress(self, core: int) -> int:
        """Drain the CQ; returns the number of entries handled."""
        comps = self.nic.poll()
        for comp in comps:
            self._handle(core, comp)
        return len(comps)

    def _handle(self, core: int, comp: Completion) -> None:
        if comp.kind == "send_done" or comp.kind == "rdma_served":
            return
        if comp.kind == "rdma_done":
            self._rdma_finished(core, comp.meta)
            return
        frame = comp.frame
        assert frame is not None
        meta = dict(frame.meta, kind=frame.kind)
        kind = meta["kind"]
        if kind == "eager":
            req = self._match_expected(meta["src"], meta["tag"])
            if req is None:
                self.unexpected.append(meta)
            else:
                self._finish_recv(core, req, meta)
        elif kind == "rts":
            req = self._match_expected(meta["src"], meta["tag"])
            if req is None:
                self.unexpected.append(meta)
            else:
                self._start_rdma(core, req, meta)
        elif kind == "fin":
            req = self.rdv_out.pop(meta["msg_id"], None)
            if req is not None:
                self._finish_send(core, req)
        else:  # pragma: no cover - protocol guard
            raise ValueError(f"unexpected frame kind {kind!r}")

    def _start_rdma(self, core: int, req: RecvRequest, meta: dict) -> None:
        """Matched an RTS: pull the body with an RDMA read (no sender CPU)."""
        req.state = ReqState.DATA_INFLIGHT
        req.src = meta["src"]
        req.recv_tag = meta["tag"]
        req.size = meta["size"]
        req.payload = meta.get("payload")
        self.rdv_in[meta["msg_id"]] = req
        peer_nic = self.nic.fabric.peer_nic(self.nic, meta["src"])
        self.nic.rdma_read(peer_nic, meta["size"], meta={"msg_id": meta["msg_id"]})

    def _rdma_finished(self, core: int, meta: Any) -> None:
        req = self.rdv_in.pop(meta["msg_id"], None)
        if req is None:  # pragma: no cover - protocol guard
            raise ValueError(f"rdma_done for unknown rendezvous {meta}")
        fin = Frame("fin", self.node.id, req.src, 16, meta={"msg_id": meta["msg_id"]})
        self.nic.post_send(fin)
        self._finish_recv(core, req, None)

    def _match_expected(self, src: int, tag: int) -> Optional[RecvRequest]:
        for req in self.expected:
            if req.matches(src, tag):
                self.expected.remove(req)
                return req
        return None

    def match_unexpected(self, req: RecvRequest) -> Optional[dict]:
        best = None
        for meta in self.unexpected:
            if req.matches(meta["src"], meta["tag"]):
                if best is None or meta["seq"] < best["seq"]:
                    best = meta
        if best is not None:
            self.unexpected.remove(best)
        return best

    def _finish_recv(self, core: int, req: RecvRequest, meta: Optional[dict]) -> None:
        if meta is not None:
            req.src = meta["src"]
            req.recv_tag = meta["tag"]
            req.size = meta["size"]
            req.payload = meta.get("payload")
        req.state = ReqState.COMPLETE
        req.t_complete = self.node.engine.now
        req.flag.set(core)

    def _finish_send(self, core: int, req: SendRequest) -> None:
        if req.state is ReqState.COMPLETE:
            return
        req.state = ReqState.COMPLETE
        req.t_complete = self.node.engine.now
        req.flag.set(core)


class BigLockComm:
    """Communicator facade for one rank of a big-lock implementation."""

    def __init__(self, impl: "BigLockMPI", rank: int) -> None:
        self.impl = impl
        self.rank = rank
        self.state: _BigLockNode = impl.states[rank]

    # ------------------------------------------------------------------
    def isend(
        self, core: int, dest: int, tag: int, size: int, payload: Any = None
    ) -> Generator[Instr, Any, SendRequest]:
        st = self.state
        req = SendRequest(dest, tag, size, payload)
        req.flag = Flag(st.node.machine, st.node.engine, home=core, name=f"bsnd{req.seq}")
        req.t_post = st.node.engine.now
        yield Acquire(st.lock)
        yield Compute(st.nic.driver.post_cost_ns)
        seq = st.next_seq(dest, tag)
        if size <= st.eager_threshold:
            req.protocol = "eager"
            frame = Frame(
                "eager", st.node.id, dest, size,
                meta={"tag": tag, "seq": seq, "size": size, "payload": payload,
                      "src": st.node.id},
            )
            st.nic.post_send(frame)
            st._finish_send(core, req)
        else:
            req.protocol = "rdv"
            msg_id = next(_msg_ids)
            st.rdv_out[msg_id] = req
            req.state = ReqState.RTS_SENT
            frame = Frame(
                "rts", st.node.id, dest, 64,
                meta={"tag": tag, "seq": seq, "size": size, "src": st.node.id,
                      "msg_id": msg_id, "payload": payload},
            )
            st.nic.post_send(frame)
        st.progress(core)
        yield Release(st.lock)
        return req

    def irecv(
        self, core: int, source: int = ANY, tag: int = ANY
    ) -> Generator[Instr, Any, RecvRequest]:
        st = self.state
        req = RecvRequest(source, tag)
        req.flag = Flag(st.node.machine, st.node.engine, home=core, name=f"brcv{req.seq}")
        req.t_post = st.node.engine.now
        yield Acquire(st.lock)
        yield Compute(st.nic.driver.poll_cost_ns)
        st.progress(core)
        meta = st.match_unexpected(req)
        if meta is not None:
            if meta["kind"] == "eager":
                st._finish_recv(core, req, meta)
            else:
                st._start_rdma(core, req, meta)
        else:
            st.expected.append(req)
        yield Release(st.lock)
        return req

    def wait(self, core: int, req, mode: str = "poll") -> Generator[Instr, Any, None]:
        """Progress-inside-the-call waiting: lock, poll, release, yield."""
        st = self.state
        while not req.done:
            yield Acquire(st.lock)
            yield Compute(st.nic.driver.poll_cost_ns)
            st.progress(core)
            yield Release(st.lock)
            if req.done:
                break
            # Let other threads poll too (sched_yield in the real library).
            yield YieldCPU()

    def test(self, core: int, req) -> Generator[Instr, Any, bool]:
        """MPI_Test: one progress pass under the lock, then the verdict."""
        st = self.state
        yield Acquire(st.lock)
        yield Compute(st.nic.driver.poll_cost_ns)
        st.progress(core)
        yield Release(st.lock)
        return req.done

    def waitall(self, core: int, reqs, mode: str = "poll") -> Generator[Instr, Any, None]:
        for req in reqs:
            yield from self.wait(core, req)

    def waitany(self, core: int, reqs) -> Generator[Instr, Any, int]:
        """Poll-based waitany: progress under the lock until one is done."""
        if not reqs:
            raise ValueError("waitany needs at least one request")
        st = self.state
        while True:
            for i, req in enumerate(reqs):
                if req.done:
                    return i
            yield Acquire(st.lock)
            yield Compute(st.nic.driver.poll_cost_ns)
            st.progress(core)
            yield Release(st.lock)
            yield YieldCPU()

    def sendrecv(
        self, core, dest, sendtag, sendsize, source, recvtag, payload=None
    ) -> Generator[Instr, Any, RecvRequest]:
        sreq = yield from self.isend(core, dest, sendtag, sendsize, payload)
        rreq = yield from self.irecv(core, source, recvtag)
        yield from self.wait(core, rreq)
        yield from self.wait(core, sreq)
        return rreq

    def send(self, core, dest, tag, size, payload=None):
        req = yield from self.isend(core, dest, tag, size, payload)
        yield from self.wait(core, req)
        return req

    def recv(self, core, source=ANY, tag=ANY):
        req = yield from self.irecv(core, source, tag)
        yield from self.wait(core, req)
        return req


class BigLockMPI:
    """Shared machinery for the two baseline models."""

    name = "biglock"
    mt_stable = True
    eager_threshold = 12 * 1024
    driver_name = "ibverbs"

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.states = [
            _BigLockNode(node, self.driver_name, self.eager_threshold)
            for node in cluster.nodes
        ]

    def comm(self, rank: int) -> BigLockComm:
        return BigLockComm(self, rank)


class MVAPICHLike(BigLockMPI):
    """MVAPICH2 1.2p1 stand-in: global lock, RDMA-read rendezvous."""

    name = "MVAPICH"
    eager_threshold = 12 * 1024


class OpenMPILike(BigLockMPI):
    """OpenMPI 1.3.1 stand-in.

    Same two design choices as MVAPICH (the paper: "OPENMPI and MVAPICH
    have the same behavior"); its MPI_THREAD_MULTIPLE support segfaulted
    in the paper's Fig. 4 runs, recorded here as ``mt_stable = False`` so
    the latency harness skips it exactly like the paper had to.
    """

    name = "OpenMPI"
    mt_stable = False
    eager_threshold = 16 * 1024


#: the implementations compared in the paper's evaluation
IMPLEMENTATIONS = {
    "PIOMan": MadMPI,
    "MVAPICH": MVAPICHLike,
    "OpenMPI": OpenMPILike,
}
