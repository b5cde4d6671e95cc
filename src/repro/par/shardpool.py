"""Persistent forked workers holding live state — ``repro.par.shardpool``.

:func:`repro.par.run_jobs` is one-shot by design: a process per job, no
reuse, results merged at the end.  Sharded cluster simulation needs the
opposite shape — a *long-lived* worker per shard that keeps an
:class:`~repro.sim.engine.Engine` (plus fabric, nodes, workload
generators) alive across hundreds of synchronization windows, exchanging
small messages with the coordinator at each barrier.  Tearing the world
down and rebuilding it per window would dwarf the simulation itself.

:class:`ShardPool` is that shape:

* each worker is forked once, runs the spec's target to build its
  **state object**, then serves method calls over its pipe until told to
  stop — request/reply, strictly one outstanding call per worker;
* :meth:`ShardPool.scatter` sends per-worker arguments to *all* workers
  before collecting *any* reply, so shards genuinely run concurrently
  within a window;
* a worker that raises reports the exception in-band (with its remote
  traceback) and **stays alive** — simulation state is expensive, and a
  window-level protocol error should surface to the caller, not silently
  rebuild the world;
* ``serial=True`` (or a platform without ``fork``) keeps every state
  object in-process and calls methods directly — the same oracle
  equivalence :func:`run_jobs`'s serial fallback provides, and the only
  mode available inside a daemonic ``run_jobs`` worker (daemons may not
  fork children).

Determinism is the caller's contract, same as :mod:`repro.par.pool`:
state construction and every method call must depend only on the spec
and the call arguments, never on scheduling.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Optional, Sequence

from repro.par.jobs import JobSpec

#: wire tokens: parent -> worker requests, worker -> parent replies
_CALL, _STOP = "call", "stop"
_OK, _ERR = "ok", "err"


class ShardPoolError(RuntimeError):
    """A worker died, timed out, or could not build its state."""


def _shard_entry(spec: JobSpec, conn) -> None:
    """Worker body: build the state object, then serve calls until stop.

    Exceptions during a call are reported in-band and the loop continues;
    only an exception during *construction* ends the worker (there is no
    state to serve).  Runs inside the forked child.
    """
    try:
        state = spec.run()
    except BaseException as exc:
        try:
            conn.send((_ERR, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        conn.close()
        return
    conn.send((_OK, None))  # construction ack
    while True:
        try:
            request = conn.recv()
        except EOFError:
            break
        if request[0] == _STOP:
            try:
                conn.send((_OK, None))
            except Exception:
                pass
            break
        _, method, args, kwargs = request
        try:
            value = getattr(state, method)(*args, **kwargs)
            try:
                conn.send((_OK, value))
            except Exception as exc:  # unpicklable reply: report in-band
                conn.send((_ERR, f"reply not picklable: {exc!r}"))
        except BaseException:
            conn.send((_ERR, traceback.format_exc(limit=8)))
    conn.close()


class ShardPool:
    """N long-lived stateful workers, one per spec, request/reply pipes.

    ``specs[i]``'s target builds worker *i*'s state object; thereafter
    :meth:`call`, :meth:`broadcast` and :meth:`scatter` invoke methods on
    it.  Construction blocks until every worker acks its build, so a
    builder that raises fails the constructor — not the first window.

    ``timeout_s`` bounds every individual reply (None = unlimited).  Any
    worker death or timeout poisons the pool: it raises
    :class:`ShardPoolError` and every subsequent call raises too, because
    a shard's state cannot be reconstructed mid-protocol.
    """

    def __init__(
        self,
        specs: Sequence[JobSpec],
        *,
        serial: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        # the job pool imports multiprocessing: load it with the pool's
        # set-up, not on ``import repro``
        from repro.par.pool import has_fork

        if not specs:
            raise ValueError("ShardPool needs at least one spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names: {names}")
        self.specs = list(specs)
        self.n = len(specs)
        self.timeout_s = timeout_s
        self.serial = bool(serial) or not has_fork()
        self._closed = False
        self._poisoned: Optional[str] = None
        self._states: list[Any] = []
        self._conns: list = []
        self._procs: list = []
        if self.serial:
            self._states = [spec.run() for spec in self.specs]
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        try:
            for spec in self.specs:
                parent_end, child_end = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_shard_entry, args=(spec, child_end),
                    name=f"repro-shard-{spec.name}", daemon=True,
                )
                proc.start()
                child_end.close()
                self._conns.append(parent_end)
                self._procs.append(proc)
            for i in range(self.n):
                status, payload = self._recv(i)
                if status != _OK:
                    raise ShardPoolError(
                        f"shard {self.specs[i].name!r} failed to build: {payload}"
                    )
        except BaseException:
            self._terminate()
            raise

    @property
    def pids(self) -> list[Optional[int]]:
        """Worker pids (``None`` per worker in serial mode)."""
        if self.serial:
            return [None] * self.n
        return [proc.pid for proc in self._procs]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _recv(self, index: int):
        conn = self._conns[index]
        if self.timeout_s is not None:
            deadline = time.monotonic() + self.timeout_s
            while not conn.poll(min(0.2, self.timeout_s)):
                if time.monotonic() >= deadline:
                    self._poison(
                        f"shard {self.specs[index].name!r} reply timed out "
                        f"after {self.timeout_s:g}s"
                    )
                if not self._procs[index].is_alive():
                    self._poison(
                        f"shard {self.specs[index].name!r} died "
                        f"(exit {self._procs[index].exitcode})"
                    )
        try:
            return conn.recv()
        except (EOFError, OSError):
            self._poison(
                f"shard {self.specs[index].name!r} died "
                f"(exit {self._procs[index].exitcode})"
            )

    def _poison(self, message: str):
        self._poisoned = message
        self._terminate()
        raise ShardPoolError(message)

    def _check(self) -> None:
        if self._poisoned is not None:
            raise ShardPoolError(f"pool is poisoned: {self._poisoned}")
        if self._closed:
            raise ShardPoolError("pool is closed")

    def _unwrap(self, index: int, reply):
        status, payload = reply
        if status != _OK:
            raise ShardPoolError(
                f"shard {self.specs[index].name!r} raised:\n{payload}"
            )
        return payload

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call(self, index: int, method: str, *args, **kwargs):
        """Invoke ``method`` on worker ``index``'s state; return its value."""
        self._check()
        if self.serial:
            return getattr(self._states[index], method)(*args, **kwargs)
        self._conns[index].send((_CALL, method, args, kwargs))
        return self._unwrap(index, self._recv(index))

    def broadcast(self, method: str, *args, **kwargs) -> list:
        """Invoke ``method`` with the *same* arguments on every worker."""
        return self.scatter(method, [args] * self.n, [kwargs] * self.n)

    def scatter(
        self,
        method: str,
        args_per_worker: Sequence[tuple],
        kwargs_per_worker: Optional[Sequence[dict]] = None,
    ) -> list:
        """Invoke ``method`` with per-worker arguments; all requests are
        written before any reply is read, so forked workers overlap.
        Returns values in worker order."""
        self._check()
        if len(args_per_worker) != self.n:
            raise ValueError(
                f"scatter needs {self.n} argument tuples, "
                f"got {len(args_per_worker)}"
            )
        if kwargs_per_worker is None:
            kwargs_per_worker = [{}] * self.n
        if self.serial:
            return [
                getattr(state, method)(*args, **kwargs)
                for state, args, kwargs in zip(
                    self._states, args_per_worker, kwargs_per_worker
                )
            ]
        for conn, args, kwargs in zip(
            self._conns, args_per_worker, kwargs_per_worker
        ):
            conn.send((_CALL, method, tuple(args), dict(kwargs)))
        return [
            self._unwrap(i, self._recv(i)) for i in range(self.n)
        ]

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def _terminate(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                if proc.is_alive():
                    proc.kill()
            proc.join()
        self._conns, self._procs = [], []

    def close(self) -> None:
        """Stop every worker (graceful stop, then terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        if self.serial or self._poisoned is not None:
            self._states = []
            return
        for conn in self._conns:
            try:
                conn.send((_STOP,))
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        self._terminate()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
