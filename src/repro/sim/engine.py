"""The discrete-event engine.

A single :class:`Engine` instance drives an entire simulated cluster: all
cores of all nodes, all NICs and all wires share one virtual clock.  The
engine knows nothing about cores or networks — higher layers schedule
plain callbacks.  Two API families exist because the callers split
cleanly into two camps:

* :meth:`Engine.schedule` / :meth:`Engine.call_soon` return an
  :class:`Event` handle that can be *cancelled* (lazy deletion — the
  queued entry is kept but skipped).  Used when the caller keeps the
  handle (sleep timers, interruptible compute slices).
* :meth:`Engine.post` / :meth:`Engine.post_soon` / :meth:`Engine.post_at`
  are the fire-and-forget fast path: no handle escapes, so no Event
  object is needed at all (the dominant case — dispatch ticks, lock
  grants, doorbell rings, wire deliveries).

The queue is one binary heap of plain tuples: ``(time, seq, fn, args)``
for posts and ``(time, seq, None, event)`` for cancellable handles.
``seq`` is a global monotonically increasing counter, unique per entry,
so heap sifts compare ``(time, seq)`` at C speed and never reach the
payload; ties fire in submission order and every run is bit-for-bit
reproducible.  The hot callers (the scheduler's interpreter and the
quiescence leap) push entries of this shape straight onto ``_heap`` and
check their cancellable carriers out of the engine's free pool.

*Drain hooks*: callables consulted when the queue drains while some
component still claims to be waiting for progress; used by the cluster
harness to detect deadlocks instead of silently returning.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

#: free-pool cap: recycled carriers beyond this are dropped so a bursty
#: scenario cannot retain an unbounded free list forever.
POOL_CAP = 4096


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation substrate."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while actors are still blocked."""


class Event:
    """Handle for a scheduled callback.

    Queued as the payload of a ``(time, seq, None, event)`` heap entry;
    ``cancel()`` marks the event dead and the engine skips dead events
    when they surface.  ``_engine`` is set while the event is queued and
    cancellable, so cancellation can maintain the engine's O(1) live
    count; ``_pooled`` events are internal carriers that return to the
    engine's free pool after firing or surfacing dead.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive", "_engine", "_pooled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True
        self._engine: Optional["Engine"] = None
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.alive:
            self.alive = False
            eng = self._engine
            if eng is not None:
                self._engine = None
                eng._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "dead"
        return f"<Event t={self.time} seq={self.seq} {state} {getattr(self.fn, '__name__', self.fn)!r}>"


def _coerce_delay(delay: Any) -> int:
    """Validate and round a non-int delay (slow path, shared by schedule
    and post).  Rejects negative and non-finite values loudly — a ``nan``
    or ``inf`` delay silently mis-rounding would corrupt the virtual
    clock far from the bug that produced it."""
    if isinstance(delay, float) and not math.isfinite(delay):
        raise ValueError(f"non-finite delay {delay!r}")
    if delay < 0:
        raise ValueError(f"negative delay {delay!r}")
    d = int(delay)
    return d if d == delay or d > delay else d + 1


class Engine:
    """Deterministic discrete-event loop with a nanosecond virtual clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self._seq: int = 0
        self._live: int = 0
        self._running = False
        self._heap: list[tuple] = []
        #: free pool of recycled cancellable carriers (``_pooled`` events:
        #: the scheduler's sleep timers and Compute completions, the
        #: leap's re-armed carriers); caller-owned handles never enter it
        self._pool: list[Event] = []
        #: number of callbacks actually executed (dead events excluded)
        self.fired: int = 0
        #: callables polled when the queue drains; if any returns True the
        #: engine keeps running (the hook is expected to have scheduled
        #: new work), otherwise :meth:`run` returns.
        self.drain_hooks: list[Callable[[], bool]] = []
        #: callables that report the number of actors still blocked waiting
        #: for a simulation event; consulted on drain for deadlock detection.
        self.blocked_reporters: list[Callable[[], int]] = []
        #: quiescence-leap controller (:class:`repro.core.leap
        #: .QuiescenceLeap`), installed by PIOMan on eligible worlds;
        #: the run loop consults it only when its ``armed`` hint is set.
        self.leap = None

    # ------------------------------------------------------------------
    # scheduling — cancellable handles
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        ``delay`` must be non-negative and finite; fractional delays are
        rounded up so a nonzero delay never becomes zero.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        elif delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        ev._engine = self
        self._live += 1
        heappush(self._heap, (time, seq, None, ev))
        return ev

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.schedule(time - self.now, fn, *args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        return self.schedule(0, fn, *args)

    def _checkout(self, time: int, seq: int, fn: Callable[..., Any], args: tuple) -> Event:
        """Queue a pooled cancellable carrier at an already-allocated
        ``seq``, reusing a free-pool carrier when one is available (the
        scheduler's sleep and Compute paths, the leap's re-armed
        carriers).  The caller must drop the handle once it fires or is
        cancelled: the carrier is then recycled."""
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.alive = True
        else:
            ev = Event(time, seq, fn, args)
            ev._pooled = True
        ev._engine = self
        self._live += 1
        heappush(self._heap, (time, seq, None, ev))
        return ev

    # ------------------------------------------------------------------
    # scheduling — fire-and-forget fast path (no handle, no carrier)
    # ------------------------------------------------------------------
    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, no Event object."""
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        elif delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (time, seq, fn, args))

    def post_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`call_soon`."""
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        heappush(self._heap, (self.now, seq, fn, args))

    # ------------------------------------------------------------------
    # queue inspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live events still queued (O(1))."""
        return self._live

    def _recycle(self, ev: Event) -> None:
        """Return a dead or fired pooled carrier to the free pool (capped)."""
        ev.fn = ev.args = None
        if len(self._pool) < POOL_CAP:
            self._pool.append(ev)

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is drained.

        Skims dead entries off the top (recycling pooled carriers)
        exactly like the run loop would.
        """
        heap = self._heap
        while heap:
            e = heap[0]
            if e[2] is None and not e[3].alive:
                heappop(heap)
                if e[3]._pooled:
                    self._recycle(e[3])
                continue
            return e[0]
        return None

    def next_external_time(self, carriers: set) -> Optional[int]:
        """Earliest live queued event that is not one of ``carriers``.

        ``carriers`` is a set of cancellable :class:`Event` handles the
        quiescence leap has classified as elidable periodic idle
        carriers; everything else — fire-and-forget posts, other
        handles — is *external* and bounds the leap.  Returns None when
        no external event is queued.  Read-only: never pops, recycles,
        or reorders queue state.

        A pruned walk down the heap: no entry is earlier than its parent,
        so the walk stops at the first external entry on each path (and
        at anything no earlier than the best found so far), visiting only
        the skipped entries and their children.
        """
        heap = self._heap
        n = len(heap)
        best = None
        todo = [0] if n else []
        while todo:
            i = todo.pop()
            t, _, fn, ev = heap[i]
            if best is not None and t >= best:
                continue
            if fn is not None or (ev.alive and ev not in carriers):
                best = t
                continue
            i = 2 * i + 1
            if i < n:
                todo.append(i)
                if i + 1 < n:
                    todo.append(i + 1)
        return best

    def blocked_actors(self) -> int:
        """Actors currently blocked, summed over the registered reporters.

        Nonzero at drain means deadlock in a closed world; in a sharded
        run (:mod:`repro.cluster.shard`) a shard's local drain with
        blocked actors is routine — they wait on cross-shard frames — so
        the coordinator sums this across shards *after* the global drain
        instead of letting each shard raise locally.
        """
        return sum(r() for r in self.blocked_reporters)

    def _drained(self) -> Optional[int]:
        """Queue is empty: poll drain hooks, detect deadlock.  Returns
        the final virtual time to report, or None to keep running."""
        if any(hook() for hook in self.drain_hooks):
            return None
        blocked = self.blocked_actors()
        if blocked:
            raise DeadlockError(
                f"event queue drained at t={self.now} ns with "
                f"{blocked} actor(s) still blocked"
            )
        return self.now

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next live event.  Returns False if none exist."""
        if self.peek_time() is None:
            return False
        time, _, fn, args = heappop(self._heap)
        self.now = time
        self.fired += 1
        self._live -= 1
        if fn is None:
            ev = args
            ev._engine = None
            fn = ev.fn
            args = ev.args
            if ev._pooled:
                self._recycle(ev)
        fn(*args)
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or the next live event lies past
        ``until`` ns (the clock then stops at ``until``).  Returns the
        virtual time.

        Draining with blocked actors raises :class:`DeadlockError` — a
        simulation that silently stops with threads still waiting is
        almost always a bug in the caller's protocol.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heap = self._heap
        pool = self._pool
        pop = heappop
        # Fired events are counted in a local and flushed (into ``fired``
        # and the live count) on every exit path: callbacks only post
        # events, and counters are inspected after run() returns.
        nfired = 0
        try:
            while True:
                lp = self.leap
                if lp is not None and lp.armed:
                    lp.attempt(until)
                if not heap:
                    t = self._drained()
                    if t is None:
                        continue
                    return t
                # Pop first, check liveness and the bound after: the
                # common live event pays no peek before its own pop.
                e = pop(heap)
                time, _, fn, args = e
                if fn is None:
                    ev = args
                    if not ev.alive:
                        if ev._pooled:  # recycle cancelled carriers too
                            ev.fn = ev.args = None
                            if len(pool) < POOL_CAP:
                                pool.append(ev)
                        continue
                    if until is not None and time > until:
                        heappush(heap, e)
                        self.now = until
                        return until
                    # handles must forget the engine once fired, so a
                    # late cancel() cannot corrupt the live count
                    ev._engine = None
                    fn = ev.fn
                    args = ev.args
                    if ev._pooled:
                        ev.fn = ev.args = None  # drop refs before pooling
                        if len(pool) < POOL_CAP:
                            pool.append(ev)
                elif until is not None and time > until:
                    heappush(heap, e)
                    self.now = until
                    return until
                self.now = time
                nfired += 1
                fn(*args)
        finally:
            self.fired += nfired
            self._live -= nfired
            self._running = False

    def run_until_idle(self) -> int:
        """Alias of :meth:`run` with no bound — runs to a fully drained queue."""
        return self.run()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now}ns pending={self.pending()} fired={self.fired}>"
