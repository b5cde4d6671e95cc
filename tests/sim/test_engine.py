"""Engine: event ordering, cancellation, run bounds, deadlock detection.

The randomized fuzz at the end checks the engine against a spec oracle
rather than a second implementation: fired ``(time, seq)`` pairs strictly
increase, every entry not cancelled before its time fires exactly once,
and a full run, a ``step()`` loop and chunked ``run(until=...)`` calls
fire the same log.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import DeadlockError, Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0


def test_schedule_and_run_order():
    eng = Engine()
    seen = []
    eng.schedule(30, seen.append, "c")
    eng.schedule(10, seen.append, "a")
    eng.schedule(20, seen.append, "b")
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 30


def test_ties_fire_in_submission_order():
    eng = Engine()
    seen = []
    for tag in range(10):
        eng.schedule(5, seen.append, tag)
    eng.run()
    assert seen == list(range(10))


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(7, lambda: eng.call_soon(lambda: times.append(eng.now)))
    eng.run()
    assert times == [7]


def test_schedule_at_absolute():
    eng = Engine()
    seen = []
    eng.schedule_at(100, seen.append, "x")
    eng.run()
    assert seen == ["x"] and eng.now == 100


def test_schedule_at_past_raises():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.schedule_at(5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Engine().schedule(-1, lambda: None)


def test_fractional_delay_rounds_up():
    eng = Engine()
    eng.schedule(0.25, lambda: None)
    assert eng.peek_time() == 1


def test_cancel_prevents_callback():
    eng = Engine()
    seen = []
    ev = eng.schedule(10, seen.append, "dead")
    eng.schedule(20, seen.append, "live")
    ev.cancel()
    eng.run()
    assert seen == ["live"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.fired == 0


def test_run_until_stops_clock_at_bound():
    eng = Engine()
    eng.schedule(100, lambda: None)
    eng.schedule(500, lambda: None)
    assert eng.run(until=200) == 200
    assert eng.fired == 1
    # remaining event still fires on resume
    eng.run()
    assert eng.fired == 2 and eng.now == 500


def test_step_fires_one_event_at_a_time():
    eng = Engine()
    for i in range(10):
        eng.schedule(i + 1, lambda: None)
    for _ in range(3):
        assert eng.step()
    assert eng.fired == 3
    assert eng.now == 3
    assert eng.pending() == 7


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_pending_counts_live_events():
    eng = Engine()
    ev = eng.schedule(1, lambda: None)
    eng.schedule(2, lambda: None)
    assert eng.pending() == 2
    ev.cancel()
    assert eng.pending() == 1


def test_callbacks_can_schedule_more():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.schedule(10, chain, n + 1)

    eng.schedule(0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now == 50


def test_run_is_not_reentrant():
    eng = Engine()

    def bad():
        eng.run()

    eng.schedule(1, bad)
    with pytest.raises(SimulationError):
        eng.run()


def test_deadlock_detection_via_blocked_reporters():
    eng = Engine()
    eng.blocked_reporters.append(lambda: 2)
    eng.schedule(1, lambda: None)
    with pytest.raises(DeadlockError):
        eng.run()


def test_drain_hook_extends_run():
    eng = Engine()
    refills = []

    def refill():
        if len(refills) < 3:
            refills.append(1)
            eng.schedule(10, lambda: None)
            return True
        return False

    eng.drain_hooks.append(refill)
    eng.run()
    assert len(refills) == 3
    assert eng.now == 30


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
def test_property_events_fire_in_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        eng.schedule(d, lambda d=d: fired.append((eng.now, d)))
    eng.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert sorted(d for _, d in fired) == sorted(delays)
    assert all(t == d for t, d in fired)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
    st.data(),
)
def test_property_cancelled_events_never_fire(delays, data):
    eng = Engine()
    fired = []
    events = [eng.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1), max_size=len(events))
    )
    for i in to_cancel:
        events[i].cancel()
    eng.run()
    assert set(fired) == set(range(len(events))) - to_cancel


def test_until_inside_a_same_time_run():
    """Events at the bound still fire; the first later one stays queued."""
    eng = Engine()
    seen = []
    for t in (100, 200, 200, 200, 300, 400):
        eng.post_at(t, seen.append, t)
    assert eng.run(until=200) == 200
    assert seen == [100, 200, 200, 200]
    assert eng.run(until=250) == 250
    assert seen == [100, 200, 200, 200]
    assert eng.pending() == 2
    eng.run()
    assert seen == [100, 200, 200, 200, 300, 400]


def test_step_stops_mid_instant():
    eng = Engine()
    seen = []
    eng.post(10, seen.append, 1)
    eng.post(10, seen.append, 2)
    eng.post(10, seen.append, 3)
    eng.step()
    eng.step()
    assert seen == [1, 2]
    eng.run()
    assert seen == [1, 2, 3]


def test_same_instant_post_soon_chains():
    """post_soon chains inside one instant fire in submission order and
    never advance the clock."""
    eng = Engine()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            eng.post_soon(chain, depth + 1)

    eng.post(100, chain, 0)
    eng.post(100, seen.append, "tie")  # larger seq than chain's post
    eng.run()
    assert seen == [0, "tie", 1, 2, 3, 4, 5]
    assert eng.now == 100


def test_exception_keeps_remainder_queued():
    eng = Engine()
    seen = []

    def boom():
        raise RuntimeError("boom")

    eng.post(1, seen.append, "a")
    eng.post(2, boom)
    eng.post(3, seen.append, "b")
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["a"]
    assert eng.fired == 2  # the raiser counts as fired
    eng.run()  # resumable: the remainder is intact
    assert seen == ["a", "b"]


def test_exception_mid_instant_keeps_remainder():
    eng = Engine()
    seen = []

    def boom():
        raise RuntimeError("boom")

    def kick():
        eng.post_soon(seen.append, "x")
        eng.post_soon(boom)
        eng.post_soon(seen.append, "y")

    eng.post(5, kick)
    with pytest.raises(RuntimeError):
        eng.run()
    assert seen == ["x"]
    eng.run()
    assert seen == ["x", "y"]


# ---------------------------------------------------------------------------
# randomized fuzz against a spec oracle
# ---------------------------------------------------------------------------
class _Driver:
    """One scripted workload: schedule/post/cancel mixes, same-instant
    ties, far-future timers and cancellation from inside callbacks.

    The script only draws from its own Random instance, so replays make
    identical calls however the engine is driven.  Every submission
    records its ``(time, seq)``; every fire is logged by tag.
    """

    def __init__(self, seed):
        self.eng = Engine()
        self.rng = random.Random(seed)
        self.log = []  # (tag, now) per fire
        self.key = {}  # tag -> (time, seq) it was queued at
        self.handles = {}
        self.cancelled = set()  # tags cancelled before they fired
        self.fired = set()
        self.n = 0

    def _fire(self, tag):
        self.log.append((tag, self.eng.now))
        self.fired.add(tag)
        # nested activity from inside callbacks: same-instant arrivals
        # and cancellation of queued neighbours mid-drain
        r = self.rng.random()
        if r < 0.25:
            self._submit()
        if r > 0.9:
            self._cancel_one()

    def _submit(self):
        eng = self.eng
        rng = self.rng
        tag = self.n
        self.n += 1
        seq = eng._seq
        kind = rng.randrange(6)
        if kind == 0:
            eng.post_soon(self._fire, tag)
            time = eng.now
        elif kind == 1:
            delay = rng.choice([0, 1, 7, 120, 2000, 4096, 5000])
            eng.post(delay, self._fire, tag)
            time = eng.now + delay
        elif kind == 2:
            time = eng.now + rng.randrange(0, 3 * 4096)
            eng.post_at(time, self._fire, tag)
        elif kind == 3:
            self.handles[tag] = eng.schedule(rng.randrange(0, 9000), self._fire, tag)
        elif kind == 4:
            self.handles[tag] = eng.call_soon(self._fire, tag)
        else:
            self.handles[tag] = eng.schedule_at(
                eng.now + rng.randrange(1 << 20, 3 << 20), self._fire, tag
            )
        if tag in self.handles:
            ev = self.handles[tag]
            time = ev.time
            assert ev.seq == seq
        assert eng._seq == seq + 1
        self.key[tag] = (time, seq)

    def _cancel_one(self):
        if self.handles:
            tag = self.rng.choice(sorted(self.handles))
            self.handles.pop(tag).cancel()
            if tag not in self.fired:
                self.cancelled.add(tag)

    def seed_work(self, count):
        for _ in range(count):
            self._submit()
        for _ in range(count // 8):
            self._cancel_one()

    def check(self):
        """The spec: fired keys strictly increase, each fire happens at its
        queued time, and exactly the uncancelled entries fire, once."""
        keys = [self.key[tag] for tag, _ in self.log]
        assert all(a < b for a, b in zip(keys, keys[1:])), "fire order"
        assert all(self.key[tag][0] == now for tag, now in self.log)
        counts = Counter(tag for tag, _ in self.log)
        assert set(counts) == set(self.key) - self.cancelled
        assert set(counts.values()) <= {1}
        assert self.eng.fired == len(self.log)
        assert self.eng.pending() == 0

    def state(self):
        eng = self.eng
        return (tuple(self.log), eng.now, eng.fired, eng.pending())


def _full_run(seed, count):
    d = _Driver(seed)
    d.seed_work(count)
    d.eng.run()
    d.check()
    return d


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99999])
def test_fuzz_full_run_oracle(seed):
    _full_run(seed, 120)


@pytest.mark.parametrize("seed", [3, 17, 2718])
def test_fuzz_stepwise_matches_full_run(seed):
    """A step() loop fires the same log, one event per call."""
    d = _Driver(seed)
    d.seed_work(60)
    while True:
        fired = d.eng.fired
        if not d.eng.step():
            break
        assert d.eng.fired == fired + 1
    d.check()
    assert d.state() == _full_run(seed, 60).state()


@pytest.mark.parametrize("seed", [5, 23, 555])
def test_fuzz_chunked_runs_match_full_run(seed):
    """Chunked run(until=...) calls — bounds that cut same-time runs in
    half included — fire the same log as one full run."""
    d = _Driver(seed)
    d.seed_work(100)
    bounds = random.Random(seed ^ 0xBEEF)
    while d.eng.pending():
        bound = d.eng.now + bounds.randrange(0, 2 * 4096)
        assert d.eng.run(until=bound) == bound or not d.eng.pending()
        assert all(now <= bound for _, now in d.log)
    d.eng.run()
    d.check()
    assert d.state() == _full_run(seed, 100).state()


def test_fuzz_cancellation_mid_drain():
    """Callbacks cancel queued same-time and later neighbours: dead
    entries are skipped and never counted."""
    for seed in (11, 13):
        eng = Engine()
        log = []
        handles = []
        cancelled = set()

        def cb(tag):
            log.append((tag, eng.now))
            if handles:
                tag2, h = handles.pop()
                if all(tag2 != t for t, _ in log):  # still queued
                    cancelled.add(tag2)
                h.cancel()

        rng = random.Random(seed)
        times = {}
        for tag in range(80):
            t = rng.randrange(0, 3 * 4096)
            times[tag] = t
            if rng.random() < 0.5:
                handles.append((tag, eng.schedule(t, cb, tag)))
            else:
                eng.post(t, cb, tag)
        eng.run()
        fired = [tag for tag, _ in log]
        assert sorted(fired) == sorted(set(times) - cancelled)
        assert all(times[tag] == now for tag, now in log)
        assert [now for _, now in log] == sorted(now for _, now in log)
        assert eng.fired == len(log) and eng.pending() == 0
