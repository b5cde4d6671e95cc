"""``Engine.next_external_time`` edge cases.

The quiescence leap and the shard coordinator both lean on this one
read-only query: the earliest live queued event that is not an elidable
idle carrier.  A wrong answer either stalls a shard window (too late) or
violates the conservative-lookahead guarantee (too early), so the edge
cases get pinned here: the empty-engine sentinel, dead pooled carriers
sitting at the head, carrier exclusion, and a randomized check of the
pruned heap walk against a plain linear scan.
"""

import random

from repro.sim.engine import Engine


def _noop():
    pass


def test_empty_engine_returns_none():
    eng = Engine()
    assert eng.next_external_time(set()) is None
    # ... and after a drain, not just at birth
    eng.post(10, _noop)
    eng.run()
    assert eng.next_external_time(set()) is None


def test_single_post_is_external():
    eng = Engine()
    eng.post(1234, _noop)
    assert eng.next_external_time(set()) == 1234


def test_dead_carriers_at_head_are_skipped():
    """Cancelled (pooled-dead) carriers at the queue head must not be
    reported — and the query must not pop or recycle them either."""
    eng = Engine()
    dead = [eng.schedule(t, _noop) for t in (5, 6, 7)]
    eng.post(5_000, _noop)
    for handle in dead:
        handle.cancel()
    before = eng.pending()
    assert eng.next_external_time(set()) == 5_000
    # read-only contract: the dead entries are still physically queued
    assert eng.pending() == before
    assert len(eng._heap) == 4


def test_all_dead_returns_none():
    eng = Engine()
    handles = [eng.schedule(t, _noop) for t in (3, 9, 27)]
    for handle in handles:
        handle.cancel()
    assert eng.next_external_time(set()) is None


def test_carriers_are_excluded():
    """Handles classified as idle carriers don't bound the leap; the
    first non-carrier behind them does."""
    eng = Engine()
    carrier = eng.schedule(10, _noop)
    external = eng.schedule(400, _noop)
    assert eng.next_external_time(set()) == 10
    assert eng.next_external_time({carrier}) == 400
    assert eng.next_external_time({carrier, external}) is None


def test_external_deep_behind_carrier_head():
    """A heap top that is pure carriers must not hide an external event
    deeper in the heap."""
    eng = Engine()
    carriers = {eng.schedule(8, _noop), eng.schedule(12, _noop)}
    eng.schedule(3 * 4096 + 5, _noop)
    assert eng.next_external_time(carriers) == 3 * 4096 + 5


def _linear_scan(eng, carriers):
    times = [
        t for t, _, fn, ev in eng._heap
        if fn is not None or (ev.alive and ev not in carriers)
    ]
    return min(times) if times else None


def test_randomized_pruned_walk_matches_linear_scan():
    """Scripted schedule/post/cancel/run mixes: at every checkpoint the
    pruned walk agrees with a linear scan over the whole heap, for the
    empty carrier set and for a random subset of live handles."""
    for seed in range(12):
        rng = random.Random(3000 + seed)
        eng = Engine()
        handles = []
        for _step in range(rng.randrange(10, 60)):
            op = rng.random()
            if op < 0.45:
                delay = rng.choice([0, 1, 37, 900, 4096, 8192, 1 << 20, 1 << 21])
                handles.append(eng.schedule(delay, _noop))
            elif op < 0.60:
                eng.post(rng.randrange(0, 1 << 21), _noop)
            elif op < 0.75 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            elif op < 0.9:
                eng.run(until=eng.now + rng.randrange(0, 1 << 20))
                handles = [h for h in handles if h.alive and h.time > eng.now]
            assert eng.next_external_time(set()) == _linear_scan(eng, set()), seed
            if handles:
                subset = set(rng.sample(handles, rng.randrange(0, len(handles) + 1)))
                assert eng.next_external_time(subset) == _linear_scan(eng, subset), seed
