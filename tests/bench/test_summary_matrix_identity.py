"""Occupancy-summary fast-path identity on the quick matrix's
``idle_spin`` row.

The row runs in-process twice with the same kwargs: as the matrix runs
it (fast path on) and with ``fastpath=False``.  Gate on the *virtual*
outcome: fingerprints minus the fast path's own hit counter must match,
and the primed pass must actually carry the idle-heavy load.  The ev/s
ratio is printed, never gated — wall clock is noise.

CI's summary-identity step runs this file.
"""

from repro.bench.hostperf import matrix_specs, run_scenario


def test_idle_spin_pair_identical_and_fast_path_used():
    (spec,) = [s for s in matrix_specs(quick=True) if s.name == "idle_spin"]
    on = run_scenario(**spec.kwargs)
    off = run_scenario(**spec.kwargs, fastpath=False)
    strip = lambda fp: {k: v for k, v in fp.items() if k != "summary_hits"}
    assert strip(on.fingerprint) == strip(off.fingerprint), \
        "fast path changed the simulation"
    hits = on.fingerprint["summary_hits"]
    passes = on.fingerprint["schedule_passes"]
    assert hits > passes * 0.9, f"fast path barely used: {hits}/{passes}"
    assert off.fingerprint["summary_hits"] == 0
    ratio = on.events_per_sec / off.events_per_sec
    print(f"ok: identical outcomes, {hits}/{passes} primed passes, "
          f"{ratio:.2f}x ev/s on this runner")
