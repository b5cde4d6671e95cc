"""Occupancy-summary fast-path identity on the quick perf matrix.

The ``idle_spin`` / ``idle_spin_nosummary`` scenarios share a seed: the
same simulation with the fast path on and off.  Gate on the *virtual*
outcome: fingerprints minus the fast path's own hit counter must match,
and the primed pass must actually carry the idle-heavy load.  The ev/s
ratio is printed, never gated — wall clock is noise.

CI's summary-identity step runs this file.
"""


def test_idle_spin_pair_identical_and_fast_path_used(quick_matrix):
    by, _ = quick_matrix()
    on, off = by["idle_spin"], by["idle_spin_nosummary"]
    strip = lambda fp: {k: v for k, v in fp.items() if k != "summary_hits"}
    assert strip(on["fingerprint"]) == strip(off["fingerprint"]), \
        "fast path changed the simulation"
    hits = on["fingerprint"]["summary_hits"]
    passes = on["fingerprint"]["schedule_passes"]
    assert hits > passes * 0.9, f"fast path barely used: {hits}/{passes}"
    assert off["fingerprint"]["summary_hits"] == 0
    ratio = on["events_per_sec"] / off["events_per_sec"]
    print(f"ok: identical outcomes, {hits}/{passes} primed passes, "
          f"{ratio:.2f}x ev/s on this runner")
