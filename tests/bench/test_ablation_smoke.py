"""A5 (idle backoff) and A6 (faults) ablation smoke: each ablation's two
legs run the same seeded workload, and the deterministic virtual outcome
must show the effect the ablation exists to measure.  Latency and
makespan ratios are printed, never gated beyond their direction."""

import pytest

from repro.bench.ablations import backoff_leg, faults_leg


def _backoff_effect(fixed, adapt):
    # with IdleBackoff on, the same sparse workload completes every task
    # with far fewer idle passes
    assert fixed.executions == adapt.executions == 10
    assert adapt.idle_passes < fixed.idle_passes / 2, (fixed, adapt)
    print(f"ok: idle passes {fixed.idle_passes} -> {adapt.idle_passes}, mean "
          f"wakeup {fixed.mean_wakeup_ns:.0f} -> {adapt.mean_wakeup_ns:.0f} ns")


def _faults_effect(clean, faulty):
    # every message still arrives exactly once, and the makespan pays
    assert clean.completed == faulty.completed == 16, (clean, faulty)
    assert clean.drops == clean.retransmits == 0, clean
    assert faulty.drops > 0 and faulty.retransmits > 0, faulty
    assert faulty.makespan_ns > clean.makespan_ns, (clean, faulty)
    print(f"ok: makespan {clean.makespan_ns} -> {faulty.makespan_ns} ns under "
          f"{faulty.drops} drops / {faulty.lock_preemptions} preemptions")


#: ablation -> (leg, baseline kwargs, ablated kwargs, effect check)
ABLATIONS = {
    "A5-backoff": (backoff_leg, dict(backoff=False, ntasks=10),
                   dict(backoff=True, ntasks=10), _backoff_effect),
    "A6-faults": (faults_leg, dict(faulty=False, msgs=16, seed=31),
                  dict(faulty=True, msgs=16, seed=31), _faults_effect),
}


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_ablation_legs_show_their_effect(ablation):
    leg, base_kwargs, ablated_kwargs, effect = ABLATIONS[ablation]
    effect(leg(**base_kwargs), leg(**ablated_kwargs))
