"""The Fig. 4 statistics are pure Python but must match numpy bit for bit,
so the committed latency numbers do not move when numpy is absent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.latency import mean, percentile

np = pytest.importorskip("numpy")

samples = st.lists(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=600,
)


@settings(max_examples=300, deadline=None)
@given(samples, st.sampled_from([0, 1, 25, 50, 75, 90, 99, 99.9, 100]))
def test_percentile_matches_numpy_linear(values, q):
    expected = float(np.percentile(np.asarray(values, dtype=np.float64), q))
    assert percentile(sorted(values), q) == expected


@settings(max_examples=300, deadline=None)
@given(samples)
def test_mean_matches_numpy_pairwise_sum(values):
    # sizes past 8 and 128 exercise numpy's unrolled and recursive sums
    assert mean(values) == float(np.asarray(values, dtype=np.float64).mean())


@pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 255, 256, 257, 1031])
def test_mean_matches_numpy_at_block_edges(n):
    values = [((i * 7919) % 1000) / 7.0 + 1e-3 * i for i in range(n)]
    assert mean(values) == float(np.asarray(values).mean())
