import numpy as np
import pytest

import inputs
import stats


def _arrivals(seed):
    rng = inputs.lane_rng(seed, "serve-shared-prefix")
    return inputs.shared_prefix_arrivals(
        rng, rate=5.0, count=12, tenant_weights=(0.4, 0.3, 0.2, 0.1),
        prefixes=[inputs.token_prompt(rng, 16, 500) for _ in range(4)],
        unique_range=(4, 8), vocab=500,
    )


def test_generators_are_deterministic_per_seed():
    a, b, other = _arrivals(3), _arrivals(3), _arrivals(4)
    assert [x.due for x in a] == [x.due for x in b]
    assert all(np.array_equal(x.prompt, y.prompt) for x, y in zip(a, b))
    assert inputs.digest(*[x.prompt for x in a]) == inputs.digest(*[x.prompt for x in b])
    assert inputs.digest(*[x.prompt for x in a]) != inputs.digest(*[x.prompt for x in other])
    words = inputs.random_words(inputs.lane_rng(3, "encoder-forward"), 200)
    assert words == inputs.random_words(inputs.lane_rng(3, "encoder-forward"), 200)
    assert len(words.split()) == 200


def test_lanes_draw_from_independent_streams():
    a = inputs.token_prompt(inputs.lane_rng(0, "decode-long"), 32, 1000)
    b = inputs.token_prompt(inputs.lane_rng(0, "serve-saturated"), 32, 1000)
    assert not np.array_equal(a, b)


def test_arrivals_share_their_tenant_prefix_and_are_ordered():
    arrivals = _arrivals(1)
    assert len(arrivals) == 12
    assert all(x.due < y.due for x, y in zip(arrivals, arrivals[1:]))
    by_tenant = {}
    for arrival in arrivals:
        prefix = by_tenant.setdefault(arrival.tenant, arrival.prompt[:16])
        assert np.array_equal(arrival.prompt[:16], prefix)
        assert 16 + 4 <= len(arrival.prompt) <= 16 + 8


def test_digest_separates_dtype_shape_and_order():
    a = np.arange(6, dtype=np.int64)
    assert inputs.digest(a) != inputs.digest(a.reshape(2, 3))
    assert inputs.digest(a) != inputs.digest(a.astype(np.int32))
    assert inputs.digest(a, "x") != inputs.digest("x", a)


@pytest.mark.parametrize(
    "count, expected", [(9, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (250, 95.0)]
)
def test_supported_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.supported_percentile(count) == expected


def test_percentile_and_spread():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.median([3, 1, 2]) == 2
    # the median of the highest third, rounded up: 9 rounds -> the second best,
    # 4 rounds -> the mean of the two best; NaN marks a failed round
    assert stats.fastest_third_rate([5, 1, 9, 3, 7, 2, 8, 4, 6]) == 8
    assert stats.fastest_third_rate([30.0, float("nan"), 40.0, 10.0, 20.0]) == 35.0
    assert stats.quartile_spread([10, 10, 10, 10]) == 0
    assert stats.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(0.3)
