"""Unit tests for the weight initialisers."""

import math

import numpy as np

from repro.tensor import init


def test_zeros_and_ones():
    np.testing.assert_array_equal(init.zeros((2, 3)), np.zeros((2, 3)))
    np.testing.assert_array_equal(init.ones((2,)), np.ones(2))
    assert init.zeros((1,)).dtype == np.float32


def test_normal_statistics():
    rng = np.random.default_rng(0)
    w = init.normal(rng, (200, 200), std=0.02)
    assert abs(float(w.mean())) < 1e-3
    np.testing.assert_allclose(float(w.std()), 0.02, rtol=0.05)


def test_normal_deterministic_per_seed():
    a = init.normal(np.random.default_rng(7), (4, 4))
    b = init.normal(np.random.default_rng(7), (4, 4))
    np.testing.assert_array_equal(a, b)


def test_uniform_bounds():
    rng = np.random.default_rng(0)
    w = init.uniform(rng, (100, 100), -0.5, 0.5)
    assert w.min() >= -0.5 and w.max() <= 0.5


def test_xavier_uniform_bound():
    rng = np.random.default_rng(0)
    fan_in, fan_out = 30, 50
    w = init.xavier_uniform(rng, (fan_in, fan_out))
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    assert w.shape == (fan_in, fan_out)
    assert float(np.abs(w).max()) <= bound + 1e-7


def test_kaiming_uniform_bound():
    rng = np.random.default_rng(0)
    w = init.kaiming_uniform(rng, (24, 8))
    bound = math.sqrt(6.0 / 24)
    assert float(np.abs(w).max()) <= bound + 1e-7


def test_dtype_override():
    rng = np.random.default_rng(0)
    assert init.normal(rng, (2, 2), dtype="float64").dtype == np.float64


def test_chunked_fill_equals_the_whole_shape_draw():
    """The initialisers fill the target array a chunk at a time; a Generator's
    stream is sequential, so the values are those of one whole-shape draw
    cast afterwards — for shapes that are not chunk multiples, and for
    consecutive draws from one rng."""
    chunk = init._CHUNK
    for shape in [(chunk + 7,), (3, chunk // 2 + 1), (5, 7), (2 * chunk,), (0, 4), ()]:
        ours, reference = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(2):
            assert np.array_equal(
                init.normal(ours, shape, std=0.3),
                reference.normal(0.0, 0.3, size=shape).astype("float32"),
            )
            assert np.array_equal(
                init.uniform(ours, shape, -0.2, 0.9),
                reference.uniform(-0.2, 0.9, size=shape).astype("float32"),
            )
    wide = init.normal(np.random.default_rng(3), (chunk + 1,), dtype="float64")
    assert np.array_equal(wide, np.random.default_rng(3).normal(0.0, 0.02, size=chunk + 1))
