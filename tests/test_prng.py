import numpy as np
import pytest

from dpcore import prng


def test_seed_determinism_bitwise():
    a = prng.gaussian(prng.seed(0), 100, 1.0)
    b = prng.gaussian(prng.seed(0), 100, 1.0)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = prng.gaussian(prng.seed(0), 1000, 1.0)
    b = prng.gaussian(prng.seed(1), 1000, 1.0)
    assert np.any(a != b)


def test_split_path_replay():
    k1 = prng.split(prng.split(prng.seed(42), 1)[0], 4)[3]
    k2 = prng.split(prng.split(prng.seed(42), 1)[0], 4)[3]
    assert k1 == k2
    assert np.array_equal(prng.gaussian(k1, 64, 1.0), prng.gaussian(k2, 64, 1.0))


def test_split_children_distinct_streams():
    k = prng.seed(7)
    c0, c1 = prng.split(k, 2)
    s0 = prng.gaussian(c0, 256, 1.0)
    s1 = prng.gaussian(c1, 256, 1.0)
    assert np.any(s0 != s1)
    assert np.any(s0 != prng.gaussian(k, 256, 1.0))


def test_split_one_child_differs_from_parent():
    k = prng.seed(3)
    (child,) = prng.split(k, 1)
    assert child != k
    assert np.any(prng.gaussian(child, 128, 1.0) != prng.gaussian(k, 128, 1.0))


def test_split_determinism():
    assert prng.split(prng.seed(7), 4) == prng.split(prng.seed(7), 4)


def test_split_zero_is_error():
    with pytest.raises(ValueError):
        prng.split(prng.seed(0), 0)


def test_split_keys_pairwise_distinct():
    k = prng.seed(12)
    children = prng.split(k, 32)
    words = {c.words for c in children} | {k.words}
    assert len(words) == 33


def test_gaussian_zero_stddev_exact_zeros():
    out = prng.gaussian(prng.seed(1), 5, 0.0)
    assert np.array_equal(out, np.zeros(5))


def test_gaussian_empty():
    assert prng.gaussian(prng.seed(1), 0, 1.0).shape == (0,)


def test_gaussian_negative_stddev_rejected():
    with pytest.raises(ValueError):
        prng.gaussian(prng.seed(1), 4, -1.0)


def test_gaussian_moments_large_sample():
    n = 10**6
    z = prng.gaussian(prng.seed(2024), n, 1.0)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.02


def test_gaussian_stddev_scaling():
    k = prng.seed(5)
    assert np.array_equal(prng.gaussian(k, 50, 3.0), 3.0 * prng.gaussian(k, 50, 1.0))


def test_sibling_streams_uncorrelated():
    c0, c1 = prng.split(prng.seed(99), 2)
    n = 10**5
    a = prng.gaussian(c0, n, 1.0)
    b = prng.gaussian(c1, n, 1.0)
    corr = float(np.dot(a - a.mean(), b - b.mean()) / (n * a.std() * b.std()))
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_uniform_range_and_determinism():
    u = prng.uniform(prng.seed(8), 10**4)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u, prng.uniform(prng.seed(8), 10**4))


def test_permutation_is_permutation():
    p = prng.permutation(prng.seed(4), 100)
    assert np.array_equal(np.sort(p), np.arange(100))
    assert np.array_equal(p, prng.permutation(prng.seed(4), 100))
