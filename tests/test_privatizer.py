import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import banded_toeplitz
from dpcore import clipping, matrix_factorization as mf, models, privatizer as pz, prng


def _layout(dim):
    return models.Layout((("x", 0, dim),))


def _zero_sum(layout, sensitivity=1.0):
    return clipping.ClippedGradientSum(
        np.zeros(layout.total_length), sensitivity, 0, 0
    )


def _sum_of(values, sensitivity=1.0):
    arr = np.asarray(values, dtype=np.float64)
    return clipping.ClippedGradientSum(arr, sensitivity, 1, 0)


def _replay_fresh_noise(key, steps, dim, stddev):
    """The i.i.d. noise sequence a privatizer draws, replayed independently."""
    out = []
    for _ in range(steps):
        step_key, key = prng.split(key, 2)
        out.append(prng.gaussian(step_key, dim, stddev))
    return np.array(out)


def test_init_gaussian_empty_buffer():
    p = pz.Privatizer(1.0)
    assert p.strategy == mf.IDENTITY
    st = pz.init(p, _layout(3), prng.seed(0))
    assert st.step == 0 and st.buffer == ()
    _, st = pz.privatize(p, _zero_sum(_layout(3)), st)
    assert st.step == 1 and st.buffer == ()  # one band keeps nothing


def test_init_banded_buffer_capacity():
    p = pz.Privatizer(1.0, mf.Strategy((1.0, 0.5, 0.25, 0.1)))
    st = pz.init(p, _layout(2), prng.seed(0))
    assert st.buffer == ()
    for _ in range(6):
        _, st = pz.privatize(p, _zero_sum(_layout(2)), st)
    assert len(st.buffer) == 3  # bands - 1


def test_init_determinism():
    p = pz.Privatizer(1.0)
    assert pz.init(p, _layout(3), prng.seed(4)) == pz.init(p, _layout(3), prng.seed(4))


# None takes the default strategy, the i.i.d. Gaussian mechanism.
@pytest.mark.parametrize("mechanism,coefs", [("gaussian", None), ("banded", (1.0, -0.5))])
def test_zero_stddev_passthrough(mechanism, coefs):
    band = () if coefs is None else (mf.Strategy(coefs),)
    p = pz.Privatizer(0.0, *band)
    st = pz.init(p, _layout(3), prng.seed(1))
    csum = _sum_of([1.0, -2.0, 3.0])
    out, st2 = pz.privatize(p, csum, st)
    assert np.array_equal(out, csum.sum)
    assert st2.step == 1


def test_banded_b1_bit_identical_to_gaussian():
    # One band emits exactly the i.i.d. Gaussian stream, replayed here.
    p = pz.Privatizer(1.3, mf.Strategy((1.0,)))
    st = pz.init(p, _layout(5), prng.seed(7))
    outputs = []
    for _ in range(6):
        out, st = pz.privatize(p, _zero_sum(_layout(5)), st)
        outputs.append(out)
    assert np.array_equal(np.array(outputs), _replay_fresh_noise(prng.seed(7), 6, 5, 1.3))


def test_banded_matches_dense_solve():
    coefs = (1.0, -0.5, 0.25)
    steps, dim, sigma = 8, 4, 1.7
    p = pz.Privatizer(sigma, mf.Strategy(coefs))
    stddev = sigma * np.sqrt(np.sum(np.square(coefs)))  # attached sensitivity 1
    st = pz.init(p, _layout(dim), prng.seed(5))
    outputs = []
    for _ in range(steps):
        out, st = pz.privatize(p, _zero_sum(_layout(dim)), st)
        outputs.append(out)
    z = _replay_fresh_noise(prng.seed(5), steps, dim, stddev)
    dense = scipy.linalg.solve_triangular(banded_toeplitz(coefs, steps), z, lower=True)
    np.testing.assert_allclose(np.array(outputs), dense, atol=1e-10)


def test_streaming_dense_equivalence_random_strategies(rng):
    for trial in range(10):
        bands = int(rng.integers(1, 9))
        steps = int(rng.integers(bands, 33))
        dim = int(rng.integers(1, 5))
        # contracting tails only: unstable recursions amplify roundoff past
        # any absolute tolerance and are not usable strategies anyway
        tail = rng.uniform(-1.0, 1.0, size=bands - 1)
        if np.sum(np.abs(tail)) > 0.9:
            tail *= 0.9 / np.sum(np.abs(tail))
        coefs = tuple([1.0] + list(tail))
        sigma = float(rng.uniform(0.5, 2.0))
        p = pz.Privatizer(sigma, mf.Strategy(coefs))
        stddev = sigma * np.sqrt(np.sum(np.square(coefs)))
        key = prng.seed(trial)
        st = pz.init(p, _layout(dim), key)
        outputs = []
        for _ in range(steps):
            out, st = pz.privatize(p, _zero_sum(_layout(dim)), st)
            outputs.append(out)
        z = _replay_fresh_noise(key, steps, dim, stddev)
        dense = scipy.linalg.solve_triangular(
            banded_toeplitz(coefs, steps), z, lower=True
        )
        np.testing.assert_allclose(np.array(outputs), dense, atol=1e-10)


def test_empty_batch_emits_pure_noise():
    p = pz.Privatizer(0.5)
    st = pz.init(p, _layout(4), prng.seed(2))
    out, st2 = pz.privatize(p, _zero_sum(_layout(4)), st)
    assert np.linalg.norm(out) > 0.0
    assert st2.step == 1


@pytest.mark.parametrize("coefs", [(1.0,), (1.0, -0.5, 0.25)], ids=["identity", "banded"])
def test_noise_scales_with_attached_sensitivity(coefs):
    # One privatizer, fed sums clipped at C = 1.0 and C = 2.5, emits the
    # replayed Gaussian at sigma * C * ||c|| for each step's own C.
    sigma, dim = 1.3, 4
    clip_norms = (1.0, 2.5, 2.5, 1.0, 2.5, 1.0)
    p = pz.Privatizer(sigma, mf.Strategy(coefs))
    st = pz.init(p, _layout(dim), prng.seed(12))
    outputs = []
    for clip_norm in clip_norms:
        out, st = pz.privatize(p, _zero_sum(_layout(dim), sensitivity=clip_norm), st)
        outputs.append(out)
    strategy_norm = np.sqrt(np.sum(np.square(coefs)))
    key, fresh = prng.seed(12), []
    for clip_norm in clip_norms:
        step_key, key = prng.split(key, 2)
        fresh.append(prng.gaussian(step_key, dim, sigma * clip_norm * strategy_norm))
    if len(coefs) == 1:
        assert np.array_equal(np.array(outputs), np.array(fresh))
    else:
        dense = scipy.linalg.solve_triangular(
            banded_toeplitz(coefs, len(clip_norms)), np.array(fresh), lower=True
        )
        np.testing.assert_allclose(np.array(outputs), dense, atol=1e-10)


@pytest.mark.parametrize("sensitivity", [0.0, -1.0, math.nan, math.inf])
def test_bad_attached_sensitivity_rejected(sensitivity):
    # A sum with sensitivity 0 would otherwise be released with no noise.
    p = pz.Privatizer(1.0)
    st = pz.init(p, _layout(2), prng.seed(0))
    with pytest.raises(ValueError, match="sensitivity"):
        pz.privatize(p, _sum_of([1.0, 2.0], sensitivity=sensitivity), st)


def test_layout_mismatch_rejected():
    p = pz.Privatizer(1.0)
    st = pz.init(p, _layout(2), prng.seed(0))
    with pytest.raises(ValueError):
        pz.privatize(p, _sum_of([1.0, 2.0, 3.0]), st)


def test_privatize_is_pure():
    # Later steps subtract the kept bands from the fresh noise in place, and
    # one band adds the sum into it: neither may touch the input or the state.
    for coefs in ((1.0,), (1.0, 0.3), (1.0, 0.3, -0.2)):
        p = pz.Privatizer(1.0, mf.Strategy(coefs))
        st = pz.init(p, _layout(3), prng.seed(9))
        csum = _sum_of([0.5, 0.5, 0.5])
        for step in range(4):
            kept = [band.copy() for band in st.buffer]
            out1, next1 = pz.privatize(p, csum, st)
            out2, next2 = pz.privatize(p, csum, st)
            assert np.array_equal(out1, out2) and out1 is not out2
            assert np.array_equal(csum.sum, [0.5, 0.5, 0.5]) and st.step == step
            assert len(st.buffer) == len(kept) == min(step, len(coefs) - 1)
            assert all(np.array_equal(band, copy) for band, copy in zip(st.buffer, kept))
            assert next1.step == next2.step and next1.key == next2.key
            st = next1


def test_gaussian_noise_distribution_ks():
    # 1e5 scalar steps; per-step noise must pass a KS test against
    # N(0, stddev^2) at significance 1e-3. Seeded, so deterministic.
    stddev = 0.7
    p = pz.Privatizer(stddev)  # attached sensitivity 1, identity strategy
    layout = _layout(1)
    st = pz.init(p, layout, prng.seed(31))
    zero = _zero_sum(layout)
    samples = np.empty(10**5)
    for i in range(samples.size):
        out, st = pz.privatize(p, zero, st)
        samples[i] = out[0]
    result = scipy.stats.kstest(samples, "norm", args=(0.0, stddev))
    assert result.pvalue > 1e-3


def test_privatizer_validation():
    for coefs in ((), (-1.0, 0.5), (2.0, 0.5)):  # c_0 must be 1, which Strategy enforces
        with pytest.raises(ValueError):
            pz.Privatizer(1.0, mf.Strategy(coefs))
    for sigma in (-1.0, math.nan):
        with pytest.raises(ValueError):
            pz.Privatizer(sigma)
