import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import banded_toeplitz, prefix_matrix
from dpcore import clipping, matrix_factorization as mf, models, privatizer as pz, prng


def test_sensitivity_identity():
    assert mf.IDENTITY.sensitivity == 1.0


def test_sensitivity_two_band():
    s = mf.Strategy((1.0, -0.5))
    assert s.sensitivity == pytest.approx(np.sqrt(1.25), rel=1e-15)


def test_sensitivity_computed_once_per_strategy(monkeypatch):
    # The privatizer reads the strategy's sensitivity on every step.
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    s = mf.Strategy((1.0, -0.5, 0.25))
    p = pz.Privatizer(1.0, s)
    layout = models.Layout((("x", 0, 2),))
    st = pz.init(p, layout, prng.seed(0))
    zero = clipping.ClippedGradientSum(np.zeros(layout.total_length), 1.0, 0, 0)
    for _ in range(5):
        _, st = pz.privatize(p, zero, st)
    assert len(calls) == 1


def test_sensitivity_matches_dense_materialization(rng):
    for _ in range(10):
        bands = int(rng.integers(1, 7))
        coefs = tuple([1.0] + list(rng.uniform(-1.0, 1.0, size=bands - 1)))
        s = mf.Strategy(coefs)
        n = 12
        dense = banded_toeplitz(s.coefficients, n)
        brute = max(np.linalg.norm(dense[:, j]) for j in range(n))
        assert abs(s.sensitivity - brute) < 1e-12


def test_sensitivity_n_below_bands_rejected():
    # Below n = bands no column of C holds every coefficient.
    with pytest.raises(ValueError):
        mf.expected_error(mf.prefix_workload(2), mf.Strategy((1.0, 0.5, 0.2)))


def test_expected_error_identity_prefix():
    assert mf.expected_error(mf.prefix_workload(4), mf.IDENTITY) == pytest.approx(10.0)


def test_expected_error_n_one():
    assert mf.expected_error(mf.prefix_workload(1), mf.IDENTITY) == pytest.approx(1.0)


def _dense_error(n, s):
    c = banded_toeplitz(s.coefficients, n)
    b = prefix_matrix(n) @ np.linalg.inv(c)
    return np.sum(b * b) * np.max(np.sum(c * c, axis=0))  # squared max column norm


@pytest.mark.parametrize(
    "n,bands",
    [(1, 1), (2, 2), (5, 3), (8, 8), (16, 16), (32, 2), (33, 5), (96, 16), (1000, 4), (1000, 16)],
)
def test_expected_error_matches_dense_inverse(n, bands):
    rng = np.random.default_rng(1000 * n + bands)
    s = mf.Strategy((1.0, *rng.uniform(-1.0, 1.0, size=bands - 1) / bands))
    w = mf.prefix_workload(n)
    assert mf.expected_error(w, s) == pytest.approx(_dense_error(n, s), rel=1e-12)


# Coefficients whose inverse grows geometrically, or overflows outright; the
# suite's filterwarnings = error also fails any overflow warning.
@pytest.mark.parametrize("coefficients", [(1, -5, 7, -9), (1, 10), (1, 1e200), (1, 2, -2, 2)])
def test_expected_error_unstable_strategy_is_infinite(coefficients):
    error = mf.expected_error(mf.prefix_workload(1000), mf.Strategy(coefficients))
    assert error == math.inf
    # The optimizer's objective reads infinite too, with a finite gradient.
    error, gradient = mf._error_and_gradient(1000, np.array(coefficients[1:], dtype=float))
    assert error == math.inf
    assert gradient.shape == (len(coefficients) - 1,)
    assert np.all(np.isfinite(gradient))


def solve_banded_error(n, s):
    """The closed-form error through scipy.linalg.solve_banded and its checks."""
    u = len(s.coefficients) - 1
    ab = np.zeros((len(s.coefficients), n))
    for k, c in enumerate(s.coefficients):
        ab[u - k, k:] = c
    last = np.zeros(n)
    last[-1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        first_column = np.cumsum(scipy.linalg.solve_banded((0, u), ab, last)[::-1])
        error = float(np.arange(n, 0, -1) @ first_column**2) * s.sensitivity**2
    return error if math.isfinite(error) else math.inf


@pytest.mark.parametrize(
    "n,bands", [(n, b) for n in (1, 2, 5, 96, 1000) for b in (1, 2, 4, 8, 16) if b <= n]
)
def test_expected_error_equals_solve_banded(n, bands):
    # The direct LAPACK call gives scipy.linalg.solve_banded's bits, for
    # stable strategies and for ones whose inverse overflows (both inf).
    rng = np.random.default_rng(100 * n + bands)
    w = mf.prefix_workload(n)
    for scale in (0.1, 0.5, 1.0, 3.0):
        s = mf.Strategy((1.0, *rng.uniform(-scale, scale, size=bands - 1)))
        assert mf.expected_error(w, s) == solve_banded_error(n, s)


@pytest.mark.parametrize("coefficients", [(1.0, math.nan), (1.0, math.inf), (1.0, 0.5, -math.inf)])
def test_expected_error_non_finite_coefficient_rejected(coefficients):
    s = mf.Strategy(coefficients)
    with pytest.raises(ValueError):
        solve_banded_error(8, s)
    with pytest.raises(ValueError):
        mf.expected_error(mf.prefix_workload(8), s)


def _dense_gradient(n, s):
    """d expected_error / d c_j for j >= 1, from dense matrices.

    With M = A C^{-1}, dM/dc_j = -M Z_j C^{-1} (Z_j shifts down by j), so the
    derivative of ||M||^2 ||c||^2 is 2 ||c||^2 <M, -M Z_j C^{-1}> + 2 c_j ||M||^2.
    """
    c_inv = np.linalg.inv(banded_toeplitz(s.coefficients, n))
    m = prefix_matrix(n) @ c_inv
    norm_sq = s.sensitivity**2
    return np.array([
        2 * norm_sq * np.sum(m * -(m @ np.eye(n, k=-j) @ c_inv)) + 2 * c * np.sum(m * m)
        for j, c in enumerate(s.coefficients[1:], start=1)
    ])


def _central_difference_gradient(n, tail, h=1e-6):
    def error(t):
        return mf.expected_error(mf.prefix_workload(n), mf.Strategy((1.0, *t)))

    return np.array([(error(tail + h * e) - error(tail - h * e)) / (2 * h)
                     for e in np.eye(len(tail))])


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n,bands", [(n, b) for b in (2, 3, 8) for n in (b, 16, 64)])
def test_error_gradient_matches_dense_and_central_differences(n, bands):
    rng = np.random.default_rng(10 * n + bands)
    w = mf.prefix_workload(n)
    for scale in (0.1, 0.5, 1.0 / bands):
        tail = rng.uniform(-scale, scale, size=bands - 1)
        s = mf.Strategy((1.0, *tail))
        error, gradient = mf._error_and_gradient(n, tail)
        assert error == mf.expected_error(w, s)
        assert _relative_gap(gradient, _dense_gradient(n, s)) <= 1e-9
        assert _relative_gap(gradient, _central_difference_gradient(n, tail)) <= 1e-6


def test_error_gradient_overflow_reads_infinite():
    # At n = 154 the error of (1, -10) is finite, 1.3e308, but its gradient,
    # about 30 times larger, is not: the optimizer sees an unusable point.
    assert math.isfinite(mf.expected_error(mf.prefix_workload(154), mf.Strategy((1.0, -10.0))))
    error, gradient = mf._error_and_gradient(154, np.array([-10.0]))
    assert error == math.inf
    assert np.all(gradient == 0.0)


def finite_difference_optimize(w, bands, iters=200):
    """L-BFGS-B on expected_error with scipy's finite-difference gradients.

    The reference for optimize_banded's exact gradient: the same start,
    iteration cap and never-worse-than-identity guard.
    """
    def objective(tail):
        return mf.expected_error(w, mf.Strategy((1.0, *tail)))

    identity = np.zeros(bands - 1)
    identity_val = objective(identity)
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.optimize.minimize(
            objective, identity, method="L-BFGS-B", options={"maxiter": iters}
        )
    if not result.fun < identity_val:
        return mf.IDENTITY
    return mf.Strategy((1.0, *result.x))


@pytest.mark.parametrize("n", [16, 96, 1000])
@pytest.mark.parametrize("bands", [2, 4, 8, 16])
def test_optimize_no_worse_than_finite_differences(n, bands):
    w = mf.prefix_workload(n)
    reference = mf.expected_error(w, finite_difference_optimize(w, bands))
    assert mf.expected_error(w, mf.optimize_banded(w, bands)) <= reference * (1 + 1e-9)


def test_optimize_beats_identity_prefix32():
    w = mf.prefix_workload(32)
    identity_error = mf.expected_error(w, mf.IDENTITY)
    assert identity_error == pytest.approx(32 * 33 / 2)
    s = mf.optimize_banded(w, 2, iters=200)
    assert mf.expected_error(w, s) < identity_error


def test_optimize_band_one_returns_identity():
    w = mf.prefix_workload(8)
    s = mf.optimize_banded(w, 1, iters=10)
    assert s == mf.IDENTITY
    assert mf.expected_error(w, s) == pytest.approx(8 * 9 / 2)


def test_optimize_never_worse_than_identity(rng):
    w = mf.prefix_workload(12)
    identity_error = mf.expected_error(w, mf.IDENTITY)
    for bands in (2, 3, 5):
        s = mf.optimize_banded(w, bands, iters=30)
        assert mf.expected_error(w, s) <= identity_error


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("bands", [2, 4, 8, 16])
def test_optimize_long_horizon_beats_identity(n, bands):
    w = mf.prefix_workload(n)
    s = mf.optimize_banded(w, bands)
    assert len(s.coefficients) == bands
    assert s.coefficients[0] == 1.0
    assert np.all(np.isfinite(s.coefficients))
    assert _dense_error(n, s) < n * (n + 1) / 2


def test_optimize_horizon_beyond_dense_memory():
    # A dense 10^4 x 10^4 workload would take 800 MB.
    n = 10_000
    s = mf.optimize_banded(mf.prefix_workload(n), 16)
    assert len(s.coefficients) == 16
    assert s.coefficients[0] == 1.0
    assert np.all(np.isfinite(s.coefficients))
    assert mf.expected_error(mf.prefix_workload(n), s) < n * (n + 1) / 2


def test_cli_import_defers_scipy_modules_to_strategy_search():
    # Every run imports the CLI, which pulls in training, auditing and
    # accounting. scipy.stats, scipy.optimize, scipy.linalg and scipy.signal
    # would add tens of MB and most of a second of start-up to each, so
    # none of them loads until a banded strategy search needs the last two.
    code = """if True:
        import sys
        import dpcore.cli
        from dpcore import matrix_factorization as mf
        deferred = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.signal")
        print([name for name in deferred if name in sys.modules])
        w = mf.prefix_workload(16)
        print(mf.expected_error(w, mf.optimize_banded(w, 3)))
        print([name for name in deferred if name in sys.modules])
    """
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    before, error, after = out.stdout.splitlines()
    assert before == "[]"
    w = mf.prefix_workload(16)
    assert float(error) == mf.expected_error(w, mf.optimize_banded(w, 3))
    assert after == "['scipy.optimize', 'scipy.linalg']"


def test_strategy_normalization_enforced():
    with pytest.raises(ValueError):
        mf.Strategy((0.5, 0.1))
    with pytest.raises(ValueError):
        mf.Strategy(())


def test_optimized_strategy_prefix_sum_variance():
    # End-to-end: streaming privatizer noise, accumulated into prefix sums,
    # must show total variance matching expected_error. Each coordinate of a
    # wide vector is an independent scalar trial.
    n, trials = 16, 10**4
    w = mf.prefix_workload(n)
    s = mf.optimize_banded(w, 3, iters=80)
    p = pz.Privatizer(1.0, s)  # noise multiplier 1; the zero sum below has clip norm 1
    layout = models.Layout((("x", 0, trials),))
    st = pz.init(p, layout, prng.seed(123))
    zero = clipping.ClippedGradientSum(np.zeros(layout.total_length), 1.0, 0, 0)
    prefix = np.zeros(trials)
    total_sq = np.zeros(trials)
    for _ in range(n):
        out, st = pz.privatize(p, zero, st)
        prefix += out
        total_sq += prefix**2
    empirical = float(np.mean(total_sq))
    assert empirical == pytest.approx(mf.expected_error(w, s), rel=0.05)
