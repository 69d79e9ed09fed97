import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import banded_toeplitz, prefix_matrix
from dpcore import clipping, matrix_factorization as mf, models, privatizer as pz, prng


def test_sensitivity_identity():
    assert mf.sensitivity(mf.IDENTITY, 5) == 1.0


def test_sensitivity_two_band():
    s = mf.Strategy((1.0, -0.5))
    assert mf.sensitivity(s, 2) == pytest.approx(np.sqrt(1.25), rel=1e-15)


def test_sensitivity_matches_dense_materialization(rng):
    for _ in range(10):
        bands = int(rng.integers(1, 7))
        coefs = tuple([1.0] + list(rng.uniform(-1.0, 1.0, size=bands - 1)))
        s = mf.Strategy(coefs)
        n = 12
        dense = banded_toeplitz(s.coefficients, n)
        brute = max(np.linalg.norm(dense[:, j]) for j in range(n))
        assert abs(mf.sensitivity(s, n) - brute) < 1e-12


def test_sensitivity_n_below_bands_rejected():
    with pytest.raises(ValueError):
        mf.sensitivity(mf.Strategy((1.0, 0.5, 0.2)), 2)


def test_expected_error_identity_prefix():
    assert mf.expected_error(mf.prefix_workload(4), mf.IDENTITY) == pytest.approx(10.0)


def test_expected_error_n_one():
    assert mf.expected_error(mf.prefix_workload(1), mf.IDENTITY) == pytest.approx(1.0)


def _dense_error(n, s):
    b = prefix_matrix(n) @ np.linalg.inv(banded_toeplitz(s.coefficients, n))
    return np.sum(b * b) * mf.sensitivity(s, n) ** 2


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
    assert s.bands == bands
    assert s.coefficients[0] == 1.0
    assert np.all(np.isfinite(s.coefficients))
    assert _dense_error(n, s) < n * (n + 1) / 2


def test_optimize_horizon_beyond_dense_memory():
    # A dense 10^4 x 10^4 workload would take 800 MB.
    n = 10_000
    s = mf.optimize_banded(mf.prefix_workload(n), 16)
    assert s.bands == 16
    assert s.coefficients[0] == 1.0
    assert np.all(np.isfinite(s.coefficients))
    assert mf.expected_error(mf.prefix_workload(n), s) < n * (n + 1) / 2


def test_training_import_leaves_out_scipy_signal():
    # Importing scipy.signal takes over half a second, which every run would pay.
    code = "import sys, dpcore.training; print('scipy.signal' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


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
    stddev = mf.sensitivity(s, n)  # noise multiplier 1, clip norm 1
    p = pz.Privatizer(noise_stddev=stddev, sensitivity=1.0, coefficients=s.coefficients)
    layout = models.Layout((("x", 0, trials),))
    st = pz.init(p, layout, prng.seed(123))
    zero = clipping.ClippedGradientSum(models.GradientVector.zeros(layout), 1.0, 0, 0)
    prefix = np.zeros(trials)
    total_sq = np.zeros(trials)
    for _ in range(n):
        out, st = pz.privatize(p, zero, st)
        prefix += out.values
        total_sq += prefix**2
    empirical = float(np.mean(total_sq))
    assert empirical == pytest.approx(mf.expected_error(w, s), rel=0.05)
