import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from dpcore import accounting, matrix_factorization as mf


def mpmath_rdp(q, sigma, alpha):
    """Direct extended-precision evaluation of the integer-order binomial sum."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for k in range(alpha + 1):
            total += (
                mpmath.binomial(alpha, k)
                * (1 - mpmath.mpf(q)) ** (alpha - k)
                * mpmath.mpf(q) ** k
                * mpmath.e ** (k * (k - 1) / (2 * mpmath.mpf(sigma) ** 2))
            )
        return float(mpmath.log(total) / (alpha - 1))


def test_q_one_reduces_to_gaussian_rdp():
    for sigma in (0.5, 1.0, 3.0):
        curve = accounting.rdp_subsampled_gaussian(1.0, sigma)
        for a, v in zip(curve.orders, curve.values):
            assert abs(v - a / (2 * sigma**2)) < 1e-9


def test_q_one_alpha_two_exact():
    curve = accounting.rdp_subsampled_gaussian(1.0, 1.0, [2])
    assert curve.values[0] == pytest.approx(1.0, abs=1e-12)


def test_q_zero_all_zero():
    curve = accounting.rdp_subsampled_gaussian(0.0, 1.0)
    assert all(v == 0.0 for v in curve.values)


def test_sigma_zero_infinite_values():
    curve = accounting.rdp_subsampled_gaussian(0.5, 0.0, [2, 3])
    assert all(math.isinf(v) for v in curve.values)


@pytest.mark.parametrize("q", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [1e-160, 5e-324])
def test_sigma_too_small_for_finite_curve(sigma, q):
    # 1 / sigma^2 overflows (at 5e-324, sigma^2 is 0): every order is +inf,
    # and neither the curve nor epsilon warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = accounting.rdp_subsampled_gaussian(q, sigma)
        eps = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, 100))
    assert all(v == math.inf for v in curve.values)
    assert eps == math.inf


@pytest.mark.parametrize("q", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [1e-154, 1e-153])
def test_sigma_overflowing_high_orders_only(sigma, q):
    # alpha (alpha - 1) / (2 sigma^2) overflows above some order: those
    # orders are +inf, and the lower ones keep their exact values.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = accounting.rdp_subsampled_gaussian(q, sigma)
        eps = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, 100))
    assert eps == accounting.rdp_to_epsilon(accounting.compose(curve, 100), 1e-5)[0]
    values = curve.values
    finite = [math.isfinite(v) for v in values]
    assert 0 < finite.count(True) < len(values)
    assert finite == sorted(finite, reverse=True)  # the infinite orders are the last
    for alpha in (2, 3, 4):
        if finite[alpha - 2]:
            assert values[alpha - 2] == pytest.approx(mpmath_rdp(q, sigma, alpha), rel=1e-12)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        accounting.rdp_subsampled_gaussian(1.5, 1.0)
    with pytest.raises(ValueError):
        accounting.rdp_subsampled_gaussian(0.5, 1.0, [1])
    with pytest.raises(ValueError):
        accounting.rdp_subsampled_gaussian(0.5, 1.0, [2.5])
    with pytest.raises(ValueError):
        accounting.rdp_subsampled_gaussian(0.5, 1.0, [])


def test_subsampled_rdp_matches_extended_precision():
    q, sigma = 0.01, 1.0
    curve = accounting.rdp_subsampled_gaussian(q, sigma, list(range(2, 65)))
    for a, v in zip(curve.orders, curve.values):
        ref = mpmath_rdp(q, sigma, int(a))
        assert abs(v - ref) / ref < 1e-6


def mpmath_rdp_by_ratio(q, sigma, alpha):
    """The same binomial sum, each term built from the previous one.

    term(k+1) / term(k) = (alpha-k)/(k+1) * q/(1-q) * exp(k / sigma^2); at 60
    digits it rounds to the same float as :func:`mpmath_rdp`, ten times faster.
    """
    with mpmath.workdps(60):
        q, sigma = mpmath.mpf(q), mpmath.mpf(sigma)
        odds, step = q / (1 - q), mpmath.exp(1 / sigma**2)
        term = (1 - q) ** alpha
        total, growth = term, mpmath.mpf(1)
        for k in range(alpha):
            term *= (alpha - k) * odds * growth / (k + 1)
            growth *= step
            total += term
        return float(mpmath.log(total) / (alpha - 1))


# Largest relative error over orders (2, 8, 32, 202, 512) against
# mpmath_rdp_by_ratio, as measured for the logsumexp-based evaluation this
# module had before its hand-written reduction, rounded up to two digits.
_RDP_REFERENCE_ERROR = {
    (1e-4, 0.6): 2.2e-13, (1e-4, 1.0): 1.6e-12, (1e-4, 10.0): 1.0e-9, (1e-4, 100.0): 1.1e-7,
    (0.005, 0.6): 3.2e-14, (0.005, 1.0): 2.9e-13, (0.005, 10.0): 4.0e-11, (0.005, 100.0): 4.2e-9,
    (0.1, 0.6): 6.0e-16, (0.1, 1.0): 2.3e-15, (0.1, 10.0): 4.4e-13, (0.1, 100.0): 3.7e-11,
    (0.5, 0.6): 1.8e-16, (0.5, 1.0): 0.0, (0.5, 10.0): 6.5e-14, (0.5, 100.0): 2.0e-12,
}


@pytest.mark.parametrize("q, sigma", sorted(_RDP_REFERENCE_ERROR))
def test_rdp_within_reference_error_of_extended_precision(q, sigma):
    # Small q and large sigma put nearly all of the sum in its k = 0 term;
    # the reduction must keep the remainder as exactly as before.
    orders = [2, 8, 32, 202, 512]
    curve = accounting.rdp_subsampled_gaussian(q, sigma, orders)
    for a, v in zip(orders, curve.values):
        ref = mpmath_rdp_by_ratio(q, sigma, a)
        assert abs(v - ref) <= _RDP_REFERENCE_ERROR[q, sigma] * ref, (a, v, ref)


def test_rdp_reduction_matches_scipy_logsumexp():
    # The hand-written max + log1p reduction gives scipy's logsumexp, which
    # also sets the largest term apart and adds log1p of the rest, bit for
    # bit on the same masked grid.
    orders = list(range(2, 129))
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)[None, :]
    for q, sigma in ((1e-4, 100.0), (0.005, 0.8), (0.1, 1.0), (0.5, 10.0), (0.9, 0.6)):
        with np.errstate(invalid="ignore"):
            terms = (
                scipy.special.gammaln(a + 1) - scipy.special.gammaln(k + 1)
                - scipy.special.gammaln(a - k + 1)
                + (a - k) * math.log1p(-q) + k * math.log(q) + k * (k - 1) / (2 * sigma**2)
            )
        want = scipy.special.logsumexp(np.where(k <= a, terms, -np.inf), axis=1) / (a[:, 0] - 1)
        got = accounting.rdp_subsampled_gaussian(q, sigma, orders).values
        assert got == tuple(float(v) for v in want)


def test_log_binomial_grid_reuse_is_bit_identical():
    # The cached grids are shared across sigma for the same orders (and q);
    # reusing them, also when two q values alternate, must give exactly the
    # values of a fresh computation.
    orders = list(range(2, 65))
    key = tuple(orders)
    calls = ((0.01, 1.0), (0.2, 0.6), (0.01, 1.0), (0.2, 0.6), (0.01, 0.7))
    warm = [accounting.rdp_subsampled_gaussian(q, s, orders) for q, s in calls]
    for (q, s), curve in zip(calls, warm):
        accounting._log_binomial.cache_clear()
        accounting._sigma_free_terms.cache_clear()
        assert curve == accounting.rdp_subsampled_gaussian(q, s, orders)
    log_binom = accounting._log_binomial(key)
    grids = [log_binom] + [accounting._sigma_free_terms(key, q) for q in (0.01, 0.2)]
    above = np.triu_indices(len(orders), 3, log_binom.shape[1])  # the cells k > alpha
    for grid in grids:
        assert not grid.flags.writeable
        assert np.all(np.isneginf(grid[above]))
        assert np.isfinite(grid).sum() == grid.size - above[0].size


def test_log_binomial_grid_built_in_two_grids_of_memory():
    # The first calibration for a set of orders builds this grid; three
    # grid-sized temporaries alive at once would make that its peak.
    orders = (*range(2, 300), 317, 480)
    before = accounting._log_binomial.cache_info().misses
    tracemalloc.start()
    try:
        grid = accounting._log_binomial(orders)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert accounting._log_binomial.cache_info().misses == before + 1
    assert grid.shape == (len(orders), 481)
    assert peak <= 2.2 * grid.nbytes, peak / grid.nbytes


@functools.cache
def reference_log_binomial(orders):
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)[None, :]
    with np.errstate(invalid="ignore"):
        log_binom = (scipy.special.gammaln(a + 1) - scipy.special.gammaln(k + 1)
                     - scipy.special.gammaln(a - k + 1))
    return np.where(k <= a, log_binom, -np.inf)


def reference_rdp(q, sigma, orders):
    """The full-grid evaluation: every (order, k) cell exponentiated."""
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)
    log_terms = (a - k) * math.log1p(-q)
    log_terms += reference_log_binomial(orders)
    log_terms += k * math.log(q)
    log_terms += k * (k - 1) / (2.0 * sigma * sigma)
    rows = np.arange(log_terms.shape[0])
    top = log_terms.argmax(axis=1)
    peak = log_terms[rows, top]
    log_terms -= peak[:, None]
    log_terms[rows, top] = -np.inf
    rest = np.exp(log_terms, out=log_terms).sum(axis=1)
    return tuple(((peak + np.log1p(rest)) / (a[:, 0] - 1)).tolist())


@pytest.mark.parametrize("orders", [accounting.DEFAULT_ORDERS, tuple(range(2, 65)),
                                    (2, 3, 7, 100, 300), (2,)], ids=len)
def test_curve_equals_full_grid_evaluation(orders):
    # Live-block evaluation on the cached sigma-free grid gives the full
    # grid's values bit for bit.
    for q in (0.001, 0.005, 1 / 96, 0.1, 0.5, 0.9):
        for sigma in np.geomspace(0.01, 1000.0, 30).tolist():
            got = accounting.rdp_subsampled_gaussian(q, sigma, orders)
            assert got.values == reference_rdp(q, sigma, orders), (q, sigma)


@pytest.mark.parametrize("target, q, steps, sigma, eps", [
    (1.0, 0.1, 600, 10.006853606268734, 0.9999865855833014),
    (4.0, 0.005, 20_000, 1.0618471646209724, 3.9993839705548817),
])
def test_calibrated_sigma_and_epsilon_pinned(target, q, steps, sigma, eps):
    # The benchmark's audit-mlp and long-logistic calibrations, exactly as
    # the full-grid evaluation gave them.
    assert accounting.calibrate_noise(target, 1e-5, q, steps) == sigma
    assert accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, steps)) == eps


def test_unsorted_orders_rejected_before_evaluation():
    before = accounting._sigma_free_terms.cache_info()
    for sigma in (0.0, 1.0):
        with pytest.raises(ValueError, match="orders must be ascending"):
            accounting.rdp_subsampled_gaussian(0.3, sigma, [2, 5, 3])
    with pytest.raises(ValueError, match="orders must be ascending"):
        accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 1.0, 0.3, 10), [4, 2])
    after = accounting._sigma_free_terms.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_compose():
    curve = accounting.rdp_subsampled_gaussian(0.1, 1.0, [2, 4, 8])
    same = accounting.compose(curve, 1)
    assert same.values == curve.values
    doubled = accounting.compose(curve, 2)
    assert doubled.values == tuple(2 * v for v in curve.values)
    assert accounting.compose(accounting.compose(curve, 2), 3).values == pytest.approx(
        accounting.compose(curve, 6).values
    )


def test_compose_scales_as_float_products():
    # One vector multiply gives each value's float product, bit for bit,
    # and overflows to +inf without a warning.
    curve = accounting.rdp_subsampled_gaussian(0.1, 10.0)
    for steps in (1, 3, 600, 10**6, 2**53 + 1):
        assert accounting.compose(curve, steps).values == tuple(v * steps for v in curve.values)
    huge = accounting.RdpCurve((2.0, 3.0, 4.0), (1e300, math.inf, math.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = accounting.compose(huge, 10**9).values
    assert values[:2] == (math.inf, math.inf) and math.isnan(values[2])


@pytest.mark.parametrize("orders, values, message", [
    ((2.0, 3.0), (0.1,), "equal length"),
    ((1.0, 2.0), (0.1, 0.2), "integers >= 2"),
    ((0.5,), (0.1,), "integers >= 2"),
    ((2.5, 3.0), (0.1, 0.2), "integers >= 2"),
    ((2.0, math.inf), (0.1, 0.2), "integers >= 2"),
    ((3.0, 2.0), (0.1, 0.2), "ascending"),
    ((), (), "non-empty"),
])
def test_rdp_curve_rejects_invalid_orders(orders, values, message):
    with pytest.raises(ValueError, match=message):
        accounting.RdpCurve(orders, values)


def test_rdp_to_epsilon_single_order():
    curve = accounting.RdpCurve(orders=(2.0,), values=(1.0,))
    eps, order = accounting.rdp_to_epsilon(curve, math.exp(-1))
    # 1 + log(1 - 1/2) + (log(e) - log 2) / (2 - 1) = 2 - 2 log 2.
    assert eps == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-12)
    assert order == 2.0


def test_rdp_to_epsilon_zero_curve_largest_order_wins():
    orders = tuple(float(a) for a in range(2, 65))
    curve = accounting.RdpCurve(orders=orders, values=(0.0,) * len(orders))
    eps, order = accounting.rdp_to_epsilon(curve, 1e-5)
    assert order == 64.0
    assert eps == pytest.approx(math.log(63 / 64) + (math.log(1e5) - math.log(64)) / 63)


def test_rdp_to_epsilon_clamped_at_zero():
    # log(1 - 1/2) + (log 2 - log 2) / 1 = -log 2 < 0: epsilon is never negative.
    curve = accounting.RdpCurve(orders=(2.0,), values=(0.0,))
    eps, order = accounting.rdp_to_epsilon(curve, 0.5)
    assert eps == 0.0
    assert order == 2.0


def loop_rdp_to_epsilon(curve, delta):
    """Order-by-order conversion: the first order with the smallest value wins."""
    log_inv_delta = math.log(1.0 / delta)
    best_eps, best_order = math.inf, curve.orders[0]
    for a, v in zip(curve.orders, curve.values):
        eps = v + math.log1p(-1.0 / a) + (log_inv_delta - math.log(a)) / (a - 1)
        if eps < best_eps:
            best_eps, best_order = eps, a
    return max(best_eps, 0.0), best_order


_INF = math.inf


@pytest.mark.parametrize("orders, values, delta", [
    ((2.0, 3.0, 4.0, 5.0), (5e20, 1e20, 1e20, 3e20), 1e-5),  # orders 3 and 4 tie
    ((2.0, 3.0, 5.0, 9.0), (_INF, 0.4, _INF, 0.2), 1e-5),
    ((2.0, 3.0, 4.0), (_INF, _INF, _INF), 1e-5),
    ((2.0, 3.0), (math.nan, 0.5), 1e-5),
    ((7.0,), (0.25,), 1e-3),
    ((2.0, 3.0), (0.0, 0.0), 0.5),  # clamped at 0
    ((2.0, 3.0), (-_INF, -_INF), 1e-5),
    (tuple(float(a) for a in range(2, 65)), (0.0,) * 63, 1e-5),
    (tuple(float(a) for a in range(2, 513)), tuple(np.linspace(9, 0, 511).tolist()), 1e-7),
], ids=["tie", "inf-entries", "all-inf", "nan-entry", "single-order", "clamp",
        "minus-inf-tie", "zero-curve", "default-orders"])
def test_rdp_to_epsilon_matches_order_loop(orders, values, delta):
    curve = accounting.RdpCurve(orders, values)
    assert accounting.rdp_to_epsilon(curve, delta) == loop_rdp_to_epsilon(curve, delta)


def test_rdp_to_epsilon_tie_first_order_wins():
    # 1e20 absorbs each order's conversion terms, so orders 3 and 4 tie.
    curve = accounting.RdpCurve((2.0, 3.0, 4.0, 5.0), (5e20, 1e20, 1e20, 3e20))
    assert accounting.rdp_to_epsilon(curve, 1e-5) == (1e20, 3.0)


def test_rdp_to_epsilon_empty_curve_rejected():
    with pytest.raises(ValueError):
        accounting.rdp_to_epsilon(accounting.RdpCurve((), ()), 1e-5)


def test_analytic_gaussian_large_sigma_tiny_epsilon():
    assert accounting.analytic_gaussian_epsilon(1e3, 1e-5) < 0.01


def test_analytic_gaussian_residual():
    for sigma in (0.5, 1.0, 2.0, 8.0):
        eps = accounting.analytic_gaussian_epsilon(sigma, 1e-5)
        residual = accounting._analytic_delta(eps, sigma)
        assert abs(residual - 1e-5) <= 1e-12


def test_analytic_gaussian_matches_quadrature():
    # Independent oracle: numerically integrate the positive part of
    # p(x) - e^eps q(x) for unit-separated Gaussians.
    sigma = 1.0
    eps = accounting.analytic_gaussian_epsilon(sigma, 1e-5)

    def integrand(x):
        p = scipy.stats.norm.pdf(x, loc=0.0, scale=sigma)
        qd = scipy.stats.norm.pdf(x, loc=1.0, scale=sigma)
        return max(p - math.exp(eps) * qd, 0.0)

    delta_quad, _ = scipy.integrate.quad(integrand, -12 * sigma, 12 * sigma,
                                         limit=400, epsabs=1e-14)
    assert delta_quad == pytest.approx(1e-5, rel=1e-4)


def test_rdp_epsilon_vs_analytic_oracle_q1_t1():
    # The integer-order RDP conversion is looser than the exact analytic
    # Gaussian epsilon; the measured gap at sigma=1, delta=1e-5 is 8.6%
    # (frozen here). It never undercuts the exact value.
    curve = accounting.rdp_subsampled_gaussian(1.0, 1.0)
    eps_rdp, _ = accounting.rdp_to_epsilon(accounting.compose(curve, 1), 1e-5)
    eps_ana = accounting.analytic_gaussian_epsilon(1.0, 1e-5)
    assert eps_rdp >= eps_ana
    assert eps_rdp / eps_ana == pytest.approx(1.0858, abs=5e-3)


def test_rdp_epsilon_never_below_analytic_oracle():
    # Soundness: at q=1, T=1 the reported epsilon is an upper bound on the
    # exact epsilon of the Gaussian mechanism.
    for sigma in (0.5, 1.0, 2.0, 3.0, 8.0):
        for delta in (1e-3, 1e-5, 1e-7):
            eps_rdp = accounting.epsilon(
                accounting.PrivacySpec(math.inf, delta, sigma, 1.0, 1)
            )
            assert eps_rdp >= accounting.analytic_gaussian_epsilon(sigma, delta)


def test_epsilon_sigma_zero_infinite():
    spec = accounting.PrivacySpec(math.inf, 1e-5, 0.0, 0.01, 100)
    assert accounting.epsilon(spec) == math.inf


def test_epsilon_monotonicity_grid():
    sigmas = [0.6, 0.9, 1.3, 2.0, 3.1]
    steps = [1, 10, 100, 400, 1000]
    qs = [0.001, 0.01, 0.05, 0.2, 1.0]

    def eps(sigma, t, q):
        return accounting.epsilon(
            accounting.PrivacySpec(math.inf, 1e-5, sigma, q, t)
        )

    for t in steps[:3]:
        for q in qs[:3]:
            vals = [eps(s, t, q) for s in sigmas]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for s in sigmas[:3]:
        for q in qs[:3]:
            vals = [eps(s, t, q) for t in steps]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    for s in sigmas[:3]:
        for t in steps[:3]:
            vals = [eps(s, t, q) for q in qs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_epsilon_golden_value():
    # Extended-precision oracle: mpmath_rdp(0.01, 1.0, alpha) * 1000 over
    # orders 2..512, converted with RDP + log(1 - 1/alpha)
    # + (log(1/delta) - log(alpha)) / (alpha - 1) and minimized, gives
    # 2.107753075451565 at alpha = 8.
    spec = accounting.PrivacySpec(math.inf, 1e-5, 1.0, 0.01, 1000)
    assert accounting.epsilon(spec) == pytest.approx(2.107753075451565, rel=1e-9)


def test_calibrate_round_trip():
    sigma = accounting.calibrate_noise(8.0, 1e-5, 0.01, 1000)
    achieved = accounting.epsilon(
        accounting.PrivacySpec(math.inf, 1e-5, sigma, 0.01, 1000)
    )
    assert achieved <= 8.0
    assert achieved >= 8.0 * (1 - 1e-3)


def test_calibrate_monotone_in_steps():
    sigmas = [
        accounting.calibrate_noise(2.0, 1e-5, 0.02, t) for t in (100, 400, 1600)
    ]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_calibrate_against_analytic_oracle():
    # q=1, T=1: calibrating to the analytic epsilon of sigma0 must give a
    # sigma above sigma0 (the conversion is loose, never unsound) and within
    # the measured looseness band (7.5%, 7.1%, 7.8% at these three points).
    for sigma0 in (0.5, 1.0, 2.0):
        target = accounting.analytic_gaussian_epsilon(sigma0, 1e-5)
        sigma = accounting.calibrate_noise(target, 1e-5, 1.0, 1)
        assert sigma0 <= sigma <= 1.10 * sigma0


def test_calibrate_unreachable_target():
    with pytest.raises(accounting.CalibrationRangeError):
        accounting.calibrate_noise(1e-9, 1e-5, 1.0, 10**5)


def test_privacy_spec_invariants():
    with pytest.raises(ValueError):
        accounting.PrivacySpec(1.0, 1e-5, 0.0, 0.5, 10)  # sigma=0 needs eps=inf
    with pytest.raises(ValueError):
        accounting.PrivacySpec(1.0, 0.0, 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        accounting.PrivacySpec(1.0, 1e-5, 1.0, 1.5, 10)


def test_mf_epsilon_identity_matches_analytic():
    # The identity strategy is DP-SGD's i.i.d. noise: the privatizer's scale
    # sigma * clip * ||c|| is sigma * clip, bit for bit.
    for sigma, clip in [(2.0, 1.0), (0.7, 3.3), (5.381030807963843, 10.0), (0.0, 0.1)]:
        assert sigma * clip * mf.IDENTITY.sensitivity == sigma * clip
    stddev = 2.0 * 1.0 * mf.IDENTITY.sensitivity
    recovered_ratio = stddev / (1.0 * mf.IDENTITY.sensitivity)
    eps = accounting.analytic_gaussian_epsilon(recovered_ratio, 1e-5)
    assert eps == pytest.approx(accounting.analytic_gaussian_epsilon(2.0, 1e-5))


def test_mf_epsilon_sensitivity_scaling():
    # Doubling the strategy sensitivity at a fixed fresh-noise stddev halves
    # the effective ratio, which strictly increases epsilon.
    stddev = 2.0 * 1.0 * mf.IDENTITY.sensitivity
    s_double = mf.Strategy((1.0, math.sqrt(3.0)))  # sensitivity 2
    assert s_double.sensitivity == pytest.approx(2.0)
    ratio_small = stddev / (1.0 * s_double.sensitivity)
    eps_big = accounting.analytic_gaussian_epsilon(ratio_small, 1e-5)
    eps_base = accounting.analytic_gaussian_epsilon(stddev / mf.IDENTITY.sensitivity, 1e-5)
    assert eps_big > eps_base


def test_mf_epsilon_banded_composition():
    # With fresh-noise stddev sigma * clip * sens(C), the banded mechanism's
    # epsilon equals the plain analytic Gaussian epsilon at ratio sigma.
    s = mf.Strategy((1.0, -0.5))
    stddev = 2.0 * 1.0 * s.sensitivity
    assert stddev == pytest.approx(2.0 * math.sqrt(1.25))
    recovered_ratio = stddev / (1.0 * s.sensitivity)
    assert accounting.analytic_gaussian_epsilon(recovered_ratio, 1e-5) == pytest.approx(
        accounting.analytic_gaussian_epsilon(2.0, 1e-5)
    )


def test_calibrate_mf_noise_round_trip():
    sigma = accounting.calibrate_mf_noise(1.0, 1e-5)
    assert accounting.analytic_gaussian_epsilon(sigma, 1e-5) <= 1.0
    assert accounting.analytic_gaussian_epsilon(sigma, 1e-5) >= 1.0 * (1 - 1e-3)


def test_analytic_delta_matches_scipy_stats_form():
    # scipy.special's ndtr and log_ndtr are what scipy.stats.norm calls.
    for eps in (0.0, 1e-9, 0.01, 0.5, 1.0, 2.0, 8.0, 30.0, 200.0):
        for sigma in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e3):
            a = 1.0 / (2.0 * sigma) - eps * sigma
            b = -1.0 / (2.0 * sigma) - eps * sigma
            want = float(scipy.stats.norm.cdf(a) - np.exp(eps + scipy.stats.norm.logcdf(b)))
            assert accounting._analytic_delta(eps, sigma) == want


def nested_mf_reference(target_epsilon, delta):
    """Bisection on sigma around the inverted curve epsilon(sigma), 1e-6 relative."""
    lo, hi = 1e-2, 1e3
    if accounting.analytic_gaussian_epsilon(lo, delta) <= target_epsilon:
        return lo
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        if accounting.analytic_gaussian_epsilon(mid, delta) <= target_epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def test_calibrate_mf_noise_matches_nested_bisection():
    # Testing delta(target, sigma) <= delta directly picks the same sigma as
    # testing epsilon(sigma) <= target, and sigma is tight on its grid.
    for target in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        for delta in (1e-3, 1e-5, 1e-7):
            sigma = accounting.calibrate_mf_noise(target, delta)
            assert sigma == nested_mf_reference(target, delta)
            assert accounting._analytic_delta(target, sigma) <= delta
            assert accounting._analytic_delta(target, sigma / (1 + 1e-6)) > delta


def test_calibrate_mf_noise_unreachable_target():
    with pytest.raises(accounting.CalibrationRangeError):
        accounting.calibrate_mf_noise(1e-9, 1e-5)
    with pytest.raises(ValueError):
        accounting.calibrate_mf_noise(0.0, 1e-5)


def test_calibrate_noise_epsilon_call_sequence(monkeypatch):
    # Bracket bottom, bracket top, then geometric midpoints; an unreachable
    # target evaluates the bracket top once.
    sigmas = []
    real = accounting.epsilon

    def recording(spec, orders):
        sigmas.append(spec.noise_multiplier)
        return real(spec, orders)

    monkeypatch.setattr(accounting, "epsilon", recording)
    sigma = accounting.calibrate_noise(2.0, 1e-5, 0.05, 200)
    lo, hi = 1e-2, 1e3
    want = [lo, hi]
    while hi / lo > 1.0 + 1e-4:
        want.append(math.sqrt(lo * hi))
        if real(accounting.PrivacySpec(math.inf, 1e-5, want[-1], 0.05, 200)) <= 2.0:
            hi = want[-1]
        else:
            lo = want[-1]
    assert sigmas == want and sigma == hi
    sigmas.clear()
    with pytest.raises(accounting.CalibrationRangeError):
        accounting.calibrate_noise(1e-9, 1e-5, 1.0, 10**5)
    assert sigmas == [1e-2, 1e3]
