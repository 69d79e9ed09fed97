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


ORDERS = accounting.ORDERS


def test_q_one_reduces_to_gaussian_rdp():
    for sigma in (0.5, 1.0, 3.0):
        values = accounting._rdp_values(1.0, sigma)
        for a, v in zip(ORDERS, values):
            assert abs(v - a / (2 * sigma**2)) < 1e-9


def test_q_one_alpha_two_exact():
    assert ORDERS[0] == 2
    assert accounting._rdp_values(1.0, 1.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_q_zero_all_zero():
    assert np.all(accounting._rdp_values(0.0, 1.0) == 0.0)


def test_sigma_zero_infinite_values():
    assert np.all(accounting._rdp_values(0.5, 0.0) == math.inf)


@pytest.mark.parametrize("q", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [1e-160, 5e-324])
def test_sigma_too_small_for_finite_curve(sigma, q):
    # 1 / sigma^2 overflows (at 5e-324, sigma^2 is 0): every order is +inf,
    # and neither the curve nor epsilon warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = accounting._rdp_values(q, sigma)
        eps = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, 100))
    assert np.all(values == math.inf)
    assert eps == math.inf


@pytest.mark.parametrize("q", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [1e-154, 1e-153])
def test_sigma_overflowing_high_orders_only(sigma, q):
    # alpha (alpha - 1) / (2 sigma^2) overflows above some order: those
    # orders are +inf, and the lower ones keep their exact values.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = accounting._rdp_values(q, sigma)
        eps = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, 100))
    with np.errstate(over="ignore"):
        assert eps == accounting._to_epsilon(values * 100, 1e-5)
    finite = np.isfinite(values).tolist()
    assert 0 < finite.count(True) < len(values)
    assert finite == sorted(finite, reverse=True)  # the infinite orders are the last
    for alpha in (2, 3, 4):
        if finite[alpha - 2]:
            assert values[alpha - 2] == pytest.approx(mpmath_rdp(q, sigma, alpha), rel=1e-12)


def test_invalid_arguments():
    # A q outside [0, 1] or a negative sigma never reaches the accountant.
    for q, sigma in ((1.5, 1.0), (-0.1, 1.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            accounting.PrivacySpec(math.inf, 1e-5, sigma, q, 10)


def test_subsampled_rdp_matches_extended_precision():
    q, sigma = 0.01, 1.0
    values = accounting._rdp_values(q, sigma)
    for a, v in zip(ORDERS[:63], values):  # orders 2..64
        ref = mpmath_rdp(q, sigma, a)
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
    values = accounting._rdp_values(q, sigma)
    for a in (2, 8, 32, 202, 512):
        v, ref = values[a - 2], mpmath_rdp_by_ratio(q, sigma, a)
        assert abs(v - ref) <= _RDP_REFERENCE_ERROR[q, sigma] * ref, (a, v, ref)
        assert abs(v - ref) <= accounting._rdp_error(q, sigma) / (a - 1), (a, v, ref)


def test_special_functions_within_the_ulps_the_error_bound_assumes():
    # accounting._rdp_error takes gammaln to within 8 ulp, and exp and log1p
    # to within 4, at the arguments the term grid gives them.
    def ulps(got, want):
        return float(abs(mpmath.mpf(float(got)) - want)) / math.ulp(float(want))

    rng = np.random.default_rng(3)
    with mpmath.workdps(40):
        x = np.arange(1.0, ORDERS[-1] + 2.0)
        log_gammas = scipy.special.gammaln(x)
        assert log_gammas[:2].tolist() == [0.0, 0.0]
        assert max(ulps(g, mpmath.loggamma(v))
                   for v, g in zip(x[2:].tolist(), log_gammas[2:])) <= 8
        cells = rng.uniform(-700.0, 0.0, 2000)
        assert max(ulps(e, mpmath.exp(y)) for y, e in zip(cells.tolist(), np.exp(cells))) <= 4
        rests = 10 ** rng.uniform(-300.0, math.log10(512.0), 2000)
        assert max(ulps(l, mpmath.log1p(r)) for r, l in zip(rests.tolist(), np.log1p(rests))) <= 4


@functools.cache
def reference_log_binomial():
    a = np.array(ORDERS, dtype=np.float64)[:, None]
    k = np.arange(max(ORDERS) + 1, dtype=np.float64)[None, :]
    with np.errstate(invalid="ignore"):
        log_binom = (scipy.special.gammaln(a + 1) - scipy.special.gammaln(k + 1)
                     - scipy.special.gammaln(a - k + 1))
    return np.where(k <= a, log_binom, -np.inf)


def test_rdp_reduction_matches_scipy_logsumexp():
    # The hand-written max + log1p reduction gives scipy's logsumexp, which
    # also sets the largest term apart and adds log1p of the rest, bit for
    # bit on the same masked grid.
    a = np.array(ORDERS, dtype=np.float64)[:, None]
    k = np.arange(max(ORDERS) + 1, dtype=np.float64)[None, :]
    for q, sigma in ((1e-4, 100.0), (0.005, 0.8), (0.1, 1.0), (0.5, 10.0), (0.9, 0.6)):
        terms = (reference_log_binomial() + (a - k) * math.log1p(-q) + k * math.log(q)
                 + k * (k - 1) / (2 * sigma**2))
        want = scipy.special.logsumexp(terms, axis=1) / (a[:, 0] - 1)
        assert accounting._rdp_values(q, sigma).tolist() == want.tolist()


def test_log_binomial_grid_reuse_is_bit_identical():
    # The cached grids are shared across sigma (and, per q, across calls);
    # reusing them, also when two q values alternate, must give exactly the
    # values of a fresh computation.
    calls = ((0.01, 1.0), (0.2, 0.6), (0.01, 1.0), (0.2, 0.6), (0.01, 0.7))
    warm = [accounting._rdp_values(q, s).tolist() for q, s in calls]
    for (q, s), values in zip(calls, warm):
        accounting._log_binomial.cache_clear()
        accounting._sigma_free_terms.cache_clear()
        assert values == accounting._rdp_values(q, s).tolist()
    log_binom = accounting._log_binomial()
    grids = [log_binom] + [accounting._sigma_free_terms(q) for q in (0.01, 0.2)]
    above = np.triu_indices(len(ORDERS), 3, log_binom.shape[1])  # the cells k > alpha
    for grid in grids:
        assert not grid.flags.writeable
        assert np.all(np.isneginf(grid[above]))
        assert np.isfinite(grid).sum() == grid.size - above[0].size


def test_log_binomial_grid_built_in_two_grids_of_memory():
    # The first calibration builds this grid; three grid-sized temporaries
    # alive at once would make that its peak.
    accounting._log_binomial.cache_clear()
    tracemalloc.start()
    try:
        grid = accounting._log_binomial()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert accounting._log_binomial.cache_info().misses == 1
    assert grid.shape == (len(ORDERS), 513)
    assert peak <= 2.2 * grid.nbytes, peak / grid.nbytes
    # A cold sigma-free grid builds this one first, so the two builds never
    # overlap: the peak stays at the two grids that are kept.
    accounting._log_binomial.cache_clear()
    accounting._sigma_free_terms.cache_clear()
    tracemalloc.start()
    try:
        accounting._sigma_free_terms(0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * grid.nbytes, peak / grid.nbytes


def reference_rdp(q, sigma):
    """The full-grid evaluation: every (order, k) cell exponentiated."""
    a = np.array(ORDERS, dtype=np.float64)[:, None]
    k = np.arange(max(ORDERS) + 1, dtype=np.float64)
    log_terms = (a - k) * math.log1p(-q)
    log_terms += reference_log_binomial()
    log_terms += k * math.log(q)
    log_terms += k * (k - 1) / (2.0 * sigma * sigma)
    rows = np.arange(log_terms.shape[0])
    top = log_terms.argmax(axis=1)
    peak = log_terms[rows, top]
    log_terms -= peak[:, None]
    log_terms[rows, top] = -np.inf
    rest = np.exp(log_terms, out=log_terms).sum(axis=1)
    return ((peak + np.log1p(rest)) / (a[:, 0] - 1)).tolist()


def test_curve_equals_full_grid_evaluation():
    # Live-block evaluation on the cached sigma-free grid gives the full
    # grid's values bit for bit.
    for q in (0.001, 0.005, 1 / 96, 0.1, 0.5, 0.9):
        for sigma in np.geomspace(0.01, 1000.0, 30).tolist():
            assert accounting._rdp_values(q, sigma).tolist() == reference_rdp(q, sigma), (q, sigma)


@pytest.mark.parametrize("target, q, steps, sigma, eps", [
    (1.0, 0.1, 600, 10.006853606268734, 0.9999865855833014),
    (4.0, 0.005, 20_000, 1.0618471646209724, 3.9993839705548817),
    (8.0, 0.01, 1000, 0.6174200797512218, 7.997265989906057),
    (0.5, 1.0, 1, 7.6678581875846055, 0.4999651897140075),
    (2.0, 1e-4, 10_000, 0.5699396317118879, 1.998536464193257),
    (2.0, 1 / 96, 96, 0.8316433780181554, 1.9998521417507331),
])
def test_calibrated_sigma_and_epsilon_pinned(target, q, steps, sigma, eps):
    # The first two are the benchmark's audit-mlp and long-logistic
    # calibrations, exactly as the full-grid evaluation gave them.
    assert accounting.calibrate_noise(target, 1e-5, q, steps) == sigma
    assert accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, sigma, q, steps)) == eps


@pytest.mark.parametrize("q, sigma, steps, delta, eps", [
    (1.0, 1.0, 1, 1e-5, 4.752728336819823),
    (1.0, 2.0, 100, 1e-5, 35.12663110385034),
    (1e-4, 1.0, 10_000, 1e-5, 0.4532628807732155),
    (1e-4, 0.5, 20_000, 1e-7, 4.666352270228805),
    (0.1, 1e-153, 100, 1e-5, 1e308),
    (0.5, 1e-153, 1, 1e-3, 1e306),
    (0.01, 1.0, 1000, 1e-5, 2.1077530754515768),
    (0.005, 0.8, 20_000, 1e-5, 7.225629486526807),
    (1 / 96, 2.0, 96, 1e-5, 0.2634116148048695),
    (0.1, 10.0, 600, 1e-7, 1.2491732163776503),
    (0.9, 0.6, 10, 1e-3, 31.33682122393389),
    (0.05, 5.0, 10**6, 1e-5, 112.14836219104882),
    (0.3, 1.3, 1, 1e-5, 2.1992935405589433),
])
def test_epsilon_pinned(q, sigma, steps, delta, eps):
    # Epsilon exactly as the full-grid evaluation gives it: q = 1, a tiny q,
    # and a sigma at which the high orders overflow to +inf among them.
    assert accounting.epsilon(accounting.PrivacySpec(math.inf, delta, sigma, q, steps)) == eps


def test_compose():
    # T steps compose additively: epsilon converts T times the one-step values.
    values = accounting._rdp_values(0.1, 1.0)

    def eps(steps):
        return accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 1.0, 0.1, steps))

    assert eps(1) == accounting._to_epsilon(values, 1e-5)
    assert eps(2) == accounting._to_epsilon(2 * values, 1e-5)
    assert eps(6) == pytest.approx(accounting._to_epsilon(3 * (2 * values), 1e-5))


def test_compose_scales_as_float_products():
    # One vector multiply gives each value's float product, bit for bit,
    # and overflows to +inf without a warning.
    values = accounting._rdp_values(0.1, 10.0).tolist()
    for steps in (1, 3, 600, 10**6, 2**53 + 1):
        want = accounting._to_epsilon(np.array([v * steps for v in values]), 1e-5)
        assert accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 10.0, 0.1, steps)) == want
    huge = accounting._rdp_values(0.5, 1e-150)  # order 2 near 1e300, finite
    assert np.isfinite(huge[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 1e-150, 0.5, 10**9))
    assert eps == math.inf


def full_grid_epsilon(q, sigma, steps, delta):
    """Every order composed and converted: the value `epsilon` gives, bit for bit."""
    with np.errstate(over="ignore"):
        return accounting._to_epsilon(accounting._rdp_values(q, sigma) * steps, delta)


def spec_epsilon(q, sigma, steps, delta):
    return accounting.epsilon(accounting.PrivacySpec(math.inf, delta, sigma, q, steps))


def test_epsilon_equals_full_grid_conversion_on_random_grid():
    # The blocks the stop skips never hold a smaller value, over the ranges
    # of q, sigma, T and delta the accountant is used at.
    rng = np.random.default_rng(25)
    for _ in range(100):
        q, sigma = float(10 ** rng.uniform(-7, 0)), float(10 ** rng.uniform(-3, 5))
        for _ in range(4):
            steps = int(10 ** rng.uniform(0, math.log10(3e7)))
            delta = float(10 ** rng.uniform(-14, -1))
            case = q, sigma, steps, delta
            assert spec_epsilon(*case) == full_grid_epsilon(*case), case


@pytest.mark.parametrize("q, steps, delta, sigma, order", [
    (0.1, 600, 1e-5, 41.40629114990794, 65),
    (0.1, 600, 1e-5, 41.40629114990795, 66),
    (0.1, 600, 1e-5, 86.44928106518611, 129),
    (0.1, 600, 1e-5, 86.44928106518613, 130),
    (0.01, 1000, 1e-5, 5.4919050996920165, 65),
    (0.01, 1000, 1e-5, 5.491905099692017, 66),
    (0.01, 1000, 1e-5, 11.27892204056609, 129),
    (0.01, 1000, 1e-5, 11.278922040566092, 130),
    (0.001, 100_000, 1e-7, 4.248862648989632, 65),
    (0.001, 100_000, 1e-7, 4.248862648989633, 66),
    (0.001, 100_000, 1e-7, 8.60898214585915, 129),
    (0.001, 100_000, 1e-7, 8.608982145859152, 130),
])
def test_epsilon_bit_for_bit_where_best_order_crosses_a_block(q, steps, delta, sigma, order):
    # Neighbouring sigmas where the best order moves from the last order of
    # one block (65, 129) to the first of the next (66, 130).
    shrink, slack, _ = accounting._conversion_terms(delta)
    converted = accounting._rdp_values(q, sigma) * steps + shrink + slack
    assert int(np.argmin(converted)) + ORDERS[0] == order
    assert spec_epsilon(q, sigma, steps, delta) == full_grid_epsilon(q, sigma, steps, delta)


@pytest.mark.parametrize("q, sigma, steps, delta", [
    # Each has a block whose stop test passes without the margin and fails
    # with it: T times the absolute error bound is what decides.
    (0.00045758782379470625, 5723.984354761446, 6_625_116, 0.015643796407417913),
    (9.909168923134195e-06, 9.865724913219633, 614_517_904, 3.9389926819383545e-12),
    (2.0657550299988653e-07, 3437.321738979263, 512_247_180, 0.004249929800395362),
    (1.1991830873948387e-06, 94710.63925981698, 54_372_768, 0.003264578825795027),
    (5.067503014444537e-07, 30.79113275099936, 992_949_163, 0.0030211986731496165),
    (1e-7, 1e5, 10**9, 1e-5),
    (1e-4, 100.0, 10**9, 1e-14),
    (1e-3, 30.0, 10**9, 0.1),
])
def test_epsilon_bit_for_bit_at_up_to_a_billion_steps(q, sigma, steps, delta):
    assert spec_epsilon(q, sigma, steps, delta) == full_grid_epsilon(q, sigma, steps, delta)


def test_epsilon_stop_holds_for_any_nondecreasing_curve(monkeypatch):
    # The stop rests on monotonicity alone. A curve with steps, whose
    # converted value rises inside a block and falls below its minimum again
    # past it, must still give the minimum over every order.
    rng = np.random.default_rng(7)
    stepped = np.zeros(len(ORDERS))
    stepped[40 - ORDERS[0]:] = 0.12  # after a rise at order 40, order 512 wins
    shape = (200, len(ORDERS))
    jumps = np.where(rng.random(shape) < 0.01, rng.exponential(0.05, shape), 0.0)
    curves = [stepped, *np.cumsum(jumps, axis=1)]
    for values in curves:
        monkeypatch.setattr(accounting, "_rdp_blocks", lambda q, sigma: (
            block.copy() for block in np.split(values, range(64, len(ORDERS), 64))))
        assert spec_epsilon(0.1, 1.0, 1, 1e-5) == accounting._to_epsilon(values, 1e-5)


def test_calibration_block_count(monkeypatch):
    # The benchmark's two calibrations, 19 trial sigmas each, read 28 and 26
    # blocks of 64 orders; every trial reading every block would be 152.
    # Interior trials stop after one block; the bracket top reads all 8.
    real = accounting._rdp_blocks
    count = 0

    def counting(q, sigma):
        nonlocal count
        for block in real(q, sigma):
            count += 1
            yield block

    monkeypatch.setattr(accounting, "_rdp_blocks", counting)
    for (target, q, steps), most in (((1.0, 0.1, 600), 28), ((4.0, 0.005, 20_000), 26)):
        count = 0
        accounting.calibrate_noise(target, 1e-5, q, steps)
        assert count <= most, (target, q, steps, count)


def curve(values):
    """RDP values at the orders: a full sequence, or {order: value} with +inf elsewhere."""
    if not isinstance(values, dict):
        return np.array(values, dtype=np.float64)
    full = np.full(len(ORDERS), math.inf)
    for a, v in values.items():
        full[a - ORDERS[0]] = v
    return full


def test_rdp_to_epsilon_single_order():
    # Only order 2 is finite: 1 + log(1 - 1/2) + (log(e) - log 2) / (2 - 1) = 2 - 2 log 2.
    eps = accounting._to_epsilon(curve({2: 1.0}), math.exp(-1))
    assert eps == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-12)


def test_rdp_to_epsilon_zero_curve_largest_order_wins():
    eps = accounting._to_epsilon(curve([0.0] * len(ORDERS)), 1e-5)
    assert eps == pytest.approx(math.log(511 / 512) + (math.log(1e5) - math.log(512)) / 511)


def test_rdp_to_epsilon_clamped_at_zero():
    # log(1 - 1/2) + (log 2 - log 2) / 1 = -log 2 < 0: epsilon is never negative.
    assert accounting._to_epsilon(curve([0.0] * len(ORDERS)), 0.5) == 0.0


def loop_rdp_to_epsilon(values, delta):
    """Order-by-order conversion, the smallest value clamped at 0."""
    log_inv_delta = math.log(1.0 / delta)
    best_eps = math.inf
    for a, v in zip(ORDERS, values):
        eps = v + math.log1p(-1.0 / a) + (log_inv_delta - math.log(a)) / (a - 1)
        if eps < best_eps:
            best_eps = eps
    return max(best_eps, 0.0)


_INF = math.inf


@pytest.mark.parametrize("values, delta", [
    ({2: 5e20, 3: 1e20, 4: 1e20, 5: 3e20}, 1e-5),  # orders 3 and 4 tie
    ({2: _INF, 3: 0.4, 5: _INF, 9: 0.2}, 1e-5),
    ({}, 1e-5),
    ({2: math.nan, 3: 0.5}, 1e-5),
    ({7: 0.25}, 1e-3),
    ({2: 0.0, 3: 0.0}, 0.5),  # clamped at 0
    ({2: -_INF, 3: -_INF}, 1e-5),
    ([0.0] * 511, 1e-5),
    (np.linspace(9, 0, 511).tolist(), 1e-7),
], ids=["tie", "inf-entries", "all-inf", "nan-entry", "single-order", "clamp",
        "minus-inf-tie", "zero-curve", "default-orders"])
def test_rdp_to_epsilon_matches_order_loop(values, delta):
    values = curve(values)
    assert accounting._to_epsilon(values, delta) == loop_rdp_to_epsilon(values.tolist(), delta)


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
    eps_rdp = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 1.0, 1.0, 1))
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
    assert accounting.PrivacySpec(1.0, 1e-5, 1.0, 0.5, np.int64(10)).steps == 10


@pytest.mark.parametrize("call", [
    lambda: accounting.calibrate_noise(math.nan, 1e-5, 0.1, 600),
    lambda: accounting.calibrate_mf_noise(math.nan, 1e-5),
    lambda: accounting.calibrate_mf_noise(1.0, math.nan),
    lambda: accounting.analytic_gaussian_epsilon(math.nan, 1e-5),
    lambda: accounting.PrivacySpec(math.inf, 1e-5, math.nan, 0.1, 600),
    lambda: accounting.PrivacySpec(math.inf, 1e-5, 1.0, 0.1, 2.5),
    lambda: accounting.PrivacySpec(math.inf, 1e-5, 1.0, 0.1, True),
], ids=["calibrate-nan-target", "calibrate-mf-nan-target", "calibrate-mf-nan-delta",
        "analytic-nan-sigma", "spec-nan-sigma", "spec-fractional-steps", "spec-bool-steps"])
def test_nan_and_non_integer_inputs_raise(call):
    # A NaN fails every comparison, so each check is one that NaN fails; a
    # check written as `x <= 0` would let it through to a number (a sigma of
    # 1000, an epsilon of 2.8e-17 or inf). Steps are whole, and not a bool.
    with pytest.raises(ValueError):
        call()


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

    def recording(spec):
        sigmas.append(spec.noise_multiplier)
        return real(spec)

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
