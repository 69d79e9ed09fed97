"""Privacy accounting: quantifying (epsilon, delta) and calibrating noise.

The accountant is deliberately the most independently checkable primitive
available at this scale: integer-order Renyi DP for the Poisson-subsampled
Gaussian mechanism, composed additively over steps and converted to
(epsilon, delta) with the conversion of Balle et al. 2020 (Thm. 21), also
Canonne, Kamath and Steinke 2020 (Prop. 12),

    epsilon = max(0, min_alpha [ RDP(alpha) + log(1 - 1/alpha)
                                 + (log(1/delta) - log(alpha)) / (alpha - 1) ]).

The subsampled-Gaussian RDP at integer order alpha is the exact binomial
expansion

    RDP(alpha) = log( sum_{k=0..alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                      * exp(k(k-1) / (2 sigma^2)) ) / (alpha - 1).

At q = 1 it reduces to alpha / (2 sigma^2). Otherwise all orders are
evaluated on a padded (orders x k) grid of log terms. Its sigma-free part,
(alpha - k) log(1-q) + log C(alpha, k) + k log q (-inf where k > alpha), is
cached per (orders, q), so a calibration builds it once and each trial sigma
adds only k(k-1) / (2 sigma^2) along k. Each row is reduced as
m + log1p(sum of exp(term - m) over the other terms), m the row's largest
term; log1p keeps the small remainder exact when one term dominates, as it
does at tiny q and large sigma. Rows go in blocks of 64 ascending orders,
and a block exponentiates only the columns up to its largest order, about
half the grid at the default orders 2..512. The sums still run over
full-width rows, the cells k > alpha as exact zeros, so every value is the
whole-grid evaluation's, bit for bit. The conversion below is one vector
pass with its per-(orders, delta) constants cached. One epsilon at the
default orders takes about 0.8 ms (2.3 ms exponentiating the whole grid) on
a 2-vCPU Xeon with one BLAS thread; a calibration, 20 of them, about 20 ms.

The independent oracle for one step at q = 1 is the analytic Gaussian
mechanism: the exact two-term expression

    delta(eps) = Phi(1/(2 sigma) - eps sigma)
                 - e^eps * Phi(-1/(2 sigma) - eps sigma)

with Phi from scipy.special (ndtr, log_ndtr), inverted for epsilon by
bisection. The RDP-to-DP conversion is never below this oracle and somewhat
loose against it: at q = 1, T = 1 the measured gap is 8.6% at sigma = 1,
delta = 1e-5, and 6-19% on a grid of sigma in [0.5, 8] and delta in
[1e-7, 1e-3].

Both noise calibrations share one geometric bisection over sigma in
[1e-2, 1e3]. A banded correlated mechanism with single participation is one
such Gaussian release, and delta(eps, sigma) falls with sigma, so its
calibration tests delta(target, sigma) <= delta directly instead of
inverting the curve for epsilon at every trial sigma.

Adjacency is add/remove-one throughout, matching the sensitivity attached
by the clipping module. Fractional RDP orders (tighter for very small q)
are a named extension, not implemented.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr

DEFAULT_ORDERS = tuple(range(2, 513))


class CalibrationRangeError(ValueError):
    """The privacy target cannot be met within the noise search bracket."""


@dataclasses.dataclass(frozen=True)
class PrivacySpec:
    """Mechanism parameters linked to their accounting inputs.

    Attributes:
      epsilon: Privacy budget; may be math.inf (e.g. when noise_multiplier
        is 0).
      delta: Approximate-DP slack in (0, 1).
      noise_multiplier: Ratio of noise stddev to sensitivity (sigma).
      sampling_prob: Poisson inclusion probability q in [0, 1].
      steps: Number of composed steps T.
    """

    epsilon: float
    delta: float
    noise_multiplier: float
    sampling_prob: float
    steps: int

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if not (0.0 <= self.sampling_prob <= 1.0):
            raise ValueError("sampling_prob must be in [0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.noise_multiplier == 0.0 and self.epsilon != math.inf:
            raise ValueError("zero noise implies epsilon = inf")


@dataclasses.dataclass(frozen=True)
class RdpCurve:
    """Renyi DP values over a set of orders; composes pointwise additively.

    The orders are those the accountant evaluates: ascending integers >= 2,
    checked once per orders tuple.
    """

    orders: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.values):
            raise ValueError("orders and values must have equal length")
        _integer_orders(tuple(self.orders))


# Rows per block of the term grid. Orders ascend, so a block's last order is
# its widest and the cells right of it are -inf in every row of the block.
_BLOCK_ROWS = 64


@functools.lru_cache(maxsize=8)
def _integer_orders(orders: tuple) -> tuple[int, ...]:
    """The orders as ints, checked once per tuple: integers >= 2, ascending."""
    checked = []
    for a in orders:
        if not float(a).is_integer() or a < 2:
            raise ValueError(f"orders must be integers >= 2, got {a}")
        checked.append(int(a))
    if not checked:
        raise ValueError("orders must be non-empty")
    if checked != sorted(checked):
        raise ValueError("orders must be ascending")
    return tuple(checked)


@functools.lru_cache(maxsize=8)
def _log_binomial(orders: tuple[int, ...]) -> np.ndarray:
    """log C(alpha, k) on the padded (orders x k) grid, read-only.

    -inf in the cells k > alpha, which therefore drop out of every sum. Built
    in two grid-sized buffers, gammaln(alpha + 1) - gammaln(k + 1) minus
    gammaln(alpha - k + 1), the operations of the whole-grid expression in
    its order, so every cell has that expression's bits.
    """
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)[None, :]
    last = np.subtract(a, k)
    last += 1
    with np.errstate(invalid="ignore"):
        gammaln(last, out=last)
    log_binom = gammaln(a + 1) - gammaln(k + 1)
    log_binom -= last
    del last  # before the mask is built, so at most two grids are alive
    log_binom[k > a] = -np.inf
    log_binom.flags.writeable = False
    return log_binom


@functools.lru_cache(maxsize=8)
def _sigma_free_terms(orders: tuple[int, ...], q: float) -> np.ndarray:
    """(alpha - k) log(1-q) + log C(alpha, k) + k log q on the grid, read-only.

    The part of every log term that does not depend on sigma, added in this
    order; the cells k > alpha are -inf.
    """
    log_binom = _log_binomial(orders)
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)
    terms = a - k
    terms *= math.log1p(-q)
    terms += log_binom
    terms += k * math.log(q)
    terms.flags.writeable = False
    return terms


def _rdp_values(q: float, sigma: float, orders: tuple[int, ...]) -> np.ndarray:
    """Subsampled-Gaussian RDP at each checked order, as a fresh array."""
    alphas = np.array(orders, dtype=np.float64)
    if sigma == 0.0:
        return np.full(alphas.shape, math.inf)
    if q == 0.0:
        return np.zeros(alphas.shape)
    if q == 1.0:
        with np.errstate(over="ignore", divide="ignore"):
            return alphas / (2.0 * sigma * sigma)

    # Rows are independent binomial expansions, summed as max + log1p(sum of
    # exp(term - max) over the other terms). A block of rows works on the
    # columns up to its largest order, contiguous so that exp runs as one
    # loop; its rows are then summed at full width, with zeros to the right,
    # since numpy's pairwise summation groups terms by row length.
    base = _sigma_free_terms(orders, q)
    k = np.arange(base.shape[1], dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        growth = k * (k - 1) / (2.0 * sigma * sigma)
    # An order whose largest exponent, alpha (alpha - 1) / (2 sigma^2), is not
    # a finite float gets +inf, an upper bound. The exponents grow with k, so
    # these are the last orders, and the others never read an infinite cell.
    finite = int(np.isfinite(growth[alphas.astype(np.intp)]).sum())
    values = np.full(len(orders), math.inf)
    if finite == 0:
        return values
    rows = min(_BLOCK_ROWS, finite)
    live_buffer = np.empty(rows * base.shape[1])
    wide = np.zeros((rows, base.shape[1]))  # widths ascend: the tail stays 0
    peak = np.empty(finite)
    rest = np.empty(finite)
    for r0 in range(0, finite, rows):
        r1 = min(r0 + rows, finite)
        width = orders[r1 - 1] + 1
        live = live_buffer[: (r1 - r0) * width].reshape(r1 - r0, width)
        np.add(base[r0:r1, :width], growth[:width], out=live)
        index = np.arange(r1 - r0), live.argmax(axis=1)
        peak[r0:r1] = live[index]
        live -= peak[r0:r1, None]
        live[index] = -np.inf
        np.exp(live, out=live)
        wide[: r1 - r0, :width] = live
        wide[: r1 - r0].sum(axis=1, out=rest[r0:r1])
    values[:finite] = (peak + np.log1p(rest)) / (alphas[:finite] - 1)
    return values


def rdp_subsampled_gaussian(
    q: float, sigma: float, orders: Sequence[int] = DEFAULT_ORDERS
) -> RdpCurve:
    """RDP curve of the Poisson-subsampled Gaussian mechanism.

    Integer orders only: the exact binomial expansion applies. sigma = 0
    yields infinite values at every order. So does a sigma so small that an
    order's largest exponent, alpha (alpha - 1) / (2 sigma^2), overflows, at
    that order: at order 512 below about 2.7e-152, at every order once
    1 / sigma^2 overflows. Neither case warns.

    Args:
      q: Poisson sampling probability in [0, 1].
      sigma: Noise multiplier (stddev / sensitivity).
      orders: Ascending integer orders >= 2.

    Returns:
      The RDP curve over ``orders``.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    checked = _integer_orders(tuple(orders))
    values = _rdp_values(q, sigma, checked)
    return RdpCurve(tuple(map(float, checked)), tuple(values.tolist()))


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Composes ``steps`` identical mechanisms: values scale by ``steps``."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    values = np.array(curve.values, dtype=np.float64)
    with np.errstate(over="ignore"):  # as a float product, to +inf
        values *= steps
    return RdpCurve(curve.orders, tuple(values.tolist()))


@functools.lru_cache(maxsize=8)
def _conversion_terms(orders: tuple[float, ...], delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per order, log(1 - 1/alpha) and (log(1/delta) - log(alpha)) / (alpha - 1)."""
    log_inv_delta = math.log(1.0 / delta)
    shrink = np.array([math.log1p(-1.0 / a) for a in orders])
    slack = np.array([(log_inv_delta - math.log(a)) / (a - 1) for a in orders])
    shrink.flags.writeable = slack.flags.writeable = False
    return shrink, slack


def _to_epsilon(
    values: np.ndarray, orders: tuple[float, ...], delta: float
) -> tuple[float, float]:
    """(epsilon, minimizing order) of RDP ``values`` over ``orders``, in one pass."""
    shrink, slack = _conversion_terms(orders, delta)
    eps = values + shrink
    eps += slack
    eps[np.isnan(eps)] = math.inf  # an undefined order bounds nothing
    best = int(eps.argmin())  # the first of tied orders
    return max(float(eps[best]), 0.0), orders[best]


def rdp_to_epsilon(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """RDP-to-DP conversion; returns (epsilon, minimizing order).

    Balle et al. 2020 (Thm. 21), as in the module docstring: per order,
    RDP(alpha) + log(1 - 1/alpha) + (log(1/delta) - log(alpha)) / (alpha - 1),
    minimized over the orders and clamped at 0. Each order's value is a valid
    bound, and below the classic RDP(alpha) + log(1/delta) / (alpha - 1).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _to_epsilon(np.array(curve.values, dtype=np.float64), curve.orders, delta)


def _analytic_delta(eps: float, sigma: float) -> float:
    """delta(eps) of the sensitivity-1 Gaussian mechanism with stddev sigma."""
    a = 1.0 / (2.0 * sigma) - eps * sigma
    b = -1.0 / (2.0 * sigma) - eps * sigma
    # e^eps * Phi(b) in log space to survive large eps.
    return float(ndtr(a) - np.exp(eps + log_ndtr(b)))


def analytic_gaussian_epsilon(sigma: float, delta: float) -> float:
    """Exact epsilon of the single-shot Gaussian mechanism, without subsampling.

    Solves delta(eps) = delta by bisection; the returned epsilon reproduces
    the target delta to 1e-12. Serves as the independent oracle for the
    q = 1, T = 1 corner of the RDP accountant.

    Raises:
      CalibrationRangeError: No root in the search bracket (delta
        unattainably small for this sigma, or >= delta(0)).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if _analytic_delta(0.0, sigma) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while _analytic_delta(hi, sigma) > delta:
        lo, hi = hi, hi * 2.0
        if hi > 1e8:
            raise CalibrationRangeError(
                f"no epsilon <= 1e8 achieves delta={delta} at sigma={sigma}"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d = _analytic_delta(mid, sigma)
        if abs(d - delta) <= 1e-12 * delta:
            return mid
        if d > delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def epsilon(spec: PrivacySpec, orders: Sequence[int] = DEFAULT_ORDERS) -> float:
    """Epsilon of T composed Poisson-subsampled Gaussian steps.

    Precondition: every step's batch is a Poisson sample of the dataset,
    each example included independently with probability
    spec.sampling_prob. The value is not a guarantee for any other batch
    selection; the trainer checks the batch strategy before it asks.
    """
    if spec.noise_multiplier == 0.0:
        return math.inf
    checked = _integer_orders(tuple(orders))
    values = _rdp_values(spec.sampling_prob, spec.noise_multiplier, checked)
    with np.errstate(over="ignore"):  # as in compose, to +inf
        values *= spec.steps
    eps, _ = _to_epsilon(values, checked, spec.delta)
    return eps


_SIGMA_BRACKET = (1e-2, 1e3)


def _smallest_sigma(target_epsilon: float, measure, limit: float, tolerance: float) -> float:
    """Smallest sigma in the bracket with measure(sigma) <= limit.

    Geometric bisection to relative width ``tolerance`` of a measure that is
    non-increasing in sigma; the returned sigma meets the limit.

    Raises:
      CalibrationRangeError: The limit is not met at the bracket top.
    """
    if target_epsilon <= 0:
        raise ValueError(f"target epsilon must be positive, got {target_epsilon}")
    lo, hi = _SIGMA_BRACKET
    if measure(lo) <= limit:
        return lo
    at_top = measure(hi)
    if at_top > limit:
        raise CalibrationRangeError(
            f"target epsilon {target_epsilon} unreachable with sigma <= {hi} "
            f"(value at bracket top: {at_top:.4g} > {limit:.4g})"
        )
    while hi / lo > 1.0 + tolerance:
        mid = math.sqrt(lo * hi)
        if measure(mid) <= limit:
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_noise(
    target_epsilon: float,
    delta: float,
    sampling_prob: float,
    steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """Smallest noise multiplier meeting a privacy target.

    Bisects sigma on a relative grid (tolerance 1e-4) within the bracket
    [1e-2, 1e3]; the returned sigma is guaranteed to satisfy
    epsilon(sigma) <= target_epsilon.

    Raises:
      CalibrationRangeError: The target is unreachable inside the bracket.
    """
    return _smallest_sigma(
        target_epsilon,
        lambda s: epsilon(PrivacySpec(math.inf, delta, s, sampling_prob, steps), orders),
        target_epsilon,
        1e-4,
    )


def calibrate_mf_noise(target_epsilon: float, delta: float) -> float:
    """Noise multiplier for a single-participation correlated mechanism.

    The stacked correlated mechanism is one Gaussian release, so this inverts
    the analytic Gaussian curve: delta(eps, sigma) falls with sigma, and
    epsilon(sigma) <= target exactly when delta(target, sigma) <= delta, so
    bisection tests the latter directly (relative tolerance 1e-6). The
    result satisfies the target.
    """
    return _smallest_sigma(
        target_epsilon, lambda sigma: _analytic_delta(target_epsilon, sigma), delta, 1e-6
    )

