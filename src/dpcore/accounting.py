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
evaluated at once on a padded (orders x k) grid of log terms: the cached
log C(alpha, k) (-inf where k > alpha) plus the cached alpha - k times
log(1-q), plus k log q and k(k-1) / (2 sigma^2) broadcast along k. Each row
is reduced as m + log1p(sum of exp(term - m) over the other terms), m the
row's largest term; log1p keeps the small remainder exact when one term
dominates, as it does at tiny q and large sigma.

The independent oracle for the unamplified case is the analytic Gaussian
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

from . import matrix_factorization

DEFAULT_ORDERS = tuple(range(2, 513))


class AmplificationError(ValueError):
    """Amplified accounting requested for a plan that does not support it."""


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
      amplification_valid: Whether the batch plan satisfies the Poisson
        sampling assumption behind amplified accounting.
    """

    epsilon: float
    delta: float
    noise_multiplier: float
    sampling_prob: float
    steps: int
    amplification_valid: bool = True

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
    """Renyi DP values over a set of orders; composes pointwise additively."""

    orders: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.values):
            raise ValueError("orders and values must have equal length")
        if any(a <= 1 for a in self.orders):
            raise ValueError("orders must exceed 1")
        if list(self.orders) != sorted(self.orders):
            raise ValueError("orders must be ascending")


@functools.lru_cache(maxsize=8)
def _binomial_grids(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """log C(alpha, k) and alpha - k on the padded (orders x k) grid, read-only.

    They depend on the orders alone, so every (q, sigma) evaluation over the
    same orders shares them. log C(alpha, k) is -inf in the cells k > alpha,
    which therefore drop out of every sum.
    """
    a = np.array(orders, dtype=np.float64)[:, None]
    k = np.arange(max(orders) + 1, dtype=np.float64)[None, :]
    with np.errstate(invalid="ignore"):
        log_binom = gammaln(a + 1) - gammaln(k + 1) - gammaln(a - k + 1)
    log_binom = np.where(k <= a, log_binom, -np.inf)
    a_minus_k = a - k
    log_binom.flags.writeable = False
    a_minus_k.flags.writeable = False
    return log_binom, a_minus_k


def rdp_subsampled_gaussian(
    q: float, sigma: float, orders: Sequence[int] = DEFAULT_ORDERS
) -> RdpCurve:
    """RDP curve of the Poisson-subsampled Gaussian mechanism.

    Integer orders only: the exact binomial expansion applies. sigma = 0
    yields infinite values at every order.

    Args:
      q: Poisson sampling probability in [0, 1].
      sigma: Noise multiplier (stddev / sensitivity).
      orders: Integer orders >= 2.

    Returns:
      The RDP curve over ``orders``.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must be in [0, 1], got {q}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    checked = []
    for a in orders:
        if int(a) != a or a < 2:
            raise ValueError(f"orders must be integers >= 2, got {a}")
        checked.append(int(a))
    if not checked:
        raise ValueError("orders must be non-empty")

    alphas = tuple(float(a) for a in checked)
    if sigma == 0.0:
        return RdpCurve(alphas, (math.inf,) * len(alphas))
    if q == 0.0:
        return RdpCurve(alphas, (0.0,) * len(alphas))
    if q == 1.0:
        return RdpCurve(alphas, tuple(a / (2.0 * sigma * sigma) for a in checked))

    # One padded (orders x k) grid; rows are independent binomial expansions,
    # summed as max + log1p(sum of exp(term - max) over the other terms).
    log_binom, a_minus_k = _binomial_grids(tuple(checked))
    k = np.arange(log_binom.shape[1], dtype=np.float64)
    log_terms = a_minus_k * math.log1p(-q)
    log_terms += log_binom
    log_terms += k * math.log(q)
    log_terms += k * (k - 1) / (2.0 * sigma * sigma)
    rows = np.arange(log_terms.shape[0])
    top = log_terms.argmax(axis=1)
    peak = log_terms[rows, top]
    log_terms -= peak[:, None]
    log_terms[rows, top] = -np.inf
    rest = np.exp(log_terms, out=log_terms).sum(axis=1)
    values = (peak + np.log1p(rest)) / (np.array(alphas) - 1)
    return RdpCurve(alphas, tuple(float(v) for v in values))


def compose(curve: RdpCurve, steps: int) -> RdpCurve:
    """Composes ``steps`` identical mechanisms: values scale by ``steps``."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    return RdpCurve(curve.orders, tuple(v * steps for v in curve.values))


def rdp_to_epsilon(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """RDP-to-DP conversion; returns (epsilon, minimizing order).

    Balle et al. 2020 (Thm. 21), as in the module docstring: per order,
    RDP(alpha) + log(1 - 1/alpha) + (log(1/delta) - log(alpha)) / (alpha - 1),
    minimized over the orders and clamped at 0. Each order's value is a valid
    bound, and below the classic RDP(alpha) + log(1/delta) / (alpha - 1).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not curve.orders:
        raise ValueError("empty RDP curve")
    log_inv_delta = math.log(1.0 / delta)
    best_eps = math.inf
    best_order = curve.orders[0]
    for a, v in zip(curve.orders, curve.values):
        eps = v + math.log1p(-1.0 / a) + (log_inv_delta - math.log(a)) / (a - 1)
        if eps < best_eps:
            best_eps = eps
            best_order = a
    return max(best_eps, 0.0), best_order


def _analytic_delta(eps: float, sigma: float) -> float:
    """delta(eps) of the sensitivity-1 Gaussian mechanism with stddev sigma."""
    a = 1.0 / (2.0 * sigma) - eps * sigma
    b = -1.0 / (2.0 * sigma) - eps * sigma
    # e^eps * Phi(b) in log space to survive large eps.
    return float(ndtr(a) - np.exp(eps + log_ndtr(b)))


def analytic_gaussian_epsilon(sigma: float, delta: float) -> float:
    """Exact epsilon of the (unamplified, single-shot) Gaussian mechanism.

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

    Raises:
      AmplificationError: spec.amplification_valid is False but q < 1; the
        batch plan does not satisfy the sampling assumption, so amplified
        accounting would overstate the guarantee.
    """
    if spec.noise_multiplier == 0.0:
        return math.inf
    if spec.sampling_prob < 1.0 and not spec.amplification_valid:
        raise AmplificationError(
            "batch plan is flagged amplification-invalid (e.g. shuffled "
            "fixed-size batches); subsampling-amplified accounting at "
            f"q={spec.sampling_prob} would not be a valid privacy guarantee. "
            "Use a Poisson-family plan or account at q=1."
        )
    curve = rdp_subsampled_gaussian(spec.sampling_prob, spec.noise_multiplier, orders)
    eps, _ = rdp_to_epsilon(compose(curve, spec.steps), spec.delta)
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


def mf_epsilon(
    strategy: matrix_factorization.Strategy, sigma: float, delta: float, n: int
) -> float:
    """Epsilon of a banded correlated mechanism in the streaming setting.

    Restricted to single participation: each example contributes to at most
    one of the n steps. The stacked mechanism is then a single Gaussian
    release with noise-to-sensitivity ratio sigma, provided the privatizer's
    fresh-noise stddev was constructed as
    sigma * clip_norm * sensitivity(strategy, n)
    (see :func:`banded_noise_stddev`).
    """
    if n < strategy.bands:
        raise ValueError(f"n={n} is smaller than the strategy band count")
    return analytic_gaussian_epsilon(sigma, delta)


def banded_noise_stddev(
    strategy: matrix_factorization.Strategy,
    noise_multiplier: float,
    clip_norm: float,
    n: int,
) -> float:
    """Fresh-noise stddev that makes a banded mechanism sigma-calibrated.

    The correlated mechanism's effective noise-to-sensitivity ratio equals
    noise_multiplier exactly when the fresh noise Z has stddev
    noise_multiplier * clip_norm * sensitivity(strategy, n).
    """
    if noise_multiplier < 0:
        raise ValueError("noise_multiplier must be non-negative")
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    return noise_multiplier * clip_norm * matrix_factorization.sensitivity(strategy, n)
