"""Privacy accounting: quantifying (epsilon, delta) and calibrating noise.

The accountant is deliberately the most independently checkable primitive
available at this scale: integer-order Renyi DP for the Poisson-subsampled
Gaussian mechanism, composed additively over steps and converted to
(epsilon, delta) with the conversion of Balle et al. 2020 (Thm. 21), also
Canonne, Kamath and Steinke 2020 (Prop. 12),

    epsilon = max(0, min_alpha [ RDP(alpha) + log(1 - 1/alpha)
                                 + (log(1/delta) - log(alpha)) / (alpha - 1) ]).

The subsampled-Gaussian RDP at integer order alpha is the exact binomial
expansion, evaluated at the fixed orders alpha = 2..512,

    RDP(alpha) = log( sum_{k=0..alpha} C(alpha,k) (1-q)^(alpha-k) q^k
                      * exp(k(k-1) / (2 sigma^2)) ) / (alpha - 1).

At q = 1 it reduces to alpha / (2 sigma^2). Otherwise all orders are
evaluated on a padded (orders x k) grid of log terms. Its sigma-free part,
(alpha - k) log(1-q) + log C(alpha, k) + k log q (-inf where k > alpha), is
cached per q, so a calibration builds it once and each trial sigma
adds only k(k-1) / (2 sigma^2) along k. Each row is reduced as
m + log1p(sum of exp(term - m) over the other terms), m the row's largest
term; log1p keeps the small remainder exact when one term dominates, as it
does at tiny q and large sigma. Rows go in blocks of 64 ascending orders,
and a block exponentiates only the columns up to its largest order, about
half the grid. The sums still run over full-width rows, the cells
k > alpha as exact zeros, so every value is the whole-grid evaluation's,
bit for bit.

Epsilon composes and converts the blocks as they come and stops once no
later order can give a smaller value. RDP(alpha) does not fall as alpha
grows (van Erven and Harremoes 2014, Thm. 3), so after a block ending at
order a, every later order's converted value is at least T RDP(a) plus the
smallest conversion term above a, cached per delta beside the others. The
stop test subtracts a derived margin: twice T times an absolute bound on
the rounding error of each computed RDP value, (32 M + 1024) u / (a - 1),
u = 2^-53 and M a bound on every piece of every log term, plus 16 u
relative for the composition, the conversion and the test itself (see
`epsilon`). A test that does not clear the margin reads the next block, so
epsilon equals the full-grid conversion bit for bit. In a calibration most
trial sigmas stop after the first block, orders 2..65; the bracket top,
whose best order is 512, reads all eight. Warm, on a 2-vCPU Xeon with one
BLAS thread: about 0.1 ms for a one-block epsilon and 1.4 ms for all eight
blocks; a calibration takes 3-5 ms, and 23-29 ms when every trial reads
every block.

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
import numbers

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr

# The integer RDP orders the accountant evaluates and minimizes over.
ORDERS = tuple(range(2, 513))
_ALPHAS = np.array(ORDERS, dtype=np.float64)
_K = np.arange(ORDERS[-1] + 1, dtype=np.float64)  # binomial indices 0..max order
_ALPHAS.flags.writeable = _K.flags.writeable = False


class CalibrationRangeError(ValueError):
    """The privacy target cannot be met within the noise search bracket."""


@dataclasses.dataclass(frozen=True)
class PrivacySpec:
    """Mechanism parameters linked to their accounting inputs.

    Attributes:
      epsilon: Privacy budget; may be math.inf (e.g. when noise_multiplier
        is 0). Only the zero-noise check reads it, and the program passes
        math.inf; it stays because the benchmark's tests pass it by keyword.
      delta: Approximate-DP slack in (0, 1).
      noise_multiplier: Ratio of noise stddev to sensitivity (sigma).
      sampling_prob: Poisson inclusion probability q in [0, 1].
      steps: Number of composed steps T, an integer (not a bool).

    Every check fails on NaN, so a NaN field raises.
    """

    epsilon: float
    delta: float
    noise_multiplier: float
    sampling_prob: float
    steps: int

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not self.noise_multiplier >= 0:
            raise ValueError(f"noise_multiplier must be non-negative, got {self.noise_multiplier}")
        if not (0.0 <= self.sampling_prob <= 1.0):
            raise ValueError("sampling_prob must be in [0, 1]")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.noise_multiplier == 0.0 and self.epsilon != math.inf:
            raise ValueError("zero noise implies epsilon = inf")


# Rows per block of the term grid. Orders ascend, so a block's last order is
# its widest and the cells right of it are -inf in every row of the block.
_BLOCK_ROWS = 64


@functools.cache
def _log_binomial() -> np.ndarray:
    """log C(alpha, k) on the padded (orders x k) grid, read-only.

    -inf in the cells k > alpha, which therefore drop out of every sum. Built
    in two grid-sized buffers, gammaln(alpha + 1) - gammaln(k + 1) minus
    gammaln(alpha - k + 1), the operations of the whole-grid expression in
    its order, so every cell has that expression's bits.
    """
    a, k = _ALPHAS[:, None], _K[None, :]
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
def _sigma_free_terms(q: float) -> np.ndarray:
    """(alpha - k) log(1-q) + log C(alpha, k) + k log q on the grid, read-only.

    The part of every log term that does not depend on sigma, added in this
    order; the cells k > alpha are -inf.
    """
    log_binom = _log_binomial()  # first, so its build never overlaps this grid
    terms = _ALPHAS[:, None] - _K
    terms *= math.log1p(-q)
    terms += log_binom
    terms += _K * math.log(q)
    terms.flags.writeable = False
    return terms


def _rdp_blocks(q: float, sigma: float):
    """Yields the subsampled-Gaussian RDP values in ascending order, a block at a time.

    Each yield is a fresh array holding the values of the orders that follow
    the previous yield's: one array for the closed forms, else blocks of up
    to 64 orders, then one block of +inf for the orders whose largest
    exponent overflows. Every value has the bits of the whole-grid
    evaluation, however many blocks are read.
    """
    if sigma == 0.0:
        yield np.full(_ALPHAS.shape, math.inf)
        return
    if q == 0.0:
        yield np.zeros(_ALPHAS.shape)
        return
    if q == 1.0:
        with np.errstate(over="ignore", divide="ignore"):
            values = _ALPHAS / (2.0 * sigma * sigma)
        yield values
        return

    # Rows are independent binomial expansions, summed as max + log1p(sum of
    # exp(term - max) over the other terms). A block of rows works on the
    # columns up to its largest order, contiguous so that exp runs as one
    # loop; its rows are then summed at full width, with zeros to the right,
    # since numpy's pairwise summation groups terms by row length.
    base = _sigma_free_terms(q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        growth = _K * (_K - 1) / (2.0 * sigma * sigma)
    # An order whose largest exponent, growth[alpha], is not a finite float
    # gets +inf, an upper bound. The exponents grow with k, so these are the
    # last orders, and the others never read an infinite cell.
    finite = int(np.isfinite(growth[ORDERS[0]:]).sum())
    rows = min(_BLOCK_ROWS, finite)
    live_buffer = np.empty(rows * base.shape[1])
    wide = np.zeros((rows, base.shape[1]))  # widths ascend: the tail stays 0
    for r0 in range(0, finite, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, finite)
        width = ORDERS[r1 - 1] + 1
        live = live_buffer[: (r1 - r0) * width].reshape(r1 - r0, width)
        np.add(base[r0:r1, :width], growth[:width], out=live)
        index = np.arange(r1 - r0), live.argmax(axis=1)
        peak = live[index]
        live -= peak[:, None]
        live[index] = -np.inf
        np.exp(live, out=live)
        wide[: r1 - r0, :width] = live
        rest = wide[: r1 - r0].sum(axis=1)
        yield (peak + np.log1p(rest)) / (_ALPHAS[r0:r1] - 1)
    if finite < len(ORDERS):
        yield np.full(len(ORDERS) - finite, math.inf)


def _rdp_values(q: float, sigma: float) -> np.ndarray:
    """Subsampled-Gaussian RDP at every order, as a fresh array.

    Every block of :func:`_rdp_blocks`, read to the end: the full-grid
    reference that :func:`epsilon` equals, bit for bit, without always
    reading every block. +inf, without a warning, at every order when
    sigma = 0 or 1 / sigma^2 overflows, and at each order whose largest
    exponent overflows: order 512 below a sigma of about 2.7e-152.
    """
    return np.concatenate(list(_rdp_blocks(q, sigma)))


_UNIT_ROUNDOFF = 2.0**-53
_STOP_MARGIN = 16.0 * _UNIT_ROUNDOFF  # a power of two: the product is exact; see `epsilon`
_LOG_GAMMA_PIECES = 3.0 * math.lgamma(ORDERS[-1] + 1)


def _rdp_error(q: float, sigma: float) -> float:
    """E such that every computed RDP(alpha), 0 < q < 1, is within E / (alpha - 1).

    E = (32 M + 1024) u, u = 2^-53, where M = 512 (|log(1-q)| + |log q|)
    + 3 lnGamma(513) + 512 * 511 / (2 sigma^2) bounds every piece of every
    log term, and every partial sum of one, at every order. The bound takes
    gammaln to within 8 ulp (16 u relative) and log, log1p and exp to within
    4 ulp (8 u); to first order, times alpha - 1:

    - A log term's pieces, (alpha - k) log(1-q), the three lnGamma values of
      log C(alpha, k), k log q and k(k-1) / (2 sigma^2), are each within 16 u
      of their own size, and their two subtractions and three additions
      round by at most u M each: 21 u M.
    - The exact max + log1p(sum of exp(term - max)) is logsumexp, which
      moves by no more than the largest change of a term.
    - A cell exp(y), y = term - max <= 0, is within 8 u of itself and
      u |y| e^y <= u / e for the rounding of y; the full-width sum of 513
      cells adds 512 u of its value R; so R is within 520 u R + 189 u, and
      log1p(R) within 709 u, plus 8 u log(513) < 50 u for its own rounding.
      Adding the max rounds by u (M + 7).
    - The division by alpha - 1 rounds by u |RDP| <= u (M + 7) / (alpha - 1).

    That is (23 M + 773) u, and E leaves room for the second-order terms.
    The bound is absolute: where one term dominates, as at q = 1e-4 and
    sigma = 100, the value is tiny against M and its relative error is near
    1e-7. +inf when 1 / sigma^2 overflows.
    """
    top = ORDERS[-1]
    with np.errstate(over="ignore", divide="ignore"):
        growth = float(np.float64(top * (top - 1)) / (2.0 * sigma * sigma))
    magnitude = top * (abs(math.log1p(-q)) + abs(math.log(q))) + _LOG_GAMMA_PIECES + growth
    return (32.0 * magnitude + 1024.0) * _UNIT_ROUNDOFF


@functools.lru_cache(maxsize=8)
def _conversion_terms(delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per order, log(1 - 1/alpha) and (log(1/delta) - log(alpha)) / (alpha - 1).

    The third array holds, per order, the smallest computed sum of the two
    over the orders above it (+inf above the last): the floor of the stop
    test in :func:`epsilon`.
    """
    log_inv_delta = math.log(1.0 / delta)
    shrink = np.array([math.log1p(-1.0 / a) for a in ORDERS])
    slack = np.array([(log_inv_delta - math.log(a)) / (a - 1) for a in ORDERS])
    later = np.append(np.minimum.accumulate((shrink + slack)[:0:-1])[::-1], math.inf)
    shrink.flags.writeable = slack.flags.writeable = later.flags.writeable = False
    return shrink, slack, later


def _converted(values: np.ndarray, shrink: np.ndarray, slack: np.ndarray) -> float:
    """Smallest RDP(alpha) + log(1 - 1/alpha) + (log(1/delta) - log(alpha)) / (alpha - 1).

    Over the orders of ``values``, with their conversion terms; an undefined
    (NaN) order bounds nothing. Not clamped at 0.
    """
    eps = values + shrink
    eps += slack
    eps[np.isnan(eps)] = math.inf
    return float(eps.min())


def _to_epsilon(values: np.ndarray, delta: float) -> float:
    """RDP-to-DP conversion of RDP ``values`` at the orders, in one pass.

    Balle et al. 2020 (Thm. 21), as in the module docstring: per order,
    RDP(alpha) + log(1 - 1/alpha) + (log(1/delta) - log(alpha)) / (alpha - 1),
    minimized over the orders and clamped at 0. Each order's value is a valid
    bound, and below the classic RDP(alpha) + log(1/delta) / (alpha - 1).
    """
    shrink, slack, _ = _conversion_terms(delta)
    return max(_converted(values, shrink, slack), 0.0)


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
    if not sigma > 0:
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


def epsilon(spec: PrivacySpec) -> float:
    """Epsilon of T composed Poisson-subsampled Gaussian steps.

    Precondition: every step's batch is a Poisson sample of the dataset,
    each example included independently with probability
    spec.sampling_prob. The value is not a guarantee for any other batch
    selection; the trainer checks the batch strategy before it asks.

    Equal, bit for bit, to ``_to_epsilon(_rdp_values(q, sigma) * T, delta)``,
    in fewer operations: the blocks of :func:`_rdp_blocks` are composed and
    converted in ascending order, and the loop stops once no later order can
    give a smaller value. RDP(alpha) is the Renyi divergence of order alpha
    of (1-q) N(0, sigma^2) + q N(1, sigma^2) from N(0, sigma^2), which does
    not fall as alpha grows (van Erven and Harremoes 2014, Thm. 3). So every
    order above a block's last order a has T RDP(alpha) >= T RDP(a), and the
    loop stops when

        v + c - D - 16 u (|v| + D + s)  >  best,

    where v is the computed T RDP(a), c the smallest computed conversion term
    log(1 - 1/alpha) + (log(1/delta) - log(alpha)) / (alpha - 1) over the
    orders above a, D = 2 T E / (a - 1) with E of :func:`_rdp_error`,
    s = 7 + log(1/delta), which bounds the size of both conversion terms at
    every order, and u = 2^-53. D covers the errors of both orders' computed
    RDP, since E / (alpha - 1) <= E / (a - 1). The rest, the relative term,
    covers the rounding: v of T RDP(a) (u |v|); the product T RDP(alpha)
    and the two additions of its conversion terms, all monotone in their
    operand, u (|v| + D) and 2 u (|v| + D + s); c of its exact sum (u s);
    and the test's own three roundings outside the power-of-two product
    (3 u (|v| + D + s)), with 4 u D for rounding D itself. That is at most
    12 u (|v| + D + s). So when the test passes, every later order's
    computed value, the one the full-grid conversion would compare, is above
    best, and best is already the minimum. A NaN or failing test reads the
    next block; nothing is approximated.
    """
    if spec.noise_multiplier == 0.0:
        return math.inf
    q, sigma, steps = spec.sampling_prob, spec.noise_multiplier, spec.steps
    shrink, slack, later = _conversion_terms(spec.delta)
    size = 7.0 + math.log(1.0 / spec.delta)
    best = math.inf
    start = 0
    for values in _rdp_blocks(q, sigma):
        stop = start + len(values)
        with np.errstate(over="ignore"):  # composition: a float product per order, to +inf
            values *= steps
        best = min(best, _converted(values, shrink[start:stop], slack[start:stop]))
        if stop < len(ORDERS):
            last = float(values[-1])
            drift = 2.0 * steps * _rdp_error(q, sigma) / (ORDERS[stop - 1] - 1)
            margin = _STOP_MARGIN * (abs(last) + drift + size)
            if last + float(later[stop - 1]) - drift - margin > best:
                break
        start = stop
    return max(best, 0.0)


_SIGMA_BRACKET = (1e-2, 1e3)


def _smallest_sigma(target_epsilon: float, measure, limit: float, tolerance: float) -> float:
    """Smallest sigma in the bracket with measure(sigma) <= limit.

    Geometric bisection to relative width ``tolerance`` of a measure that is
    non-increasing in sigma; the returned sigma meets the limit.

    Raises:
      CalibrationRangeError: The limit is not met at the bracket top.
    """
    if not 0 < target_epsilon < math.inf:
        raise ValueError(f"target epsilon must be positive and finite, got {target_epsilon}")
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


def calibrate_noise(target_epsilon: float, delta: float, sampling_prob: float,
                    steps: int) -> float:
    """Smallest noise multiplier meeting a privacy target.

    Bisects sigma on a relative grid (tolerance 1e-4) within the bracket
    [1e-2, 1e3]; the returned sigma is guaranteed to satisfy
    epsilon(sigma) <= target_epsilon.

    Raises:
      CalibrationRangeError: The target is unreachable inside the bracket.
    """
    return _smallest_sigma(
        target_epsilon,
        lambda s: epsilon(PrivacySpec(math.inf, delta, s, sampling_prob, steps)),
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
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _smallest_sigma(
        target_epsilon, lambda sigma: _analytic_delta(target_epsilon, sigma), delta, 1e-6
    )

