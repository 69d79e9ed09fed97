"""Reference computations made apart from dpcore, for the benchmark's checks.

Nothing here imports dpcore: the accountant is re-derived in mpmath from its
closed forms, and strategy errors come from a dense inverse built with numpy.
"""

from __future__ import annotations

import functools

import mpmath
import numpy as np

# The accountant's default integer orders (2..512).
RDP_ORDERS = tuple(range(2, 513))


@functools.lru_cache(maxsize=16)
def rdp_epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """Epsilon of `steps` Poisson-subsampled Gaussian steps, in mpmath.

    Per integer order a the exact binomial expansion

        RDP(a) = log(sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2))) / (a-1),

    composed over the steps and converted with Balle et al. 2020 (Thm. 21):
    min_a T*RDP(a) + log(1 - 1/a) + (log(1/delta) - log a)/(a - 1), clamped at 0.
    Consecutive terms differ by the factor (a-k+1)/k * q/(1-q) * exp((k-1)/sigma^2),
    so the sum is built by that recurrence at 30 significant digits.
    """
    with mpmath.workdps(30):
        q_, d_ = mpmath.mpf(q), mpmath.mpf(delta)
        ratio = q_ / (1 - q_)
        growth = mpmath.exp(1 / mpmath.mpf(sigma) ** 2)
        best = mpmath.inf
        for a in RDP_ORDERS:
            term = (1 - q_) ** a
            total = term
            power = mpmath.mpf(1)
            for k in range(1, a + 1):
                term = term * ratio * (a - k + 1) / k * power
                power *= growth
                total += term
            eps = steps * mpmath.log(total) / (a - 1) + mpmath.log(1 - mpmath.mpf(1) / a) + (
                mpmath.log(1 / d_) - mpmath.log(a)
            ) / (a - 1)
            best = min(best, eps)
        return float(max(best, 0))


def gaussian_delta(epsilon: float, sigma: float) -> float:
    """delta(eps) of the sensitivity-1 Gaussian mechanism with noise sigma:

    Phi(1/(2 sigma) - eps sigma) - e^eps Phi(-1/(2 sigma) - eps sigma).
    """
    with mpmath.workdps(30):
        e, s = mpmath.mpf(epsilon), mpmath.mpf(sigma)
        return float(
            mpmath.ncdf(1 / (2 * s) - e * s) - mpmath.exp(e) * mpmath.ncdf(-1 / (2 * s) - e * s)
        )


def banded_strategy_error(coefficients, n: int) -> float:
    """||A C^-1||_F^2 * max column norm of C^2 for the prefix workload A.

    C is the unit-diagonal banded lower-triangular Toeplitz matrix with first
    column `coefficients`, built entry by entry and inverted densely.
    """
    c = np.zeros((n, n))
    for j, coef in enumerate(coefficients):
        for i in range(j, n):
            c[i, i - j] = coef
    prefix = np.tril(np.ones((n, n)))
    b = prefix @ np.linalg.inv(c)
    sensitivity_sq = np.max(np.sum(c * c, axis=0))
    return float(np.sum(b * b) * sensitivity_sq)
