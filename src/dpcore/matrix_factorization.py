"""Construction, evaluation, and optimization of banded noise strategies.

A strategy is a unit-diagonal banded lower-triangular Toeplitz matrix C
given by its coefficients c_0 = 1, c_1, ..., c_{b-1}; it streams with O(b)
memory in the privatizer. Correlated noise C^{-1} Z replaces i.i.d. noise
Z, and the total squared error on the prefix-sum workload A is
||A C^{-1}||_F^2 times the squared sensitivity of C (its max column norm).

The error has a closed form, so neither C nor A is ever formed: C^{-1} is
lower-triangular Toeplitz with some first column r, so A C^{-1} is too, with
first column S = cumsum(r), and ||A C^{-1}||_F^2 = sum_k (n - k) S_k^2. One
banded triangular solve with a single right-hand side gives r, so an
evaluation costs O(n b). The optimizer is scipy's L-BFGS-B on
c_1..c_{b-1} with its own finite-difference gradients, which removes a
whole class of derivation bugs; the result is never worse than identity.

The solve calls LAPACK's dgbsv directly, the routine
scipy.linalg.solve_banded calls for these (0, u) bands. The optimizer
evaluates the error a few hundred times per strategy, and at n = 96
solve_banded's per-call validation cost more than the solve itself: an
evaluation at b = 4 takes 15 us instead of 42 us on a 2-vCPU Xeon. The
one check that can fail here, finite coefficients, is kept: a NaN or
infinite coefficient raises ValueError, as solve_banded's check_finite did.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg.lapack
import scipy.optimize


@dataclasses.dataclass(frozen=True)
class Workload:
    """The prefix-sum workload over n steps: query i sums steps 0..i."""

    n: int


@dataclasses.dataclass(frozen=True)
class Strategy:
    """Coefficients of a unit-diagonal banded lower-triangular Toeplitz C."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise ValueError("strategy needs at least one coefficient")
        if self.coefficients[0] != 1.0:
            raise ValueError("strategies are normalized to c_0 = 1")

    @property
    def bands(self) -> int:
        return len(self.coefficients)

    @functools.cached_property
    def sensitivity(self) -> float:
        """Maximum column L2 norm of the strategy matrix C, over any n >= bands.

        Every full column of a banded Toeplitz C holds all the coefficients,
        so this is the L2 norm of the coefficient vector. It is computed once
        per strategy, since the privatizer reads it on every step.
        """
        return float(np.linalg.norm(np.asarray(self.coefficients)))


IDENTITY = Strategy((1.0,))


def prefix_workload(n: int) -> Workload:
    """The running-sum workload: A[i, j] = 1 for j <= i."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return Workload(n)


def expected_error(w: Workload, s: Strategy) -> float:
    """Total squared error ||A C^{-1}||_F^2 * sensitivity(C)^2, for n >= bands.

    The last row of C^{-1} solves C^T x = e_{n-1} (C^T is upper-banded with
    c_k on superdiagonal k) and is the first column r of C^{-1} reversed.
    Coefficients whose inverse grows without bound overflow; any non-finite
    result is reported as an infinite error, not a warning.
    """
    n, u = w.n, s.bands - 1
    if n < s.bands:
        raise ValueError(f"n={n} is smaller than the strategy band count {s.bands}")
    if not all(map(math.isfinite, s.coefficients)):
        raise ValueError("strategy coefficients must be finite")
    ab = np.zeros((s.bands, n), order="F")
    for k, c in enumerate(s.coefficients):
        ab[u - k, k:] = c
    last = np.zeros(n)
    last[-1] = 1.0
    _, _, row, info = scipy.linalg.lapack.dgbsv(
        0, u, ab, last, overwrite_ab=True, overwrite_b=True
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"banded solve failed, LAPACK info {info}")
    with np.errstate(over="ignore", invalid="ignore"):
        first_column = np.cumsum(row[::-1])
        error = float(np.arange(n, 0, -1) @ first_column**2) * s.sensitivity**2
    return error if math.isfinite(error) else math.inf


def optimize_banded(w: Workload, bands: int, iters: int = 200) -> Strategy:
    """Minimizes expected_error over band coefficients, c_0 pinned to 1.

    Runs L-BFGS-B from the identity strategy with scipy's finite-difference
    gradients. A result that is not strictly better than the identity
    (including a non-finite one) yields the identity, so the result is
    never worse than identity.

    Args:
      w: The workload to minimize expected_error against.
      bands: Number of bands; 1 returns the identity strategy.
      iters: Maximum L-BFGS-B iterations.

    Returns:
      The best strategy found.
    """
    if bands < 1:
        raise ValueError("bands must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if bands == 1:
        return IDENTITY
    if w.n < bands:
        raise ValueError(f"workload horizon {w.n} is smaller than bands {bands}")

    def objective(tail: np.ndarray) -> float:
        return expected_error(w, Strategy((1.0, *tail)))

    identity = np.zeros(bands - 1)
    identity_val = objective(identity)
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.optimize.minimize(
            objective, identity, method="L-BFGS-B", options={"maxiter": iters}
        )
    if not result.fun < identity_val:
        return IDENTITY
    return Strategy((1.0, *result.x))
