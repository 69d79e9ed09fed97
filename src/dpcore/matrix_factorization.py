"""Construction, evaluation, and optimization of banded noise strategies.

A strategy is a unit-diagonal banded lower-triangular Toeplitz matrix C
given by its coefficients c_0 = 1, c_1, ..., c_{b-1}; it streams with O(b)
memory in the privatizer. Correlated noise C^{-1} Z replaces i.i.d. noise
Z, and the total squared error on the prefix-sum workload A is
||A C^{-1}||_F^2 times the squared sensitivity of C (its max column norm).

The error has a closed form, so neither C nor A is ever formed: C^{-1} is
lower-triangular Toeplitz with some first column r, so A C^{-1} is too, with
first column S = cumsum(r), and ||A C^{-1}||_F^2 = F = sum_k (n - k) S_k^2.
One banded triangular solve with a single right-hand side gives r, so an
evaluation costs O(n b). The optimizer is scipy's L-BFGS-B on c_1..c_{b-1}
with the exact gradient of this closed form, which one more solve of the
same system gives: differentiating C r = e_0 yields dr/dc_j = -C^{-1} Z_j r,
Z_j the shift down by j, and the adjoint of that solve is C^T y = V, V the
reverse cumulative sum of 2 (n - k) S_k. An iterate thus costs two O(n b)
solves and b - 1 dot products at any band count, where finite differences
cost b solves. The tests check the gradient against central differences
and a dense-matrix derivative, and the optimized error against scipy's
finite-difference optimum; the result is never worse than identity.

C^T is unit upper-triangular and banded, so each solve is one call of BLAS
dtbsv, back substitution on the band storage. That is what LAPACK's dgbsv,
which scipy.linalg.solve_banded calls for these (0, u) bands, does after an
LU factorization that has nothing to eliminate, so the bits are the same
without the factorization or solve_banded's per-call validation. The one
check that can fail here, finite coefficients, is kept: a NaN or infinite
coefficient raises ValueError, as solve_banded's check_finite did.

scipy.optimize and scipy.linalg.blas are imported on first use, inside
optimize_banded and _solve.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# scipy.optimize and scipy.linalg.blas are imported where they are used:
# together about 23 MB and 0.2-0.3 s of start-up that only a strategy search
# needs, so a DP-SGD, audit or calibrate process never loads them.


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


def _solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solves C^T x = rhs by banded back substitution, in place of rhs."""
    from scipy.linalg.blas import dtbsv

    return dtbsv(ab.shape[0] - 1, ab, rhs, overwrite_x=1)


def _last_row(n: int, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """C^T in BLAS upper band storage, and the last row of C^{-1}.

    C^T is upper-banded with c_k on superdiagonal k, held in row b - 1 - k.
    The last row of C^{-1} solves C^T x = e_{n-1} and is the first column r
    of C^{-1} reversed.
    """
    bands = len(coefficients)
    if n < bands:
        raise ValueError(f"n={n} is smaller than the strategy band count {bands}")
    if not all(map(math.isfinite, coefficients)):
        raise ValueError("strategy coefficients must be finite")
    ab = np.zeros((bands, n), order="F")
    for k, c in enumerate(coefficients):
        ab[bands - 1 - k, k:] = c
    last = np.zeros(n)
    last[-1] = 1.0
    return ab, _solve(ab, last)


def expected_error(w: Workload, s: Strategy) -> float:
    """Total squared error ||A C^{-1}||_F^2 * sensitivity(C)^2, for n >= bands.

    Coefficients whose inverse grows without bound overflow; any non-finite
    result is reported as an infinite error, not a warning.
    """
    n = w.n
    _, row = _last_row(n, s.coefficients)
    with np.errstate(over="ignore", invalid="ignore"):
        first_column = np.cumsum(row[::-1])
        error = float(np.arange(n, 0, -1) @ first_column**2) * s.sensitivity**2
    return error if math.isfinite(error) else math.inf


def _error_and_gradient(n: int, tail: np.ndarray) -> tuple[float, np.ndarray]:
    """expected_error of the strategy (1, *tail) and its gradient in tail.

    With F = sum_k (n - k) S_k^2, the error is F ||c||^2, so its derivative
    in c_j is 2 c_j F + ||c||^2 dF/dc_j. Differentiating C r = e_0 gives
    dr/dc_j = -C^{-1} Z_j r, with Z_j the shift down by j; with V the reverse
    cumulative sum of 2 (n - k) S_k and y the solution of C^T y = V,
    dF/dc_j = -sum_k y_{k+j} r_k. The value has expected_error's bits. A
    non-finite value or gradient (an unstable strategy) returns infinity with
    a zero gradient, so the line search backs off.
    """
    coefficients = np.concatenate(([1.0], tail))
    ab, row = _last_row(n, coefficients)
    weights = np.arange(n, 0, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        r = row[::-1]
        first_column = np.cumsum(r)
        prefix_error = float(weights @ first_column**2)
        norm_sq = float(np.linalg.norm(coefficients)) ** 2
        error = prefix_error * norm_sq
        if math.isfinite(error):
            y = _solve(ab, np.cumsum((2.0 * weights * first_column)[::-1])[::-1].copy())
            d_prefix = -np.array([y[j:] @ r[: n - j] for j in range(1, len(coefficients))])
            gradient = 2.0 * prefix_error * tail + norm_sq * d_prefix
            if np.isfinite(gradient).all():
                return error, gradient
    return math.inf, np.zeros_like(tail)


def optimize_banded(w: Workload, bands: int, iters: int = 200) -> Strategy:
    """Minimizes expected_error over band coefficients, c_0 pinned to 1.

    Runs L-BFGS-B from the identity strategy with the exact gradient of the
    closed-form error (two banded solves per iterate; see the module
    docstring). An unstable iterate reads as infinite error, so the line
    search backs off. A result that is not strictly better than the identity
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

    import scipy.optimize

    identity = np.zeros(bands - 1)
    identity_val = expected_error(w, Strategy((1.0, *identity)))
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.optimize.minimize(
            functools.partial(_error_and_gradient, w.n),
            identity,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": iters},
        )
    if not result.fun < identity_val:
        return IDENTITY
    return Strategy((1.0, *result.x))
