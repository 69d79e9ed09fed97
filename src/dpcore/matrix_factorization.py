"""Construction, evaluation, and optimization of banded noise strategies.

A strategy is a unit-diagonal banded lower-triangular Toeplitz matrix C
given by its coefficients c_0 = 1, c_1, ..., c_{b-1}. Correlated noise
C^{-1} Z replaces i.i.d. noise Z; the total squared error of the mechanism
on a workload A is ||A C^{-1}||_F^2 times the squared sensitivity of C (its
maximum column norm). Banded strategies stream with O(b) memory in the
privatizer.

The error is evaluated as ||C^{-T} A^T||_F^2 with one banded triangular
solve, O(b n^2) for a dense workload, so C is never formed. The optimizer
is scipy's L-BFGS-B on c_1..c_{b-1} with its own finite-difference
gradients, which removes a whole class of derivation bugs; the result is
never worse than the identity strategy.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg
import scipy.optimize


@dataclasses.dataclass(frozen=True)
class Workload:
    """A lower-triangular linear query workload over n steps."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.n, self.n):
            raise ValueError("workload matrix must be n x n")
        if not np.allclose(self.matrix, np.tril(self.matrix)):
            raise ValueError("workload matrix must be lower-triangular")


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


IDENTITY = Strategy((1.0,))


def prefix_workload(n: int) -> Workload:
    """The running-sum workload: A[i, j] = 1 for j <= i."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return Workload(n, np.tril(np.ones((n, n))))


def materialize(s: Strategy, n: int) -> np.ndarray:
    """The n x n matrix of a strategy (first column c, shifted down each column)."""
    if n < s.bands:
        raise ValueError(f"n={n} is smaller than the strategy band count {s.bands}")
    col = np.zeros(n)
    col[: s.bands] = s.coefficients
    return scipy.linalg.toeplitz(col, np.zeros(n))


def sensitivity(s: Strategy, n: int) -> float:
    """Maximum column L2 norm of the materialized strategy.

    For banded Toeplitz matrices with n >= bands every full column has the
    same norm, so this is simply the L2 norm of the coefficient vector.
    """
    if n < s.bands:
        raise ValueError(f"n={n} is smaller than the strategy band count {s.bands}")
    return float(np.linalg.norm(np.asarray(s.coefficients)))


def expected_error(w: Workload, s: Strategy) -> float:
    """Total squared error ||A C^{-1}||_F^2 * sensitivity(C)^2.

    Computed as ||C^{-T} A^T||_F^2 by one banded solve: C^T is upper-banded
    with c_k on superdiagonal k. Wild coefficients can overflow to inf; that
    is reported as an infinite error, not a warning.
    """
    u = s.bands - 1
    ab = np.zeros((s.bands, w.n))
    for k, c in enumerate(s.coefficients):
        ab[u - k, k:] = c
    with np.errstate(over="ignore", invalid="ignore"):
        x = scipy.linalg.solve_banded((0, u), ab, w.matrix.T)
        return float(np.sum(x * x)) * sensitivity(s, w.n) ** 2


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


def strategy_to_text(s: Strategy, n: int) -> str:
    """Serializes a strategy and its horizon to a plain text record.

    Coefficients use shortest round-trip decimal formatting, so parsing the
    record recovers them exactly.
    """
    coef = ",".join(repr(float(c)) for c in s.coefficients)
    return f"n={n}\nbands={s.bands}\ncoefficients={coef}\n"


def strategy_from_text(text: str) -> tuple[Strategy, int]:
    """Parses the record produced by :func:`strategy_to_text`."""
    fields = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        n = int(fields["n"])
        bands = int(fields["bands"])
        coefficients = tuple(float(tok) for tok in fields["coefficients"].split(","))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed strategy record: {exc}") from exc
    if len(coefficients) != bands:
        raise ValueError(
            f"record declares {bands} bands but has {len(coefficients)} coefficients"
        )
    return Strategy(coefficients), n
