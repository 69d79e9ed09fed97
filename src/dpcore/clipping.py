"""Per-example and per-group gradient clipping with attached sensitivity.

The central operation, :func:`clipped_grad_sum`, takes a batch as gathered
arrays (features, labels, optional group keys) and sums the clipped
per-unit gradients of its rows.

Neither level materializes per-example gradients. Every layer's per-example
gradient is an outer product ``[a, 1] ⊗ g`` of factors from
:func:`models.layer_factors`, and the L2 norm of an outer product is the
product of the factors' L2 norms (Goodfellow 2015, arXiv:1510.01799). So,
at example level, each row's norm and clip factor f come from the factors:
the squared norm Σ (‖a‖²+1)·‖g‖² directly, from two row dot products per
layer, and, for the rows whose direct value overflowed, or lost bits to
underflow while the norm may exceed C, from the factors scaled by their
largest entries. The clipped sum is one BLAS product per layer, ``aᵀ(f⊙g)``
with f applied to the narrower factor, and ``fᵀg`` for the bias (the
book-keeping of Bu et al. 2022, arXiv:2210.00038). Memory is O(B·(d+h))
rather than O(B·P), so the batch needs no split into microbatches. The
non-private baseline, :func:`grad_sum`, is the same reduction with f = 1.

Group-level clipping sums gradients within a group before clipping. The
rows are sorted stably by group key, so each group is a contiguous slice
of the factors, and the same reduction with f = 1 over that slice, one
product ``A_gᵀG_g`` per layer and ``1ᵀG_g`` for the bias, gives the group's
gradient, which is scaled onto the sphere of radius C when its norm
exceeds C. The group is the privacy unit of user-level DP (McMahan et al.
2018, arXiv:1710.06963).

Clipping bounds the L2 norm, the one norm in which the Gaussian noise and
both accountants read a sensitivity. The returned sum carries that
sensitivity (the clip norm, an L2 bound under add/remove adjacency of one
example or one group), and the privatizer scales its noise by that attached
value, so the noise cannot drift from the clipping that bounds it.

Non-finite per-unit gradients are replaced by the zero vector and counted;
a zero vector lies inside every clip ball, so the sensitivity bound is
unaffected and training proceeds.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .models import GradientVector, Model, layer_factors
from .models import batch_grads  # noqa: F401  # not called here; bench/tracing.py wraps this name

# A sum of squares below this may have lost bits to underflow (see _factored_norms).
_DIRECT_FLOOR = 2.0**-900


@dataclasses.dataclass(frozen=True)
class ClipConfig:
    """Configuration for clipped gradient aggregation.

    Attributes:
      clip_norm: The clip norm C, a bound on each unit's L2 norm; must be
        positive and finite.
      level: "example" clips each example's gradient; "group" sums gradients
        within each group key first and clips the group sums.
    """

    clip_norm: float
    level: str = "example"

    def __post_init__(self):
        if not (self.clip_norm > 0.0) or not math.isfinite(self.clip_norm):
            raise ValueError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.level not in ("example", "group"):
            raise ValueError(f"unknown clipping level {self.level!r}")


@dataclasses.dataclass(frozen=True)
class ClippedGradientSum:
    """Sum of clipped per-unit gradients plus its sensitivity.

    sensitivity is always the clip norm, a bound in L2: adding or removing
    one contributing unit (example or group) changes the sum by one clipped
    gradient, whose L2 norm is at most the clip norm.
    """

    sum: GradientVector
    sensitivity: float
    contributing_count: int
    dropped_nonfinite_count: int


def l2_norm(values: np.ndarray) -> float:
    """The L2 norm of ``values``; finite and accurate whenever every entry is finite."""
    squares = float(np.einsum("i,i->", values, values, optimize=False))
    if not _DIRECT_FLOOR <= squares < math.inf:
        # The squares overflowed or underflowed (or an entry is not finite);
        # rescale by the largest magnitude, unless it is infinite or zero.
        peak = float(np.max(np.abs(values), initial=0.0))
        if 0.0 < peak < math.inf:
            scaled = values / peak
            return peak * math.sqrt(np.einsum("i,i->", scaled, scaled, optimize=False))
    return math.sqrt(squares)


def _factored_norms(factors, radius: float):
    """Each row's gradient L2 norm, and whether its gradient is finite, from the factors.

    The squared norm of ``[a, 1] ⊗ g`` is (‖a‖²+1)·‖g‖², so a row's squared
    norm is that sum over the layers, two row dot products per layer. The
    direct value is kept where it is finite and at least the floor
    2⁻⁹⁰⁰·Σ o·(‖a‖²+1): every entry of such a row is finite, and the squares
    of g that underflowed lose at most 2⁻¹⁰⁷⁵ each, under 2⁻¹⁷⁵ of the
    floor in all. Below the floor it is also kept where the floor is at most
    radius²/2: that row's norm is certainly below the radius, so clipping to
    the radius leaves it unscaled whatever its exact value. A zero gradient
    (a saturated sigmoid with the right label) is the common such row. The
    other rows (overflow, underflow, NaN or ±inf) take :func:`_scaled_norms`,
    which decides their norms and finite flags; radius 0 sends every row
    below the floor there.
    """
    squares = floor = 0.0
    for a, g in factors:
        a_sq = _row_squares(a)
        a_sq += 1.0
        squares += a_sq * _row_squares(g)
        floor += a_sq * (_DIRECT_FLOOR * g.shape[1])
    floor = np.where(floor > 0.5 * radius * radius, floor, 0.0)
    finite = squares >= floor  # False for NaN
    finite &= squares < math.inf
    norms = np.sqrt(squares)
    if not finite.all():
        rescale = np.flatnonzero(~finite)
        norms[rescale], finite[rescale] = _scaled_norms([(a[rescale], g[rescale]) for a, g in factors])
    return norms, finite


def _row_squares(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares; a single column skips einsum's call overhead."""
    if x.shape[1] == 1:
        return x[:, 0] * x[:, 0]
    return np.einsum("bk,bk->b", x, x, optimize=False)


def _scaled_norms(factors):
    """The reference for :func:`_factored_norms`: norms and finite flags from scaled factors.

    A layer's norm is max|ã|·max|g| (its largest entry magnitude, with
    ã = [a, 1]) times the L2 norm of the factors scaled by those maxima,
    which for a nonzero g lies in [1, √((k+1)o)]; layer norms combine as a
    hypotenuse. Scaling before squaring keeps every intermediate finite
    where the gradient's entries are: a huge input paired with a zero output
    gradient (a saturated tanh unit) has norm 0, not ∞·0 = NaN. An entry
    aᵢgⱼ of the materialized gradient overflows exactly when max|ã|·max|g|
    does, and a non-finite factor entry always reaches one, so a row is
    finite exactly when every layer's max|ã|·max|g| is.
    """
    finite = None
    norms = None
    for a, g in factors:
        a_max = np.abs(a).max(axis=1, initial=1.0)
        g_max = np.abs(g).max(axis=1, initial=0.0)
        peak = a_max * g_max
        finite = np.isfinite(peak) if finite is None else finite & np.isfinite(peak)
        a_scaled = a / a_max[:, np.newaxis]
        a_sq = np.einsum("bk,bk->b", a_scaled, a_scaled, optimize=False)
        norm = np.sqrt(a_sq + a_max**-2)
        if g.shape[1] > 1:  # a single output's g/max|g| is ±1, or its peak is 0
            g_scaled = g / np.where(g_max > 0.0, g_max, 1.0)[:, np.newaxis]
            norm *= np.sqrt(np.einsum("bo,bo->b", g_scaled, g_scaled, optimize=False))
        layer_norm = peak * norm
        norms = layer_norm if norms is None else np.hypot(norms, layer_norm)
    return norms, finite


def _weighted_sum(factors, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Σ_b w_b [a_b, 1] ⊗ g_b in layout order: aᵀ(w⊙g), then wᵀg, per layer.

    The weights scale the narrower factor, a for a layer with fewer inputs
    than outputs and g otherwise, before one product over the batch. These
    whole-batch reductions are BLAS, so their order differs from a
    row-by-row sum in the last bits. weights None means 1.
    """
    parts = []
    for a, g in factors:
        if weights is None:
            block, bias = a.T @ g, g.sum(axis=0)
        else:
            if a.shape[1] < g.shape[1]:
                block = (a * weights[:, np.newaxis]).T @ g
            else:
                block = a.T @ (g * weights[:, np.newaxis])
            bias = weights @ g
        parts += [block.ravel(), bias]
    return np.concatenate(parts)


def grad_sum(
    model: Model, params: GradientVector, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Unclipped sum of the per-example gradients of every row.

    Nothing is dropped: a non-finite gradient makes the sum non-finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _weighted_sum(layer_factors(model, params, features, labels))


def clipped_grad_sum(
    model: Model,
    params: GradientVector,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: ClipConfig,
    *,
    group_keys: Optional[np.ndarray] = None,
) -> ClippedGradientSum:
    """Sums clipped per-unit gradients over a batch of gathered rows.

    Any unit (example, or group sum at group level) whose gradient has a
    non-finite component is replaced by zero and counted in
    dropped_nonfinite_count.

    Args:
      model: The model whose per-example gradients are aggregated.
      params: Current parameters.
      features: (B, d) feature rows; B may be 0.
      labels: (B,) labels.
      cfg: Clip configuration.
      group_keys: (B,) integer group key per row; required for group-level
        clipping.

    Returns:
      The clipped sum with sensitivity equal to cfg.clip_norm, an L2 bound.
    """
    n = features.shape[0]
    if labels.shape[0] != n or (group_keys is not None and len(group_keys) != n):
        raise ValueError("labels and group_keys need one entry per feature row")
    if cfg.level == "group" and group_keys is None:
        raise ValueError("group-level clipping requires group keys")
    layout = params.layout
    if n == 0:
        return ClippedGradientSum(GradientVector.zeros(layout), cfg.clip_norm, 0, 0)
    if cfg.level == "example":
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            factors = layer_factors(model, params, features, labels)
            norms, finite = _factored_norms(factors, cfg.clip_norm)
            kept = int(np.count_nonzero(finite))
            if kept < finite.size:
                # Dropped rows are left out, not weighted by 0: 0·inf = NaN.
                factors = [(a[finite], g[finite]) for a, g in factors]
                norms = norms[finite]
            # Exactly 1.0 inside the ball, so in-ball rows enter unscaled.
            weights = np.minimum(1.0, cfg.clip_norm / norms)
            total = _weighted_sum(factors, weights)
        units = finite.size
    else:
        # Rows sorted stably by key make each group one contiguous slice of
        # every layer's factors; factors are row-local, so the sort is exact.
        order = np.argsort(group_keys, kind="stable")
        keys = group_keys[order]
        ends = [*np.flatnonzero(keys[1:] != keys[:-1]) + 1, n]
        total = np.zeros(layout.total_length, dtype=np.float64)
        kept = lo = 0
        with np.errstate(invalid="ignore", over="ignore"):
            factors = layer_factors(model, params, features[order], labels[order])
            for hi in ends:
                group_sum = _weighted_sum([(a[lo:hi], g[lo:hi]) for a, g in factors])
                lo = hi
                # One norm serves the non-finite check and the clip: a finite
                # norm means finite entries, and only an infinite or NaN one
                # needs the entries checked.
                norm = l2_norm(group_sum)
                if math.isfinite(norm) or np.isfinite(group_sum).all():
                    if norm > cfg.clip_norm:
                        group_sum *= cfg.clip_norm / norm
                    total += group_sum
                    kept += 1
        units = len(ends)
    return ClippedGradientSum(
        sum=GradientVector(total, layout),
        sensitivity=cfg.clip_norm,
        contributing_count=kept,
        dropped_nonfinite_count=units - kept,
    )
