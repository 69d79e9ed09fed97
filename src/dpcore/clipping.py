"""Per-example and per-group gradient clipping with attached sensitivity.

The central operation, :func:`clipped_grad_sum`, takes a batch as gathered
arrays (features, labels, optional group keys) and sums the clipped
per-unit gradients of its rows.

Example-level clipping never materializes per-example gradients. Every
layer's per-example gradient is an outer product ``[a, 1] ⊗ g`` of factors
from :func:`models.layer_factors`, and the L2, L1 and L∞ norms of an outer
product are products of the factors' norms (Goodfellow 2015,
arXiv:1510.01799). So each row's norm and clip factor f come from the
factors, and the clipped sum is one whole-batch reduction per layer,
``aᵀ(f⊙g)`` for the weights and ``Σ f⊙g`` for the bias (the book-keeping of
Bu et al. 2022, arXiv:2210.00038). Memory is O(B·(d+h)) rather than O(B·P),
and the result does not depend on the microbatch size. The non-private
baseline, :func:`grad_sum`, is the same reduction with f = 1.

Group-level clipping sums gradients within a group before clipping, so it
materializes them (:func:`models.batch_grads`) one microbatch at a time and
accumulates in batch order; the microbatch size bounds the live rows and
never changes the result.

The returned sum carries its sensitivity (the clip norm, under add/remove
adjacency of one example or one group) so noise calibration downstream can
be checked against the mechanism configuration instead of trusted.

Non-finite per-unit gradients are replaced by the zero vector and counted;
a zero vector lies inside every clip ball, so the sensitivity bound is
unaffected and training proceeds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional

import numpy as np

from .models import GradientVector, Model, batch_grads, layer_factors, vector_norm

FULL_BATCH = None  # microbatch_size sentinel: one microbatch spanning the batch

_GEOMETRIES = ("l2", "l1", "linf")


@dataclasses.dataclass(frozen=True)
class ClipConfig:
    """Configuration for clipped gradient aggregation.

    Attributes:
      clip_norm: The clip norm C; must be positive and finite.
      geometry: Norm under which to clip: "l2", "l1", or "linf".
      level: "example" clips each example's gradient; "group" sums gradients
        within each group key first and clips the group sums.
      microbatch_size: At group level, the number of examples whose gradients
        are materialized at once; None means the full batch. Example-level
        clipping materializes no per-example gradients, so there it has no
        effect.
    """

    clip_norm: float
    geometry: str = "l2"
    level: str = "example"
    microbatch_size: Optional[int] = FULL_BATCH

    def __post_init__(self):
        if not (self.clip_norm > 0.0) or not math.isfinite(self.clip_norm):
            raise ValueError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.geometry not in _GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.level not in ("example", "group"):
            raise ValueError(f"unknown clipping level {self.level!r}")
        if self.microbatch_size is not None and self.microbatch_size < 1:
            raise ValueError("microbatch_size must be at least 1 (or None for full)")


@dataclasses.dataclass(frozen=True)
class ClippedGradientSum:
    """Sum of clipped per-unit gradients plus its sensitivity.

    sensitivity is always the clip norm: adding or removing one contributing
    unit (example or group) changes the sum by at most one clipped gradient.
    """

    sum: GradientVector
    sensitivity: float
    contributing_count: int
    dropped_nonfinite_count: int


def clip(g: GradientVector, clip_norm: float, geometry: str = "l2") -> GradientVector:
    """Scales ``g`` to norm at most ``clip_norm``: g * min(1, C/||g||).

    Inside the ball the vector is returned unchanged (exactly); outside, it
    is scaled onto the sphere, preserving direction.
    """
    if not (clip_norm > 0.0):
        raise ValueError(f"clip_norm must be positive, got {clip_norm}")
    if geometry not in _GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    norm = vector_norm(g.values, geometry)
    if norm <= clip_norm:
        return g
    return GradientVector(g.values * (clip_norm / norm), g.layout)


def _factored_norms(factors, geometry: str):
    """Each row's gradient norm, and whether its gradient is finite, from the factors.

    A layer's norm is max|ã|·max|g| (its L∞ norm, with ã = [a, 1]) times the
    norm of the factors scaled by those maxima, which for a nonzero g lies
    in [1, √((k+1)o)] for L2 and [1, (k+1)o] for L1. Scaling before squaring
    keeps every intermediate finite where the gradient's entries are: a huge
    input paired with a zero output gradient (a saturated tanh unit) has
    norm 0, not ∞·0 = NaN. An entry aᵢgⱼ of the materialized gradient overflows exactly
    when max|ã|·max|g| does, and a non-finite factor entry always reaches
    one, so a row is finite exactly when every layer's max|ã|·max|g| is.
    """
    finite = None
    layer_norms = []
    for a, g in factors:
        a_max = np.abs(a).max(axis=1, initial=1.0)
        g_max = np.abs(g).max(axis=1, initial=0.0)
        peak = a_max * g_max
        finite = np.isfinite(peak) if finite is None else finite & np.isfinite(peak)
        if geometry == "linf":
            layer_norms.append(peak)
            continue
        a_scaled = a / a_max[:, np.newaxis]
        if geometry == "l2":
            a_sq = np.einsum("bk,bk->b", a_scaled, a_scaled, optimize=False)
            norm = np.sqrt(a_sq + a_max**-2)
        else:
            norm = np.abs(a_scaled).sum(axis=1) + 1.0 / a_max
        if g.shape[1] > 1:  # a single output's g/max|g| is ±1, or its peak is 0
            g_scaled = g / np.where(g_max > 0.0, g_max, 1.0)[:, np.newaxis]
            if geometry == "l2":
                norm *= np.sqrt(np.einsum("bo,bo->b", g_scaled, g_scaled, optimize=False))
            else:
                norm *= np.abs(g_scaled).sum(axis=1)
        layer_norms.append(peak * norm)
    combine = {"l2": np.hypot, "l1": np.add, "linf": np.maximum}[geometry]
    return functools.reduce(combine, layer_norms), finite


def _weighted_sum(factors, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Σ_b w_b [a_b, 1] ⊗ g_b in layout order: aᵀ(w⊙g), then Σ w⊙g, per layer.

    These are whole-batch reductions (BLAS for aᵀ(w⊙g)), so their order
    differs from a row-by-row sum in the last bits. weights None means 1.
    """
    parts = []
    for a, g in factors:
        wg = g if weights is None else g * weights[:, np.newaxis]
        parts.append((a.T @ wg).ravel())
        parts.append(wg.sum(axis=0))
    return np.concatenate(parts)


def grad_sum(
    model: Model, params: GradientVector, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Unclipped sum of the per-example gradients of every row.

    Nothing is dropped: a non-finite gradient makes the sum non-finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _weighted_sum(layer_factors(model, params, features, labels))


def _microbatch_bounds(n: int, microbatch_size: Optional[int]):
    m = n if microbatch_size is None else microbatch_size
    m = max(m, 1)
    return [(lo, min(lo + m, n)) for lo in range(0, n, m)] if n else []


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
    dropped_nonfinite_count. The result is independent of
    cfg.microbatch_size, which matters only at group level (see the module
    docstring).

    Args:
      model: The model whose per-example gradients are aggregated.
      params: Current parameters.
      features: (B, d) feature rows; B may be 0.
      labels: (B,) labels.
      cfg: Clip configuration.
      group_keys: (B,) integer group key per row; required for group-level
        clipping.

    Returns:
      The clipped sum with sensitivity equal to cfg.clip_norm.
    """
    n = features.shape[0]
    if labels.shape[0] != n or (group_keys is not None and len(group_keys) != n):
        raise ValueError("labels and group_keys need one entry per feature row")
    if cfg.level == "group" and group_keys is None:
        raise ValueError("group-level clipping requires group keys")
    layout = params.layout
    if cfg.level == "example":
        if n == 0:
            return ClippedGradientSum(GradientVector.zeros(layout), cfg.clip_norm, 0, 0)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            factors = layer_factors(model, params, features, labels)
            norms, finite = _factored_norms(factors, cfg.geometry)
            kept = int(np.count_nonzero(finite))
            if kept < finite.size:
                # Dropped rows are left out, not weighted by 0: 0·inf = NaN.
                factors = [(a[finite], g[finite]) for a, g in factors]
                norms = norms[finite]
            # Exactly 1.0 inside the ball, so in-ball rows enter unscaled.
            weights = np.minimum(1.0, cfg.clip_norm / norms)
            total = _weighted_sum(factors, weights)
        return ClippedGradientSum(
            sum=GradientVector(total, layout),
            sensitivity=cfg.clip_norm,
            contributing_count=kept,
            dropped_nonfinite_count=finite.size - kept,
        )

    total = np.zeros(layout.total_length, dtype=np.float64)
    contributing = 0
    dropped = 0
    # group_key -> accumulated in-group gradient; insertion order is the
    # order of first occurrence in the batch, which fixes accumulation order.
    group_sums: dict[int, np.ndarray] = {}
    for lo, hi in _microbatch_bounds(n, cfg.microbatch_size):
        rows = batch_grads(model, params, features[lo:hi], labels[lo:hi])
        for key, row in zip(group_keys[lo:hi].tolist(), rows):
            acc = group_sums.get(key)
            if acc is None:
                group_sums[key] = row.copy()
            else:
                acc += row

    for group_sum in group_sums.values():
        if not np.all(np.isfinite(group_sum)):
            dropped += 1
            continue
        total += clip(GradientVector(group_sum, layout), cfg.clip_norm, cfg.geometry).values
        contributing += 1

    return ClippedGradientSum(
        sum=GradientVector(total, layout),
        sensitivity=cfg.clip_norm,
        contributing_count=contributing,
        dropped_nonfinite_count=dropped,
    )
