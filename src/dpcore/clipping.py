"""Per-example and per-group gradient clipping with attached sensitivity.

The central operation, :func:`clipped_grad_sum`, takes a batch as gathered
arrays (features, labels, optional group keys) plus an optional validity
mask for padded slots. It partitions the batch into microbatches, computes
per-example gradients of the real rows within each, clips per example (or
per group, after in-group summation), and accumulates contributions in
batch order. The microbatch size trades peak memory for vectorization and
never changes the result: accumulation order is fixed, so outputs are
bit-identical across microbatch sizes.

The returned sum carries its sensitivity (the clip norm, under add/remove
adjacency of one example or one group) so noise calibration downstream can
be checked against the mechanism configuration instead of trusted.

Non-finite per-unit gradients are replaced by the zero vector and counted;
a zero vector lies inside every clip ball, so the sensitivity bound is
unaffected and training proceeds.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .models import GradientVector, Model, batch_grads, vector_norm

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
      microbatch_size: Number of examples whose gradients are materialized at
        once; None means the full batch.
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


def _row_norms(rows: np.ndarray, geometry: str) -> np.ndarray:
    if geometry == "l2":
        return np.sqrt(np.einsum("bp,bp->b", rows, rows, optimize=False))
    if geometry == "l1":
        return np.sum(np.abs(rows), axis=1)
    return np.max(np.abs(rows), axis=1)


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
    mask: Optional[np.ndarray] = None,
) -> ClippedGradientSum:
    """Sums clipped per-unit gradients over a batch of gathered rows.

    Masked-out rows (padding) are never differentiated and contribute
    nothing. Any unit (example, or group sum at group level) whose gradient
    has a non-finite component is replaced by zero and counted in
    dropped_nonfinite_count. The result is independent of
    cfg.microbatch_size.

    Args:
      model: The model whose per-example gradients are aggregated.
      params: Current parameters.
      features: (B, d) feature rows; B may be 0.
      labels: (B,) labels.
      cfg: Clip configuration.
      group_keys: (B,) integer group key per row; required for group-level
        clipping.
      mask: (B,) bool, False for padding rows; None means every row is real.

    Returns:
      The clipped sum with sensitivity equal to cfg.clip_norm.
    """
    n = features.shape[0]
    if labels.shape[0] != n or any(a is not None and len(a) != n for a in (group_keys, mask)):
        raise ValueError("labels, group_keys and mask need one entry per feature row")
    if cfg.level == "group" and group_keys is None:
        raise ValueError("group-level clipping requires group keys")
    layout = params.layout
    total = np.zeros(layout.total_length, dtype=np.float64)
    contributing = 0
    dropped = 0
    # group_key -> accumulated in-group gradient; insertion order is the
    # order of first occurrence in the batch, which fixes accumulation order.
    group_sums: dict[int, np.ndarray] = {}

    for lo, hi in _microbatch_bounds(n, cfg.microbatch_size):
        real = slice(lo, hi) if mask is None else lo + np.flatnonzero(mask[lo:hi])
        chunk = features[real]
        if chunk.shape[0] == 0:
            continue
        rows = batch_grads(model, params, chunk, labels[real])
        if cfg.level == "example":
            # Norms, factors, and scaling are row-local, so vectorizing them
            # cannot change any row's bits; only the accumulation below must
            # stay sequential (fixed order across microbatch sizes). A factor
            # of exactly 1.0 leaves in-ball rows bit-identical.
            finite = np.isfinite(rows).all(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                norms = _row_norms(rows, cfg.geometry)
                factors = np.where(norms <= cfg.clip_norm, 1.0, cfg.clip_norm / norms)
                clipped_rows = rows * factors[:, np.newaxis]
            kept = np.flatnonzero(finite)
            for i in kept:
                total += clipped_rows[i]
            contributing += kept.size
            dropped += rows.shape[0] - kept.size
        else:
            for key, row in zip(group_keys[real].tolist(), rows):
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
