"""Index-only batch selection strategies and padding utilities.

Strategies return plain integer index lists and know nothing about the
underlying dataset format, so any loader can consume them. Each strategy is
a pure function of (plan, key): iterating twice yields identical sequences.

Every plan carries a machine-readable ``amplification_valid`` flag.
Poisson-family strategies support privacy amplification by subsampling;
shuffled fixed-size batching does not, and accounting refuses to apply
amplified bounds to it. Truncated Poisson is flagged as a Poisson variant;
note that its accounting here reuses the plain-Poisson bound, which ignores
the truncation step (tight truncated-batch accounting is a known refinement
this package does not implement).

Variable-size batches can be padded to a fixed set of bucket sizes with
dummy slots (sentinel -1 plus a boolean mask) so downstream per-example
computation sees a small number of distinct shapes.
``clipping.clipped_grad_sum`` takes the gathered rows together with that
mask and skips the dummy slots.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from . import prng

POISSON = "poisson"
CYCLIC_POISSON = "cyclic-poisson"
SHUFFLED_FIXED = "shuffled-fixed"
TRUNCATED_POISSON = "truncated-poisson"

STRATEGIES = (POISSON, CYCLIC_POISSON, SHUFFLED_FIXED, TRUNCATED_POISSON)

SENTINEL = -1


def amplification_valid(strategy: str) -> bool:
    """Whether subsampling-amplified accounting applies to a strategy."""
    return strategy != SHUFFLED_FIXED


def cyclic_epoch_length(sampling_prob: float) -> int:
    """Steps per cyclic-poisson epoch: the number of shards, ceil(1/q)."""
    return math.ceil(1.0 / sampling_prob) if sampling_prob > 0 else 1


class BatchOverflowError(ValueError):
    """A batch exceeds the largest configured bucket size."""


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """A batch selection plan: strategy, dataset size, horizon, and key.

    Attributes:
      strategy: One of "poisson", "cyclic-poisson", "shuffled-fixed",
        "truncated-poisson".
      n: Dataset size.
      iterations: Number of batches to emit (T).
      sampling_prob: Per-example inclusion probability q (Poisson variants).
      batch_size: Fixed batch size B (shuffled-fixed only).
      max_batch_size: Truncation cap (truncated-poisson only).
      key: PRNG key; the sole source of randomness.
    """

    strategy: str
    n: int
    iterations: int
    key: prng.PrngKey
    sampling_prob: Optional[float] = None
    batch_size: Optional[int] = None
    max_batch_size: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n < 1:
            raise ValueError("dataset size must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.strategy in (POISSON, CYCLIC_POISSON, TRUNCATED_POISSON):
            q = self.sampling_prob
            if q is None or not (0.0 <= q <= 1.0):
                raise ValueError(f"sampling_prob must be in [0, 1], got {q}")
        if self.strategy == SHUFFLED_FIXED:
            b = self.batch_size
            if b is None or not (1 <= b <= self.n):
                raise ValueError(f"batch_size must be in [1, n], got {b}")
        if self.strategy == TRUNCATED_POISSON:
            if self.max_batch_size is None or self.max_batch_size < 0:
                raise ValueError("truncated-poisson requires max_batch_size >= 0")

    @property
    def amplification_valid(self) -> bool:
        """Whether subsampling-amplified accounting applies to this plan."""
        return amplification_valid(self.strategy)

    @property
    def privacy_warning(self) -> Optional[str]:
        if not self.amplification_valid:
            return (
                "shuffled fixed-size batching does not satisfy the Poisson "
                "sampling assumption; amplified privacy accounting is invalid "
                "for this plan"
            )
        return None


def batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """Dispatches to the iterator for plan.strategy."""
    if plan.strategy == POISSON:
        return poisson_batches(plan)
    if plan.strategy == CYCLIC_POISSON:
        return cyclic_poisson_batches(plan)
    if plan.strategy == SHUFFLED_FIXED:
        return shuffled_fixed_batches(plan)
    return truncated_poisson_batches(plan)


def poisson_batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """I.i.d. Poisson sampling: each index joins each batch with probability q.

    Batches may be empty; that is a feature, not an error, and the trainer
    must handle it (the step becomes pure noise).
    """
    if plan.strategy != POISSON:
        raise ValueError(f"plan strategy is {plan.strategy!r}, expected {POISSON!r}")
    q = plan.sampling_prob
    for t in range(plan.iterations):
        step_key = prng.fold_in(prng.fold_in(plan.key, 0), t)
        u = prng.uniform(step_key, plan.n)
        yield np.flatnonzero(u < q).astype(np.int64)


def cyclic_poisson_batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """Cyclic Poisson sampling.

    Each epoch reshuffles the dataset and partitions it into ceil(1/q)
    contiguous shards; step j of the epoch Poisson-samples the j-th shard,
    keeping each of its elements independently with probability q. Every
    index is therefore a sampling candidate exactly once per epoch.
    """
    if plan.strategy != CYCLIC_POISSON:
        raise ValueError(f"plan strategy is {plan.strategy!r}, expected {CYCLIC_POISSON!r}")
    q = plan.sampling_prob
    t = 0
    epoch = 0
    while t < plan.iterations:
        for shard in cyclic_epoch_shards(plan, epoch):
            if t >= plan.iterations:
                return
            step_key = prng.fold_in(prng.fold_in(plan.key, 0), t)
            u = prng.uniform(step_key, len(shard))
            yield shard[u < q].astype(np.int64)
            t += 1
        epoch += 1


def cyclic_epoch_shards(plan: BatchPlan, epoch: int) -> list[np.ndarray]:
    """The shard partition a cyclic-poisson plan uses in a given epoch.

    Exposed for inspection: the shards partition [0, n) exactly, and the
    epoch's batches are Poisson subsets of the corresponding shards.
    """
    if plan.strategy != CYCLIC_POISSON:
        raise ValueError(f"plan strategy is {plan.strategy!r}, expected {CYCLIC_POISSON!r}")
    perm = prng.permutation(prng.fold_in(prng.fold_in(plan.key, 1), epoch), plan.n)
    return list(np.array_split(perm, cyclic_epoch_length(plan.sampling_prob)))


def shuffled_fixed_batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """Shuffle-and-batch: the common non-private loader, for comparison only.

    Per epoch: one uniform shuffle, then consecutive batches of exactly B
    indices; a final partial batch is dropped. The plan's amplification flag
    is False -- see plan.privacy_warning.
    """
    if plan.strategy != SHUFFLED_FIXED:
        raise ValueError(f"plan strategy is {plan.strategy!r}, expected {SHUFFLED_FIXED!r}")
    b = plan.batch_size
    per_epoch = plan.n // b
    t = 0
    epoch = 0
    while t < plan.iterations:
        perm = prng.permutation(prng.fold_in(prng.fold_in(plan.key, 1), epoch), plan.n)
        for i in range(per_epoch):
            if t >= plan.iterations:
                return
            yield perm[i * b : (i + 1) * b].astype(np.int64)
            t += 1
        epoch += 1


def truncated_poisson_batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """Poisson sampling followed by truncation to at most max_batch_size."""
    if plan.strategy != TRUNCATED_POISSON:
        raise ValueError(
            f"plan strategy is {plan.strategy!r}, expected {TRUNCATED_POISSON!r}"
        )
    q = plan.sampling_prob
    for t in range(plan.iterations):
        step_key = prng.fold_in(prng.fold_in(plan.key, 0), t)
        u = prng.uniform(step_key, plan.n)
        batch = np.flatnonzero(u < q).astype(np.int64)
        yield truncate(batch, plan.max_batch_size, prng.fold_in(prng.fold_in(plan.key, 2), t))


def truncate(batch: Sequence[int], max_size: int, key: prng.PrngKey) -> np.ndarray:
    """Keeps a uniform random subset of at most ``max_size`` indices.

    Short batches pass through unchanged; long ones keep a uniform subset of
    exactly max_size, in the original order. Deterministic given the key.
    """
    if max_size < 0:
        raise ValueError(f"max_size must be non-negative, got {max_size}")
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size <= max_size:
        return batch
    keep = np.sort(prng.permutation(key, batch.size)[:max_size])
    return batch[keep]


@dataclasses.dataclass(frozen=True)
class PaddedBatch:
    """A batch padded to a bucket size; dummy slots hold -1 with mask False."""

    indices: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.mask.shape:
            raise ValueError("indices and mask must have equal length")

    @property
    def real_indices(self) -> np.ndarray:
        return self.indices[self.mask]


def pad_batch(indices: Sequence[int], bucket_sizes: Sequence[int]) -> PaddedBatch:
    """Pads ``indices`` to the smallest bucket size that fits.

    Args:
      indices: Real batch indices.
      bucket_sizes: Ascending candidate sizes; the largest must fit the batch.

    Returns:
      PaddedBatch of the chosen bucket length, real slots first.

    Raises:
      BatchOverflowError: If the batch exceeds the largest bucket; the caller
        must truncate the batch or enlarge the buckets.
    """
    if not bucket_sizes:
        raise ValueError("bucket_sizes must be non-empty")
    sizes = list(bucket_sizes)
    if sizes != sorted(sizes):
        raise ValueError("bucket_sizes must be ascending")
    indices = np.asarray(indices, dtype=np.int64)
    n = indices.size
    target = next((s for s in sizes if s >= n), None)
    if target is None:
        raise BatchOverflowError(
            f"batch of size {n} exceeds largest bucket {sizes[-1]}"
        )
    padded = np.full(target, SENTINEL, dtype=np.int64)
    padded[:n] = indices
    mask = np.zeros(target, dtype=bool)
    mask[:n] = True
    return PaddedBatch(padded, mask)
