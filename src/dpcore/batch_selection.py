"""Index-only batch selection strategies.

Strategies return plain integer index lists and know nothing about the
underlying dataset format, so any loader can consume them. Each strategy is
a pure function of (plan, key): iterating twice yields identical sequences.

This module only samples. Which strategies make a mechanism's privacy
accounting valid is decided by the trainer (``training.POLICY``).

Batches vary in size and are handed on as they are: numpy has no compiler
that would profit from padding them to a few fixed shapes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Optional

import numpy as np

from . import prng

POISSON = "poisson"
CYCLIC_POISSON = "cyclic-poisson"
SHUFFLED_FIXED = "shuffled-fixed"

STRATEGIES = (POISSON, CYCLIC_POISSON, SHUFFLED_FIXED)


def cyclic_epoch_length(sampling_prob: float) -> int:
    """Steps per cyclic-poisson epoch: the number of shards, ceil(1/q)."""
    return math.ceil(1.0 / sampling_prob) if sampling_prob > 0 else 1


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """A batch selection plan: strategy, dataset size, horizon, and key.

    Attributes:
      strategy: One of "poisson", "cyclic-poisson", "shuffled-fixed".
      n: Dataset size.
      iterations: Number of batches to emit (T).
      sampling_prob: Per-example inclusion probability q (Poisson variants).
      batch_size: Fixed batch size B (shuffled-fixed only).
      key: PRNG key; the sole source of randomness.
    """

    strategy: str
    n: int
    iterations: int
    key: prng.PrngKey
    sampling_prob: Optional[float] = None
    batch_size: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n < 1:
            raise ValueError("dataset size must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.strategy in (POISSON, CYCLIC_POISSON):
            q = self.sampling_prob
            if q is None or not (0.0 <= q <= 1.0):
                raise ValueError(f"sampling_prob must be in [0, 1], got {q}")
        if self.strategy == SHUFFLED_FIXED:
            b = self.batch_size
            if b is None or not (1 <= b <= self.n):
                raise ValueError(f"batch_size must be in [1, n], got {b}")

    @property
    def expected_batch_size(self) -> float:
        """The batch size a step's gradient sum is normalized by.

        B for shuffled-fixed batches and q·n for the Poisson family.
        """
        if self.strategy == SHUFFLED_FIXED:
            return float(self.batch_size)
        return float(self.sampling_prob) * self.n


def batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """Dispatches to the iterator for plan.strategy."""
    if plan.strategy == POISSON:
        return poisson_batches(plan)
    if plan.strategy == CYCLIC_POISSON:
        return cyclic_poisson_batches(plan)
    return shuffled_fixed_batches(plan)


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
    indices; a final partial batch is dropped. No private mechanism's
    accounting holds under it, so the trainer runs it for mechanism "none"
    only.
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
