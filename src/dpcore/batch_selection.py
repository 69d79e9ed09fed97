"""Index-only batch selection: the batch policy and its one sampler.

:class:`BatchConfig` is the ``batch`` config section and the one place it is
checked. :class:`BatchPlan` binds it to a dataset size, a horizon and a key,
and checks only what that binding adds.

Step t takes a pool of candidate units and yields it whole or
Poisson-thinned, keeping each candidate independently with probability q
(:func:`prng.bernoulli`, one raw Philox word per candidate).
Poisson thins all units. Cyclic-poisson reshuffles the units each epoch,
cuts them into ceil(1/q) shards and thins shard j at the epoch's step j.
Shuffled-fixed reshuffles each epoch and takes consecutive slices of B
whole, dropping a final partial slice.

The unit is the privacy unit. It is a row unless the plan carries group
keys; then it is a group, and a batch holds every row of each group drawn
(user-level sampling, McMahan et al. 2018, arXiv:1710.06963), found by
marking the drawn groups in a boolean table and reading it at every row, in
one pass and ascending row order, with no sort per step. So a group
takes part in a Poisson step with probability q, the rate the accountant
is charged, and a cyclic-poisson epoch puts each group in one shard. Only
the Poisson family samples groups; shuffled-fixed batches count rows.

A batch is a plain integer index array, a pure function of (plan, t), and
is handed on unpadded: numpy has no compiler that would profit from a few
fixed shapes. Which strategies make a mechanism's privacy accounting valid
is decided by the trainer (``training.POLICY``).
"""

from __future__ import annotations

import dataclasses
import itertools
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
    return math.ceil(1.0 / sampling_prob)


@dataclasses.dataclass(frozen=True)
class BatchConfig:
    """A strategy and its one parameter: the inclusion probability q of the
    Poisson family, or the batch size B of shuffled-fixed. The other field
    must be left out."""

    strategy: str
    sampling_prob: Optional[float] = None
    batch_size: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        b, q = self.batch_size, self.sampling_prob
        if self.strategy == SHUFFLED_FIXED:
            if b is None or b < 1:
                raise ValueError(f"shuffled-fixed requires batch_size >= 1, got {b}")
            if q is not None:
                raise ValueError("shuffled-fixed does not read batch.sampling_prob; remove it")
        else:
            if q is None or not 0.0 < q <= 1.0:
                raise ValueError(f"{self.strategy} requires sampling_prob in (0, 1], got {q}")
            if b is not None:
                raise ValueError(f"{self.strategy} does not read batch.batch_size; remove it")


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """A batch config bound to a dataset size, a horizon and a key.

    Attributes:
      batch: The strategy and its parameter.
      n: Dataset size.
      iterations: Number of batches to emit (T).
      key: PRNG key; the sole source of randomness.
      group_keys: (n,) integer group key per row, to sample whole groups;
        None samples rows.
    """

    batch: BatchConfig
    n: int
    iterations: int
    key: prng.PrngKey
    group_keys: Optional[np.ndarray] = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dataset size must be at least 1")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        b = self.batch.batch_size
        if self.batch.strategy == SHUFFLED_FIXED and b > self.n:
            raise ValueError(f"shuffled-fixed batch_size {b} exceeds the dataset size {self.n}")
        if self.group_keys is not None:
            if self.batch.strategy == SHUFFLED_FIXED:
                raise ValueError("shuffled-fixed batches count rows; they cannot sample groups")
            if len(self.group_keys) != self.n:
                raise ValueError("group_keys need one entry per row")

    @property
    def expected_batch_size(self) -> float:
        """The batch size a step's gradient sum is normalized by.

        B for shuffled-fixed batches and q·n for the Poisson family, whose
        rows, sampled one by one or in whole groups, each take part in a step
        with probability q.
        """
        if self.batch.strategy == SHUFFLED_FIXED:
            return float(self.batch.batch_size)
        return float(self.batch.sampling_prob) * self.n


def _pools(plan: BatchPlan, n: int) -> Iterator[np.ndarray]:
    """The candidate pool of units 0..n-1 at each step t = 0, 1, ...; endless, read lazily."""
    batch = plan.batch
    if batch.strategy == POISSON:
        yield from itertools.repeat(np.arange(n))
    for epoch in itertools.count():
        perm = prng.permutation(prng.fold_in(prng.fold_in(plan.key, 1), epoch), n)
        if batch.strategy == CYCLIC_POISSON:
            yield from np.array_split(perm, cyclic_epoch_length(batch.sampling_prob))
        else:
            yield from np.split(perm[: n - n % batch.batch_size], n // batch.batch_size)


def _draws(plan: BatchPlan, n: int) -> Iterator[np.ndarray]:
    """The units drawn at each of the T steps: the pool, whole or Poisson-thinned at rate q.

    A Poisson pool is 0..n-1, so its thinned pool is the positions kept.
    """
    batch = plan.batch
    for t, pool in zip(range(plan.iterations), _pools(plan, n)):
        if batch.strategy == SHUFFLED_FIXED:
            yield pool.astype(np.int64, copy=False)
            continue
        key = prng.fold_in(prng.fold_in(plan.key, 0), t)
        keep = prng.bernoulli(key, pool.size, batch.sampling_prob)
        yield keep.nonzero()[0] if batch.strategy == POISSON else pool[keep]


def batches(plan: BatchPlan) -> Iterator[np.ndarray]:
    """The plan's T batches of row indices.

    Without group keys a batch is the rows drawn. With them, it is every
    row of the groups drawn, in ascending row order. Poisson batches may be
    empty; that is a feature, not an error, and the trainer must handle it
    (the step becomes pure noise).
    """
    if plan.group_keys is None:
        return _draws(plan, plan.n)
    groups, group_of = np.unique(plan.group_keys, return_inverse=True)

    def rows(drawn: np.ndarray) -> np.ndarray:
        keep = np.zeros(groups.size, dtype=bool)
        keep[drawn] = True
        return keep[group_of].nonzero()[0]

    return map(rows, _draws(plan, groups.size))
