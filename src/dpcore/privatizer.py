"""Noise addition behind a uniform stateful-update interface.

A privatizer adds banded correlated noise. Its strategy's coefficients
c_0 = 1, c_1..c_{b-1} define a unit-diagonal banded lower-triangular
Toeplitz matrix C, and the emitted noise solves C z~ = z for fresh i.i.d. z
by forward substitution, keeping only the last b-1 emitted vectors in
memory. The i.i.d. Gaussian mechanism of DP-SGD is the one-band identity
strategy: it emits the fresh noise exactly and keeps nothing.

The noise scale has one home, :func:`privatize`: the fresh noise has
stddev sigma * C * ||c||, with the noise multiplier sigma the privatizer's
one free value, the clip norm C read from the sensitivity attached to the
sum being noised, and ||c|| the strategy's sensitivity. Noise therefore
cannot disagree with the sensitivity of the sum it is added to.

Sums and noise are bare float64 arrays of the length fixed by the layout
the state is built from (:func:`init`). States are immutable values and
``privatize`` is pure: it changes neither its input nor its state, and
replaying the same (privatizer, input, state) yields identical output. An
empty-batch input (contributing_count 0) is perfectly valid and produces a
pure-noise step.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from . import matrix_factorization, prng
from .clipping import ClippedGradientSum
from .models import Layout


@dataclasses.dataclass(frozen=True)
class Privatizer:
    """A noise-addition transformation.

    Attributes:
      noise_multiplier: sigma; the fresh noise's stddev is sigma times the
        noised sum's attached sensitivity times the strategy's sensitivity.
      strategy: The banded strategy whose correlated noise is added; the
        default, the identity, is i.i.d. Gaussian noise.
    """

    noise_multiplier: float
    strategy: matrix_factorization.Strategy = matrix_factorization.IDENTITY

    def __post_init__(self):
        if not self.noise_multiplier >= 0:
            raise ValueError(
                f"noise_multiplier must be non-negative, got {self.noise_multiplier}"
            )


class PrivatizerState(NamedTuple):
    """Streaming state: step index, key chain, noise length and the band ring buffer.

    The buffer holds the most recent correlated noise vectors, newest first,
    and never exceeds bands - 1 entries.
    """

    step: int
    key: prng.PrngKey
    buffer: tuple[np.ndarray, ...]
    length: int


def init(p: Privatizer, layout: Layout, key: prng.PrngKey) -> PrivatizerState:
    """Fresh state for noise of the layout's length: step 0, empty buffer."""
    return PrivatizerState(step=0, key=key, buffer=(), length=layout.total_length)


def privatize(
    p: Privatizer, csum: ClippedGradientSum, state: PrivatizerState
) -> tuple[np.ndarray, PrivatizerState]:
    """Adds this step's noise to a clipped gradient sum.

    Args:
      p: The privatizer.
      csum: A clipped sum; its attached sensitivity scales the noise.
      state: Current streaming state.

    Returns:
      (noisy sum, next state); the noisy sum is a new array. With noise
      multiplier 0 the sum passes through exactly.

    Raises:
      ValueError: the attached sensitivity is not positive and finite, or
        the sum's shape is not the state's.
    """
    if csum.sum.shape != (state.length,):
        raise ValueError(f"sum shape {csum.sum.shape} does not match noise length {state.length}")
    if not 0.0 < csum.sensitivity < math.inf:
        raise ValueError(
            f"attached sensitivity must be positive and finite, got {csum.sensitivity}"
        )
    step_key, carry_key = prng.split(state.key, 2)
    stddev = p.noise_multiplier * csum.sensitivity * p.strategy.sensitivity
    emitted = prng.gaussian(step_key, state.length, stddev)

    c = p.strategy.coefficients
    for c_j, prev in zip(c[1:], state.buffer):
        emitted -= c_j * prev
    buffer = ((emitted,) + state.buffer)[: len(c) - 1]
    # With no band to keep, the sum goes into the fresh noise array.
    noisy = np.add(csum.sum, emitted, out=emitted if not buffer else None)
    return noisy, PrivatizerState(state.step + 1, carry_key, buffer, state.length)
