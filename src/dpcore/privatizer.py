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

States are immutable values and ``privatize`` is pure: replaying the same
(privatizer, input, state) yields identical output. An empty-batch input
(contributing_count 0) is perfectly valid and produces a pure-noise step.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import matrix_factorization, prng
from .clipping import ClippedGradientSum
from .models import GradientVector, Layout


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


@dataclasses.dataclass(frozen=True)
class PrivatizerState:
    """Streaming state: step index, key chain, and the band ring buffer.

    The buffer holds the most recent correlated noise vectors, newest first,
    and never exceeds bands - 1 entries.
    """

    step: int
    key: prng.PrngKey
    buffer: tuple[np.ndarray, ...]
    layout: Layout


def init(p: Privatizer, layout: Layout, key: prng.PrngKey) -> PrivatizerState:
    """Fresh state: step 0, empty buffer."""
    return PrivatizerState(step=0, key=key, buffer=(), layout=layout)


def privatize(
    p: Privatizer, csum: ClippedGradientSum, state: PrivatizerState
) -> tuple[GradientVector, PrivatizerState]:
    """Adds this step's noise to a clipped gradient sum.

    Args:
      p: The privatizer.
      csum: A clipped sum; its attached sensitivity scales the noise.
      state: Current streaming state.

    Returns:
      (noisy sum, next state). With noise multiplier 0 the sum passes
      through exactly.

    Raises:
      ValueError: the attached sensitivity is not positive and finite, or
        the input's layout does not match the state's.
    """
    if csum.sum.layout != state.layout:
        raise ValueError("input layout does not match privatizer state layout")
    if not 0.0 < csum.sensitivity < math.inf:
        raise ValueError(
            f"attached sensitivity must be positive and finite, got {csum.sensitivity}"
        )
    step_key, carry_key = prng.split(state.key, 2)
    dim = state.layout.total_length
    stddev = p.noise_multiplier * csum.sensitivity * p.strategy.sensitivity
    fresh = prng.gaussian(step_key, dim, stddev)

    c = p.strategy.coefficients
    emitted = fresh
    for c_j, prev in zip(c[1:], state.buffer):
        emitted = emitted - c_j * prev
    buffer = ((emitted,) + state.buffer)[: len(c) - 1]

    noisy = GradientVector(csum.sum.values + emitted, state.layout)
    next_state = PrivatizerState(
        step=state.step + 1, key=carry_key, buffer=buffer, layout=state.layout
    )
    return noisy, next_state

