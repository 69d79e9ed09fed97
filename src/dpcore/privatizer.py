"""Noise addition behind a uniform stateful-update interface.

A privatizer adds banded correlated noise. With band coefficients
c_0 = 1, c_1..c_{b-1} defining a unit-diagonal banded lower-triangular
Toeplitz matrix C, the emitted noise solves C z~ = z for fresh i.i.d. z by
forward substitution, keeping only the last b-1 emitted vectors in memory.
The i.i.d. Gaussian mechanism of DP-SGD is the one-band case,
coefficients (1.0,): it emits the fresh noise exactly and keeps nothing.

A privatizer records the sensitivity it was calibrated for and refuses
inputs whose attached sensitivity disagrees; this is the configuration
drift the attached-sensitivity design exists to catch.

States are immutable values and ``privatize`` is pure: replaying the same
(privatizer, input, state) yields identical output. An empty-batch input
(contributing_count 0) is perfectly valid and produces a pure-noise step.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import prng
from .clipping import ClippedGradientSum
from .models import GradientVector, Layout


class SensitivityMismatchError(ValueError):
    """Noise calibration disagrees with the mechanism's attached sensitivity."""


@dataclasses.dataclass(frozen=True)
class Privatizer:
    """A noise-addition transformation.

    Attributes:
      noise_stddev: Total standard deviation of the fresh noise injected per
        step, i.e. noise multiplier times the sensitivity the mechanism was
        calibrated for (times the strategy sensitivity for banded noise).
      sensitivity: The sensitivity this privatizer's noise was calibrated
        for; checked against every input.
      coefficients: Band coefficients c_0..c_{b-1} with c_0 = 1, the
        normalization ``matrix_factorization.Strategy`` enforces. The
        default (1.0,) is i.i.d. Gaussian noise.
    """

    noise_stddev: float
    sensitivity: float
    coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.noise_stddev < 0:
            raise ValueError(f"noise_stddev must be non-negative, got {self.noise_stddev}")
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if not self.coefficients or self.coefficients[0] != 1.0:
            raise ValueError("band coefficients must start with c_0 = 1")


@dataclasses.dataclass(frozen=True)
class PrivatizerState:
    """Streaming state: step index, key chain, and the band ring buffer.

    The buffer holds the most recent correlated noise vectors, newest first,
    and never exceeds len(coefficients) - 1 entries.
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
      csum: A clipped sum whose attached sensitivity must equal the
        sensitivity ``p`` was calibrated for.
      state: Current streaming state.

    Returns:
      (noisy sum, next state). With noise_stddev 0 the sum passes through
      exactly.

    Raises:
      SensitivityMismatchError: calibration/configuration drift.
      ValueError: layout mismatch between input and state.
    """
    if csum.sum.layout != state.layout:
        raise ValueError("input layout does not match privatizer state layout")
    if not math.isclose(p.sensitivity, csum.sensitivity, rel_tol=1e-12, abs_tol=0.0):
        raise SensitivityMismatchError(
            f"privatizer calibrated for sensitivity {p.sensitivity} but input "
            f"has sensitivity {csum.sensitivity}; noise scale would not match "
            "the mechanism configuration"
        )
    step_key, carry_key = prng.split(state.key, 2)
    dim = state.layout.total_length
    fresh = prng.gaussian(step_key, dim, p.noise_stddev)

    c = p.coefficients
    emitted = fresh
    for c_j, prev in zip(c[1:], state.buffer):
        emitted = emitted - c_j * prev
    buffer = ((emitted,) + state.buffer)[: len(c) - 1]

    noisy = GradientVector(csum.sum.values + emitted, state.layout)
    next_state = PrivatizerState(
        step=state.step + 1, key=carry_key, buffer=buffer, layout=state.layout
    )
    return noisy, next_state

