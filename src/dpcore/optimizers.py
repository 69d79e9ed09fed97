"""Post-privatization parameter update rules: SGD and AdamW.

An update reads the (already noised and normalized) gradient and the
parameters, flat arrays of one length, and returns the new parameters in a
fresh 64-byte-aligned array (:func:`models.aligned_empty`), computed there
in the formulas' order. AdamW advances its state's moments in place.

Gradient normalization (dividing the noisy sum by the expected batch size)
is the trainer's job, before the optimizer: the privatizer's output stays
an unnormalized sum so its sensitivity statement remains exact.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .models import Layout, aligned_empty

ADAMW_DEFAULTS = dict(beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)


def _check(array: np.ndarray, params: np.ndarray) -> None:
    # Without it a one-entry gradient would broadcast over every parameter.
    if array.shape != params.shape:
        raise ValueError(f"shape {array.shape} does not match the parameter shape {params.shape}")


def sgd_update(lr: float, grad: np.ndarray, params: np.ndarray) -> np.ndarray:
    """params + (-lr * grad); stateless."""
    _check(grad, params)
    new = np.multiply(grad, -lr, out=aligned_empty(params.size))
    new += params
    return new


@dataclasses.dataclass
class AdamWState:
    """The step count and the two moments; :func:`adamw_update` advances them in place."""

    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def adamw_init(layout: Layout) -> AdamWState:
    return AdamWState(0, np.zeros(layout.total_length), np.zeros(layout.total_length))


def adamw_update(
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
    grad: np.ndarray,
    state: AdamWState,
    params: np.ndarray,
) -> np.ndarray:
    """One AdamW step with bias correction and decoupled weight decay.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
    params - lr * ( m_hat / (sqrt(v_hat) + eps) + weight_decay * params )
    """
    _check(grad, params)
    m, v = state.first_moment, state.second_moment
    _check(m, params)
    state.step = t = state.step + 1
    term = grad * grad
    term *= 1.0 - beta2
    v *= beta2
    v += term
    new = np.multiply(grad, 1.0 - beta1, out=aligned_empty(params.size))
    m *= beta1
    m += new
    np.divide(m, 1.0 - beta1**t, out=new)  # m_hat
    np.divide(v, 1.0 - beta2**t, out=term)  # v_hat
    np.sqrt(term, out=term)
    term += eps
    new /= term
    new += np.multiply(params, weight_decay, out=term)
    new *= -lr
    new += params
    return new
