"""Reference differentiable models with exact per-example gradients.

Three desk-scale models (linear regression, logistic regression, and a
one-hidden-layer MLP) implemented with explicit backprop in numpy. They are
the substrate the clipping machinery operates on; everything downstream is
model-agnostic.

All parameters and gradients travel as :class:`GradientVector`, a flat
float64 array with a named segment layout, so optimizer and noise code never
needs to know the model structure.

Examples travel as arrays, never as per-example objects: a batch is a
(B, d) feature matrix and a (B,) label vector, and :func:`batch_grads` and
:func:`batch_losses` return one row or entry per example. A single example
is a batch of one row.

One backprop, :func:`layer_factors`, returns each layer's per-example
gradient in factored form, (inputs, output grads), since an affine layer's
gradient is their outer product. :func:`batch_grads` materializes those
outer products; example-level clipping works on the factors directly.

Row-local math (the forward pass, the backprop, the outer products) avoids
BLAS-backed reductions (``np.einsum`` with its default fixed-order C loops)
so that a given example's factors and gradient row are bit-identical
regardless of how the batch is sliced into microbatches. Whole-batch
reductions, such as the clipped sum's ``aᵀ(f⊙g)``, may use BLAS (``@``):
their result depends on the whole batch anyway, and at B=200, d=20, h=128
``x.T @ g`` took about 19 µs against 127 µs for the fixed-order einsum
(one BLAS thread on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from . import prng

_EINSUM_OPTS = dict(optimize=False)


@dataclasses.dataclass(frozen=True)
class Layout:
    """Named segmentation of a flat parameter/gradient vector."""

    segments: tuple[tuple[str, int, int], ...]

    @functools.cached_property
    def total_length(self) -> int:
        return sum(length for _, _, length in self.segments)

    def slice_of(self, name: str) -> slice:
        for seg_name, offset, length in self.segments:
            if seg_name == name:
                return slice(offset, offset + length)
        raise KeyError(f"no segment named {name!r}")


def _make_layout(sizes: list[tuple[str, int]]) -> Layout:
    segments = []
    offset = 0
    for name, length in sizes:
        segments.append((name, offset, length))
        offset += length
    return Layout(tuple(segments))


@dataclasses.dataclass(frozen=True)
class GradientVector:
    """A flat float64 vector with a named segment layout.

    Used for parameters, gradients, optimizer moments, and noise. Arithmetic
    is only defined between vectors with identical layouts. Treat instances
    as immutable; operations return new vectors.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if self.values.shape[0] != self.layout.total_length:
            raise ValueError(
                f"values length {self.values.shape[0]} does not match layout "
                f"length {self.layout.total_length}"
            )

    def _check_layout(self, other: "GradientVector") -> None:
        if self.layout != other.layout:
            raise ValueError("gradient vectors have different layouts")

    def __add__(self, other: "GradientVector") -> "GradientVector":
        self._check_layout(other)
        return GradientVector(self.values + other.values, self.layout)

    def segment(self, name: str) -> np.ndarray:
        return self.values[self.layout.slice_of(name)]

    @classmethod
    def zeros(cls, layout: Layout) -> "GradientVector":
        return cls(np.zeros(layout.total_length, dtype=np.float64), layout)


@dataclasses.dataclass(frozen=True)
class Dataset:
    """An in-memory dataset of examples sharing one feature dimension."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    task: str  # "regression" | "binary-classification"
    group_keys: Optional[np.ndarray] = None  # (n,) int, optional

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be (n, d)")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels length must match features")
        if self.task not in ("regression", "binary-classification"):
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


LINEAR = "linear"
LOGISTIC = "logistic"
MLP = "mlp"


@dataclasses.dataclass(frozen=True)
class Model:
    """Model architecture descriptor.

    kinds:
      linear:   w.x + b with squared-error loss 0.5*(z - y)^2
      logistic: sigmoid(w.x + b) with log loss
      mlp:      one hidden layer (relu or tanh), log or mse loss
    """

    kind: str
    input_dim: int
    hidden_dim: int = 0
    activation: str = "relu"  # mlp only
    loss: str = "log"  # mlp only: "log" | "mse"

    def __post_init__(self):
        if self.kind not in (LINEAR, LOGISTIC, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        if self.kind == MLP:
            if self.hidden_dim < 1:
                raise ValueError("mlp hidden_dim must be at least 1")
            if self.activation not in ("relu", "tanh"):
                raise ValueError(f"unknown activation {self.activation!r}")
            if self.loss not in ("log", "mse"):
                raise ValueError(f"unknown loss {self.loss!r}")

    def layout(self) -> Layout:
        d, h = self.input_dim, self.hidden_dim
        if self.kind in (LINEAR, LOGISTIC):
            return _make_layout([("w", d), ("b", 1)])
        return _make_layout([("w1", d * h), ("b1", h), ("w2", h), ("b2", 1)])

    def param_count(self) -> int:
        return self.layout().total_length


def init_params(model: Model, key: prng.PrngKey) -> GradientVector:
    """Deterministic init: weights N(0, 1/fan_in), biases exactly zero."""
    layout = model.layout()
    values = np.zeros(layout.total_length, dtype=np.float64)
    d, h = model.input_dim, model.hidden_dim
    if model.kind in (LINEAR, LOGISTIC):
        weight_segs = [("w", d)]
    else:
        weight_segs = [("w1", d), ("w2", h)]
    keys = prng.split(key, len(weight_segs))
    for (name, fan_in), k in zip(weight_segs, keys):
        sl = layout.slice_of(name)
        length = sl.stop - sl.start
        values[sl] = prng.gaussian(k, length, 1.0 / np.sqrt(fan_in))
    return GradientVector(values, layout)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # expit, written out to keep the dependency surface of this module tiny:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without branches.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # -[y log p + (1-y) log(1-p)] with p = sigmoid(z), in the stable form
    # softplus(z) - y*z.
    return np.logaddexp(0.0, z) - y * z


def batch_losses(
    model: Model, params: GradientVector, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-example losses for a (B, d) feature matrix. Vectorized.

    Non-finite features flow through as non-finite losses without warnings;
    rejecting or zeroing them is the caller's policy (see clipping).
    """
    if features.shape[1] != model.input_dim:
        raise ValueError("feature dimension mismatch")
    with np.errstate(invalid="ignore", over="ignore"):
        return _batch_losses_impl(model, params, features, labels)


def _batch_losses_impl(model, params, features, labels):
    if model.kind == LINEAR:
        z = np.einsum("bd,d->b", features, params.segment("w"), **_EINSUM_OPTS)
        z = z + params.segment("b")[0]
        return 0.5 * (z - labels) ** 2
    if model.kind == LOGISTIC:
        z = np.einsum("bd,d->b", features, params.segment("w"), **_EINSUM_OPTS)
        z = z + params.segment("b")[0]
        return _log_loss(z, labels)
    # mlp
    z, _, _ = _mlp_forward(model, params, features)
    if model.loss == "log":
        return _log_loss(z, labels)
    return 0.5 * (z - labels) ** 2


def _mlp_forward(model: Model, params: GradientVector, features: np.ndarray):
    d, h = model.input_dim, model.hidden_dim
    w1 = params.segment("w1").reshape(d, h)
    pre = np.einsum("bd,dh->bh", features, w1, **_EINSUM_OPTS) + params.segment("b1")
    if model.activation == "relu":
        act = np.maximum(pre, 0.0)
    else:
        act = np.tanh(pre)
    z = np.einsum("bh,h->b", act, params.segment("w2"), **_EINSUM_OPTS)
    z = z + params.segment("b2")[0]
    return z, pre, act


def layer_factors(
    model: Model, params: GradientVector, features: np.ndarray, labels: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-example gradients in factored form: one (inputs, output grads) pair per layer.

    Every layer is affine, so an example's gradient for the layer's weight
    and bias segments is the outer product ``[a, 1] ⊗ g`` of its input row
    ``a`` (k entries) and its output-gradient row ``g`` (o entries),
    flattened row-major: the k*o weight entries, then the o bias entries.
    Layers come in layout order, each as (a (B, k), g (B, o)):

      linear, logistic: (x, dz) for (w, b)
      mlp:              (x, d_pre) for (w1, b1), then (act, dz) for (w2, b2)

    This is the one backprop of the module; :func:`batch_grads` materializes
    its outer products.
    """
    if features.shape[1] != model.input_dim:
        raise ValueError("feature dimension mismatch")
    with np.errstate(invalid="ignore", over="ignore"):
        return _layer_factors_impl(model, params, features, labels)


def _layer_factors_impl(model, params, features, labels):
    if model.kind in (LINEAR, LOGISTIC):
        z = np.einsum("bd,d->b", features, params.segment("w"), **_EINSUM_OPTS)
        z = z + params.segment("b")[0]
        if model.kind == LINEAR:
            dz = z - labels
        else:
            dz = _sigmoid(z) - labels
        return ((features, dz[:, np.newaxis]),)
    z, pre, act = _mlp_forward(model, params, features)
    if model.loss == "log":
        dz = _sigmoid(z) - labels
    else:
        dz = z - labels
    d_act = dz[:, np.newaxis] * params.segment("w2")[np.newaxis, :]
    if model.activation == "relu":
        d_pre = d_act * (pre > 0.0)
    else:
        d_pre = d_act * (1.0 - np.tanh(pre) ** 2)
    return ((features, d_pre), (act, dz[:, np.newaxis]))


def batch_grads(
    model: Model, params: GradientVector, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-example gradients, one row per example, shape (B, P).

    Each row is the concatenation of the layer outer products ``[a, 1] ⊗ g``
    of :func:`layer_factors`. The rows are a pure per-example function of
    (params, example): slicing the batch differently yields bit-identical
    rows.
    """
    n = features.shape[0]
    grads = np.empty((n, params.layout.total_length), dtype=np.float64)
    offset = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for a, g in layer_factors(model, params, features, labels):
            k, o = a.shape[1], g.shape[1]
            outer = np.einsum("bk,bo->bko", a, g, **_EINSUM_OPTS)
            grads[:, offset : offset + k * o] = outer.reshape(n, k * o)
            grads[:, offset + k * o : offset + (k + 1) * o] = g
            offset += (k + 1) * o
    return grads


def dataset_mean_loss(model: Model, params: GradientVector, dataset: Dataset) -> float:
    """Mean per-example loss over a dataset, ignoring non-finite entries."""
    losses = batch_losses(model, params, dataset.features, dataset.labels)
    finite = losses[np.isfinite(losses)]
    if finite.size == 0:
        return float("nan")
    return float(np.mean(finite))
