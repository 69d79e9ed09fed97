"""Reference differentiable models with exact per-example gradients.

Three desk-scale models (linear regression, logistic regression, and a
one-hidden-layer MLP) implemented with explicit backprop in numpy. They are
the substrate the clipping machinery operates on; everything downstream is
model-agnostic.

Parameters and gradients travel as flat float64 arrays in :class:`Layout`
order, so optimizer and noise code never needs to know the model structure;
:func:`init_params` returns them with their checked layout, a GradientVector.

Examples travel as arrays, never as per-example objects: a batch is a
(B, d) feature matrix and a (B,) label vector, and :func:`batch_grads` and
:func:`batch_losses` return one row or entry per example. A single example
is a batch of one row.

One backprop, :func:`layer_factors`, returns each layer's per-example
gradient in factored form, (inputs, output grads), since an affine layer's
gradient is their outer product. Clipping, at either level, works on the
factors directly. :func:`batch_grads` materializes the outer products as
B×P rows; nothing in the training path calls it, and it stays as the
reference that the gradient checks and the clipping oracle of the tests
compare against.

Every per-example quantity (the forward pass, the backprop, the outer
products) is row-local: a given example's factors, loss and gradient row are
bit-identical however the batch is sliced into microbatches. The inputs are
made C-contiguous first. The MLP's matrix products then run one row at a
time, ``(x[:, None, :] @ w1)[:, 0, :]``: numpy's matmul makes the same BLAS
call (a vector-matrix product) for every row of a stack, so a row's result
does not depend on the rows around it. At B=200, d=20, h=128 that took about
62 µs against 210 µs for a fixed-order ``np.einsum`` over the whole batch,
while a single whole-batch ``x @ w1`` would let BLAS block rows together and
change their last bits (one BLAS thread on a 2-vCPU x86-64 host). The linear
and logistic models keep the fixed-order einsum; their one product is a dot
per row. Whole-batch reductions, such as clipping's sum over the rows, may
use any BLAS call: their result depends on the whole batch anyway.

BLAS runs faster on arrays that start on a 64-byte boundary (the first
per-row product: 25 against 35 µs at B=175, d=20, h=128 with ``w1``, the
first segment, aligned). So parameters, the first product's output and
``d_pre`` come from :func:`aligned_empty`, one address read each.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
from typing import Optional

import numpy as np

from . import prng

_EINSUM_OPTS = dict(optimize=False)
# batch_losses works through the rows in blocks of at most this many entries
# of its widest temporary (96 KiB of float64). Blocks below glibc's default
# mmap threshold (128 KiB) reuse freed heap memory; a whole-dataset pass of
# B×h temporaries instead faulted in fresh pages on every call (about 970
# page faults, half of the pass at n=2000, h=128).
_LOSS_BLOCK_ENTRIES = 12_288


@dataclasses.dataclass(frozen=True)
class Layout:
    """Named segmentation of a flat parameter/gradient vector."""

    segments: tuple[tuple[str, int, int], ...]

    @functools.cached_property
    def total_length(self) -> int:
        return sum(length for _, _, length in self.segments)

    @functools.cached_property
    def _slices(self) -> dict[str, slice]:
        return {name: slice(offset, offset + length) for name, offset, length in self.segments}

    def slice_of(self, name: str) -> slice:
        try:
            return self._slices[name]
        except KeyError:
            raise KeyError(f"no segment named {name!r}") from None


def _make_layout(sizes: list[tuple[str, int]]) -> Layout:
    segments = []
    offset = 0
    for name, length in sizes:
        segments.append((name, offset, length))
        offset += length
    return Layout(tuple(segments))


@dataclasses.dataclass(frozen=True)
class GradientVector:
    """Parameters as a caller receives them: a flat float64 vector with its checked layout."""

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

    def segment(self, name: str) -> np.ndarray:
        return self.values[self.layout.slice_of(name)]


def aligned_empty(length: int) -> np.ndarray:
    """An uninitialized float64 array of ``length`` entries starting on a 64-byte boundary."""
    buffer = np.empty(length + 7, dtype=np.float64)
    # The address through ctypes.c_char costs 0.3 µs; buffer.ctypes.data, 1.3 µs.
    start = (-ctypes.addressof(ctypes.c_char.from_buffer(buffer)) % 64) // 8
    return buffer[start : start + length]


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
        keys = self.group_keys
        if keys is not None and not (isinstance(keys, np.ndarray) and keys.shape == (self.size,)
                                     and keys.dtype.kind in "iu"):
            raise ValueError("group_keys must be an integer array with one key per row")

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

    @property
    def log_loss(self) -> bool:
        """Whether the model trains on log loss (labels in [0, 1]) rather than squared error."""
        return self.kind == LOGISTIC or (self.kind == MLP and self.loss == "log")

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
    values = aligned_empty(layout.total_length)
    values[:] = 0.0
    d, h = model.input_dim, model.hidden_dim
    weight_segs = [("w", d)] if model.kind in (LINEAR, LOGISTIC) else [("w1", d), ("w2", h)]
    for (name, fan_in), k in zip(weight_segs, prng.split(key, len(weight_segs))):
        sl = layout.slice_of(name)
        values[sl] = prng.gaussian(k, sl.stop - sl.start, 1.0 / np.sqrt(fan_in))
    return GradientVector(values, layout)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # expit, written out to keep the dependency surface of this module tiny:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without branches.
    # copysign(z, -1) is -|z| in one call, NaN payloads included.
    e = np.exp(np.copysign(z, -1.0))
    p = np.where(z >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # -[y log p + (1-y) log(1-p)] with p = sigmoid(z), in the stable form
    # softplus(z) - y*z.
    return np.logaddexp(0.0, z) - y * z


def batch_losses(
    model: Model, params: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-example losses for a (B, d) feature matrix. Vectorized.

    Non-finite features flow through as non-finite losses without warnings;
    rejecting or zeroing them is the caller's policy (see clipping). The
    rows go through in blocks; losses are row-local, so the blocking leaves
    every entry bit-identical.
    """
    if features.shape[1] != model.input_dim:
        raise ValueError("feature dimension mismatch")
    features = np.ascontiguousarray(features)
    # The widest temporary is the MLP's (rows, h) hidden layer; the others are (rows,).
    block = max(1, _LOSS_BLOCK_ENTRIES // max(1, model.hidden_dim))
    weights = _weights(model, params)
    losses = np.empty(features.shape[0], dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, losses.size, block):
            rows = slice(lo, lo + block)
            losses[rows] = _batch_losses_impl(model, weights, features[rows], labels[rows])
    return losses


def _weights(model: Model, params: np.ndarray) -> tuple:
    """Views of the segments of :meth:`Model.layout`: (w, b), or (w1 as (d, h), b1, w2, b2).

    Each bias of one entry is read as a scalar.
    """
    d, h = model.input_dim, model.hidden_dim
    if model.kind in (LINEAR, LOGISTIC):
        return params[:d], params[d]
    w, b = d * h, d * h + h  # the ends of the w1 and b1 segments
    return params[:w].reshape(d, h), params[w:b], params[b : b + h], params[b + h]


def _linear_forward(weights, features: np.ndarray) -> np.ndarray:
    w, b = weights
    z = np.einsum("bd,d->b", features, w, **_EINSUM_OPTS)
    z += b
    return z


def _batch_losses_impl(model, weights, features, labels):
    if model.kind == MLP:
        z, _ = _mlp_forward(model, weights, features)
    else:
        z = _linear_forward(weights, features)
    if model.log_loss:
        return _log_loss(z, labels)
    return 0.5 * (z - labels) ** 2


def _mlp_forward(model: Model, weights, features: np.ndarray):
    # One product per row (see the module docstring); features is C-contiguous.
    w1, b1, w2, b2 = weights
    out = aligned_empty(features.shape[0] * w1.shape[1]).reshape(-1, 1, w1.shape[1])
    pre = np.matmul(features[:, np.newaxis, :], w1, out=out)[:, 0, :]
    pre += b1
    if model.activation == "relu":
        act = np.maximum(pre, 0.0, out=pre)
    else:
        act = np.tanh(pre, out=pre)
    z = (act[:, np.newaxis, :] @ w2)[:, 0]
    z += b2
    return z, act


def layer_factors(
    model: Model, params: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-example gradients in factored form: one (inputs, output grads) pair per layer.

    Every layer is affine, so an example's gradient for the layer's weight
    and bias segments is the outer product ``[a, 1] ⊗ g`` of its input row
    ``a`` (k entries) and its output-gradient row ``g`` (o entries),
    flattened row-major: the k*o weight entries, then the o bias entries.
    Layers come in layout order, each as (a (B, k), g (B, o)):

      linear, logistic: (x, dz) for (w, b)
      mlp:              (x, d_pre) for (w1, b1), then (act, dz) for (w2, b2)

    The x returned is the features made C-contiguous. This is the one
    backprop of the module; :func:`batch_grads` materializes its outer
    products.

    It runs under the caller's ``np.errstate``: non-finite features give
    non-finite factors, and every caller in the package silences the
    overflow and invalid-value warnings that come with them.
    """
    if features.shape[1] != model.input_dim:
        raise ValueError("feature dimension mismatch")
    features = np.ascontiguousarray(features)
    weights = _weights(model, params)
    if model.kind == MLP:
        z, act = _mlp_forward(model, weights, features)
    else:
        z = _linear_forward(weights, features)
    # dloss/dz is p - y for the log loss (p = sigmoid(z)) and z - y for mse.
    dz = _sigmoid(z) if model.log_loss else z
    dz -= labels
    if model.kind != MLP:
        return ((features, dz[:, np.newaxis]),)
    # The einsum takes half the time of np.multiply.outer, but adds each
    # product to +0: a −0 product comes out +0, the one difference.
    d_pre = aligned_empty(act.size).reshape(act.shape)
    np.einsum("b,h->bh", dz, weights[2], out=d_pre, **_EINSUM_OPTS)
    if model.activation == "relu":
        d_pre *= act > 0.0  # act = max(pre, 0) > 0 exactly where pre > 0, NaN included
    else:
        d_pre *= 1.0 - act * act
    return ((features, d_pre), (act, dz[:, np.newaxis]))


def batch_grads(
    model: Model, params: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-example gradients, one row per example, shape (B, P).

    Each row is the concatenation of the layer outer products ``[a, 1] ⊗ g``
    of :func:`layer_factors`. The rows are a pure per-example function of
    (params, example): slicing the batch differently yields bit-identical
    rows.
    """
    n = features.shape[0]
    grads = np.empty((n, params.size), dtype=np.float64)
    offset = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for a, g in layer_factors(model, params, features, labels):
            k, o = a.shape[1], g.shape[1]
            outer = np.einsum("bk,bo->bko", a, g, **_EINSUM_OPTS)
            grads[:, offset : offset + k * o] = outer.reshape(n, k * o)
            grads[:, offset + k * o : offset + (k + 1) * o] = g
            offset += (k + 1) * o
    return grads


def dataset_mean_loss(model: Model, params: np.ndarray, dataset: Dataset) -> float:
    """Mean per-example loss over a dataset, ignoring non-finite entries."""
    losses = batch_losses(model, params, dataset.features, dataset.labels)
    finite = losses[np.isfinite(losses)]
    if finite.size == 0:
        return float("nan")
    return float(np.mean(finite))
