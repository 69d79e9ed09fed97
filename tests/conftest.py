import numpy as np
import pytest
import scipy.linalg

from dpcore import models, prng


@pytest.fixture
def rng():
    return np.random.default_rng(0xD5EED)


def random_model(rng) -> models.Model:
    kind = rng.choice(["linear", "logistic", "mlp"])
    d = int(rng.integers(2, 8))
    if kind == "mlp":
        return models.Model(
            kind="mlp",
            input_dim=d,
            hidden_dim=int(rng.integers(2, 7)),
            activation=str(rng.choice(["relu", "tanh"])),
            loss=str(rng.choice(["log", "mse"])),
        )
    return models.Model(kind=str(kind), input_dim=d)


def random_example(rng, d: int, classification: bool):
    """One example as a one-row batch: features (1, d), labels (1,)."""
    x = rng.standard_normal(d)
    y = float(rng.integers(0, 2)) if classification else float(rng.standard_normal())
    return x[np.newaxis, :], np.array([y])


def random_batch(rng, d: int, size: int, classification: bool = True):
    """``size`` examples drawn one after another: features (size, d), labels (size,)."""
    rows = [random_example(rng, d, classification) for _ in range(size)]
    features = np.concatenate([x for x, _ in rows]) if rows else np.zeros((0, d))
    labels = np.concatenate([y for _, y in rows]) if rows else np.zeros(0)
    return features, labels


def finite_difference_grad(model, params, features, labels, step=1e-5) -> np.ndarray:
    """Central-difference gradient oracle for a one-row batch, independent of backprop."""
    grad = np.zeros_like(params.values)
    for i in range(params.values.size):
        up = params.values.copy()
        dn = params.values.copy()
        up[i] += step
        dn[i] -= step
        lu = models.batch_losses(model, models.GradientVector(up, params.layout), features, labels)
        ld = models.batch_losses(model, models.GradientVector(dn, params.layout), features, labels)
        grad[i] = (lu[0] - ld[0]) / (2.0 * step)
    return grad


def fresh_params(model, seed=0):
    return models.init_params(model, prng.seed(seed))


def banded_toeplitz(coefficients, n: int) -> np.ndarray:
    """Dense oracle of a banded strategy: the n x n lower-triangular Toeplitz
    matrix whose first column starts with ``coefficients``, shifted down one
    row per column."""
    col = np.zeros(n)
    head = np.asarray(coefficients, dtype=np.float64)[:n]
    col[: head.size] = head
    return scipy.linalg.toeplitz(col, np.zeros(n))
