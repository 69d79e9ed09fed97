import numpy as np
import pytest
import scipy.linalg

from dpcore import clipping, models, prng


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


def materialized_clipped_sum(model, params, features, labels, clip_norm, group_keys):
    """Oracle of ``clipping.clipped_grad_sum`` from materialized gradient rows.

    Each row of ``models.batch_grads`` is added into its group's sum, groups
    in order of first occurrence and rows in batch order; a group sum with a
    non-finite entry is dropped and counted, and the others are scaled by
    C/‖v‖₂ when their norm exceeds C and summed. One key per row is
    example-level clipping.
    """
    layout = params.layout
    group_sums = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for key, row in zip(np.asarray(group_keys).tolist(),
                            models.batch_grads(model, params, features, labels)):
            if key in group_sums:
                group_sums[key] += row
            else:
                group_sums[key] = row.copy()
        total = np.zeros(layout.total_length)
        kept = 0
        for group_sum in group_sums.values():
            if np.all(np.isfinite(group_sum)):
                norm = clipping.l2_norm(group_sum)
                total += group_sum * (clip_norm / norm) if norm > clip_norm else group_sum
                kept += 1
    return clipping.ClippedGradientSum(
        models.GradientVector(total, layout), clip_norm, kept, len(group_sums) - kept
    )


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


def prefix_matrix(n: int) -> np.ndarray:
    """Dense oracle of the prefix-sum workload: A[i, j] = 1 for j <= i."""
    return np.tril(np.ones((n, n)))
