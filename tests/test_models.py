import math

import numpy as np
import pytest

from dpcore import clipping, models, prng

from conftest import finite_difference_grad, random_batch, random_example, random_model


def test_logistic_layout_and_zero_biases():
    m = models.Model(kind="logistic", input_dim=3)
    p = models.init_params(m, prng.seed(0))
    assert p.layout.segments == (("w", 0, 3), ("b", 3, 1))
    assert p.segment("b")[0] == 0.0


def test_init_deterministic():
    m = models.Model(kind="mlp", input_dim=4, hidden_dim=8)
    a = models.init_params(m, prng.seed(5))
    b = models.init_params(m, prng.seed(5))
    assert np.array_equal(a.values, b.values)


def test_mlp_param_count():
    m = models.Model(kind="mlp", input_dim=4, hidden_dim=8)
    assert m.param_count() == 4 * 8 + 8 + 8 + 1 == 49


def test_init_weight_scale():
    # N(0, 1/fan_in): the empirical std of a wide layer should be close.
    m = models.Model(kind="mlp", input_dim=100, hidden_dim=100)
    p = models.init_params(m, prng.seed(1))
    assert abs(p.segment("w1").std() - 0.1) < 0.005
    assert np.all(p.segment("b1") == 0.0)


def test_zero_width_layer_rejected():
    with pytest.raises(ValueError):
        models.Model(kind="mlp", input_dim=4, hidden_dim=0)
    with pytest.raises(ValueError):
        models.Model(kind="linear", input_dim=0)


def test_logistic_loss_at_origin_is_log2():
    m = models.Model(kind="logistic", input_dim=2)
    p = models.GradientVector.zeros(m.layout())
    for y in (0.0, 1.0):
        loss = models.batch_losses(m, p, np.array([[3.0, -1.0]]), np.array([y]))[0]
        assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_linear_loss_at_origin():
    m = models.Model(kind="linear", input_dim=2)
    p = models.GradientVector.zeros(m.layout())
    loss = models.batch_losses(m, p, np.array([[1.0, 1.0]]), np.array([2.0]))[0]
    assert loss == pytest.approx(2.0, rel=1e-12)


def test_mlp_loss_nonnegative_finite(rng):
    m = models.Model(kind="mlp", input_dim=5, hidden_dim=4, activation="tanh")
    p = models.init_params(m, prng.seed(3))
    for _ in range(20):
        loss = models.batch_losses(m, p, *random_example(rng, 5, True))[0]
        assert loss >= 0.0 and math.isfinite(loss)


def test_logistic_grad_closed_form_at_origin():
    m = models.Model(kind="logistic", input_dim=3)
    p = models.GradientVector.zeros(m.layout())
    x = np.array([0.5, -2.0, 1.5])
    for y in (0.0, 1.0):
        g = models.GradientVector(
            models.batch_grads(m, p, x[np.newaxis, :], np.array([y]))[0], p.layout
        )
        np.testing.assert_allclose(g.segment("w"), (0.5 - y) * x, rtol=1e-12)
        np.testing.assert_allclose(g.segment("b"), [0.5 - y], rtol=1e-12)


def test_gradients_match_finite_differences(rng):
    # 100 random (model, params, example) triples across all three kinds.
    for _ in range(100):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(int(rng.integers(0, 2**31))))
        x, y = random_example(rng, m.input_dim, classification=True)
        g = models.batch_grads(m, p, x, y)[0]
        fd = finite_difference_grad(m, p, x, y)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / denom) < 1e-4


def test_grad_layout_matches_params(rng):
    for _ in range(10):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(7))
        grads = models.batch_grads(m, p, *random_example(rng, m.input_dim, True))
        assert grads.shape == (1, p.layout.total_length)


def test_dimension_mismatch_rejected():
    m = models.Model(kind="linear", input_dim=3)
    p = models.init_params(m, prng.seed(0))
    with pytest.raises(ValueError):
        models.batch_losses(m, p, np.zeros((1, 4)), np.zeros(1))
    with pytest.raises(ValueError):
        models.batch_grads(m, p, np.zeros((1, 2)), np.zeros(1))


def test_batch_grads_match_single(rng):
    m = models.Model(kind="mlp", input_dim=4, hidden_dim=3, loss="mse")
    p = models.init_params(m, prng.seed(11))
    features, labels = random_batch(rng, 4, 6, classification=False)
    rows = models.batch_grads(m, p, features, labels)
    for i, row in enumerate(rows):
        single = models.batch_grads(m, p, features[i : i + 1], labels[i : i + 1])
        assert np.array_equal(row, single[0])


def test_gradient_vector_arithmetic_layout_checked():
    a = models.GradientVector(np.ones(3), models.Layout((("x", 0, 3),)))
    b = models.GradientVector(np.ones(3), models.Layout((("y", 0, 3),)))
    with pytest.raises(ValueError):
        _ = a + b
    c = a + models.GradientVector(2 * np.ones(3), a.layout)
    assert np.array_equal(c.values, 3 * np.ones(3))


def test_layout_total_length_cached_outside_equality():
    segments = (("w", 0, 3), ("b", 3, 1))
    layout = models.Layout(segments)
    assert layout.total_length == 4
    fresh = models.Layout(segments)
    assert layout == fresh and hash(layout) == hash(fresh) and repr(layout) == repr(fresh)
    assert layout != models.Layout((("w", 0, 3), ("b", 3, 2)))


def test_vector_norms():
    assert clipping.l2_norm(np.array([3.0, -4.0])) == pytest.approx(5.0)


def test_sigmoid_matches_two_branch_expit():
    # Branch-free, yet each element gets the same formula as a masked split:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below.
    rng = np.random.default_rng(0)
    extremes = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 1e308, -1e308]
    z = np.concatenate([rng.normal(0.0, 30.0, 100_000), extremes])
    pos = z >= 0
    want = np.empty_like(z)
    want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    want[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
    np.testing.assert_array_equal(models._sigmoid(z), want)
