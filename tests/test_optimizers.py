import numpy as np
import pytest

from dpcore import models, optimizers


def _vec(values):
    return np.asarray(values, dtype=np.float64)


def test_sgd_update():
    params = optimizers.sgd_update(0.1, _vec([1.0, -2.0]), _vec([0.0, 0.0]))
    np.testing.assert_allclose(params, [-0.1, 0.2], rtol=1e-15)


def test_sgd_zero_lr():
    params = optimizers.sgd_update(0.0, _vec([3.0]), _vec([1.0]))
    assert np.array_equal(params, [1.0])


def test_sgd_linear_motion():
    params = _vec([0.0])
    g = _vec([2.0])
    for _ in range(3):
        params = optimizers.sgd_update(0.5, g, params)
    assert params[0] == pytest.approx(-3.0)
    assert g[0] == 2.0  # an update reads its gradient


def test_adamw_first_step_closed_form():
    # t=1: m_hat = g, v_hat = g^2, so the update is -lr * g/(|g| + eps).
    layout = models.Layout((("p", 0, 1),))
    state = optimizers.adamw_init(layout)
    params = optimizers.adamw_update(
        1.0, 0.9, 0.999, 1e-8, 0.0, _vec([1.0]), state, _vec([0.0])
    )
    assert params[0] == pytest.approx(-1.0 / (1.0 + 1e-8), rel=1e-12)
    assert state.step == 1


def test_adamw_zero_gradients_zero_updates():
    layout = models.Layout((("p", 0, 2),))
    state = optimizers.adamw_init(layout)
    params = _vec([1.0, -1.0])
    for _ in range(5):
        new = optimizers.adamw_update(
            0.3, 0.9, 0.999, 1e-8, 0.0, _vec([0.0, 0.0]), state, params
        )
        assert np.array_equal(new, params)


def test_adamw_weight_decay_decoupled():
    layout = models.Layout((("p", 0, 1),))
    params = _vec([2.0])
    zero_g = _vec([0.0])
    new = optimizers.adamw_update(
        0.5, 0.9, 0.999, 1e-8, 0.1, zero_g, optimizers.adamw_init(layout), params
    )
    # gradient term vanishes; only the decay term -lr * wd * params remains
    assert new[0] - params[0] == pytest.approx(-0.5 * 0.1 * 2.0, rel=1e-12)


def test_adamw_matches_scalar_reference(rng):
    # Straightforward scalar re-implementation as the oracle.
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    grads = rng.standard_normal(20)
    layout = models.Layout((("p", 0, 1),))
    state = optimizers.adamw_init(layout)
    params = _vec([0.3])

    m = v = 0.0
    ref_param = 0.3
    for t, g in enumerate(grads, start=1):
        params = optimizers.adamw_update(
            lr, beta1, beta2, eps, 0.0, _vec([g]), state, params
        )
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        ref_param -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params[0] == pytest.approx(ref_param, abs=1e-12)


def test_layout_mismatch_rejected():
    a = _vec([1.0])
    b = np.zeros(2)
    with pytest.raises(ValueError):
        optimizers.sgd_update(0.1, a, b)
    state = optimizers.adamw_init(models.Layout((("q", 0, 2),)))
    with pytest.raises(ValueError):
        optimizers.adamw_update(0.1, 0.9, 0.999, 1e-8, 0.0, a, state, b)
    with pytest.raises(ValueError):
        optimizers.adamw_update(0.1, 0.9, 0.999, 1e-8, 0.0, b, state, np.zeros(3))
    assert state.step == 0  # a refused update changes nothing
