import dataclasses

import numpy as np
import pytest

from dpcore import clipping, models, prng

from conftest import random_batch, random_model


def _vec(values):
    arr = np.asarray(values, dtype=np.float64)
    return models.GradientVector(arr, models.Layout((("g", 0, arr.size),)))


def test_clip_scales_to_boundary():
    g = _vec([3.0, 4.0])  # l2 norm 5
    out = clipping.clip(g, 2.5)
    np.testing.assert_allclose(out.values, [1.5, 2.0], rtol=1e-15)
    assert clipping.l2_norm(out.values) == pytest.approx(2.5, rel=1e-12)


def test_clip_zero_vector():
    g = _vec([0.0, 0.0, 0.0])
    assert np.array_equal(clipping.clip(g, 1.0).values, np.zeros(3))


def test_clip_inside_ball_is_exact_identity():
    g = _vec([0.3, 0.4])  # norm 0.5
    out = clipping.clip(g, 1.0)
    assert out.values is g.values  # returned unchanged, bit for bit


def test_empty_batch():
    m = models.Model(kind="linear", input_dim=3)
    p = models.init_params(m, prng.seed(0))
    res = clipping.clipped_grad_sum(
        m, p, np.zeros((0, 3)), np.zeros(0), clipping.ClipConfig(clip_norm=2.0)
    )
    assert np.array_equal(res.sum.values, np.zeros(4))
    assert res.contributing_count == 0
    assert res.dropped_nonfinite_count == 0
    assert res.sensitivity == 2.0


def test_nan_gradient_zeroed_and_counted():
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0))
    res = clipping.clipped_grad_sum(
        m, p, np.array([[np.nan, 1.0]]), np.array([0.0]), clipping.ClipConfig(clip_norm=1.0)
    )
    assert np.array_equal(res.sum.values, np.zeros(3))
    assert res.dropped_nonfinite_count == 1
    assert res.contributing_count == 0
    assert res.sensitivity == 1.0


def test_inf_feature_also_dropped():
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0))
    features = np.array([[1.0, 0.0], [np.inf, 1.0]])  # good, bad
    labels = np.array([1.0, 0.0])
    cfg = clipping.ClipConfig(clip_norm=1.0)
    with_bad = clipping.clipped_grad_sum(m, p, features, labels, cfg)
    without = clipping.clipped_grad_sum(m, p, features[:1], labels[:1], cfg)
    assert np.array_equal(with_bad.sum.values, without.sum.values)
    assert with_bad.dropped_nonfinite_count == 1
    assert with_bad.contributing_count == 1


def test_microbatch_bitwise_invariance(rng):
    m = models.Model(kind="mlp", input_dim=6, hidden_dim=5)
    p = models.init_params(m, prng.seed(3))
    features, labels = random_batch(rng, 6, 17)
    results = [
        clipping.clipped_grad_sum(
            m, p, features, labels, clipping.ClipConfig(clip_norm=0.5, microbatch_size=s)
        )
        for s in (1, 2, 4, 16, None)
    ]
    for res in results[1:]:
        assert np.array_equal(results[0].sum.values, res.sum.values)
        assert res.contributing_count == 17


def test_group_level_two_members_clipped_once():
    # Two identical examples in one group: each per-example gradient has norm
    # n0; the group sum (norm 2*n0) must be clipped once to C, not 2C.
    m = models.Model(kind="linear", input_dim=2)
    p = models.GradientVector.zeros(m.layout())
    features = np.array([[3.0, 4.0], [3.0, 4.0]])  # grad = (z-y)*[x,1] = [3,4,1]
    labels = np.array([-1.0, -1.0])
    n0 = np.sqrt(26.0)
    cfg = clipping.ClipConfig(clip_norm=float(n0), level="group")
    res = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=np.array([7, 7]))
    assert res.contributing_count == 1
    assert clipping.l2_norm(res.sum.values) == pytest.approx(n0, rel=1e-12)
    expected = np.array([3.0, 4.0, 1.0])  # 2*grad scaled back to norm n0
    np.testing.assert_allclose(res.sum.values, expected, rtol=1e-12)


def test_group_level_distinct_groups_clip_separately(rng):
    m = models.Model(kind="logistic", input_dim=3)
    p = models.init_params(m, prng.seed(5))
    features = np.stack([rng.standard_normal(3) for _ in range(9)])
    labels = np.ones(9)
    keys = np.arange(9) % 3
    cfg = clipping.ClipConfig(clip_norm=0.1, level="group")
    res = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
    assert res.contributing_count == 3
    units = []
    for g in range(3):
        member = keys == g
        unit = clipping.clipped_grad_sum(
            m, p, features[member], labels[member], cfg, group_keys=keys[member]
        )
        assert unit.contributing_count == 1
        assert clipping.l2_norm(unit.sum.values) <= 0.1 * (1 + 1e-12)
        units.append(unit.sum.values)
    np.testing.assert_allclose(np.sum(units, axis=0), res.sum.values, atol=1e-12)


def test_group_level_missing_key_rejected(rng):
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0))
    with pytest.raises(ValueError):
        clipping.clipped_grad_sum(
            m, p, np.ones((1, 2)), np.zeros(1),
            clipping.ClipConfig(clip_norm=1.0, level="group"),
        )


def test_group_level_microbatch_invariance(rng):
    m = models.Model(kind="linear", input_dim=4)
    p = models.init_params(m, prng.seed(2))
    keys = rng.integers(0, 4, size=13)
    rows = [(rng.standard_normal(4), float(rng.standard_normal())) for _ in keys]
    features = np.stack([x for x, _ in rows])
    labels = np.array([y for _, y in rows])
    results = [
        clipping.clipped_grad_sum(
            m, p, features, labels,
            clipping.ClipConfig(clip_norm=0.7, level="group", microbatch_size=s),
            group_keys=keys,
        )
        for s in (1, 3, None)
    ]
    for res in results[1:]:
        assert np.array_equal(results[0].sum.values, res.sum.values)


def test_per_unit_norm_bound(rng):
    # Each example clipped on its own stays in the L2 ball, and the units add
    # up to the batch sum.
    for _ in range(3):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(9))
        features, labels = random_batch(rng, m.input_dim, 12)
        cfg = clipping.ClipConfig(clip_norm=0.25, microbatch_size=5)
        res = clipping.clipped_grad_sum(m, p, features, labels, cfg)
        assert res.contributing_count == 12
        units = []
        for i in range(12):
            unit = clipping.clipped_grad_sum(m, p, features[i : i + 1], labels[i : i + 1], cfg)
            assert unit.contributing_count == 1
            assert np.linalg.norm(unit.sum.values) <= 0.25 * (1 + 1e-12)
            units.append(unit.sum.values)
        np.testing.assert_allclose(np.sum(units, axis=0), res.sum.values, atol=1e-12)


def test_sensitivity_oracle_add_remove(rng):
    # Brute force: over all single-unit removals, the sum moves by at most C.
    for level in ("example", "group"):
        for trial in range(20):
            m = random_model(rng)
            p = models.init_params(m, prng.seed(trial))
            size = int(rng.integers(1, 7))
            features, labels = random_batch(rng, m.input_dim, size)
            keys = None
            if level == "group":
                keys = np.array([int(rng.integers(0, 3)) for _ in range(size)])
            cfg = clipping.ClipConfig(clip_norm=0.8, level=level)
            full = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
            if level == "example":
                neighbors = [np.arange(size) != i for i in range(size)]
            else:
                neighbors = [keys != g for g in set(keys.tolist())]
            for keep in neighbors:
                sub = clipping.clipped_grad_sum(
                    m, p, features[keep], labels[keep], cfg,
                    group_keys=None if keys is None else keys[keep],
                )
                delta = np.linalg.norm(full.sum.values - sub.sum.values)
                assert delta <= cfg.clip_norm + 1e-12


def test_peak_live_gradients_bounded_by_microbatch(rng, monkeypatch):
    # Example level clips from the layer factors and never materializes
    # per-example gradients; group level materializes at most one microbatch
    # of rows at a time, and every row once.
    m = models.Model(kind="logistic", input_dim=5)
    p = models.init_params(m, prng.seed(0))
    features, labels = random_batch(rng, 5, 23)
    keys = np.arange(23) % 4
    live = []

    def spy(model, params, features, labels):
        live.append(features.shape[0])
        return models.batch_grads(model, params, features, labels)

    monkeypatch.setattr(clipping, "batch_grads", spy)
    for size in (1, 4, 7, None):
        live.clear()
        cfg = clipping.ClipConfig(clip_norm=1.0, microbatch_size=size)
        clipping.clipped_grad_sum(m, p, features, labels, cfg)
        assert live == []
        cfg = clipping.ClipConfig(clip_norm=1.0, level="group", microbatch_size=size)
        clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
        assert sum(live) == 23
        assert max(live) <= (size if size is not None else 23)


_FUZZ_MODELS = (
    models.Model(kind="linear", input_dim=3),
    models.Model(kind="logistic", input_dim=4),
    models.Model(kind="mlp", input_dim=3, hidden_dim=5, activation="tanh", loss="log"),
    models.Model(kind="mlp", input_dim=3, hidden_dim=5, activation="tanh", loss="mse"),
    models.Model(kind="mlp", input_dim=3, hidden_dim=5, activation="relu", loss="log"),
    models.Model(kind="mlp", input_dim=3, hidden_dim=5, activation="relu", loss="mse"),
)
# 1.5e308 makes some finite rows' norms overflow: such a row still counts as
# contributing, with a clip factor of C/inf = 0.
_EXTREMES = (np.nan, np.inf, -np.inf, 1e160, -1e160, 1e300, -1e300, 1.5e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", _FUZZ_MODELS, ids=lambda m: f"{m.kind}-{m.activation}-{m.loss}-l2")
def test_factored_clipping_matches_materialized_oracle(model):
    # The oracle clips materialized rows: group level with one key per row.
    # Rows hold NaN, inf or huge features, where a naive factored norm
    # evaluates inf*0 = NaN or overflows while the gradient itself is finite.
    rng = np.random.default_rng(0)
    outcomes = set()
    for trial in range(40):
        size = trial % 9
        p = models.init_params(model, prng.seed(trial))
        features, labels = random_batch(rng, model.input_dim, size, model.loss == "log")
        for i in range(size):
            if rng.random() < 0.5:
                features[i, rng.integers(model.input_dim)] = rng.choice(_EXTREMES)
        clip_norm = float(rng.choice([0.05, 0.7, 5.0]))
        cfg = clipping.ClipConfig(clip_norm=clip_norm)
        got = clipping.clipped_grad_sum(model, p, features, labels, cfg)
        want = clipping.clipped_grad_sum(
            model, p, features, labels, dataclasses.replace(cfg, level="group"),
            group_keys=np.arange(size),
        )
        assert got.contributing_count == want.contributing_count
        assert got.dropped_nonfinite_count == want.dropped_nonfinite_count
        assert np.all(np.isfinite(got.sum.values))
        scale = max(np.max(np.abs(want.sum.values), initial=0.0), clip_norm)
        assert np.max(np.abs(got.sum.values - want.sum.values), initial=0.0) <= 1e-12 * scale
        outcomes.add((got.dropped_nonfinite_count > 0, got.contributing_count > 0))
    assert outcomes >= {(True, True), (False, True)}


def test_l2_norm_of_finite_vector_with_overflowing_squares():
    values = np.array([3e200, -4e200])
    assert clipping.l2_norm(values) == pytest.approx(5e200, rel=1e-15)
    assert clipping.l2_norm(np.array([np.inf, 1.0])) == np.inf
    clipped = clipping.clip(_vec(values), 1.0)
    np.testing.assert_allclose(clipped.values, [0.6, -0.8], rtol=1e-15)


def test_grad_sum_is_the_unclipped_row_sum(rng):
    for model in _FUZZ_MODELS:
        p = models.init_params(model, prng.seed(1))
        features, labels = random_batch(rng, model.input_dim, 7, model.loss == "log")
        rows = models.batch_grads(model, p, features, labels)
        np.testing.assert_allclose(
            clipping.grad_sum(model, p, features, labels), rows.sum(axis=0),
            rtol=1e-12, atol=1e-14,
        )
        features[3, 0] = np.nan
        assert np.isnan(clipping.grad_sum(model, p, features, labels)).any()


def test_clip_config_validation():
    with pytest.raises(ValueError):
        clipping.ClipConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        clipping.ClipConfig(clip_norm=float("inf"))
    with pytest.raises(ValueError):
        clipping.ClipConfig(clip_norm=1.0, microbatch_size=0)
