import math
import tracemalloc

import numpy as np
import pytest

from dpcore import clipping, models, prng

from conftest import materialized_clipped_sum, random_batch, random_model


def _linear_at_zero():
    """A linear model at zero parameters, whose gradient for row (x, y) is -y·[x, 1]."""
    m = models.Model(kind="linear", input_dim=2)
    return m, np.zeros(m.param_count())


def test_clip_scales_to_boundary():
    m, p = _linear_at_zero()
    for k in (1, 3):
        # k rows of gradient [3, 4, 1] in one group: its sum has L2 norm k·√26.
        features, labels = np.tile([3.0, 4.0], (k, 1)), np.full(k, -1.0)
        cfg = clipping.ClipConfig(clip_norm=2.5, level="group")
        out = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=np.zeros(k, int))
        assert out.contributing_count == 1
        want = np.array([3.0, 4.0, 1.0]) * (2.5 / np.sqrt(26.0))
        np.testing.assert_allclose(out.sum, want, rtol=1e-15)
        assert clipping.l2_norm(out.sum) == pytest.approx(2.5, rel=1e-12)


def test_clip_zero_vector():
    m, p = _linear_at_zero()
    features, labels = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]]), np.zeros(3)
    for level in ("example", "group"):
        cfg = clipping.ClipConfig(clip_norm=1.0, level=level)
        out = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=np.full(3, 7))
        assert np.array_equal(out.sum, np.zeros(3))
        units = 3 if level == "example" else 1
        assert (out.contributing_count, out.dropped_nonfinite_count) == (units, 0)


def test_clip_inside_ball_is_exact_identity(rng):
    # One key for every row: the stable sort keeps the rows in batch order,
    # so the group's sum is grad_sum's reduction over the same factors.
    m = models.Model(kind="mlp", input_dim=6, hidden_dim=5)
    p = models.init_params(m, prng.seed(3)).values
    features, labels = random_batch(rng, 6, 17)
    cfg = clipping.ClipConfig(clip_norm=1e6, level="group")
    out = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=np.full(17, 2))
    assert out.contributing_count == 1
    assert np.array_equal(out.sum, clipping.grad_sum(m, p, features, labels))


def test_empty_batch():
    m = models.Model(kind="linear", input_dim=3)
    p = models.init_params(m, prng.seed(0)).values
    res = clipping.clipped_grad_sum(
        m, p, np.zeros((0, 3)), np.zeros(0), clipping.ClipConfig(clip_norm=2.0)
    )
    assert np.array_equal(res.sum, np.zeros(4))
    assert res.contributing_count == 0
    assert res.dropped_nonfinite_count == 0
    assert res.sensitivity == 2.0


def test_nan_gradient_zeroed_and_counted():
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0)).values
    res = clipping.clipped_grad_sum(
        m, p, np.array([[np.nan, 1.0]]), np.array([0.0]), clipping.ClipConfig(clip_norm=1.0)
    )
    assert np.array_equal(res.sum, np.zeros(3))
    assert res.dropped_nonfinite_count == 1
    assert res.contributing_count == 0
    assert res.sensitivity == 1.0


def test_inf_feature_also_dropped():
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0)).values
    features = np.array([[1.0, 0.0], [np.inf, 1.0]])  # good, bad
    labels = np.array([1.0, 0.0])
    cfg = clipping.ClipConfig(clip_norm=1.0)
    with_bad = clipping.clipped_grad_sum(m, p, features, labels, cfg)
    without = clipping.clipped_grad_sum(m, p, features[:1], labels[:1], cfg)
    assert np.array_equal(with_bad.sum, without.sum)
    assert with_bad.dropped_nonfinite_count == 1
    assert with_bad.contributing_count == 1


def test_group_level_two_members_clipped_once():
    # Two identical examples in one group: each per-example gradient has norm
    # n0; the group sum (norm 2*n0) must be clipped once to C, not 2C.
    m = models.Model(kind="linear", input_dim=2)
    p = np.zeros(m.param_count())
    features = np.array([[3.0, 4.0], [3.0, 4.0]])  # grad = (z-y)*[x,1] = [3,4,1]
    labels = np.array([-1.0, -1.0])
    n0 = np.sqrt(26.0)
    cfg = clipping.ClipConfig(clip_norm=float(n0), level="group")
    res = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=np.array([7, 7]))
    assert res.contributing_count == 1
    assert clipping.l2_norm(res.sum) == pytest.approx(n0, rel=1e-12)
    expected = np.array([3.0, 4.0, 1.0])  # 2*grad scaled back to norm n0
    np.testing.assert_allclose(res.sum, expected, rtol=1e-12)


def test_group_level_distinct_groups_clip_separately(rng):
    m = models.Model(kind="logistic", input_dim=3)
    p = models.init_params(m, prng.seed(5)).values
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
        assert clipping.l2_norm(unit.sum) <= 0.1 * (1 + 1e-12)
        units.append(unit.sum)
    np.testing.assert_allclose(np.sum(units, axis=0), res.sum, atol=1e-12)


def test_group_level_missing_key_rejected(rng):
    m = models.Model(kind="linear", input_dim=2)
    p = models.init_params(m, prng.seed(0)).values
    with pytest.raises(ValueError):
        clipping.clipped_grad_sum(
            m, p, np.ones((1, 2)), np.zeros(1),
            clipping.ClipConfig(clip_norm=1.0, level="group"),
        )


def test_group_level_microbatch_invariance(rng):
    # Whole groups clip independently, so calls over consecutive slices of
    # 1 or 2 groups add up to the full-batch call.
    m = models.Model(kind="linear", input_dim=4)
    p = models.init_params(m, prng.seed(2)).values
    keys = rng.integers(0, 4, size=13)
    rows = [(rng.standard_normal(4), float(rng.standard_normal())) for _ in keys]
    features = np.stack([x for x, _ in rows])
    labels = np.array([y for _, y in rows])
    cfg = clipping.ClipConfig(clip_norm=0.7, level="group")
    full = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
    groups = np.unique(keys)
    for per_call in (1, 2):
        total = np.zeros_like(full.sum)
        counts = np.zeros(2, dtype=int)
        for lo in range(0, len(groups), per_call):
            member = np.isin(keys, groups[lo : lo + per_call])
            part = clipping.clipped_grad_sum(
                m, p, features[member], labels[member], cfg, group_keys=keys[member]
            )
            total += part.sum
            counts += (part.contributing_count, part.dropped_nonfinite_count)
        assert np.max(np.abs(total - full.sum)) <= 1e-12
        assert tuple(counts) == (full.contributing_count, full.dropped_nonfinite_count)


def test_per_unit_norm_bound(rng):
    # Each example clipped on its own stays in the L2 ball, and the units add
    # up to the batch sum.
    for _ in range(3):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(9)).values
        features, labels = random_batch(rng, m.input_dim, 12)
        cfg = clipping.ClipConfig(clip_norm=0.25)
        res = clipping.clipped_grad_sum(m, p, features, labels, cfg)
        assert res.contributing_count == 12
        units = []
        for i in range(12):
            unit = clipping.clipped_grad_sum(m, p, features[i : i + 1], labels[i : i + 1], cfg)
            assert unit.contributing_count == 1
            assert np.linalg.norm(unit.sum) <= 0.25 * (1 + 1e-12)
            units.append(unit.sum)
        np.testing.assert_allclose(np.sum(units, axis=0), res.sum, atol=1e-12)


def test_sensitivity_oracle_add_remove(rng):
    # Brute force: over all single-unit removals, the sum moves by at most C.
    for level in ("example", "group"):
        for trial in range(20):
            m = random_model(rng)
            p = models.init_params(m, prng.seed(trial)).values
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
                delta = np.linalg.norm(full.sum - sub.sum)
                assert delta <= cfg.clip_norm + 1e-12


def test_clipping_never_materializes_gradient_rows(rng, monkeypatch):
    # Both levels clip from the layer factors and never materialize
    # per-example gradients.
    m = models.Model(kind="logistic", input_dim=5)
    p = models.init_params(m, prng.seed(0)).values
    features, labels = random_batch(rng, 5, 23)
    keys = np.arange(23) % 4
    live = []
    reference = models.batch_grads

    def spy(model, params, features, labels):
        live.append(features.shape[0])
        return reference(model, params, features, labels)

    monkeypatch.setattr(clipping, "batch_grads", spy)
    monkeypatch.setattr(models, "batch_grads", spy)
    for level in ("example", "group"):
        cfg = clipping.ClipConfig(clip_norm=1.0, level=level)
        clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
        assert live == []


def test_group_level_peak_memory_is_a_few_factors():
    # MLP 20→128, B=2000 in 200 groups: materialized rows would take
    # B·P·8 bytes = 43 MiB, the layer factors 4.2 MiB.
    m = models.Model(kind="mlp", input_dim=20, hidden_dim=128)
    p = models.init_params(m, prng.seed(0)).values
    rng = np.random.default_rng(4)
    features = rng.standard_normal((2000, 20))
    labels = rng.integers(0, 2, 2000).astype(np.float64)
    keys = rng.integers(0, 200, 2000)
    factor_bytes = sum(a.nbytes + g.nbytes for a, g in models.layer_factors(m, p, features, labels))
    cfg = clipping.ClipConfig(clip_norm=1.0, level="group")
    tracemalloc.start()
    try:
        res = clipping.clipped_grad_sum(m, p, features, labels, cfg, group_keys=keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.contributing_count == 200
    assert peak < 4 * factor_bytes


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
    # The oracle clips materialized rows (conftest): one key per row for the
    # example level, random keys for the group level. Rows hold NaN, inf or
    # huge features, where a naive factored norm evaluates inf*0 = NaN or
    # overflows while the gradient itself is finite.
    rng = np.random.default_rng(0)
    outcomes = {"example": set(), "group": set()}
    for trial in range(40):
        size = trial % 9
        p = models.init_params(model, prng.seed(trial)).values
        features, labels = random_batch(rng, model.input_dim, size, model.loss == "log")
        for i in range(size):
            if rng.random() < 0.5:
                features[i, rng.integers(model.input_dim)] = rng.choice(_EXTREMES)
        clip_norm = float(rng.choice([0.05, 0.7, 5.0]))
        group_keys = rng.integers(0, 4, size)
        for level, keys in (("example", np.arange(size)), ("group", group_keys)):
            cfg = clipping.ClipConfig(clip_norm=clip_norm, level=level)
            got = clipping.clipped_grad_sum(model, p, features, labels, cfg, group_keys=keys)
            want = materialized_clipped_sum(model, p, features, labels, clip_norm, keys)
            assert got.contributing_count == want.contributing_count
            assert got.dropped_nonfinite_count == want.dropped_nonfinite_count
            assert np.all(np.isfinite(got.sum))
            scale = max(np.max(np.abs(want.sum), initial=0.0), clip_norm)
            assert np.max(np.abs(got.sum - want.sum), initial=0.0) <= 1e-12 * scale
            outcomes[level].add((got.dropped_nonfinite_count > 0, got.contributing_count > 0))
    for seen in outcomes.values():
        assert seen >= {(True, True), (False, True)}


def test_l2_norm_of_finite_vector_with_overflowing_squares():
    values = np.array([3e200, -4e200])
    assert clipping.l2_norm(values) == pytest.approx(5e200, rel=1e-15)
    assert clipping.l2_norm(np.array([np.inf, 1.0])) == np.inf
    # Squares that underflow are rescaled too, so a tiny gradient is clipped.
    assert clipping.l2_norm(np.array([3e-200, -4e-200])) == pytest.approx(5e-200, rel=1e-15)
    assert clipping.l2_norm(np.zeros(2)) == 0.0
    # The row's gradient is [3e200, -4e200, 1]; both levels clip it onto the unit sphere.
    m, p = _linear_at_zero()
    for level in ("example", "group"):
        cfg = clipping.ClipConfig(clip_norm=1.0, level=level)
        clipped = clipping.clipped_grad_sum(m, p, values[np.newaxis], np.array([-1.0]), cfg,
                                            group_keys=np.zeros(1, int))
        np.testing.assert_allclose(clipped.sum[:2], [0.6, -0.8], rtol=1e-15)


def test_grad_sum_is_the_unclipped_row_sum(rng):
    for model in _FUZZ_MODELS:
        p = models.init_params(model, prng.seed(1)).values
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
        clipping.ClipConfig(clip_norm=1.0, level="user")


@pytest.fixture
def rescaled(monkeypatch):
    """The row count of each call of the scaled reference norm."""
    calls = []
    reference = clipping._scaled_norms

    def counting(factors):
        calls.append(len(factors[0][0]))
        return reference(factors)

    monkeypatch.setattr(clipping, "_scaled_norms", counting)
    return calls


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def _mlp_factors(rng, n, scale_range):
    """MLP-shaped factor pairs (x, d_pre), (act, dz) whose rows are scaled by
    10**u, u drawn uniformly from scale_range, one draw per row and factor."""
    def rows(k):
        scale = 10.0 ** rng.uniform(*scale_range, size=(n, 1))
        return rng.standard_normal((n, k)) * scale
    return [(rows(6), rows(9)), (rows(9), rows(1))]


def test_direct_norms_match_the_scaled_reference(rescaled):
    n = 2000
    factors = _mlp_factors(np.random.default_rng(0), n, (-150, 150))
    with np.errstate(over="ignore"):
        norms, finite = clipping._factored_norms(factors, 0.0)
        # Both paths ran: the rows whose squares overflow or underflow were rescaled.
        assert len(rescaled) == 1 and 0 < rescaled[0] < n / 2
        want_norms, want_finite = clipping._scaled_norms(factors)
    assert np.array_equal(finite, want_finite) and finite.all()
    assert np.max(_ulps(norms, want_norms)) <= 4


def _trigger_rows(value):
    """Factors of 5 well-scaled rows; row 2 is made a fallback trigger."""
    factors = _mlp_factors(np.random.default_rng(1), 5, (-1, 1))
    (x, d_pre), (act, dz) = factors
    if value == "zero":
        d_pre[2] = 0.0
        dz[2] = 0.0
    elif value == "tiny":
        for factor in (x, d_pre, act, dz):
            factor[2] *= 1e-170
    else:
        x[2, 1] = value
        act[2, 4] = value
    return factors


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e200, -1e200, "tiny", "zero", np.nan, np.inf, -np.inf])
def test_fallback_rows_take_the_reference_norm_exactly(value, rescaled):
    factors = _trigger_rows(value)
    with np.errstate(invalid="ignore", over="ignore"):
        norms, finite = clipping._factored_norms(factors, 0.0)
        assert rescaled == [1]
        want_norms, want_finite = clipping._scaled_norms([(a[2:3], g[2:3]) for a, g in factors])
    assert np.array_equal(norms[2:3], want_norms, equal_nan=True)
    assert np.array_equal(finite[2:3], want_finite)
    assert np.delete(finite, 2).all()


def _scaled_l2(values):
    peak = np.max(np.abs(values), initial=0.0)
    return 0.0 if peak == 0.0 else peak * np.linalg.norm(values / peak)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,y,clip_norm,dropped", [
    ([1e200, -1e200], 1.0, 1.0, 0),  # finite entries whose squares overflow
    ([1e-170, 1e-170], 1e-170, 1e-200, 0),  # a norm of 1e-170, squares underflow
    ([1.0, 2.0], 0.0, 1.0, 0),  # an all-zero gradient
    ([np.nan, 1.0], 0.0, 1.0, 1),
    ([np.inf, 1.0], 0.0, 1.0, 1),
    ([-np.inf, 1.0], 0.0, 1.0, 1),
])
def test_fallback_rows_clip_into_the_ball(x, y, clip_norm, dropped):
    # At zero parameters the linear model's gradient is -y·[x, 1].
    m = models.Model(kind="linear", input_dim=2)
    p = np.zeros(m.param_count())
    features = np.array([[0.3, -0.4], x, [2.0, 1.0]])
    labels = np.array([1.0, y, -1.0])
    cfg = clipping.ClipConfig(clip_norm=clip_norm)
    res = clipping.clipped_grad_sum(m, p, features[1:2], labels[1:2], cfg)
    assert (res.contributing_count, res.dropped_nonfinite_count) == (1 - dropped, dropped)
    assert _scaled_l2(res.sum) <= clip_norm * (1 + 1e-15)
    batch = clipping.clipped_grad_sum(m, p, features, labels, cfg)
    oracle = materialized_clipped_sum(m, p, features, labels, clip_norm, np.arange(3))
    assert batch.dropped_nonfinite_count == oracle.dropped_nonfinite_count == dropped
    np.testing.assert_allclose(batch.sum, oracle.sum, rtol=1e-12, atol=0)


def test_well_scaled_batches_never_take_the_scaled_reference(rescaled):
    # Wall-clock free: the reference norm runs only on the rows that need it.
    rng = np.random.default_rng(2)
    for model in (*_FUZZ_MODELS, models.Model(kind="mlp", input_dim=20, hidden_dim=128)):
        p = models.init_params(model, prng.seed(3)).values
        features, labels = random_batch(rng, model.input_dim, 200, model.loss == "log")
        cfg = clipping.ClipConfig(clip_norm=0.5)
        clipping.clipped_grad_sum(model, p, features, labels, cfg)
        assert rescaled == []
        features[3, 0] = np.nan
        features[50] = 1e200  # finite, but its squares overflow
        features[51, 1] = -np.inf
        clipping.clipped_grad_sum(model, p, features, labels, cfg)
        assert rescaled == [3]
        rescaled.clear()


def test_zero_gradients_inside_the_ball_skip_the_reference(rescaled):
    # A saturated sigmoid with the right label has a gradient of exact zeros,
    # whose direct norm, 0, is exact. The reference runs on such rows only
    # when C² underflows, so that the floor cannot show them inside the ball.
    m = models.Model(kind="logistic", input_dim=3)
    p = np.array([0.0, 0.0, 0.0, 50.0])  # sigmoid(50) == 1.0
    features, labels = np.ones((4, 3)), np.ones(4)
    for clip_norm, calls in ((1.0, []), (1e-170, [4])):
        res = clipping.clipped_grad_sum(m, p, features, labels, clipping.ClipConfig(clip_norm))
        assert rescaled == calls
        assert res.contributing_count == 4 and not res.sum.any()
        rescaled.clear()


def _norms_with_every_floor(factors, radius):
    """_factored_norms with each row's floor built, the path its bound test may skip."""
    squares = floor = 0.0
    for a, g in factors:
        a_sq = clipping._row_squares(a) + 1.0
        squares = squares + a_sq * clipping._row_squares(g)
        floor = floor + a_sq * (clipping._DIRECT_FLOOR * g.shape[1])
    floor = np.where(floor > 0.5 * radius * radius, floor, 0.0)
    finite = (squares >= floor) & (squares < np.inf)
    norms = np.sqrt(squares)
    rescale = np.flatnonzero(~finite)
    if rescale.size:
        norms[rescale], finite[rescale] = clipping._scaled_norms(
            [(a[rescale], g[rescale]) for a, g in factors])
    return norms, finite


def _floor_bound(factors):
    bound = 0.0
    for a, g in factors:
        bound += float((clipping._row_squares(a) + 1.0).max()) * (clipping._DIRECT_FLOOR * g.shape[1])
    return bound


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nan_in", ["g", "a"])
def test_floor_shortcut_matches_every_floor_built(nan_in):
    # The per-row floors are skipped when no row's floor can exceed C²/2. On
    # either side of that bound, the norms and finite flags must equal those
    # computed with every floor built. Row 1 has a huge input and an output
    # gradient whose squares underflow to 0: its floor, the largest, equals
    # the bound, and sends the row to the scaled reference (a norm above 0)
    # only when it exceeds C²/2. Row 2 holds a NaN, in g or in a (which makes
    # the bound NaN, so every floor is built), and row 3 a zero gradient.
    (x, d_pre), (act, dz) = factors = _mlp_factors(np.random.default_rng(4), 6, (-1, 1))
    x[1] = 1e100
    d_pre[1] *= 1e-170
    dz[1] = 1e-170
    d_pre[3] = dz[3] = 0.0
    bound = _floor_bound(factors)
    (d_pre if nan_in == "g" else x)[2, 3] = np.nan
    edge = math.sqrt(2.0 * bound)
    near = [edge * (1.0 + k * 2.0**-50) for k in range(-4, 5)]
    assert {bound > 0.5 * radius * radius for radius in near} == {True, False}
    with np.errstate(invalid="ignore", over="ignore"):
        assert math.isnan(_floor_bound(factors)) == (nan_in == "a")
        for radius in near + [1e-300, 1.0, 1e300]:
            above = bound > 0.5 * radius * radius
            norms, finite = clipping._factored_norms(factors, radius)
            want_norms, want_finite = _norms_with_every_floor(factors, radius)
            assert np.array_equal(norms, want_norms, equal_nan=True), radius
            assert np.array_equal(finite, want_finite), radius
            assert list(finite) == [True, True, False, True, True, True]
            assert (norms[1] > 0.0) == above and norms[3] == 0.0
