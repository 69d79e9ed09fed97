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
    p = np.zeros(m.param_count())
    for y in (0.0, 1.0):
        loss = models.batch_losses(m, p, np.array([[3.0, -1.0]]), np.array([y]))[0]
        assert loss == pytest.approx(math.log(2), rel=1e-12)


def test_linear_loss_at_origin():
    m = models.Model(kind="linear", input_dim=2)
    p = np.zeros(m.param_count())
    loss = models.batch_losses(m, p, np.array([[1.0, 1.0]]), np.array([2.0]))[0]
    assert loss == pytest.approx(2.0, rel=1e-12)


def test_mlp_loss_nonnegative_finite(rng):
    m = models.Model(kind="mlp", input_dim=5, hidden_dim=4, activation="tanh")
    p = models.init_params(m, prng.seed(3)).values
    for _ in range(20):
        loss = models.batch_losses(m, p, *random_example(rng, 5, True))[0]
        assert loss >= 0.0 and math.isfinite(loss)


def test_logistic_grad_closed_form_at_origin():
    m = models.Model(kind="logistic", input_dim=3)
    p = np.zeros(m.param_count())
    x = np.array([0.5, -2.0, 1.5])
    for y in (0.0, 1.0):
        g = models.GradientVector(
            models.batch_grads(m, p, x[np.newaxis, :], np.array([y]))[0], m.layout()
        )
        np.testing.assert_allclose(g.segment("w"), (0.5 - y) * x, rtol=1e-12)
        np.testing.assert_allclose(g.segment("b"), [0.5 - y], rtol=1e-12)


def test_gradients_match_finite_differences(rng):
    # 100 random (model, params, example) triples across all three kinds.
    for _ in range(100):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(int(rng.integers(0, 2**31)))).values
        x, y = random_example(rng, m.input_dim, classification=True)
        g = models.batch_grads(m, p, x, y)[0]
        fd = finite_difference_grad(m, p, x, y)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / denom) < 1e-4


def test_grad_layout_matches_params(rng):
    for _ in range(10):
        m = random_model(rng)
        p = models.init_params(m, prng.seed(7))
        grads = models.batch_grads(m, p.values, *random_example(rng, m.input_dim, True))
        assert grads.shape == (1, p.layout.total_length)


def test_dimension_mismatch_rejected():
    m = models.Model(kind="linear", input_dim=3)
    p = models.init_params(m, prng.seed(0)).values
    with pytest.raises(ValueError):
        models.batch_losses(m, p, np.zeros((1, 4)), np.zeros(1))
    with pytest.raises(ValueError):
        models.batch_grads(m, p, np.zeros((1, 2)), np.zeros(1))


def test_batch_grads_match_single(rng):
    m = models.Model(kind="mlp", input_dim=4, hidden_dim=3, loss="mse")
    p = models.init_params(m, prng.seed(11)).values
    features, labels = random_batch(rng, 4, 6, classification=False)
    rows = models.batch_grads(m, p, features, labels)
    for i, row in enumerate(rows):
        single = models.batch_grads(m, p, features[i : i + 1], labels[i : i + 1])
        assert np.array_equal(row, single[0])


_ROW_LOCAL_MODELS = (
    models.Model(kind="linear", input_dim=7),
    models.Model(kind="logistic", input_dim=7),
    *(models.Model(kind="mlp", input_dim=7, hidden_dim=13, activation=act, loss=loss)
      for act in ("relu", "tanh") for loss in ("log", "mse")),
)


def _per_example_outputs(model, params, features, labels):
    """Every per-example array of the module, each with one row per example."""
    factors = models.layer_factors(model, params, features, labels)
    return [
        models.batch_losses(model, params, features, labels),
        models.batch_grads(model, params, features, labels),
        *(factor for layer in factors for factor in layer),
    ]


@pytest.mark.parametrize("model", _ROW_LOCAL_MODELS, ids=lambda m: f"{m.kind}-{m.activation}-{m.loss}")
def test_rows_are_bit_identical_however_the_batch_is_laid_out(model):
    # A row's loss, gradient and factors depend on the example alone: not on
    # the other rows, the row's offset in memory, or the input's strides.
    rng = np.random.default_rng(0)
    n = 40
    features, labels = random_batch(rng, model.input_dim, n, model.loss == "log")
    params = models.init_params(model, prng.seed(4)).values
    whole = _per_example_outputs(model, params, features, labels)
    idx = rng.permutation(n)[:17]
    padded = np.zeros((n, 2 * model.input_dim))
    padded[:, 1::2] = features
    layouts = {
        "slice view": (features[5:29], slice(5, 29)),
        "gathered copy": (features[idx], idx),
        "fortran order": (np.asfortranarray(features), slice(None)),
        "strided columns": (padded[:, 1::2], slice(None)),
        "strided rows": (features[::3], slice(None, None, 3)),
        **{f"row {i}": (features[i : i + 1], slice(i, i + 1)) for i in range(n)},
    }
    for name, (rows, where) in layouts.items():
        got = _per_example_outputs(model, params, rows, labels[where])
        for want, part in zip(whole, got):
            assert np.array_equal(part, want[where]), name


@pytest.mark.parametrize("model", _ROW_LOCAL_MODELS, ids=lambda m: f"{m.kind}-{m.activation}-{m.loss}")
def test_batch_losses_do_not_depend_on_the_block_boundaries(model, monkeypatch):
    rng = np.random.default_rng(1)
    n = 50
    features, labels = random_batch(rng, model.input_dim, n, model.loss == "log")
    params = models.init_params(model, prng.seed(4)).values
    single = [models.batch_losses(model, params, features[i : i + 1], labels[i : i + 1])[0]
              for i in range(n)]
    width = max(1, model.hidden_dim)
    for rows_per_block in (1, 7, n - 1, n, 2 * n):
        monkeypatch.setattr(models, "_LOSS_BLOCK_ENTRIES", rows_per_block * width)
        losses = models.batch_losses(model, params, np.asfortranarray(features), labels)
        assert np.array_equal(losses, single), rows_per_block


def test_batch_losses_keep_their_temporaries_under_the_mmap_threshold(monkeypatch):
    # A whole-dataset pass used to allocate B×h temporaries, each faulting in
    # fresh pages; every block's widest temporary must stay under 128 KiB.
    model = models.Model(kind="mlp", input_dim=20, hidden_dim=128)
    params = models.init_params(model, prng.seed(4)).values
    features, labels = random_batch(np.random.default_rng(2), 20, 2000, True)
    blocks = []
    impl = models._batch_losses_impl

    def recording(model, params, features, labels):
        blocks.append(features.shape[0])
        return impl(model, params, features, labels)

    monkeypatch.setattr(models, "_batch_losses_impl", recording)
    models.batch_losses(model, params, features, labels)
    assert sum(blocks) == 2000 and len(blocks) > 1
    assert max(blocks) * model.hidden_dim * 8 < 128 * 1024


@pytest.mark.parametrize("keys", [
    np.zeros(3, dtype=np.int64),  # one key short
    np.zeros((4, 1), dtype=np.int64),  # not one key per row
    np.zeros(4),  # float keys
    [0, 1, 2, 3],  # not an array
], ids=["short", "column", "float", "list"])
def test_dataset_refuses_group_keys_other_than_one_integer_per_row(keys):
    features, labels = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(ValueError, match="one key per row"):
        models.Dataset(features, labels, "regression", keys)
    ok = models.Dataset(features, labels, "regression", np.array([3, 1, 3, 0]))
    assert ok.group_keys.dtype.kind == "i"


def test_gradient_vector_build_checks_layout():
    # The step adds bare arrays; the layout is checked where parameters are
    # built. Values that do not fit the layout are refused, and layouts that
    # differ only in their names are different layouts.
    x = models.Layout((("x", 0, 3),))
    with pytest.raises(ValueError, match="does not match layout"):
        models.GradientVector(np.ones(4), x)
    with pytest.raises(ValueError, match="one-dimensional"):
        models.GradientVector(np.ones((3, 1)), x)
    assert x != models.Layout((("y", 0, 3),))
    v = models.GradientVector(np.arange(3.0), x)
    assert np.array_equal(v.segment("x"), [0.0, 1.0, 2.0])


def test_parameter_arrays_start_on_a_64_byte_boundary():
    for length in (1, 7, 21, 2817):
        assert models.aligned_empty(length).shape == (length,)
        assert models.aligned_empty(length).ctypes.data % 64 == 0
    m = models.Model(kind="mlp", input_dim=20, hidden_dim=128)
    p = models.init_params(m, prng.seed(0))
    assert p.values.ctypes.data % 64 == 0 and p.segment("b1").tolist() == [0.0] * 128


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
