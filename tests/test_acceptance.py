"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance and runtime budget is pinned here; a failing line
means the criterion is not met, not that the test needs loosening.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from dpcore import (
    accounting,
    auditing,
    clipping,
    matrix_factorization as mf,
    models,
    privatizer as pz,
    prng,
    training,
)

from conftest import banded_toeplitz, finite_difference_grad, random_batch, random_model


def _report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail} [{elapsed:.1f}s, budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {criterion} exceeded runtime budget"
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_microbatch_invariance():
    # The vectorized full-batch sum equals a loop over microbatches of m
    # consecutive rows, each clipped and summed on its own.
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    cfg = clipping.ClipConfig(clip_norm=0.5)
    worst = 0.0
    counts_add_up = True
    for trial in range(50):
        model = random_model(rng)
        params = models.init_params(model, prng.seed(trial))
        features, labels = random_batch(rng, model.input_dim, int(rng.integers(0, 21)))
        full = clipping.clipped_grad_sum(model, params, features, labels, cfg)
        for m in (1, 4):
            total = np.zeros_like(full.sum.values)
            counts = np.zeros(2, dtype=int)
            for lo in range(0, len(labels), m):
                part = clipping.clipped_grad_sum(
                    model, params, features[lo : lo + m], labels[lo : lo + m], cfg
                )
                total += part.sum.values
                counts += (part.contributing_count, part.dropped_nonfinite_count)
            worst = max(worst, float(np.max(np.abs(total - full.sum.values), initial=0.0)))
            counts_add_up &= tuple(counts) == (full.contributing_count,
                                               full.dropped_nonfinite_count)
    _report(1, worst <= 1e-12 and counts_add_up,
            f"50 instances, max coordinate deviation of the m-row loop, m in {{1,4}}: "
            f"{worst:.2e}; counts add up: {counts_add_up}",
            time.perf_counter() - started, 10.0)


def test_criterion_02_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    kinds_seen = set()
    worst = 0.0
    for trial in range(100):
        model = random_model(rng)
        kinds_seen.add(model.kind)
        params = models.init_params(model, prng.seed(1000 + trial))
        features, labels = random_batch(rng, model.input_dim, 1)
        analytic = models.batch_grads(model, params, features, labels)[0]
        fd = finite_difference_grad(model, params, features, labels, step=1e-5)
        rel = np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8))
        worst = max(worst, float(rel))
    ok = worst < 1e-4 and kinds_seen == {"linear", "logistic", "mlp"}
    _report(2, ok, f"100 instances over {sorted(kinds_seen)}, worst relative error {worst:.2e}",
            time.perf_counter() - started, 30.0)


def test_criterion_03_sensitivity_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    clip_norm = 0.8
    worst = 0.0
    for level in ("example", "group"):
        for trial in range(25):
            model = random_model(rng)
            params = models.init_params(model, prng.seed(trial))
            size = int(rng.integers(1, 7))
            features, labels = random_batch(rng, model.input_dim, size)
            keys = None
            if level == "group":
                keys = np.array([int(rng.integers(0, 3)) for _ in range(size)])
            cfg = clipping.ClipConfig(clip_norm=clip_norm, level=level)
            full = clipping.clipped_grad_sum(model, params, features, labels, cfg, group_keys=keys)
            assert full.sensitivity == clip_norm
            if level == "example":
                neighbors = [np.arange(size) != i for i in range(size)]
            else:
                neighbors = [keys != g for g in set(keys.tolist())]
            for keep in neighbors:
                sub = clipping.clipped_grad_sum(
                    model, params, features[keep], labels[keep], cfg,
                    group_keys=None if keys is None else keys[keep],
                )
                worst = max(worst, float(np.linalg.norm(full.sum.values - sub.sum.values)))
    _report(3, worst <= clip_norm + 1e-12,
            f"brute-force add/remove, both levels: max shift {worst:.12f} vs C={clip_norm}",
            time.perf_counter() - started, 10.0)


def test_criterion_04_accounting_reductions():
    started = time.perf_counter()
    # (a) q=1 reduction to the Gaussian RDP closed form
    reduction_err = 0.0
    for sigma in (0.5, 1.0, 2.0):
        values = accounting._rdp_values(1.0, sigma)
        for a, v in zip(accounting.ORDERS, values):
            reduction_err = max(reduction_err, abs(v - a / (2 * sigma**2)))
    # (b) q=1, T=1 epsilon vs the exact analytic-Gaussian oracle at the
    # documented example point sigma=1, delta=1e-5
    eps_rdp = accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, 1.0, 1.0, 1))
    eps_ana = accounting.analytic_gaussian_epsilon(1.0, 1e-5)
    gap = abs(eps_rdp - eps_ana) / eps_ana
    # (c) monotonicity on a 5x5x5 grid
    sigmas = [0.6, 0.9, 1.3, 2.0, 3.1]
    steps = [1, 10, 100, 400, 1000]
    qs = [0.001, 0.01, 0.05, 0.2, 1.0]
    eps_grid = np.array([
        [[accounting.epsilon(accounting.PrivacySpec(math.inf, 1e-5, s, q, t))
          for q in qs] for t in steps] for s in sigmas
    ])
    mono = (
        np.all(np.diff(eps_grid, axis=0) <= 1e-12)      # non-increasing in sigma
        and np.all(np.diff(eps_grid, axis=1) >= -1e-12)  # non-decreasing in T
        and np.all(np.diff(eps_grid, axis=2) >= -1e-12)  # non-decreasing in q
    )
    ok = reduction_err <= 1e-9 and gap <= 0.15 and mono
    _report(4, ok,
            f"q=1 reduction err {reduction_err:.1e}; rdp-vs-analytic gap {gap:.1%} "
            f"(tolerance 15%); monotone grid {mono}",
            time.perf_counter() - started, 5.0)


def test_criterion_05_calibration_safety():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(20):
        target = float(rng.uniform(0.3, 10.0))
        q = float(rng.uniform(0.005, 0.3))
        t = int(rng.integers(50, 2000))
        delta = float(rng.choice([1e-5, 1e-6]))
        sigma = accounting.calibrate_noise(target, delta, q, t)
        achieved = accounting.epsilon(
            accounting.PrivacySpec(math.inf, delta, sigma, q, t)
        )
        if not (target * (1 - 1e-3) <= achieved <= target):
            ok = False
            break
    _report(5, ok, "20 random (target, q, T, delta) tuples, "
            "achieved epsilon in [target*(1-1e-3), target]",
            time.perf_counter() - started, 30.0)


def _random_stable_coefficients(rng, bands):
    """c_0 = 1 with a contracting tail (sum |c_j| < 1 for j >= 1).

    Usable noise strategies have bounded inverse responses (the optimizer's
    outputs do); without that bound the recursion amplifies beyond what an
    absolute 1e-10 comparison can watch in float64.
    """
    tail = rng.uniform(-1.0, 1.0, size=bands - 1)
    mass = np.sum(np.abs(tail))
    if mass > 0.9:
        tail *= 0.9 / mass
    return tuple([1.0] + list(tail))


def test_criterion_06_correlated_noise_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        bands = int(rng.integers(1, 9))
        steps = int(rng.integers(bands, 65))
        coefs = _random_stable_coefficients(rng, bands)
        sigma = float(rng.uniform(0.5, 2.0))
        stddev = sigma * np.sqrt(np.sum(np.square(coefs)))  # attached sensitivity 1
        layout = models.Layout((("x", 0, 3),))
        p = pz.Privatizer(sigma, mf.Strategy(coefs))
        key = prng.seed(6000 + trial)
        state = pz.init(p, layout, key)
        zero = clipping.ClippedGradientSum(models.GradientVector.zeros(layout), 1.0, 0, 0)
        outputs = []
        for _ in range(steps):
            out, state = pz.privatize(p, zero, state)
            outputs.append(out.values)
        # dense oracle: replay the fresh noise, solve C x = z
        fresh = []
        k = key
        for _ in range(steps):
            sk, k = prng.split(k, 2)
            fresh.append(prng.gaussian(sk, 3, stddev))
        dense = scipy.linalg.solve_triangular(
            banded_toeplitz(coefs, steps), np.array(fresh), lower=True
        )
        worst = max(worst, float(np.max(np.abs(dense - np.array(outputs)))))
    # b=1 bitwise reduction to gaussian: the i.i.d. stream, replayed here
    layout = models.Layout((("x", 0, 5),))
    zero = clipping.ClippedGradientSum(models.GradientVector.zeros(layout), 1.0, 0, 0)
    b = pz.Privatizer(1.1, mf.Strategy((1.0,)))
    sb = pz.init(b, layout, prng.seed(1))
    k = prng.seed(1)
    bitwise = True
    for _ in range(8):
        ob, sb = pz.privatize(b, zero, sb)
        sk, k = prng.split(k, 2)
        bitwise = bitwise and np.array_equal(ob.values, prng.gaussian(sk, 5, 1.1))
    _report(6, worst <= 1e-10 and bitwise,
            f"20 strategies (n<=64, b<=8): max deviation from dense solve {worst:.2e}; "
            f"b=1 bit-identical to gaussian: {bitwise}",
            time.perf_counter() - started, 10.0)


def test_criterion_07_mf_optimization():
    started = time.perf_counter()
    w = mf.prefix_workload(32)
    identity_error = mf.expected_error(w, mf.IDENTITY)
    strategy = mf.optimize_banded(w, 2, iters=200)
    err = mf.expected_error(w, strategy)
    ok = identity_error == pytest.approx(528.0) and err < 528.0
    _report(7, ok, f"prefix n=32, b=2, 200 iters: error {err:.2f} < identity 528",
            time.perf_counter() - started, 30.0)


def _audit_base(seed, privacy):
    return training.config_from_dict({
        "model": {"kind": "mlp", "input_dim": 20, "hidden_dim": 128,
                  "activation": "relu", "loss": "log"},
        "dataset": {"source": "synthetic", "n": 2000, "d": 20,
                    "task": "binary-classification", "seed": 11},
        "mechanism": "dpsgd",
        "privacy": privacy,
        "clip": {"clip_norm": 10.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.1},
        "optimizer": {"kind": "adamw", "learning_rate": 0.02},
        "steps": 600,
        "eval_every": 600,
        "seed": seed,
    })


def test_criterion_08_auditing_soundness_and_power():
    started = time.perf_counter()
    audit = auditing.AuditConfig(num_canaries=500, kind="label-flip",
                                 one_run_guesses=50)
    sound = 0
    for seed in range(20):
        cfg = _audit_base(seed, {"target_epsilon": 1.0, "delta": 1e-5})
        report = auditing.run_audit(cfg, audit)
        sound += report.passed and report.epsilon_theory <= 1.0
    detected = 0
    for seed in range(20):
        cfg = _audit_base(seed, {"noise_multiplier": 0.0, "delta": 1e-5})
        report = auditing.run_audit(cfg, audit)
        detected += report.epsilon_one_run > 1.0
    ok = sound >= 19 and detected >= 19
    _report(8, ok,
            f"calibrated eps=1 passes {sound}/20 (need >=19); "
            f"sigma=0 one-run eps>1 in {detected}/20 (need >=19)",
            time.perf_counter() - started, 300.0)


def test_criterion_09_edge_case_dp_safety():
    started = time.perf_counter()
    # empty Poisson batches: pure-noise steps, run completes
    empty_cfg = training.config_from_dict({
        "model": {"kind": "logistic", "input_dim": 4},
        "dataset": {"source": "synthetic", "n": 30, "d": 4,
                    "task": "binary-classification", "seed": 0},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.01},
        "optimizer": {"kind": "sgd", "learning_rate": 0.1},
        "steps": 40,
        "seed": 2,
    })
    empty_out = training.train(empty_cfg)
    empties_ok = (
        empty_out.report["empty_batches"] > 0
        and empty_out.report["steps_run"] == 40
        and np.all(np.isfinite(empty_out.final_params.values))
    )
    # a pure-noise step moves the parameters
    layout = models.Layout((("x", 0, 4),))
    p = pz.Privatizer(1.0)
    out, _ = pz.privatize(
        p,
        clipping.ClippedGradientSum(models.GradientVector.zeros(layout), 1.0, 0, 0),
        pz.init(p, layout, prng.seed(3)),
    )
    noise_ok = float(np.linalg.norm(out.values)) > 0.0

    # NaN gradient: zeroed, counted, run completes
    nan_features = prng.gaussian(prng.seed(5), 60 * 4, 1.0).reshape(60, 4)
    nan_features[0, 0] = np.nan
    labels = (nan_features.sum(axis=1) > 0).astype(float)
    dataset = models.Dataset(nan_features, labels, "binary-classification")
    nan_cfg = training.config_from_dict({
        "model": {"kind": "logistic", "input_dim": 4},
        "dataset": {"source": "synthetic", "n": 60, "d": 4,
                    "task": "binary-classification", "seed": 0},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 0.5, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.5},
        "optimizer": {"kind": "sgd", "learning_rate": 0.1},
        "steps": 30,
        "seed": 4,
    })
    nan_out = training.run_training(nan_cfg, dataset)
    nan_ok = (
        nan_out.report["dropped_nonfinite_total"] > 0
        and nan_out.report["steps_run"] == 30
        and np.all(np.isfinite(nan_out.final_params.values))
    )
    _report(9, empties_ok and noise_ok and nan_ok,
            f"empty batches {empty_out.report['empty_batches']} handled; "
            f"pure-noise step nonzero {noise_ok}; "
            f"NaN drops {nan_out.report['dropped_nonfinite_total']} counted, run finished",
            time.perf_counter() - started, 5.0)


def test_criterion_10_benchmark_methodology():
    started = time.perf_counter()
    ratios = {}
    for kind, extra in (
        ("linear", {}),
        ("logistic", {}),
        ("mlp", {"hidden_dim": 64}),
    ):
        cfg = training.config_from_dict({
            "model": {"kind": kind, "input_dim": 20, **extra},
            "dataset": {"source": "synthetic", "n": 512, "d": 20,
                        "task": "binary-classification", "seed": 0},
            "mechanism": "none",
            "optimizer": {"kind": "adamw", "learning_rate": 0.01},
            "steps": 1,
            "benchmark": {"warmup_steps": 5, "measured_steps": 50},
            "seed": 0,
        })
        result = training.run_benchmark(cfg)
        sizes = sorted({r["batch_size"] for r in result.rows if r["record"] == "sweep"})
        power_of_two = all(s & (s - 1) == 0 for s in sizes)
        assert power_of_two and len(sizes) >= 8
        max_rows = [r for r in result.rows if r["record"] == "max"]
        assert len(max_rows) == 2  # max-over-batch-sizes reporting, per mechanism
        ratios[kind] = result.ratio
    band_ok = all(0.0 < r <= 1.5 for r in ratios.values())
    detail = ", ".join(f"{k}={v:.2f}x" for k, v in ratios.items())
    _report(10, band_ok,
            f"warmup + power-of-two sweep + examples/sec + max-over-batch-sizes; "
            f"private/non-private ratios {detail} all in (0, 1.5]",
            time.perf_counter() - started, 300.0)


def test_criterion_11_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    raw = {
        "model": {"kind": "logistic", "input_dim": 20},
        "dataset": {"source": "synthetic", "n": 1000, "d": 20,
                    "task": "binary-classification", "seed": 3},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.05},
        "optimizer": {"kind": "adamw", "learning_rate": 0.05},
        "steps": 300,
        "seed": 17,
    }
    blobs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        cfg = training.config_from_dict({**raw, "report_path": str(path)})
        training.train(cfg)
        doc = json.loads(path.read_text())
        del doc["timing"]
        doc["config"].pop("report_path")
        blobs.append(json.dumps(doc, sort_keys=True).encode())
    ok = blobs[0] == blobs[1]
    _report(11, ok, "two runs, identical config+seed: reports byte-identical "
            "modulo timing fields",
            time.perf_counter() - started, 60.0)
