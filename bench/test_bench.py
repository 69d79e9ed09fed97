"""Tests of the benchmark's own checks and counts.

    python3 -m pytest -q bench

Each check must accept the program's real outputs and reject an injected
wrong one; attempted and failed operations must be counted exactly.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_dpcore()
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from dpcore import accounting, matrix_factorization, training  # noqa: E402


def _poisson_report(q, n, steps, contributing=None, **extra):
    if contributing is None:
        contributing = round(q * n * steps)
    return {"steps_run": steps, "normalization_denominator": q * n,
            "contributing_total": contributing, **extra}


# ---- batch normalization ----------------------------------------------------

def test_batches_accept_poisson_mean():
    report = _poisson_report(w.LONG_Q, w.LONG_N, w.LONG_STEPS)
    assert w.check_batches(report, w.LONG_Q, "poisson") == ([], [])


def test_batches_reject_q_squared_n_mean_under_poisson():
    q, n, steps = w.LONG_Q, w.LONG_N, w.LONG_STEPS
    report = _poisson_report(q, n, steps, contributing=round(q * q * n * steps))
    problems, faults = w.check_batches(report, q, "poisson")
    assert problems and not faults


def test_batches_reject_shifted_mean_by_six_standard_errors():
    q, n, steps = w.LONG_Q, w.LONG_N, w.LONG_STEPS
    sd_total = math.sqrt(n * steps * q * (1 - q))
    report = _poisson_report(q, n, steps, contributing=round(q * n * steps + 6 * sd_total))
    assert w.check_batches(report, q, "poisson")[0]


def test_batches_report_cyclic_fault_not_problem():
    q, n, steps = w.MF_Q, w.MF_N, w.MF_STEPS
    faulty = round(q * n / math.ceil(1 / q) * steps)  # the measured 18-21 examples
    problems, faults = w.check_batches(_poisson_report(q, n, steps, faulty), q, w.CYCLIC_POISSON)
    assert not problems and len(faults) == 1


def test_batches_pass_cyclic_once_normalization_is_right():
    q, n, steps = w.MF_Q, w.MF_N, w.MF_STEPS
    assert w.check_batches(_poisson_report(q, n, steps), q, w.CYCLIC_POISSON) == ([], [])


def test_batches_reject_cyclic_mean_matching_neither():
    q, n, steps = w.MF_Q, w.MF_N, w.MF_STEPS
    report = _poisson_report(q, n, steps, contributing=round(q * n * steps / 2))
    problems, faults = w.check_batches(report, q, w.CYCLIC_POISSON)
    assert problems and not faults


# ---- privacy figures --------------------------------------------------------

@pytest.fixture(scope="module")
def long_report():
    q, steps = w.LONG_Q, w.LONG_STEPS
    sigma = accounting.calibrate_noise(w.LONG_TARGET_EPSILON, w.DELTA, q, steps)
    eps = accounting.epsilon(accounting.PrivacySpec(
        epsilon=math.inf, delta=w.DELTA, noise_multiplier=sigma, sampling_prob=q, steps=steps))
    return {"achieved_epsilon": eps, "sigma": sigma, "steps_run": steps, "delta": w.DELTA}


def test_rdp_epsilon_accepts_program_value(long_report):
    assert w.check_rdp_epsilon(long_report, w.LONG_Q, w.LONG_TARGET_EPSILON) == []


def test_rdp_epsilon_rejects_offset_of_1e_minus_6(long_report):
    for offset in (1e-6, -1e-6):
        report = dict(long_report, achieved_epsilon=long_report["achieved_epsilon"] + offset)
        assert w.check_rdp_epsilon(report, w.LONG_Q, w.LONG_TARGET_EPSILON)


def test_rdp_epsilon_rejects_value_above_target(long_report):
    target = long_report["achieved_epsilon"] * 0.999
    assert any("exceeds" in p for p in w.check_rdp_epsilon(long_report, w.LONG_Q, target))


@pytest.fixture(scope="module")
def mf_report():
    sigma = accounting.calibrate_mf_noise(w.MF_TARGET_EPSILON, w.DELTA)
    eps = accounting.analytic_gaussian_epsilon(sigma, w.DELTA)
    return {"achieved_epsilon": eps, "sigma": sigma, "delta": w.DELTA, "steps_run": w.MF_STEPS}


def test_gaussian_epsilon_accepts_program_value(mf_report):
    assert w.check_gaussian_epsilon(mf_report, w.MF_TARGET_EPSILON) == []


def test_gaussian_epsilon_rejects_offset_of_1e_minus_6(mf_report):
    report = dict(mf_report, achieved_epsilon=mf_report["achieved_epsilon"] - 1e-6)
    assert w.check_gaussian_epsilon(report, w.MF_TARGET_EPSILON)


def test_gaussian_epsilon_rejects_sigma_too_small(mf_report):
    report = dict(mf_report, sigma=mf_report["sigma"] * 0.999)
    assert any("does not reach" in p
               for p in w.check_gaussian_epsilon(report, w.MF_TARGET_EPSILON))


# ---- strategy ----------------------------------------------------------------

def test_strategy_accepts_optimized_bands():
    n = 32
    strategy = matrix_factorization.optimize_banded(matrix_factorization.prefix_workload(n), 2)
    report = {"strategy_coefficients": list(strategy.coefficients), "steps_run": n}
    assert w.check_strategy(report, 2) == []


@pytest.mark.parametrize("coefficients", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, 1.5)])
def test_strategy_rejects_no_better_than_identity(coefficients):
    report = {"strategy_coefficients": list(coefficients), "steps_run": w.MF_STEPS}
    assert w.check_strategy(report, len(coefficients))


def test_strategy_rejects_wrong_band_count():
    report = {"strategy_coefficients": [1.0, -0.5], "steps_run": w.MF_STEPS}
    assert w.check_strategy(report, 4)


def test_dense_error_matches_identity_closed_form():
    n = w.MF_STEPS
    assert oracles.banded_strategy_error((1.0,), n) == n * (n + 1) / 2


# ---- audit -------------------------------------------------------------------

def _audit(**changes):
    audit = {"epsilon_theory": 0.99998, "epsilon_cp": 0.0, "epsilon_one_run": 0.0,
             "confidence": 0.95, "m": 500, "r": 100, "v": 52, "pass": True}
    return {**audit, **changes}


def test_audit_accepts_calibrated_and_noiseless():
    assert w.check_audit(_audit(), calibrated=True) == []
    noiseless = _audit(epsilon_theory=math.inf, epsilon_one_run=2.17, v=95)
    assert w.check_audit(noiseless, calibrated=False) == []


@pytest.mark.parametrize("changes", [
    {"pass": False, "epsilon_one_run": 1.2},
    {"epsilon_cp": 1.1, "pass": False},
    {"epsilon_theory": 1.0 + 1e-6},
    {"v": 101},
    {"r": 80},
    {"m": 499},
])
def test_audit_rejects_wrong_calibrated_output(changes):
    assert w.check_audit(_audit(**changes), calibrated=True)


@pytest.mark.parametrize("changes", [
    {"epsilon_one_run": 0.9},
    {"epsilon_one_run": 2.0, "epsilon_theory": 4.0},
])
def test_audit_rejects_wrong_noiseless_output(changes):
    audit = _audit(**{"epsilon_theory": math.inf, "v": 95, **changes})
    assert w.check_audit(audit, calibrated=False)


# ---- tracing -----------------------------------------------------------------

def test_tracer_counts_spans_of_a_short_run_and_restores_names():
    cfg = training.config_from_dict({
        "model": {"kind": "logistic", "input_dim": 5},
        "dataset": {"source": "synthetic", "n": 200, "d": 5, "seed": 3},
        "mechanism": "dpsgd",
        "privacy": {"target_epsilon": 4.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.05},
        "steps": 40,
    })
    originals = {(m, a): getattr(m, a) for m, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    with tracer.installed():
        training.train(cfg)
    tracer.finish_operation()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    totals, layers = tracer.totals, tracer.per_layer()
    assert totals["steps"] == 40
    assert totals["privatizer.privatize.calls"] == 40
    assert totals["optimizers.update.calls"] == 40
    assert totals["models.eval.calls"] == 21  # before the loop, then every 2nd step
    assert layers["prng.fold_in_per_step"][0] == 4  # two for the batch, two for the noise key
    assert layers["accounting.epsilon_calls"][0] == 20
    assert layers["matrix_factorization.optimize_s"][0] == 0
    for name in ("models.gather_us", "clipping.clip_ms", "training.step_self_us"):
        assert layers[name][0] > 0


# ---- counting ----------------------------------------------------------------

def _outcome(value=0.0):
    report = {"timing": {"total_seconds": 0.5}, "steps_run": 10, "contributing_total": 20,
              "value": value}
    return w.Outcome(wall_s=1.0, report=report, final_params=np.zeros(3))


def _raise():
    raise RuntimeError("diverged")


FAKE_OPERATIONS = [
    w.Operation("clean", _outcome, lambda o: ([], [])),
    w.Operation("fault", _outcome, lambda o: ([], ["known fault"])),
    w.Operation("wrong", _outcome, lambda o: (["wrong output"], [])),
    w.Operation("raises", _raise, lambda o: ([], [])),
]


def test_tally_counts_attempted_and_failed():
    rounds = run.run_rounds(FAKE_OPERATIONS, seconds=0.0)
    assert len(rounds) == 1
    rounds = rounds * 3
    attempted, failed, problems = run.tally(rounds)
    assert attempted == 12
    assert failed == 6  # "fault" and "raises" in each round
    assert sum("wrong output" in p for p in problems) == 3
    assert sum("RuntimeError: diverged" in p for p in problems) == 3


def test_tally_rejects_outputs_that_change_between_repeats():
    values = iter([1.0, 2.0])
    ops = [w.Operation("drifts", lambda: _outcome(next(values)), lambda o: ([], []))]
    rounds = run.run_rounds(ops, 0.0) + run.run_rounds(ops, 0.0)
    _, failed, problems = run.tally(rounds)
    assert failed == 0 and any("differ between repeats" in p for p in problems)


def test_round_figures_sum_operations():
    figures = run.round_figures(run.run_round(FAKE_OPERATIONS))
    assert figures == {"wall_s": 3.0, "setup_s": 1.5, "loop_s": 1.5, "steps": 30,
                       "contributing": 60}


def test_banded_mf_run_counts_every_operation_failed(capsys):
    assert run.main(["--workload", "banded-mf", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == len(w.MF_BANDS) == result["failed"]
    assert set(result["metrics"]) == {"setup_s", "wall_s", "steps_per_s", "examples_per_s",
                                      "peak_rss_mb"}
