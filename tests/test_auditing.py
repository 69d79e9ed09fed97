import math

import numpy as np
import pytest
import scipy.stats

from dpcore import auditing, models, prng, training


def _base_dataset(n=60, d=4, seed=3):
    return training.synthesize_dataset(n, d, "binary-classification", prng.seed(seed))


def test_inclusion_bits_fair_coin():
    ds = _base_dataset(n=1200)
    cs = auditing.assign_canaries(1000, auditing.LABEL_FLIP, ds, prng.seed(0))
    count = int(np.sum(cs.included))
    lo, hi = scipy.stats.binom.interval(0.999, 1000, 0.5)
    assert lo <= count <= hi


def test_assignment_deterministic():
    ds = _base_dataset()
    a = auditing.assign_canaries(20, auditing.LABEL_FLIP, ds, prng.seed(5))
    b = auditing.assign_canaries(20, auditing.LABEL_FLIP, ds, prng.seed(5))
    assert np.array_equal(a.included, b.included)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_label_flip_changes_label():
    ds = _base_dataset(n=30)
    cs = auditing.assign_canaries(10, auditing.LABEL_FLIP, ds, prng.seed(1))
    assert np.all(cs.labels != ds.labels[-10:])
    assert np.array_equal(cs.features, ds.features[-10:])


def test_gradient_direction_canaries_unit_norm():
    ds = _base_dataset()
    cs = auditing.assign_canaries(15, auditing.GRADIENT_DIRECTION, ds, prng.seed(2))
    assert cs.features.shape == (15, 4)
    np.testing.assert_allclose(np.linalg.norm(cs.features, axis=1), 1.0, rtol=1e-6)
    assert np.all(cs.labels == 1.0)


def test_scores_deterministic():
    ds = _base_dataset()
    cs = auditing.assign_canaries(12, auditing.LABEL_FLIP, ds, prng.seed(4))
    m = models.Model(kind="logistic", input_dim=4)
    params = models.init_params(m, prng.seed(9))
    s1 = auditing.score_canaries(m, params, cs)
    s2 = auditing.score_canaries(m, params, cs)
    assert np.array_equal(s1, s2)


def test_null_experiment_scores_indistinguishable():
    # Untrained params: scores carry no membership information, so the
    # included and excluded populations look alike.
    ds = _base_dataset(n=600, d=6, seed=8)
    cs = auditing.assign_canaries(400, auditing.LABEL_FLIP, ds, prng.seed(3))
    m = models.Model(kind="logistic", input_dim=6)
    params = models.init_params(m, prng.seed(123))
    scores = auditing.score_canaries(m, params, cs)
    result = scipy.stats.ks_2samp(scores[cs.included], scores[~cs.included])
    assert result.pvalue > 1e-3


def test_signal_experiment_included_score_higher():
    # Non-private overfit run on tiny data: included canaries are memorized,
    # so their mean score must exceed the excluded mean.
    cfg = training.config_from_dict({
        "model": {"kind": "mlp", "input_dim": 5, "hidden_dim": 32},
        "dataset": {"source": "synthetic", "n": 120, "d": 5,
                    "task": "binary-classification", "seed": 21},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 0.0, "delta": 1e-5},
        "clip": {"clip_norm": 10.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.5},
        "optimizer": {"kind": "adamw", "learning_rate": 0.05},
        "steps": 150,
        "eval_every": 150,
        "seed": 0,
    })
    audit = auditing.AuditConfig(num_canaries=40, kind=auditing.LABEL_FLIP)
    report = auditing.run_audit(cfg, audit)
    scores, bits = report.scores, report.included
    assert scores[bits].mean() > scores[~bits].mean()


def test_clopper_pearson_random_decisions_small_bound():
    # No true signal: random guesses over 1000 canaries stay below 0.2.
    rng = np.random.default_rng(17)
    for trial in range(5):
        truth = rng.random(1000) < 0.5
        decisions = rng.random(1000) < 0.5
        eps = auditing.clopper_pearson_epsilon(decisions, truth, 1e-5, 0.95)
        assert eps < 0.2


def test_clopper_pearson_perfect_attacker():
    # Zero observed errors on 500/500: the exact CP bound at 95% gives
    # FPR_ub = FNR_ub = 1 - 0.05^(1/n); epsilon follows directly.
    truth = np.array([True] * 500 + [False] * 500)
    decisions = truth.copy()
    eps = auditing.clopper_pearson_epsilon(decisions, truth, 1e-5, 0.95)
    rate_ub = 1.0 - 0.05 ** (1.0 / 500.0)
    expected = math.log((1.0 - 1e-5 - rate_ub) / rate_ub)
    assert eps == pytest.approx(expected, rel=1e-10)
    assert eps > 3.0


def test_clopper_pearson_guard_branches():
    # All-wrong decisions: FNR_ub = 1 kills its numerator; the other branch
    # still contributes (or zero if both die).
    truth = np.array([True] * 10 + [False] * 10)
    decisions = ~truth
    eps = auditing.clopper_pearson_epsilon(decisions, truth, 1e-5, 0.95)
    assert eps == 0.0


def test_clopper_pearson_degenerate_truth_rejected():
    with pytest.raises(ValueError):
        auditing.clopper_pearson_epsilon([True, False], [True, True], 1e-5, 0.95)


def test_clopper_pearson_confidence_monotone():
    rng = np.random.default_rng(5)
    truth = rng.random(400) < 0.5
    scores = rng.random(400) + 0.3 * truth
    decisions = scores > np.median(scores)
    eps_values = [
        auditing.clopper_pearson_epsilon(decisions, truth, 1e-5, c)
        for c in (0.9, 0.95, 0.99)
    ]
    assert eps_values[0] >= eps_values[1] >= eps_values[2]


def test_one_run_chance_level_zero():
    assert auditing.one_run_epsilon(100, 50, 200, 0.95) == 0.0
    assert auditing.one_run_epsilon(100, 30, 200, 0.95) == 0.0


def test_one_run_perfect_guesses():
    # r = v = m = 1000: the oracle tail is p^1000, crossing alpha = 0.05 at
    # p = 0.05**(1/1000); epsilon is the log-odds of that p.
    eps = auditing.one_run_epsilon(1000, 1000, 1000, 0.95)
    p_star = 0.05 ** (1.0 / 1000.0)
    expected = math.log(p_star / (1.0 - p_star))
    assert eps == pytest.approx(expected, abs=2e-4)
    assert eps > 4.0


def test_one_run_matches_binomial_tail_oracle():
    # The returned epsilon is the largest rejected one: its tail is <= alpha
    # and nudging epsilon up by the tolerance makes the tail cross alpha.
    r, v = 100, 80
    eps = auditing.one_run_epsilon(r, v, 500, 0.95)
    p = 1.0 / (1.0 + math.exp(-eps))
    assert scipy.stats.binom.sf(v - 1, r, p) <= 0.05
    p_hi = 1.0 / (1.0 + math.exp(-(eps + 2e-4)))
    assert scipy.stats.binom.sf(v - 1, r, p_hi) > 0.05


def test_one_run_monotone_in_correct_count():
    values = [auditing.one_run_epsilon(100, v, 500, 0.95) for v in range(60, 100, 5)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_one_run_confidence_monotone():
    eps_values = [auditing.one_run_epsilon(100, 85, 500, c) for c in (0.9, 0.95, 0.99)]
    assert eps_values[0] >= eps_values[1] >= eps_values[2]


def test_one_run_invalid_counts():
    with pytest.raises(ValueError):
        auditing.one_run_epsilon(10, 11, 20, 0.95)
    with pytest.raises(ValueError):
        auditing.one_run_epsilon(30, 10, 20, 0.95)


def _small_audit_config(seed, sigma=None, target=None):
    privacy = {"delta": 1e-5}
    if sigma is not None:
        privacy["noise_multiplier"] = sigma
    else:
        privacy["target_epsilon"] = target
    return training.config_from_dict({
        "model": {"kind": "mlp", "input_dim": 8, "hidden_dim": 64},
        "dataset": {"source": "synthetic", "n": 400, "d": 8,
                    "task": "binary-classification", "seed": 13},
        "mechanism": "dpsgd",
        "privacy": privacy,
        "clip": {"clip_norm": 10.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.2},
        "optimizer": {"kind": "adamw", "learning_rate": 0.05},
        "steps": 400,
        "eval_every": 400,
        "seed": seed,
    })


def test_run_audit_deterministic(tmp_path):
    cfg = _small_audit_config(seed=1, sigma=0.0)
    audit = auditing.AuditConfig(num_canaries=100, one_run_guesses=20,
                                 report_path=str(tmp_path / "audit.json"))
    r1 = auditing.run_audit(cfg, audit)
    r2 = auditing.run_audit(cfg, audit)
    assert np.array_equal(r1.scores, r2.scores)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert (tmp_path / "audit.json").exists()


def test_run_audit_nonprivate_detects_leak():
    cfg = _small_audit_config(seed=2, sigma=0.0)
    audit = auditing.AuditConfig(num_canaries=100, one_run_guesses=20)
    report = auditing.run_audit(cfg, audit)
    assert report.epsilon_theory == math.inf
    assert report.epsilon_one_run > 1.0
    assert report.passed  # theory is infinite, so no violation is possible


def test_run_audit_private_run_passes():
    cfg = _small_audit_config(seed=3, target=1.0)
    audit = auditing.AuditConfig(num_canaries=100, one_run_guesses=20)
    report = auditing.run_audit(cfg, audit)
    assert report.epsilon_theory <= 1.0
    assert max(report.epsilon_cp, report.epsilon_one_run) <= report.epsilon_theory
    assert report.passed


def test_report_json_fields():
    cfg = _small_audit_config(seed=4, sigma=0.0)
    audit = auditing.AuditConfig(num_canaries=60, one_run_guesses=10)
    report = auditing.run_audit(cfg, audit)
    doc = report.to_json_dict()
    assert set(doc) == {
        "epsilon_theory", "epsilon_cp", "epsilon_one_run", "confidence",
        "m", "r", "v", "pass",
    }
    assert doc["m"] == 60 and doc["r"] == 20
    assert isinstance(doc["pass"], bool)


def test_null_mechanism_calibration():
    # A mechanism that ignores its input data entirely (zero learning rate:
    # parameters never move) carries no membership signal, so epsilon lower
    # bounds above 0.5 must be rare across seeds.
    exceedances = 0
    for seed in range(20):
        cfg = training.config_from_dict({
            "model": {"kind": "logistic", "input_dim": 6},
            "dataset": {"source": "synthetic", "n": 200, "d": 6,
                        "task": "binary-classification", "seed": 31},
            "mechanism": "dpsgd",
            "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
            "clip": {"clip_norm": 1.0},
            "batch": {"strategy": "poisson", "sampling_prob": 0.2},
            "optimizer": {"kind": "sgd", "learning_rate": 0.0},
            "steps": 5,
            "eval_every": 5,
            "seed": seed,
        })
        audit = auditing.AuditConfig(num_canaries=80, one_run_guesses=15)
        report = auditing.run_audit(cfg, audit)
        if max(report.epsilon_cp, report.epsilon_one_run) > 0.5:
            exceedances += 1
    assert exceedances <= 1


def test_guesses_structure():
    cfg = _small_audit_config(seed=5, sigma=0.0)
    audit = auditing.AuditConfig(num_canaries=50, one_run_guesses=10)
    report = auditing.run_audit(cfg, audit)
    assert report.guesses.count("in") == 10
    assert report.guesses.count("out") == 10
    assert report.guesses.count("abstain") == 30
