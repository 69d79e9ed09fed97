import csv
import json
import math
import pathlib
import re

import numpy as np
import pytest

from dpcore import accounting, cli, training


def _cfg_dict(**overrides):
    """The base config with ``overrides`` applied; an override of None drops the field."""
    base = {
        "model": {"kind": "logistic", "input_dim": 6},
        "dataset": {"source": "synthetic", "n": 300, "d": 6,
                    "task": "binary-classification", "seed": 4},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.1},
        "optimizer": {"kind": "sgd", "learning_rate": 0.5},
        "steps": 60,
        "seed": 1,
    }
    base.update(overrides)
    return {name: value for name, value in base.items() if value is not None}


def test_exactly_one_privacy_knob_required():
    with pytest.raises(training.ConfigError):
        training.config_from_dict(_cfg_dict(
            privacy={"target_epsilon": 8.0, "noise_multiplier": 1.0, "delta": 1e-5}
        ))
    with pytest.raises(training.ConfigError):
        training.config_from_dict(_cfg_dict(privacy={"delta": 1e-5}))


def test_mechanism_none_forbids_privacy_fields():
    raw = _cfg_dict(mechanism="none")
    with pytest.raises(training.ConfigError):
        training.config_from_dict(raw)
    raw.pop("privacy")
    raw.pop("clip")
    cfg = training.config_from_dict(raw)
    assert cfg.mechanism == "none"


def test_shuffled_plan_with_dp_mechanism_fails_fast():
    raw = _cfg_dict(batch={"strategy": "shuffled-fixed", "batch_size": 30})
    with pytest.raises(training.PolicyError):
        training.config_from_dict(raw)


def test_banded_mf_requires_single_participation_plan():
    raw = _cfg_dict(mechanism="banded-mf", mf={"bands": 2, "opt_iters": 20})
    with pytest.raises(training.PolicyError):
        training.config_from_dict(raw)  # poisson plan allows repeats
    raw["batch"] = {"strategy": "cyclic-poisson", "sampling_prob": 0.1}
    raw["steps"] = 11  # epoch length is 10
    with pytest.raises(training.PolicyError):
        training.config_from_dict(raw)
    raw["steps"] = 10
    assert training.config_from_dict(raw).mechanism == "banded-mf"


_BATCHES = {
    "poisson": {"strategy": "poisson", "sampling_prob": 0.1},
    "cyclic-poisson": {"strategy": "cyclic-poisson", "sampling_prob": 0.1},
    "shuffled-fixed": {"strategy": "shuffled-fixed", "batch_size": 30},
}
# (mechanism, batch strategy) -> the assumption a refusal names, or None when
# the mechanism's accounting holds under that strategy.
_POLICY_MATRIX = {
    ("dpsgd", "poisson"): None,
    ("dpsgd", "cyclic-poisson"): None,
    ("dpsgd", "shuffled-fixed"): "privacy amplified by Poisson subsampling",
    ("banded-mf", "poisson"): "single participation",
    ("banded-mf", "cyclic-poisson"): None,
    ("banded-mf", "shuffled-fixed"): "single participation",
    ("none", "poisson"): None,
    ("none", "cyclic-poisson"): None,
    ("none", "shuffled-fixed"): None,
}


@pytest.mark.parametrize("mechanism,strategy", _POLICY_MATRIX,
                         ids=[f"{m}-{s}" for m, s in _POLICY_MATRIX])
def test_policy_matrix(mechanism, strategy):
    raw = _cfg_dict(mechanism=mechanism, batch=_BATCHES[strategy], steps=10,
                    mf={"bands": 2, "opt_iters": 20})
    if mechanism == "none":
        raw.pop("privacy")
        raw.pop("clip")
    assumption = _POLICY_MATRIX[mechanism, strategy]
    if assumption is None:
        assert training.config_from_dict(raw).batch.strategy == strategy
    else:
        with pytest.raises(training.PolicyError, match=f"assumes {assumption}"):
            training.config_from_dict(raw)


def test_train_report_deterministic(tmp_path):
    raw = _cfg_dict(report_path=str(tmp_path / "r1.json"))
    out1 = training.train(training.config_from_dict(raw))
    raw["report_path"] = str(tmp_path / "r2.json")
    out2 = training.train(training.config_from_dict(raw))
    docs = []
    for name in ("r1.json", "r2.json"):
        doc = json.loads((tmp_path / name).read_text())
        del doc["timing"]
        doc["config"].pop("report_path")
        docs.append(json.dumps(doc, sort_keys=True).encode())
    assert docs[0] == docs[1]


def test_train_report_seed_changes_output():
    out1 = training.train(training.config_from_dict(_cfg_dict(seed=1)))
    out2 = training.train(training.config_from_dict(_cfg_dict(seed=2)))
    assert out1.report["final_loss"] != out2.report["final_loss"]


def test_calibrated_run_respects_target():
    raw = _cfg_dict(privacy={"target_epsilon": 8.0, "delta": 1e-5}, steps=100)
    out = training.train(training.config_from_dict(raw))
    assert out.report["achieved_epsilon"] <= 8.0
    assert out.report["sigma"] > 0


def test_learning_happens_on_synthetic_logistic():
    raw = _cfg_dict(
        privacy={"target_epsilon": 8.0, "delta": 1e-5},
        steps=200,
        batch={"strategy": "poisson", "sampling_prob": 0.2},
    )
    out = training.train(training.config_from_dict(raw))
    assert out.report["final_loss"] < out.report["initial_loss"]


def test_near_identity_mechanism_matches_nonprivate():
    shared = dict(
        model={"kind": "linear", "input_dim": 5},
        dataset={"source": "synthetic", "n": 200, "d": 5,
                 "task": "regression", "seed": 2},
        batch={"strategy": "poisson", "sampling_prob": 0.2},
        optimizer={"kind": "sgd", "learning_rate": 0.2},
        steps=80, seed=9,
    )
    dp = training.config_from_dict({
        **shared, "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 0.0, "delta": 1e-5},
        "clip": {"clip_norm": 1e6},
    })
    plain = training.config_from_dict({**shared, "mechanism": "none"})
    tr_dp = np.array(training.train(dp).report["loss_trajectory"])
    tr_plain = np.array(training.train(plain).report["loss_trajectory"])
    assert np.max(np.abs(tr_dp[:, 1] - tr_plain[:, 1])) < 1e-6


def test_empty_poisson_batches_run_to_completion():
    raw = _cfg_dict(
        dataset={"source": "synthetic", "n": 40, "d": 6,
                 "task": "binary-classification", "seed": 4},
        batch={"strategy": "poisson", "sampling_prob": 0.01},
        steps=30,
    )
    out = training.train(training.config_from_dict(raw))
    assert out.report["empty_batches"] > 0
    assert out.report["steps_run"] == 30
    assert math.isfinite(out.report["final_loss"])


def test_nan_feature_dropped_and_run_completes(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "y"])
        writer.writerow(["nan", "1.0", "1"])
        for _ in range(59):
            x = rng.standard_normal(2)
            writer.writerow([f"{x[0]}", f"{x[1]}", str(int(x.sum() > 0))])
    raw = _cfg_dict(
        model={"kind": "logistic", "input_dim": 2},
        dataset={"source": "csv", "path": str(path),
                 "task": "binary-classification"},
        batch={"strategy": "poisson", "sampling_prob": 0.5},
        steps=20,
    )
    out = training.train(training.config_from_dict(raw))
    assert out.report["dropped_nonfinite_total"] > 0
    assert math.isfinite(out.report["final_loss"])
    assert np.all(np.isfinite(out.final_params.values))


def test_banded_mf_training_runs():
    raw = _cfg_dict(
        mechanism="banded-mf",
        batch={"strategy": "cyclic-poisson", "sampling_prob": 0.1},
        steps=10,
        mf={"bands": 3, "opt_iters": 40},
        privacy={"noise_multiplier": 1.0, "delta": 1e-5},
    )
    out = training.train(training.config_from_dict(raw))
    assert len(out.report["strategy_coefficients"]) == 3
    expected = accounting.analytic_gaussian_epsilon(1.0, 1e-5)
    assert out.report["achieved_epsilon"] == pytest.approx(expected)


def _long_banded_mf_dict(**overrides):
    return _cfg_dict(
        mechanism="banded-mf",
        batch={"strategy": "cyclic-poisson", "sampling_prob": 1 / 128},
        steps=128,
        **overrides,
    )


def test_banded_mf_trains_at_long_horizon():
    out = training.train(training.config_from_dict(_long_banded_mf_dict()))
    coefficients = out.report["strategy_coefficients"]
    assert len(coefficients) == training.MfConfig().bands
    assert coefficients[0] == 1.0 and all(map(math.isfinite, coefficients))
    assert np.all(np.isfinite(out.final_params.values))


def test_group_level_clipping_in_trainer():
    raw = _cfg_dict(
        dataset={"source": "synthetic", "n": 120, "d": 6,
                 "task": "binary-classification", "seed": 4, "num_groups": 30},
        clip={"clip_norm": 1.0, "level": "group"},
        steps=20,
    )
    out = training.train(training.config_from_dict(raw))
    assert out.report["contributing_total"] > 0


@pytest.mark.parametrize("mechanism,strategy", [
    ("dpsgd", "poisson"), ("dpsgd", "cyclic-poisson"), ("banded-mf", "cyclic-poisson"),
])
def test_group_level_run_samples_whole_groups(mechanism, strategy, monkeypatch):
    # The privacy unit is the group: every batch of a group-level run holds
    # all rows of each group it touches, and an example-level run samples rows.
    batches = []
    sampler = training.batch_selection.batches

    def spy(plan):
        for batch in sampler(plan):
            batches.append(batch)
            yield batch

    monkeypatch.setattr(training.batch_selection, "batches", spy)
    dataset = {"source": "synthetic", "n": 120, "d": 6,
               "task": "binary-classification", "seed": 4, "num_groups": 30}
    cfg = training.config_from_dict(_cfg_dict(
        dataset=dataset, mechanism=mechanism, clip={"clip_norm": 1.0, "level": "group"},
        batch={"strategy": strategy, "sampling_prob": 0.25}, steps=4,
    ))
    keys = training.build_dataset(cfg).group_keys
    training.train(cfg)
    assert len(batches) == 4 and sum(b.size for b in batches) > 0
    for batch in batches:
        assert np.array_equal(batch, np.flatnonzero(np.isin(keys, keys[batch])))
    batches.clear()
    training.train(training.config_from_dict(_cfg_dict(dataset=dataset, steps=40)))
    assert any(np.isin(keys, keys[b]).sum() != b.size for b in batches)


def test_only_group_level_runs_read_the_group_keys(monkeypatch):
    # Example-level clipping ignores group keys, so a private step of an
    # example-level run does not gather them, even from a dataset that has them.
    seen = []
    reference = training.clipped_grad_sum

    def spy(*args, group_keys=None, **kwargs):
        seen.append(group_keys)
        return reference(*args, group_keys=group_keys, **kwargs)

    monkeypatch.setattr(training, "clipped_grad_sum", spy)
    dataset = {"source": "synthetic", "n": 120, "d": 6,
               "task": "binary-classification", "seed": 4, "num_groups": 30}
    training.train(training.config_from_dict(_cfg_dict(dataset=dataset, steps=5)))
    assert len(seen) == 5 and all(keys is None for keys in seen)
    seen.clear()
    training.train(training.config_from_dict(_cfg_dict(
        dataset=dataset, clip={"clip_norm": 1.0, "level": "group"}, steps=5,
    )))
    assert len(seen) == 5 and all(keys is not None for keys in seen)


def test_csv_round_trip(tmp_path):
    from dpcore import prng

    ds = training.synthesize_dataset(25, 3, "regression", prng.seed(0))
    path = tmp_path / "ds.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "x1", "x2", "y"])
        for i in range(ds.size):
            writer.writerow(
                [repr(float(v)) for v in ds.features[i]] + [repr(float(ds.labels[i]))]
            )
    loaded = training.load_csv_dataset(str(path), "regression")
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)


def test_csv_missing_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(training.ConfigError):
        training.load_csv_dataset(str(path), "regression")


def test_config_echo_materializes_defaults():
    cfg = training.config_from_dict(_cfg_dict())
    echo = training.config_to_dict(cfg)
    assert echo["optimizer"]["beta1"] == 0.9  # default surfaced
    assert echo["benchmark"]["measured_steps"] == 50
    assert "geometry" not in echo["clip"]


def test_readme_example_config_parses():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1]
    raw = json.loads(cli_section.split("```json\n", 1)[1].split("```", 1)[0])
    raw.pop("report_path")
    cfg = training.config_from_dict(raw)
    assert cfg.mechanism == "dpsgd" and cfg.clip.clip_norm == 1.0


def test_benchmark_sweep_and_ratio():
    raw = _cfg_dict(
        mechanism="none",
        benchmark={"warmup_steps": 2, "measured_steps": 5, "batch_sizes": [1, 2, 4]},
        steps=1,
    )
    raw.pop("privacy")
    raw.pop("clip")
    cfg = training.config_from_dict(raw)
    result = training.run_benchmark(cfg)
    sweep = [r for r in result.rows if r["record"] == "sweep"]
    assert len(sweep) == 6  # 2 mechanisms x 3 sizes
    assert all(r["examples_per_sec"] > 0 for r in sweep)
    assert 0.0 < result.ratio <= 1.5
    max_rows = [r for r in result.rows if r["record"] == "max"]
    assert len(max_rows) == 2


def test_benchmark_steady_state_stability():
    # Doubling the measured steps should barely move the reported throughput:
    # there is no systematic warmup drift left after the warmup phase. On a
    # shared CPU, load from other processes comes and goes in phases of a
    # few hundred ms that can double the step time, longer than a whole
    # 250-step window (~0.1 s). So the two window lengths run back to back
    # in 17 pairs, the shorter first in every other pair so that no phase of
    # load favours one length, and each length's throughput is pooled over
    # all its windows (over 1 s at 250 steps).
    def cfg(steps):
        return training.config_from_dict({
            "model": {"kind": "mlp", "input_dim": 20, "hidden_dim": 64},
            "dataset": {"source": "synthetic", "n": 512, "d": 20,
                        "task": "binary-classification", "seed": 0},
            "mechanism": "none",
            "optimizer": {"kind": "adamw", "learning_rate": 0.01},
            "steps": 1,
            "benchmark": {"warmup_steps": 20, "measured_steps": steps,
                          "batch_sizes": [128]},
            "seed": 0,
        })

    seconds = {250: 0.0, 500: 0.0}
    for pair in range(17):
        for steps in (250, 500) if pair % 2 == 0 else (500, 250):
            throughput = training.run_benchmark(cfg(steps)).max_throughput["dpsgd"]
            seconds[steps] += steps * 128 / throughput
    base = 17 * 250 * 128 / seconds[250]
    doubled = 17 * 500 * 128 / seconds[500]
    assert abs(base - doubled) / base < 0.10


def test_benchmark_csv_output(tmp_path):
    raw = _cfg_dict(
        mechanism="none",
        benchmark={"warmup_steps": 1, "measured_steps": 3, "batch_sizes": [1, 2]},
        steps=1,
    )
    raw.pop("privacy")
    raw.pop("clip")
    result = training.run_benchmark(training.config_from_dict(raw))
    out = tmp_path / "bench.csv"
    with open(out, "w", newline="") as fh:
        result.to_csv(fh)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["mechanism"] for r in rows} == {"none", "dpsgd"}


# --- CLI ---


def _write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_train_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    raw = _cfg_dict(report_path=str(report_path), steps=20)
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["mechanism"] == "dpsgd"
    assert doc["config"]["seed"] == 1


def test_cli_train_seed_override(tmp_path):
    report_path = tmp_path / "report.json"
    raw = _cfg_dict(report_path=str(report_path), steps=10)
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw), "--seed", "42"])
    assert code == 0
    assert json.loads(report_path.read_text())["seed"] == 42


def test_cli_config_error_exit_code(tmp_path, capsys):
    raw = _cfg_dict(privacy={"delta": 1e-5})  # neither sigma nor target
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_policy_error_exit_code(tmp_path, capsys):
    raw = _cfg_dict(batch={"strategy": "shuffled-fixed", "batch_size": 10})
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2


def test_cli_train_rejects_shuffled_batch_above_dataset_size(tmp_path, capsys):
    raw = _cfg_dict(mechanism="none", batch={"strategy": "shuffled-fixed", "batch_size": 100})
    raw.pop("privacy")
    raw.pop("clip")
    raw["dataset"] = {**raw["dataset"], "n": 50}
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "batch_size 100 exceeds the dataset size 50" in capsys.readouterr().err


def test_cli_calibrate_and_sigma_from_round_trip(tmp_path, capsys):
    raw = _cfg_dict(privacy={"target_epsilon": 8.0, "delta": 1e-5}, steps=50)
    cfg_path = _write_cfg(tmp_path, raw)
    cal_path = str(tmp_path / "cal.json")
    code = cli.main(["calibrate", "--config", cfg_path, "--output", cal_path])
    assert code == 0
    cal = json.loads((tmp_path / "cal.json").read_text())
    assert cal["noise_multiplier"] > 0

    report_path = tmp_path / "report.json"
    raw2 = _cfg_dict(privacy={"target_epsilon": 8.0, "delta": 1e-5}, steps=50,
                     report_path=str(report_path))
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw2, "cfg2.json"),
                     "--sigma-from", cal_path])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["sigma"] == cal["noise_multiplier"]
    assert doc["achieved_epsilon"] <= 8.0


def test_cli_train_banded_mf_long_horizon(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    raw = _long_banded_mf_dict(report_path=str(report_path))
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 0
    assert json.loads(report_path.read_text())["steps_run"] == 128


def test_cli_train_rejects_mf_opt_step_size(tmp_path, capsys):
    raw = _long_banded_mf_dict(mf={"opt_step_size": 1e-4})
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "opt_step_size" in capsys.readouterr().err


def test_cli_train_rejects_mf_bands_above_steps(tmp_path, capsys):
    raw = _long_banded_mf_dict()
    raw["steps"] = 3  # default mf.bands is 4
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "mf.bands" in capsys.readouterr().err


def test_cli_train_rejects_mf_opt_iters_below_one(tmp_path, capsys):
    raw = _long_banded_mf_dict(mf={"opt_iters": 0})
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "mf.opt_iters" in capsys.readouterr().err


# Truncation swaps one example for another when it fires, so a step's
# sensitivity is 2C while plain-Poisson accounting charges C. The first three
# configs are the ones whose reports claimed epsilon 20.3, 20.3 and 2.11.
@pytest.mark.parametrize("n,q,max_batch_size,steps", [
    (2000, 0.1, 200, 600),
    (2000, 0.1, 230, 600),
    (10_000, 0.01, 120, 1000),
    (2000, 0.1, None, 600),
])
def test_cli_train_rejects_truncated_poisson(tmp_path, capsys, n, q, max_batch_size, steps):
    batch = {"strategy": "truncated-poisson", "sampling_prob": q}
    if max_batch_size is not None:
        batch["max_batch_size"] = max_batch_size
    raw = _cfg_dict(dataset={"source": "synthetic", "n": n, "d": 6,
                             "task": "binary-classification", "seed": 4},
                    batch=batch, steps=steps)
    code = cli.main(["train", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    err = capsys.readouterr().err
    assert ("max_batch_size" if max_batch_size is not None else "truncated-poisson") in err


def test_cli_calibrate_unreachable_target(tmp_path, capsys):
    raw = _cfg_dict(privacy={"target_epsilon": 1e-9, "delta": 1e-5},
                    batch={"strategy": "poisson", "sampling_prob": 1.0},
                    steps=10**5)
    code = cli.main(["calibrate", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_audit_enforce_exit_codes(tmp_path, capsys):
    raw = {
        "model": {"kind": "mlp", "input_dim": 8, "hidden_dim": 64},
        "dataset": {"source": "synthetic", "n": 400, "d": 8,
                    "task": "binary-classification", "seed": 13},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 8.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.2},
        "optimizer": {"kind": "adamw", "learning_rate": 0.05},
        "steps": 50,
        "eval_every": 50,
        "seed": 2,
        "audit": {"num_canaries": 60, "one_run_guesses": 10},
    }
    # heavy noise: audit passes, enforce keeps exit code 0
    code = cli.main(["audit", "--config", _write_cfg(tmp_path, raw), "--enforce"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True

    # non-private overfit with sigma=0: epsilon_theory is infinite, so the
    # pass flag cannot fail; without --enforce exit code is 0 regardless
    raw["privacy"] = {"noise_multiplier": 0.0, "delta": 1e-5}
    raw["steps"] = 400
    code = cli.main(["audit", "--config", _write_cfg(tmp_path, raw, "c2.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["epsilon_one_run"] > 0


def test_cli_audit_enforce_maps_fail_to_exit_one(tmp_path, monkeypatch, capsys):
    # A genuinely failing audit requires a genuinely broken mechanism, so the
    # wrapper contract (pass->0, fail->1 with --enforce, fail->0 without) is
    # checked against an injected failing report.
    import dpcore.auditing as auditing_mod

    failing = auditing_mod.AuditReport(
        included=np.array([True, False]),
        scores=np.array([1.0, 0.0]),
        epsilon_theory=1.0,
        epsilon_cp=2.0,
        epsilon_one_run=2.5,
        confidence=0.95,
        m=2, r=2, v=2,
        passed=False,
    )
    monkeypatch.setattr(cli.auditing, "run_audit", lambda cfg, audit: failing)
    raw = _cfg_dict(audit={"num_canaries": 10})
    cfg_path = _write_cfg(tmp_path, raw)
    assert cli.main(["audit", "--config", cfg_path, "--enforce"]) == 1
    capsys.readouterr()
    assert cli.main(["audit", "--config", cfg_path]) == 0


def test_cli_benchmark_csv(tmp_path, capsys):
    raw = _cfg_dict(
        mechanism="none",
        benchmark={"warmup_steps": 1, "measured_steps": 3, "batch_sizes": [1, 4]},
        steps=1,
    )
    raw.pop("privacy")
    raw.pop("clip")
    out_path = tmp_path / "bench.csv"
    code = cli.main(["benchmark", "--config", _write_cfg(tmp_path, raw),
                     "--output", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == out_path.read_text()
    lines = printed.splitlines()
    assert lines[0] == ("record,model,params,mechanism,batch_size,"
                        "examples_per_sec,relative_throughput")
    assert len(lines) == 1 + 4 + 2  # 2 mechanisms x 2 batch sizes, then 2 maxima
    assert "dpsgd" in printed


def test_cli_audit_requires_audit_section(tmp_path, capsys):
    raw = _cfg_dict()
    code = cli.main(["audit", "--config", _write_cfg(tmp_path, raw)])
    assert code == 2


# Configs whose errors are found before the dataset is built: (command, overrides).
# "sigma-from" trains with a calibration file that lacks noise_multiplier;
# "missing-config" and "missing-sigma-from" train with that file missing.
_EARLY_ERRORS = {
    "train-model-kind": ("train", {"model": {"kind": "foo", "input_dim": 6}}),
    "audit-model-kind": ("audit", {"model": {"kind": "foo", "input_dim": 6},
                                   "audit": {"num_canaries": 10}}),
    "mlp-hidden-dim-0": ("train", {"model": {"kind": "mlp", "input_dim": 6, "hidden_dim": 0}}),
    "input-dim-0": ("train", {"model": {"kind": "logistic", "input_dim": 0}}),
    "eval-every-0": ("train", {"eval_every": 0}),
    "group-level-without-group-keys": ("train", {"clip": {"clip_norm": 1.0, "level": "group"}}),
    "clip-geometry-linf": ("train", {"clip": {"clip_norm": 1.0, "geometry": "linf"}}),
    "clip-geometry-l2": ("train", {"clip": {"clip_norm": 1.0, "geometry": "l2"}}),
    "clip-microbatch-size": ("train", {"clip": {"clip_norm": 1.0, "microbatch_size": 4}}),
    "audit-kind-gradient-direction": ("audit", {"audit": {"num_canaries": 10,
                                                          "kind": "gradient-direction"}}),
    "one-run-guesses-negative": ("audit", {"audit": {"num_canaries": 10,
                                                     "one_run_guesses": -1}}),
    "benchmark-measured-steps-0": ("benchmark", {"benchmark": {"measured_steps": 0,
                                                               "batch_sizes": [1]}}),
    "benchmark-batch-size-0": ("benchmark", {"benchmark": {"batch_sizes": [0]}}),
    "sigma-from-without-noise-multiplier": ("sigma-from", {}),
    "audit-group-level": ("audit", {"dataset": {"source": "synthetic", "n": 300, "d": 6,
                                                "num_groups": 10},
                                    "clip": {"clip_norm": 1.0, "level": "group"},
                                    "audit": {"num_canaries": 10}}),
    "unknown-top-level-field": ("train", {"eval_evry": 5}),
    "audit-unknown-field": ("audit", {"audit": {"num_canaries": 10, "bogus": 1}}),
    "model-without-input-dim": ("train", {"model": {"kind": "logistic"}}),
    "learning-rate-string": ("train", {"optimizer": {"kind": "sgd", "learning_rate": "a"}}),
    "seed-string": ("train", {"seed": "a"}),
    "steps-bool": ("train", {"steps": True}),
    "missing-config": ("missing-config", {}),
    "missing-sigma-from": ("missing-sigma-from", {}),
    "logistic-on-regression": ("train", {"dataset": {"source": "synthetic", "n": 300, "d": 6,
                                                     "task": "regression", "seed": 4}}),
    "mlp-log-loss-on-regression": ("train", {
        "model": {"kind": "mlp", "input_dim": 6, "hidden_dim": 4, "loss": "log"},
        "dataset": {"source": "synthetic", "n": 300, "d": 6, "task": "regression", "seed": 4},
    }),
    "train-sampling-prob-0": ("train", {"batch": {"strategy": "poisson", "sampling_prob": 0.0}}),
    "calibrate-sampling-prob-0": ("calibrate", {
        "privacy": {"target_epsilon": 1.0, "delta": 1e-5},
        "batch": {"strategy": "poisson", "sampling_prob": 0.0},
    }),
    "poisson-with-batch-size": ("train", {"batch": {"strategy": "poisson", "sampling_prob": 0.1,
                                                    "batch_size": 64}}),
    "shuffled-fixed-with-sampling-prob": ("train", {
        "mechanism": "none", "privacy": None, "clip": None,
        "batch": {"strategy": "shuffled-fixed", "batch_size": 30, "sampling_prob": 0.1},
    }),
    "none-with-clip": ("train", {"mechanism": "none", "privacy": None}),
}
# Malformed dataset files, each bad on line 3; _run_cli writes the one a
# config names under tmp_path.
_CSV_FILES = {
    "non-numeric.csv": "x0,y\n1.0,1\nabc,0\n",
    "short-row.csv": "x0,x1,y\n1.0,2.0,1\n3.0,0\n",
    "label-outside-unit.csv": "x0,y\n1.0,1\n2.0,-1\n",
}
_BAD_CONFIGS = {
    **_EARLY_ERRORS,
    "missing-dataset-path": ("train", {"dataset": {"source": "csv",
                                                   "path": "no-such-dataset.csv"}}),
    "label-flip-canaries-not-below-n": ("audit", {"audit": {"num_canaries": 300}}),
    **{f"csv-{name[:-4]}": ("train", {"dataset": {"source": "csv", "path": name}})
       for name in _CSV_FILES},
}


def _run_cli(tmp_path, command, overrides):
    dataset = overrides.get("dataset", {})
    if dataset.get("path") in _CSV_FILES:
        path = tmp_path / dataset["path"]
        path.write_text(_CSV_FILES[dataset["path"]])
        overrides = {**overrides, "dataset": {**dataset, "path": str(path)}}
    argv = [command, "--config", _write_cfg(tmp_path, _cfg_dict(**overrides))]
    if command == "sigma-from":
        cal_path = tmp_path / "cal.json"
        cal_path.write_text(json.dumps({"delta": 1e-5}))
        argv = ["train", *argv[1:], "--sigma-from", str(cal_path)]
    elif command == "missing-config":
        argv = ["train", "--config", str(tmp_path / "missing.json")]
    elif command == "missing-sigma-from":
        argv = ["train", *argv[1:], "--sigma-from", str(tmp_path / "missing.json")]
    return cli.main(argv)


@pytest.mark.parametrize("command,overrides", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_cli_bad_config_exits_2_with_one_error_line(tmp_path, capsys, command, overrides):
    assert _run_cli(tmp_path, command, overrides) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command,overrides", _EARLY_ERRORS.values(), ids=_EARLY_ERRORS.keys())
def test_cli_field_errors_precede_the_dataset(tmp_path, monkeypatch, capsys, command, overrides):
    def build_dataset(cfg):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(training, "build_dataset", build_dataset)
    with pytest.raises(AssertionError, match="the dataset was built"):
        _run_cli(tmp_path, "train", {})
    assert _run_cli(tmp_path, command, overrides) == 2


_ERROR_LINES = {
    "clip-geometry-l2": "unknown field clip.geometry",
    "clip-microbatch-size": "unknown field clip.microbatch_size",
    "unknown-top-level-field": "unknown field eval_evry",
    "audit-unknown-field": "unknown field audit.bogus",
    "model-without-input-dim": "missing field model.input_dim",
    "missing-config": "cannot open {tmp}/missing.json: No such file or directory",
    "missing-sigma-from": "cannot open {tmp}/missing.json: No such file or directory",
    "sigma-from-without-noise-multiplier": "{tmp}/cal.json has no noise_multiplier",
    "eval-every-0": "eval_every must be at least 1",
    "logistic-on-regression": "a logistic model trains on log loss, which needs labels in "
                              "[0, 1]; dataset.task is regression",
    "poisson-with-batch-size": "bad configuration: poisson does not read batch.batch_size; "
                               "remove it",
    "shuffled-fixed-with-sampling-prob": "bad configuration: shuffled-fixed does not read "
                                         "batch.sampling_prob; remove it",
    "none-with-clip": "mechanism 'none' is the non-private baseline; remove the clip section",
}


@pytest.mark.parametrize("name", _ERROR_LINES)
def test_cli_error_line_names_the_config_path(tmp_path, capsys, name):
    # A ConfigError passes through config_errors unchanged, and a field the
    # config section does not have is named by its path in the config.
    assert _run_cli(tmp_path, *_EARLY_ERRORS[name]) == 2
    assert capsys.readouterr().err == f"error: {_ERROR_LINES[name].format(tmp=tmp_path)}\n"


@pytest.mark.parametrize("name", _CSV_FILES)
def test_csv_malformed_row_names_file_and_line(tmp_path, name):
    path = tmp_path / name
    path.write_text(_CSV_FILES[name])
    with pytest.raises(training.ConfigError, match=re.escape(f"csv dataset {path} line 3: ")):
        training.load_csv_dataset(str(path), "binary-classification")
