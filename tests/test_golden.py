"""Golden digests: the output bits of eight short runs, recomputed on every test run.

Each digest follows the benchmark's ``Outcome.fingerprint`` recipe: SHA-256
of the JSON of [report without its ``timing`` block, audit report or None]
(keys sorted), followed by the bytes of the final parameters. The table,
``golden_digests.json`` next to this file, also records the numpy, scipy
and OpenBLAS builds it was computed with.

A mismatch means a run's output bits changed. On the recorded builds that
is a change in the program: a random stream, an operation order or a
rounding. A change that means to do that names the runs it moves and
rewrites the table (``python tests/test_golden.py`` prints it). On another
numpy, scipy or BLAS build the last bits of the BLAS products and of
``ndtri`` may differ, so a mismatch there is not by itself a fault; the
test still fails, and never skips, so that the difference is seen.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest
import scipy

from dpcore import auditing, training

TABLE = pathlib.Path(__file__).with_name("golden_digests.json")
MISMATCH = (
    "On these builds a mismatch means the run's output bits changed: a random stream, "
    "an operation order or a rounding. On other numpy, scipy or BLAS builds the last bits "
    "of BLAS products and of ndtri may differ, so a mismatch there is not by itself a fault."
)

_DATASET = {"source": "synthetic", "n": 400, "d": 6, "task": "binary-classification", "seed": 3}
_MLP = {"kind": "mlp", "input_dim": 6, "hidden_dim": 16}
_POISSON = {"strategy": "poisson", "sampling_prob": 0.05}

RUNS = {
    "logistic-sgd-dpsgd-poisson": {
        "model": {"kind": "logistic", "input_dim": 6},
        "dataset": _DATASET,
        "mechanism": "dpsgd",
        "privacy": {"target_epsilon": 2.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": _POISSON,
        "optimizer": {"kind": "sgd", "learning_rate": 0.5},
        "steps": 40,
        "seed": 1,
    },
    "mlp-relu-adamw-dpsgd": {
        "model": {**_MLP, "activation": "relu", "loss": "log"},
        "dataset": _DATASET,
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.1, "delta": 1e-5},
        "clip": {"clip_norm": 2.0},
        "batch": _POISSON,
        "optimizer": {"kind": "adamw", "learning_rate": 0.02, "weight_decay": 0.01},
        "steps": 40,
        "seed": 2,
    },
    "mlp-tanh-mse-dpsgd": {
        "model": {**_MLP, "activation": "tanh", "loss": "mse"},
        "dataset": {**_DATASET, "task": "regression"},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 0.8, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": _POISSON,
        "optimizer": {"kind": "sgd", "learning_rate": 0.1},
        "steps": 40,
        "seed": 3,
    },
    "linear-none-shuffled-fixed": {
        "model": {"kind": "linear", "input_dim": 6},
        "dataset": {**_DATASET, "task": "regression"},
        "mechanism": "none",
        "batch": {"strategy": "shuffled-fixed", "batch_size": 32},
        "optimizer": {"kind": "sgd", "learning_rate": 0.05},
        "steps": 30,
        "seed": 4,
    },
    "mlp-banded-mf-b4": {
        "model": {**_MLP, "activation": "relu", "loss": "log"},
        "dataset": _DATASET,
        "mechanism": "banded-mf",
        "privacy": {"target_epsilon": 4.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "cyclic-poisson", "sampling_prob": 0.05},
        "optimizer": {"kind": "sgd", "learning_rate": 0.5},
        "mf": {"bands": 4, "opt_iters": 50},
        "steps": 20,
        "seed": 5,
    },
    "mlp-group-dpsgd": {
        "model": {**_MLP, "activation": "relu", "loss": "log"},
        "dataset": {**_DATASET, "num_groups": 40},
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0, "level": "group"},
        "batch": {"strategy": "poisson", "sampling_prob": 0.1},
        "optimizer": {"kind": "adamw", "learning_rate": 0.02},
        "steps": 30,
        "seed": 6,
    },
    "logistic-dpsgd-cyclic-poisson": {
        "model": {"kind": "logistic", "input_dim": 6},
        "dataset": _DATASET,
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 1.0, "delta": 1e-5},
        "clip": {"clip_norm": 1.0},
        "batch": {"strategy": "cyclic-poisson", "sampling_prob": 0.1},
        "optimizer": {"kind": "sgd", "learning_rate": 0.5},
        "steps": 40,
        "seed": 7,
    },
    "audit-mlp-sigma0": {
        "model": {**_MLP, "activation": "relu", "loss": "log"},
        "dataset": _DATASET,
        "mechanism": "dpsgd",
        "privacy": {"noise_multiplier": 0.0, "delta": 1e-5},
        "clip": {"clip_norm": 10.0},
        "batch": {"strategy": "poisson", "sampling_prob": 0.1},
        "optimizer": {"kind": "adamw", "learning_rate": 0.02},
        "steps": 40,
        "eval_every": 40,
        "seed": 8,
    },
}
AUDITED = {"audit-mlp-sigma0": auditing.AuditConfig(num_canaries=60, one_run_guesses=10)}


def builds() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name"))}


def digest(name: str) -> str:
    """The fingerprint of one run's report, audit report and final parameters."""
    cfg = training.config_from_dict(RUNS[name])
    audit = None
    if name in AUDITED:
        trained = []
        run_training = training.run_training

        def capture(cfg, dataset):
            trained.append(run_training(cfg, dataset))
            return trained[-1]

        training.run_training = capture
        try:
            audit = auditing.run_audit(cfg, AUDITED[name]).to_json_dict()
        finally:
            training.run_training = run_training
        outcome, = trained
    else:
        outcome = training.train(cfg)
    report = {k: v for k, v in outcome.report.items() if k != "timing"}
    text = json.dumps([report, audit], sort_keys=True, default=str)
    return hashlib.sha256(text.encode() + outcome.final_params.values.tobytes()).hexdigest()


def test_table_names_every_run():
    assert set(json.loads(TABLE.read_text())["digests"]) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digest(name):
    table = json.loads(TABLE.read_text())
    assert digest(name) == table["digests"][name], (
        f"the output bits of {name} changed; the table was computed on {table['builds']}, "
        f"this is {builds()}"
    )


if __name__ == "__main__":
    json.dump({"builds": builds(), "mismatch": MISMATCH,
               "digests": {name: digest(name) for name in RUNS}}, sys.stdout, indent=2)
    sys.stdout.write("\n")
