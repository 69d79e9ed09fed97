"""Config-driven training engine and throughput benchmark.

One training step is the fixed composition

    batch indices -> gather rows -> clipped gradient sum -> privatize ->
    normalize by the expected batch size -> optimizer update -> apply,

with the non-private baseline (mechanism "none") replacing the clipped sum
and privatize stages by the unclipped gradient sum
(:func:`clipping.grad_sum`, the same per-layer reduction with every clip
factor 1). Neither sum materializes per-example gradients, at either
clipping level. The step is written once, in :func:`train_step`,
which the training loop and the benchmark cells both call. Everything
stochastic flows from the run seed through explicit PRNG keys, so a report
is a pure function of its config (timing fields aside).

Validation happens before the first step, in two layers. Each config
section is a type that checks its own fields when it is built, after
:func:`build_section` has checked each JSON value against its field's
annotation (a number for ``float``, an integer for ``int``, never a bool),
and :func:`config_from_dict` turns any field error into a
:class:`ConfigError`. The ``batch`` section is
:class:`batch_selection.BatchConfig`, the one validator of the batch
policy. :func:`validate_config` then checks what spans sections: the
model's loss against the task, the mechanism against the privacy, clip and
batch fields, the steps and the dataset. The privacy policy lives here and
nowhere else: a configuration outside :data:`POLICY` never starts
training. The few checks that need the dataset's size or width, the batch
plan's among them, run once it is built, still before step 1. DP-SGD
noise is the one-band (identity) case of banded noise, so every privatizer
is built one way, from its noise multiplier and strategy; the privatizer
reads the clip norm from the sum it noises.

The benchmark harness measures throughput after warmup as the median, over
chunks of the measured steps, of examples processed per second of wall
time. It sweeps batch sizes in powers of two and reports the maximum per
mechanism plus the private/non-private ratio.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import numbers
import time
import typing
from typing import Optional, TextIO

import numpy as np

from . import accounting, batch_selection, matrix_factorization, prng
from .batch_selection import BatchConfig
from .clipping import ClipConfig, clipped_grad_sum, grad_sum
from .models import (
    Dataset,
    GradientVector,
    Model,
    dataset_mean_loss,
    init_params,
)
from .optimizers import ADAMW_DEFAULTS, adamw_init, adamw_update, sgd_update
from .privatizer import Privatizer
from .privatizer import init as privatizer_init
from .privatizer import privatize

# The privacy policy: for each private mechanism, the batch strategies its
# accounting holds under, and the assumption that makes it hold there.
POLICY = {
    "dpsgd": ((batch_selection.POISSON, batch_selection.CYCLIC_POISSON),
              "privacy amplified by Poisson subsampling"),
    "banded-mf": ((batch_selection.CYCLIC_POISSON,), "single participation"),
}

MECHANISMS = ("none", *POLICY)


class ConfigError(ValueError):
    """Invalid or conflicting run configuration (CLI exit code 2)."""


class PolicyError(ConfigError):
    """Configuration whose privacy accounting would be invalid."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _json_type_ok(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; bool is not a number."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_json_type_ok(value, arg) for arg in typing.get_args(hint))
    if origin is tuple:  # tuple[int, ...], given as a JSON list
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_json_type_ok(v, item) for v in value)
    if hint in (int, float):
        kind = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, kind) and not isinstance(value, bool)
    return isinstance(value, hint)


def build_section(kind: type, fields: dict, section: Optional[str] = None):
    """Builds a config section from a JSON object, checking each field's type first.

    ``section`` is the section's key in the config ("optimizer"), which error
    messages name; None is the top level.
    """
    _require(isinstance(fields, dict), f"{section or 'the config'} must be a JSON object")

    def path(name):
        return f"{section}.{name}" if section else name

    hints = typing.get_type_hints(kind)
    for name in fields:
        _require(name in hints, f"unknown field {path(name)}")
    for field in dataclasses.fields(kind):
        required = (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING)
        _require(field.name in fields or not required, f"missing field {path(field.name)}")
    for name, hint in hints.items():
        if name in fields and not _json_type_ok(fields[name], hint):
            expected = hint.__name__ if typing.get_origin(hint) is None else str(hint)
            raise ConfigError(
                f"{path(name)} must be {expected.replace('typing.', '')}, got {fields[name]!r}"
            )
    return kind(**fields)


@contextlib.contextmanager
def config_errors():
    """Re-raises a bad field's TypeError, KeyError or ValueError as a ConfigError.

    A ConfigError already names what is wrong, so it passes through unchanged.
    """
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    source: str  # "synthetic" | "csv"
    n: int = 0
    d: int = 0
    task: str = "binary-classification"
    seed: int = 0
    num_groups: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self):
        _require(self.source in ("synthetic", "csv"), "dataset source must be synthetic or csv")
        _require(self.task in ("regression", "binary-classification"),
                 f"unknown task {self.task!r}")
        if self.source == "csv":
            _require(self.path is not None, "csv dataset requires a path")
        else:
            _require(self.n >= 1 and self.d >= 1, "synthetic dataset needs n >= 1 and d >= 1")
        _require(self.num_groups is None or self.num_groups >= 1,
                 "num_groups must be at least 1")


@dataclasses.dataclass(frozen=True)
class PrivacyConfig:
    delta: float
    target_epsilon: Optional[float] = None
    noise_multiplier: Optional[float] = None

    def __post_init__(self):
        has_target = self.target_epsilon is not None
        _require(
            has_target != (self.noise_multiplier is not None),
            "specify exactly one of privacy.target_epsilon and privacy.noise_multiplier",
        )
        if has_target:
            _require(self.target_epsilon > 0, "target_epsilon must be positive")
        else:
            _require(self.noise_multiplier >= 0, "noise_multiplier must be non-negative")
        _require(0.0 < self.delta < 1.0, "delta must be in (0, 1)")


@dataclasses.dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd"  # "sgd" | "adamw"
    learning_rate: float = 0.1
    beta1: float = ADAMW_DEFAULTS["beta1"]
    beta2: float = ADAMW_DEFAULTS["beta2"]
    eps: float = ADAMW_DEFAULTS["eps"]
    weight_decay: float = ADAMW_DEFAULTS["weight_decay"]

    def __post_init__(self):
        _require(self.kind in ("sgd", "adamw"), "optimizer kind must be sgd or adamw")


@dataclasses.dataclass(frozen=True)
class MfConfig:
    bands: int = 4
    opt_iters: int = 200

    def __post_init__(self):
        _require(self.bands >= 1, "mf.bands must be at least 1")
        _require(self.opt_iters >= 1, "mf.opt_iters must be at least 1")


@dataclasses.dataclass(frozen=True)
class BenchmarkConfig:
    warmup_steps: int = 5
    measured_steps: int = 50
    batch_sizes: Optional[tuple[int, ...]] = None  # default: powers of two

    def __post_init__(self):
        _require(self.warmup_steps >= 0, "benchmark warmup_steps must be non-negative")
        _require(self.measured_steps >= 1, "benchmark measured_steps must be at least 1")
        if self.batch_sizes is not None:
            object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
            _require(all(b >= 1 for b in self.batch_sizes),
                     "benchmark batch sizes must be at least 1")


@dataclasses.dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Full description of one run; every report echoes it with defaults filled."""

    model: Model
    dataset: DatasetConfig
    mechanism: str = "none"
    steps: int
    seed: int = 0
    privacy: Optional[PrivacyConfig] = None
    clip: Optional[ClipConfig] = None
    batch: BatchConfig = dataclasses.field(
        default_factory=lambda: BatchConfig(strategy="poisson", sampling_prob=0.01)
    )
    optimizer: OptimizerConfig = dataclasses.field(default_factory=OptimizerConfig)
    mf: MfConfig = dataclasses.field(default_factory=MfConfig)
    benchmark: BenchmarkConfig = dataclasses.field(default_factory=BenchmarkConfig)
    eval_every: Optional[int] = None
    report_path: Optional[str] = None

    def __post_init__(self):
        _require(self.mechanism in MECHANISMS, f"unknown mechanism {self.mechanism!r}")
        _require(self.steps >= 1, "steps must be at least 1")
        _require(self.eval_every is None or self.eval_every >= 1,
                 "eval_every must be at least 1")


# The type of each config section; a section left out takes its default.
_SECTIONS = {
    "model": Model,
    "dataset": DatasetConfig,
    "privacy": PrivacyConfig,
    "clip": ClipConfig,
    "batch": BatchConfig,
    "optimizer": OptimizerConfig,
    "mf": MfConfig,
    "benchmark": BenchmarkConfig,
}


def config_from_dict(raw: dict) -> RunConfig:
    """Parses a JSON config dict into a validated RunConfig."""
    with config_errors():
        sections = {
            name: build_section(kind, raw[name], name)
            for name, kind in _SECTIONS.items() if name in raw
        }
        cfg = build_section(RunConfig, {**raw, **sections})
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """The checks that span sections; no invalid configuration reaches step 1."""
    model = cfg.model
    log_loss = model.kind == "logistic" or (model.kind == "mlp" and model.loss == "log")
    _require(not (log_loss and cfg.dataset.task == "regression"),
             f"a {model.kind} model trains on log loss, which needs labels in [0, 1]; "
             "dataset.task is regression")
    if cfg.mechanism == "none":
        for section in ("privacy", "clip"):
            _require(getattr(cfg, section) is None,
                     f"mechanism 'none' is the non-private baseline; remove the {section} section")
        return

    _require(cfg.privacy is not None, f"mechanism {cfg.mechanism!r} requires privacy fields")
    _require(cfg.clip is not None, f"mechanism {cfg.mechanism!r} requires a clip config")
    if cfg.clip.level == "group":
        _require(
            cfg.dataset.source == "synthetic" and cfg.dataset.num_groups is not None,
            "group-level clipping needs group keys, which only a synthetic dataset "
            "with num_groups has",
        )
    strategies, assumption = POLICY[cfg.mechanism]
    if cfg.batch.strategy not in strategies:
        raise PolicyError(
            f"{cfg.mechanism} accounting assumes {assumption}, which holds only "
            f"under batch strategy {' or '.join(strategies)}, not {cfg.batch.strategy}"
        )
    if cfg.mechanism == "banded-mf":
        _require(cfg.mf.bands <= cfg.steps,
                 f"mf.bands ({cfg.mf.bands}) must not exceed steps ({cfg.steps})")
        q = cfg.batch.sampling_prob
        epoch_len = batch_selection.cyclic_epoch_length(q)
        if cfg.steps > epoch_len:
            raise PolicyError(
                f"banded-mf accounting assumes {assumption}, which bounds steps "
                f"by one epoch ({epoch_len} at q={q}); got steps={cfg.steps}"
            )


def config_to_dict(cfg: RunConfig) -> dict:
    """Materializes the config, defaults included, for the report echo."""
    return dataclasses.asdict(cfg)


def synthesize_dataset(
    n: int,
    d: int,
    task: str,
    key: prng.PrngKey,
    num_groups: Optional[int] = None,
) -> Dataset:
    """Synthetic data with a planted linear signal.

    Features are i.i.d. standard normal; a hidden unit-scaled weight vector
    produces either noisy linear targets (regression) or separable-ish
    binary labels (classification). The arguments are those of a
    :class:`DatasetConfig`, which checks them.
    """
    kx, kw, knoise = prng.split(key, 3)
    features = prng.gaussian(kx, n * d, 1.0).reshape(n, d)
    true_w = prng.gaussian(kw, d, 1.0) / np.sqrt(d)
    logits = features @ true_w
    if task == "regression":
        labels = logits + prng.gaussian(knoise, n, 0.1)
    else:
        labels = (logits + prng.gaussian(knoise, n, 0.1) > 0.0).astype(np.float64)
    group_keys = None if num_groups is None else np.arange(n, dtype=np.int64) % num_groups
    return Dataset(features, labels, task, group_keys)


def load_csv_dataset(path: str, task: str) -> Dataset:
    """Loads a dataset from CSV with columns x0..x{d-1}, y (header required)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot open csv dataset {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"empty csv dataset: {path}")
        try:
            y_col = header.index("y")
        except ValueError as exc:
            raise ConfigError("csv dataset needs a 'y' column") from exc
        d = len(header) - 1
        expected = [f"x{i}" for i in range(d)]
        x_cols = [c for c in header if c != "y"]
        if x_cols != expected:
            raise ConfigError(f"csv feature columns must be x0..x{d-1}, got {x_cols}")
        col_index = [header.index(c) for c in expected]
        features, labels = [], []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} values, got {len(row)}")
                values = [float(v) for v in row]
                if task == "binary-classification" and not 0.0 <= values[y_col] <= 1.0:
                    raise ValueError(f"binary-classification label {row[y_col]} is outside [0, 1]")
            except ValueError as exc:
                raise ConfigError(f"csv dataset {path} line {reader.line_num}: {exc}") from exc
            features.append([values[i] for i in col_index])
            labels.append(values[y_col])
    if not features:
        raise ConfigError(f"csv dataset has no rows: {path}")
    return Dataset(np.array(features), np.array(labels), task)


def build_dataset(cfg: RunConfig) -> Dataset:
    ds = cfg.dataset
    if ds.source == "synthetic":
        return synthesize_dataset(
            ds.n, ds.d, ds.task, prng.seed(ds.seed), num_groups=ds.num_groups
        )
    return load_csv_dataset(ds.path, ds.task)


@dataclasses.dataclass(frozen=True)
class TrainOutcome:
    """Everything a caller may need from a finished run."""

    final_params: GradientVector
    report: dict


def resolve_sigma(cfg: RunConfig) -> float:
    """The noise multiplier of a run: given, or calibrated for its mechanism."""
    p = cfg.privacy
    if p.noise_multiplier is not None:
        return p.noise_multiplier
    if cfg.mechanism == "dpsgd":
        return accounting.calibrate_noise(
            p.target_epsilon, p.delta, cfg.batch.sampling_prob, cfg.steps
        )
    return accounting.calibrate_mf_noise(p.target_epsilon, p.delta)


def _private_noise(cfg: RunConfig) -> tuple[float, matrix_factorization.Strategy, float]:
    """The noise multiplier, noise strategy and achieved epsilon of a private run.

    DP-SGD is the identity strategy, T Poisson-subsampled Gaussian steps.
    Banded-mf optimizes its bands and, under single participation, is one
    Gaussian release at sigma.
    """
    sigma = resolve_sigma(cfg)
    delta = cfg.privacy.delta
    if cfg.mechanism == "dpsgd":
        spec = accounting.PrivacySpec(math.inf, delta, sigma, cfg.batch.sampling_prob, cfg.steps)
        achieved = accounting.epsilon(spec) if sigma > 0 else math.inf
        return sigma, matrix_factorization.IDENTITY, achieved
    strategy = matrix_factorization.optimize_banded(
        matrix_factorization.prefix_workload(cfg.steps), cfg.mf.bands, iters=cfg.mf.opt_iters
    )
    achieved = accounting.analytic_gaussian_epsilon(sigma, delta) if sigma > 0 else math.inf
    return sigma, strategy, achieved


def run_training(cfg: RunConfig, dataset: Dataset) -> TrainOutcome:
    """Runs the training loop on an already-built dataset.

    Deterministic given (cfg, dataset): all randomness flows from cfg.seed.
    """
    validate_config(cfg)
    model = cfg.model
    _require(
        model.input_dim == dataset.feature_dim,
        f"model input_dim {model.input_dim} does not match dataset "
        f"feature dim {dataset.feature_dim}",
    )
    root = prng.seed(cfg.seed)
    init_key, batch_key, noise_key = (prng.fold_in(root, i) for i in (1, 2, 3))
    # The sampler draws the privacy unit, whose rate the accountant is charged.
    group_level = cfg.clip is not None and cfg.clip.level == "group"
    with config_errors():
        plan = batch_selection.BatchPlan(
            cfg.batch, dataset.size, cfg.steps, batch_key,
            group_keys=dataset.group_keys if group_level else None,
        )
    denom = plan.expected_batch_size

    params = init_params(model, init_key)

    sigma = strategy = achieved = priv = priv_state = None
    if cfg.mechanism != "none":
        sigma, strategy, achieved = _private_noise(cfg)
        priv = Privatizer(sigma, strategy)
        priv_state = privatizer_init(priv, params.layout, noise_key)
    optimized = strategy if cfg.mechanism == "banded-mf" else None

    eval_every = cfg.eval_every if cfg.eval_every is not None else max(1, cfg.steps // 20)

    trajectory = [[0, dataset_mean_loss(model, params, dataset)]]
    empty_batches = 0
    dropped_total = 0
    contributing_total = 0

    opt_state = None
    started = time.perf_counter()
    for step, batch_idx in enumerate(batch_selection.batches(plan), start=1):
        if batch_idx.size == 0:
            empty_batches += 1
        params, opt_state, priv_state, csum = train_step(
            model, dataset, batch_idx, params, opt_state, priv_state,
            clip=cfg.clip, priv=priv, optimizer=cfg.optimizer, denom=denom,
        )
        if csum is not None:
            dropped_total += csum.dropped_nonfinite_count
            contributing_total += csum.contributing_count
        if step % eval_every == 0 or step == cfg.steps:
            trajectory.append([step, dataset_mean_loss(model, params, dataset)])
    elapsed = time.perf_counter() - started

    report = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "mechanism": cfg.mechanism,
        "sigma": sigma,
        "clip_norm": cfg.clip.clip_norm if cfg.clip else None,
        "delta": cfg.privacy.delta if cfg.privacy else None,
        "achieved_epsilon": achieved,
        "normalization_denominator": denom,
        "strategy_coefficients": list(optimized.coefficients) if optimized else None,
        "strategy_objective": "total-squared-error-frobenius" if optimized else None,
        "steps_run": cfg.steps,
        "empty_batches": empty_batches,
        "dropped_nonfinite_total": dropped_total,
        "contributing_total": contributing_total,
        "loss_trajectory": trajectory,
        "initial_loss": trajectory[0][1],
        "final_loss": trajectory[-1][1],
        "timing": {
            "total_seconds": elapsed,
            "seconds_per_step": elapsed / cfg.steps,
        },
    }
    return TrainOutcome(final_params=params, report=report)


def train_step(model, dataset, batch_idx, params, opt_state, priv_state, *,
               clip, priv, optimizer, denom):
    """One training step on the rows ``batch_idx`` of ``dataset``.

    Gathers the rows, sums their clipped gradients and privatizes the sum
    (or, when ``priv`` is None, the non-private baseline, sums their
    unclipped gradients), divides by ``denom``, and applies the optimizer
    update. ``opt_state`` None starts a fresh optimizer.

    Returns:
      (params, opt_state, priv_state, csum): the next state, and the
      ClippedGradientSum of a private step (None for the baseline).
    """
    features = dataset.features[batch_idx]
    labels = dataset.labels[batch_idx]
    if priv is None:
        csum = None
        grad = GradientVector(grad_sum(model, params, features, labels), params.layout)
    else:
        group_keys = None  # read only by group-level clipping
        if dataset.group_keys is not None and clip.level == "group":
            group_keys = dataset.group_keys[batch_idx]
        csum = clipped_grad_sum(model, params, features, labels, clip, group_keys=group_keys)
        grad, priv_state = privatize(priv, csum, priv_state)
    grad = GradientVector(grad.values / denom, params.layout)
    o = optimizer
    if o.kind == "sgd":
        update, opt_state = sgd_update(o.learning_rate, grad, params)
    else:
        update, opt_state = adamw_update(
            o.learning_rate, o.beta1, o.beta2, o.eps, o.weight_decay,
            grad, opt_state or adamw_init(params.layout), params,
        )
    return params + update, opt_state, priv_state, csum


def train(cfg: RunConfig) -> TrainOutcome:
    """Builds the dataset, trains, and writes the report if configured."""
    dataset = build_dataset(cfg)
    outcome = run_training(cfg, dataset)
    if cfg.report_path:
        write_report(outcome.report, cfg.report_path)
    return outcome


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(report_json(report))
        fh.write("\n")


def _power_of_two_sizes(limit: int) -> tuple[int, ...]:
    sizes = []
    b = 1
    while b <= limit:
        sizes.append(b)
        b *= 2
    return tuple(sizes)


@dataclasses.dataclass(frozen=True)
class BenchmarkResult:
    """Sweep rows plus per-mechanism maxima and the private/non-private ratio."""

    rows: list[dict]
    max_throughput: dict[str, float]
    ratio: float

    def to_csv(self, stream: TextIO) -> None:
        """Writes the rows as CSV, after a header row, to a text stream."""
        fieldnames = [
            "record", "model", "params", "mechanism", "batch_size",
            "examples_per_sec", "relative_throughput",
        ]
        writer = csv.DictWriter(stream, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)


def run_benchmark(cfg: RunConfig) -> BenchmarkResult:
    """Throughput sweep: mechanisms {none, dpsgd} x power-of-two batch sizes.

    Each cell runs warmup steps then measured steps on synthetic data with a
    fixed batch size (consecutive index windows, so the dataset acts purely
    as dummy input). Throughput is the median of examples per second over up
    to ten chunks of the measured steps, so one phase of load from other
    processes moves it little; the summary rows report the max across batch
    sizes and the dpsgd/none ratio of those maxima.
    """
    dataset = build_dataset(cfg)
    model = cfg.model
    bench = cfg.benchmark
    sizes = bench.batch_sizes or _power_of_two_sizes(min(dataset.size, 256))
    clip = cfg.clip if cfg.clip is not None else ClipConfig(clip_norm=1.0)
    sigma = 1.0
    if cfg.privacy is not None and cfg.privacy.noise_multiplier is not None:
        sigma = cfg.privacy.noise_multiplier

    rows = []
    best: dict[str, float] = {}
    for mechanism in ("none", "dpsgd"):
        for batch_size in sizes:
            throughput = _benchmark_cell(
                cfg, model, dataset, mechanism, batch_size, clip, sigma
            )
            rows.append({
                "record": "sweep",
                "model": model.kind,
                "params": model.param_count(),
                "mechanism": mechanism,
                "batch_size": batch_size,
                "examples_per_sec": round(throughput, 3),
                "relative_throughput": "",
            })
            best[mechanism] = max(best.get(mechanism, 0.0), throughput)
    ratio = best["dpsgd"] / best["none"]
    for mechanism in ("none", "dpsgd"):
        rows.append({
            "record": "max",
            "model": model.kind,
            "params": model.param_count(),
            "mechanism": mechanism,
            "batch_size": "",
            "examples_per_sec": round(best[mechanism], 3),
            "relative_throughput": round(best[mechanism] / best["none"], 4),
        })
    return BenchmarkResult(rows=rows, max_throughput=best, ratio=ratio)


def _benchmark_cell(cfg, model, dataset, mechanism, batch_size, clip, sigma):
    root = prng.seed(cfg.seed)
    params = init_params(model, prng.fold_in(root, 1))
    priv = None
    priv_state = None
    if mechanism == "dpsgd":
        priv = Privatizer(sigma)
        priv_state = privatizer_init(priv, params.layout, prng.fold_in(root, 3))
    opt_state = None
    n = dataset.size

    def run(count):
        nonlocal params, opt_state, priv_state
        for step in range(count):
            start = (step * batch_size) % n
            idx = np.arange(start, start + batch_size) % n
            params, opt_state, priv_state, _ = train_step(
                model, dataset, idx, params, opt_state, priv_state,
                clip=clip, priv=priv, optimizer=cfg.optimizer, denom=batch_size,
            )

    run(cfg.benchmark.warmup_steps)
    measured = cfg.benchmark.measured_steps
    rates = []
    for chunk in np.array_split(np.arange(measured), min(measured, 10)):
        started = time.perf_counter()
        run(chunk.size)
        rates.append(chunk.size * batch_size / (time.perf_counter() - started))
    return float(np.median(rates))
