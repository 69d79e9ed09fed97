"""Command-line driver: train, calibrate, benchmark, and audit.

Usage:
    dpcore train     --config cfg.json [--seed N] [--sigma-from cal.json]
    dpcore calibrate --config cfg.json [--output cal.json]
    dpcore benchmark --config cfg.json [--output bench.csv]
    dpcore audit     --config cfg.json [--seed N] [--enforce]

Configs are single JSON documents; every report echoes the fully
materialized config so a run is self-describing. Exit codes: 0 success,
1 audit failure under --enforce, 2 configuration or policy error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import accounting, auditing, training

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _load_json(path: str) -> dict:
    try:
        fh = open(path)
    except OSError as exc:
        raise training.ConfigError(f"cannot open {exc.filename}: {exc.strerror}") from exc
    with fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise training.ConfigError(f"{path} does not hold a JSON object")
    return doc


def _load_config(args) -> tuple[training.RunConfig, Optional[auditing.AuditConfig]]:
    """The run config with the command-line overrides, and the audit section if any."""
    with training.config_errors():
        raw = _load_json(args.config)
        audit = raw.pop("audit", None)
        if getattr(args, "seed", None) is not None:
            raw["seed"] = args.seed
        if getattr(args, "sigma_from", None) is not None:
            calibration = _load_json(args.sigma_from)
            if "noise_multiplier" not in calibration:
                raise training.ConfigError(f"{args.sigma_from} has no noise_multiplier")
            privacy = dict(raw.get("privacy", {}))
            privacy["noise_multiplier"] = calibration["noise_multiplier"]
            privacy.pop("target_epsilon", None)
            privacy.setdefault("delta", calibration.get("delta"))
            raw["privacy"] = privacy
        if audit is not None:
            audit = training.build_section(auditing.AuditConfig, audit, "audit")
    return training.config_from_dict(raw), audit


def _cmd_train(args) -> int:
    cfg, _ = _load_config(args)
    outcome = training.train(cfg)
    if args.output:
        training.write_report(outcome.report, args.output)
    if not cfg.report_path and not args.output:
        print(training.report_json(outcome.report))
    else:
        eps = outcome.report["achieved_epsilon"]
        print(
            f"trained {cfg.steps} steps; final loss "
            f"{outcome.report['final_loss']:.6g}; epsilon {eps}"
        )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    cfg, _ = _load_config(args)
    if cfg.privacy is None or cfg.privacy.target_epsilon is None:
        raise training.ConfigError("calibrate requires privacy.target_epsilon")
    result = {
        "noise_multiplier": training.resolve_sigma(cfg),
        "target_epsilon": cfg.privacy.target_epsilon,
        "delta": cfg.privacy.delta,
        "sampling_prob": cfg.batch.sampling_prob,
        "steps": cfg.steps,
        "mechanism": cfg.mechanism,
    }
    if args.output:
        training.write_report(result, args.output)
    print(training.report_json(result))
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg, _ = _load_config(args)
    result = training.run_benchmark(cfg)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            result.to_csv(fh)
    result.to_csv(sys.stdout)
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg, audit = _load_config(args)
    if audit is None:
        raise training.ConfigError("audit requires an 'audit' section in the config")
    report = auditing.run_audit(cfg, audit)
    print(training.report_json(report.to_json_dict()))
    if args.enforce and not report.passed:
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcore",
        description="Differentially private training, calibration, benchmark, and audit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training job from a JSON config")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--sigma-from", dest="sigma_from", default=None,
                       help="JSON produced by calibrate; overrides privacy.noise_multiplier")
    train.add_argument("--output", default=None, help="report path (overrides stdout)")
    train.set_defaults(func=_cmd_train)

    cal = sub.add_parser("calibrate", help="solve for the noise multiplier")
    cal.add_argument("--config", required=True)
    cal.add_argument("--output", default=None)
    cal.set_defaults(func=_cmd_calibrate)

    bench = sub.add_parser("benchmark", help="throughput sweep over batch sizes")
    bench.add_argument("--config", required=True)
    bench.add_argument("--output", default=None, help="CSV path")
    bench.set_defaults(func=_cmd_benchmark)

    audit = sub.add_parser("audit", help="empirical privacy audit")
    audit.add_argument("--config", required=True)
    audit.add_argument("--seed", type=int, default=None)
    audit.add_argument("--enforce", action="store_true",
                       help="exit 1 if the audit's pass flag is false")
    audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (training.ConfigError, accounting.CalibrationRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
