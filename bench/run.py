"""Runs one dpcore benchmark workload and prints its metrics as one JSON line.

    python3 bench/run.py --workload audit-mlp --seed 0 --seconds 30 --trace 0

From the root of a source checkout; dpcore is imported from its src/. A run
repeats whole rounds of the workload's operations until about --seconds have
passed, checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: set-up time per round as
a median over the rounds, wall time per round and rates over all rounds. With
--trace 1 untraced and traced rounds alternate: the traced ones give the
per-layer metrics, and the difference of the two medians of round wall time
is the tracing overhead. A JSON record of the run goes to
bench/results/, and a traced run also writes the spans of its first traced
operation there.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_VARIABLES:
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# A run stops once the time spent plus half the last round reaches --seconds.
STOP_SHARE_OF_ROUND = 0.5


def _import_dpcore():
    """Imports dpcore from the checkout's src/, or exits with an error."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dpcore
    except ImportError as exc:
        sys.exit(f"error: cannot import dpcore from {ROOT / 'src'}: {exc}")
    if Path(dpcore.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"error: dpcore was imported from {dpcore.__file__}, not {ROOT / 'src'}")


def run_round(operations, tracer=None):
    """Runs each operation once; returns [(label, outcome or None, problems, faults)]."""
    results = []
    for op in operations:
        try:
            if tracer is None:
                outcome = op.run()
            else:
                with tracer.installed():
                    outcome = op.run()
                tracer.finish_operation()
        except Exception:  # an operation that raises is failed and wrong
            results.append((op.label, None, [traceback.format_exc()], []))
            continue
        problems, faults = op.check(outcome)
        results.append((op.label, outcome, problems, faults))
    return results


def run_rounds(operations, seconds, tracer=None):
    """Repeats whole rounds until about `seconds` have passed.

    With a tracer, even rounds run untraced and odd rounds traced, and at
    least one of each runs. Returns [(traced, round results)].
    """
    rounds = []
    started = time.perf_counter()
    min_rounds = 2 if tracer is not None else 1
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        round_started = time.perf_counter()
        rounds.append((traced, run_round(operations, tracer if traced else None)))
        last = time.perf_counter() - round_started
        spent = time.perf_counter() - started
        if len(rounds) >= min_rounds and spent + STOP_SHARE_OF_ROUND * last >= seconds:
            return rounds


def tally(rounds):
    """(attempted, failed, problems) over every operation of every round.

    Repeats of an operation must give identical outputs: tracing and
    repetition change no result.
    """
    attempted = failed = 0
    problems = []
    first_fingerprint = {}
    for _, results in rounds:
        for label, outcome, op_problems, faults in results:
            attempted += 1
            failed += bool(outcome is None or faults)
            problems += [f"{label}: {p}" for p in op_problems]
            if outcome is not None:
                fingerprint = first_fingerprint.setdefault(label, outcome.fingerprint())
                if outcome.fingerprint() != fingerprint:
                    problems.append(f"{label}: outputs differ between repeats of one input")
    return attempted, failed, problems


def round_figures(results):
    """Set-up, wall, loop, steps and contributing examples summed over a round."""
    done = [outcome for _, outcome, _, _ in results if outcome is not None]
    wall = sum(o.wall_s for o in done)
    loop = sum(o.loop_s for o in done)
    return {
        "wall_s": wall,
        "setup_s": wall - loop,
        "loop_s": loop,
        "steps": sum(o.report["steps_run"] for o in done),
        "contributing": sum(o.report["contributing_total"] for o in done),
    }


def end_to_end(figures, peak_rss_mb):
    """Set-up time is a median over rounds; wall time and rates pool every round."""
    loop = sum(r["loop_s"] for r in figures)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in figures), "s"),
        "wall_s": (statistics.fmean(r["wall_s"] for r in figures), "s"),
        "steps_per_s": (sum(r["steps"] for r in figures) / loop, "1/s"),
        "examples_per_s": (sum(r["contributing"] for r in figures) / loop, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_dpcore()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    operations = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    rounds = run_rounds(operations, args.seconds, tracer)
    attempted, failed, problems = tally(rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [round_figures(r) for traced, r in rounds if not traced]
    if tracer is None:
        metrics = end_to_end(untraced, peak_rss_mb)
    else:
        traced = [round_figures(r) for t, r in rounds if t]
        metrics = tracer.per_layer()
        metrics["tracing.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced), "s")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "environment": environment(),
        "rounds": [{"traced": t, **round_figures(r),
                    "operations": [label for label, *_ in r]} for t, r in rounds],
        "faults": sorted({f for _, r in rounds for *_, faults in r for f in faults}),
        "problems": problems,
        "result": result,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None and tracer.first_operation is not None:
        tracer.write_first_operation(RESULTS_DIR / f"{stem}-spans.csv.gz")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
