"""Spans around dpcore's layer calls, recorded from outside the package.

A traced round replaces, for its duration, the names that `training`,
`clipping`, `auditing`, `accounting` and `matrix_factorization` call with
wrappers that record one span per call: name, parent span, start and end.
Nothing under src/ changes. A training step has no function of its own, so
the wrapper of `batch_selection.batches` opens a `step` span when the trainer
asks for the next batch and closes it when the trainer asks again; the
batch draw itself is the `select` child of that step. The per-row `Example`
gather happens between the end of `select` and the call of
`clipped_grad_sum`, so it is measured as that gap.

Spans of one operation are kept in flat arrays and reduced to per-layer
figures when the operation ends (`Tracer.finish_operation`).
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array

import numpy as np

from dpcore import accounting, auditing, batch_selection, clipping, matrix_factorization, prng
from dpcore import training

# (module, attribute, span name): the names the instrumented layers call.
WRAPPED = (
    (prng, "fold_in", "prng.fold_in"),
    (prng, "gaussian", "prng.gaussian"),
    (training, "clipped_grad_sum", "clipping.clipped_grad_sum"),
    (clipping, "batch_grads", "models.batch_grads"),
    (training, "privatize", "privatizer.privatize"),
    (training, "sgd_update", "optimizers.update"),
    (training, "adamw_update", "optimizers.update"),
    (training, "dataset_mean_loss", "models.eval"),
    (accounting, "calibrate_noise", "accounting.calibrate_noise"),
    (accounting, "epsilon", "accounting.epsilon"),
    (accounting, "calibrate_mf_noise", "accounting.calibrate_mf_noise"),
    (accounting, "analytic_gaussian_epsilon", "accounting.analytic_gaussian_epsilon"),
    (matrix_factorization, "optimize_banded", "matrix_factorization.optimize_banded"),
    (matrix_factorization, "expected_error", "matrix_factorization.expected_error"),
    (auditing, "score_canaries", "auditing.score_canaries"),
    (auditing, "clopper_pearson_epsilon", "auditing.bounds"),
    (auditing, "one_run_epsilon", "auditing.bounds"),
)
STEP = "training.step"
SELECT = "batch_selection.select"
EXHAUSTED = "batch_selection.exhausted"

# Calls per training run at the start and at the end of the run whose mean
# privatize time is reported (fewer when the run is shorter than 2000 steps).
EDGE_CALLS = 1000


class Tracer:
    """Records spans while installed; accumulates per-layer sums across operations."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self._reset_spans()
        self.totals: dict[str, float] = {}
        self.step_ms: list[np.ndarray] = []
        self.first_operation = None

    def _reset_spans(self):
        """Starts the span arrays of the next operation."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def _id(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_batches(self, fn):
        step_id, select_id, exhausted_id = self._id(STEP), self._id(SELECT), self._id(EXHAUSTED)

        def traced(plan):
            inner = fn(plan)

            def steps():
                while True:
                    step = self._open(step_id)
                    select = self._open(select_id)
                    try:
                        batch = next(inner)
                    except StopIteration:
                        # The trainer's last request ends the loop, not a step.
                        self.name[step] = self.name[select] = exhausted_id
                        self._close(select)
                        self._close(step)
                        return
                    self._close(select)
                    yield batch
                    self._close(step)

            return steps()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replaces the wrapped names for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        saved.append((batch_selection, "batches", batch_selection.batches))
        try:
            for module, attr, name in WRAPPED:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            batch_selection.batches = self.wrap_batches(batch_selection.batches)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + float(value)

    def finish_operation(self) -> None:
        """Reduces the spans of one operation (one training or audit run) into sums."""
        ids = self._names
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        if self.first_operation is None:
            labels = {i: n for n, i in ids.items()}
            self.first_operation = (labels, name, parent, start, dur)

        def spans(key):
            return name == ids.get(key, -1)

        steps = np.flatnonzero(spans(STEP))
        self._add("steps", steps.size)
        if steps.size:
            self.step_ms.append(dur[steps] * 1e3)
            step_start, step_end = start[steps], start[steps] + dur[steps]
            slot = np.searchsorted(step_start, start, side="right") - 1
            in_step = (slot >= 0) & (start < step_end[np.maximum(slot, 0)])
            direct_child = np.isin(parent, steps)
            select = spans(SELECT) & direct_child
            clip = spans("clipping.clipped_grad_sum") & direct_child
            # Each step has one select; steps that clip have one clip call after it.
            gather = start[clip] - (start[select] + dur[select])[np.isin(parent[select], parent[clip])]
            self._add("gather_s", gather.sum())
            self._add("step_self_s", dur[steps].sum() - dur[direct_child].sum() - gather.sum())
            for key in ("prng.fold_in", "prng.gaussian"):
                inside = spans(key) & in_step
                self._add(key + ".in_step_s", dur[inside].sum())
                self._add(key + ".in_step_calls", inside.sum())
            grads = spans("models.batch_grads") & np.isin(parent, np.flatnonzero(clip))
            self._add("grads_s", dur[grads].sum())
            self._add("clip_self_s", dur[clip].sum() - dur[grads].sum())
            privatize = np.flatnonzero(spans("privatizer.privatize"))
            edge = min(EDGE_CALLS, privatize.size // 2)
            if edge:
                self._add("privatize_first_s", dur[privatize[:edge]].sum())
                self._add("privatize_last_s", dur[privatize[-edge:]].sum())
                self._add("privatize_edge_calls", edge)
        for key in {span for _, _, span in WRAPPED} | {SELECT}:
            mask = spans(key)
            self._add(key + ".s", dur[mask].sum())
            self._add(key + ".calls", mask.sum())
        for key in ("accounting.epsilon", "accounting.analytic_gaussian_epsilon"):
            if spans(key).any():
                self._add(key + ".operations", 1)
        self._reset_spans()

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures over every traced operation, as {name: (value, unit)}."""
        t = self.totals

        def ratio(num, den, scale=1.0):
            d = t.get(den, 0.0)
            return scale * t.get(num, 0.0) / d if d else 0.0

        step_ms = np.concatenate(self.step_ms) if self.step_ms else np.zeros(1)
        return {
            "batch_selection.select_us": (ratio(SELECT + ".s", "steps", 1e6), "us/step"),
            "prng.fold_in_per_step": (ratio("prng.fold_in.in_step_calls", "steps"), "count"),
            "prng.fold_in_us": (ratio("prng.fold_in.in_step_s", "steps", 1e6), "us/step"),
            "prng.gaussian_us": (
                ratio("prng.gaussian.in_step_s", "prng.gaussian.in_step_calls", 1e6), "us/call"),
            "models.gather_us": (ratio("gather_s", "steps", 1e6), "us/step"),
            "models.grads_ms": (ratio("grads_s", "steps", 1e3), "ms/step"),
            "models.eval_ms": (ratio("models.eval.s", "models.eval.calls", 1e3), "ms/call"),
            "clipping.clip_ms": (ratio("clip_self_s", "steps", 1e3), "ms/step"),
            "privatizer.privatize_us": (
                ratio("privatizer.privatize.s", "privatizer.privatize.calls", 1e6), "us/call"),
            "privatizer.privatize_us_first": (
                ratio("privatize_first_s", "privatize_edge_calls", 1e6), "us/call"),
            "privatizer.privatize_us_last": (
                ratio("privatize_last_s", "privatize_edge_calls", 1e6), "us/call"),
            "optimizers.update_us": (ratio("optimizers.update.s", "steps", 1e6), "us/step"),
            "training.step_self_us": (ratio("step_self_s", "steps", 1e6), "us/step"),
            "training.step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
            "training.step_ms_p99": (float(np.percentile(step_ms, 99)), "ms"),
            "accounting.calibrate_s": (
                ratio("accounting.calibrate_noise.s", "accounting.calibrate_noise.calls"), "s/call"),
            "accounting.epsilon_calls": (
                ratio("accounting.epsilon.calls", "accounting.epsilon.operations"), "count"),
            "accounting.epsilon_ms": (
                ratio("accounting.epsilon.s", "accounting.epsilon.calls", 1e3), "ms/call"),
            "accounting.calibrate_mf_s": (
                ratio("accounting.calibrate_mf_noise.s", "accounting.calibrate_mf_noise.calls"),
                "s/call"),
            "accounting.analytic_epsilon_calls": (
                ratio("accounting.analytic_gaussian_epsilon.calls",
                      "accounting.analytic_gaussian_epsilon.operations"), "count"),
            "matrix_factorization.optimize_s": (
                ratio("matrix_factorization.optimize_banded.s",
                      "matrix_factorization.optimize_banded.calls"), "s/call"),
            "matrix_factorization.expected_error_calls": (
                ratio("matrix_factorization.expected_error.calls",
                      "matrix_factorization.optimize_banded.calls"), "count"),
            "matrix_factorization.expected_error_us": (
                ratio("matrix_factorization.expected_error.s",
                      "matrix_factorization.expected_error.calls", 1e6), "us/call"),
            "auditing.score_ms": (
                ratio("auditing.score_canaries.s", "auditing.score_canaries.calls", 1e3),
                "ms/audit"),
            "auditing.bounds_ms": (
                ratio("auditing.bounds.s", "auditing.score_canaries.calls", 1e3), "ms/audit"),
        }

    def write_first_operation(self, path) -> None:
        """Writes the spans of the first traced operation as gzipped CSV."""
        labels, name, parent, start, dur = self.first_operation
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,parent,start_s,duration_s\n")
            for i in range(name.size):
                fh.write(f"{i},{labels[name[i]]},{parent[i]},"
                         f"{start[i] - start[0]:.9f},{dur[i]:.9f}\n")
