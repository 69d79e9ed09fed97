"""Empirical privacy auditing: canaries, attack scores, epsilon lower bounds.

An audit crafts canary examples, includes each in training with an
independent fair coin, attacks the final model with a per-canary score, and
converts attack performance into a statistically sound lower bound on the
privacy leakage. A lower bound above the accountant's guarantee is
evidence of a bug -- the failure mode worth engineering against, since a
broken privacy mechanism typically trains beautifully.

Two bounds are computed per audit:

  * Clopper-Pearson: the attack's false-positive and false-negative rates
    are upper-bounded with exact one-sided binomial confidence intervals
    and plugged into the hypothesis-testing characterization of
    (epsilon, delta)-DP.
  * One-run: the attack guesses only on the most confident canaries; under
    epsilon-DP each guess is correct with probability at most
    e^eps / (1 + e^eps), so the correct-guess count has a binomial tail
    that can be inverted for epsilon. The delta correction is deliberately
    omitted (a delta = 0 bound): at delta <= 1e-5 and desk-scale canary
    counts it is negligible next to the Monte-Carlo width.

Both bounds are scipy.special's regularized incomplete beta function: the
Clopper-Pearson upper limit is its inverse, betaincinv(k + 1, n - k, c), and
the binomial tail P[Binom(r, p) >= v] is betainc(v, r - v + 1, p). These
are the functions scipy.stats.beta.ppf and scipy.stats.binom.sf evaluate,
and the tests check the equality bit for bit. Importing scipy.stats instead
would load about 45 MB of modules, scipy.optimize and scipy.linalg among
them, into every process that imports this one.

Canary inclusion uses a fair coin (probability 1/2), matching the one-run
bound's assumptions without an extra tracked parameter.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np
from scipy.special import betainc, betaincinv

from . import prng, training
from .models import Dataset, GradientVector, Model, batch_losses

LABEL_FLIP = "label-flip"


@dataclasses.dataclass(frozen=True)
class CanarySet:
    """Crafted canary examples and their secret inclusion bits."""

    included: np.ndarray  # (m,) bool
    features: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)


@dataclasses.dataclass(frozen=True)
class AuditConfig:
    """Audit parameters layered on top of a training config.

    one_run_guesses is the number of guesses per side (top-k scored canaries
    guessed "in", bottom-k guessed "out", the rest abstain).
    """

    num_canaries: int
    kind: str = LABEL_FLIP
    confidence: float = 0.95
    one_run_guesses: Optional[int] = None
    report_path: Optional[str] = None

    def __post_init__(self):
        if self.num_canaries < 1:
            raise ValueError("num_canaries must be at least 1")
        if self.kind != LABEL_FLIP:
            raise ValueError(f"unknown canary kind {self.kind!r}; the only kind is {LABEL_FLIP}")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must be in (0, 1)")
        if self.one_run_guesses is not None and self.one_run_guesses < 0:
            raise ValueError("one_run_guesses must be non-negative")


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Canary assignments, attack scores/decisions, and epsilon lower bounds."""

    included: np.ndarray  # (m,) bool, the secret inclusion bits
    scores: np.ndarray
    epsilon_theory: float
    epsilon_cp: float
    epsilon_one_run: float
    confidence: float
    m: int
    r: int
    v: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "epsilon_theory": self.epsilon_theory,
            "epsilon_cp": self.epsilon_cp,
            "epsilon_one_run": self.epsilon_one_run,
            "confidence": self.confidence,
            "m": self.m,
            "r": self.r,
            "v": self.v,
            "pass": self.passed,
        }


def assign_canaries(m: int, dataset: Dataset, key: prng.PrngKey) -> CanarySet:
    """Crafts m label-flip canaries with fair-coin inclusion bits.

    The canaries are the last m examples of the dataset with their labels
    flipped; callers must hold that tail out of training (run_audit does).

    Args:
      m: Number of canaries, at least 1 and at most the dataset size.
      dataset: Source of the held-out examples.
      key: Dedicated key for the inclusion bits.

    Returns:
      A CanarySet with i.i.d. fair-coin inclusion bits.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > dataset.size:
        raise ValueError(f"m={m} exceeds dataset size {dataset.size}")
    included = prng.uniform(prng.fold_in(key, 0), m) < 0.5
    features = dataset.features[dataset.size - m :].copy()
    source = dataset.labels[dataset.size - m :]
    labels = 1.0 - source if dataset.task == "binary-classification" else -source
    return CanarySet(included=included, features=features, labels=labels)


def score_canaries(
    model: Model, final_params: GradientVector, canaries: CanarySet
) -> np.ndarray:
    """Attack scores; higher means "more likely included".

    The score is the negative loss of the canary under the final model: an
    included canary's flipped label was trained on, lowering its loss.
    """
    return -batch_losses(model, final_params.values, canaries.features, canaries.labels)


def _clopper_pearson_upper(k: int, n: int, confidence: float) -> float:
    """Exact one-sided upper confidence bound on a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    if k >= n:
        return 1.0
    return float(betaincinv(k + 1, n - k, confidence))


def _binomial_tail(v: int, r: int, p: float) -> float:
    """P[Binom(r, p) >= v] for 1 <= v <= r: the regularized incomplete beta I_p(v, r - v + 1)."""
    return float(betainc(v, r - v + 1, p))


def clopper_pearson_epsilon(
    decisions: Sequence[bool],
    truth: Sequence[bool],
    delta: float,
    confidence: float,
) -> float:
    """Epsilon lower bound from attack error rates with exact CP intervals.

    Upper-bounds the attack's FPR and FNR at the given one-sided confidence
    level and returns

        max(0, log((1 - delta - FNR)/FPR), log((1 - delta - FPR)/FNR)),

    with each branch dropped when its numerator is non-positive.

    Args:
      decisions: Per-canary membership guesses (True = "in").
      truth: Per-canary ground-truth inclusion bits.
      delta: The DP delta of the guarantee under test.
      confidence: Confidence level of the bound, in (0, 1).

    Raises:
      ValueError: degenerate truth vector (needs at least one included and
        one excluded canary).
    """
    decisions = np.asarray(decisions, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if decisions.shape != truth.shape:
        raise ValueError("decisions and truth must have equal length")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must be in [0, 1)")
    n_in = int(np.sum(truth))
    n_out = int(np.sum(~truth))
    if n_in == 0 or n_out == 0:
        raise ValueError("truth vector must contain both included and excluded canaries")
    false_pos = int(np.sum(decisions & ~truth))
    false_neg = int(np.sum(~decisions & truth))
    fpr_ub = _clopper_pearson_upper(false_pos, n_out, confidence)
    fnr_ub = _clopper_pearson_upper(false_neg, n_in, confidence)
    eps = 0.0
    if fpr_ub > 0.0 and (1.0 - delta - fnr_ub) > 0.0:
        eps = max(eps, math.log((1.0 - delta - fnr_ub) / fpr_ub))
    if fnr_ub > 0.0 and (1.0 - delta - fpr_ub) > 0.0:
        eps = max(eps, math.log((1.0 - delta - fpr_ub) / fnr_ub))
    return eps


def one_run_epsilon(r: int, v: int, m: int, confidence: float) -> float:
    """Epsilon lower bound from guess counts in a single training run.

    Under epsilon-DP with fair-coin inclusion, each of r guesses is correct
    with probability at most p = e^eps / (1 + e^eps), so observing v correct
    guesses rejects every epsilon whose binomial tail
    P[Binom(r, p(eps)) >= v] is at most 1 - confidence. Returns the largest
    rejected epsilon (bisection, tolerance 1e-4), or 0 when v <= r/2 or
    nothing is rejected. This is the delta = 0 form of the bound; m is the
    total canary count, recorded for reporting.

    Raises:
      ValueError: counts are inconsistent (need 0 <= v <= r <= m).
    """
    if not (0 <= v <= r <= m):
        raise ValueError(f"need 0 <= v <= r <= m, got v={v}, r={r}, m={m}")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    if r == 0 or v * 2 <= r:
        return 0.0
    alpha = 1.0 - confidence

    def tail(eps: float) -> float:
        return _binomial_tail(v, r, 1.0 / (1.0 + math.exp(-eps)))

    if tail(0.0) > alpha:
        return 0.0
    lo, hi = 0.0, 1.0
    while tail(hi) <= alpha:
        lo, hi = hi, hi * 2.0
        if hi > 1e6:
            return lo
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if tail(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


def run_audit(
    cfg: training.RunConfig, audit: AuditConfig
) -> AuditReport:
    """Trains with randomly included canaries and bounds the leakage.

    The base dataset's last num_canaries examples are held out as canary
    sources; training data is the remaining prefix plus the included
    canaries. Scores are thresholded at their median for the
    Clopper-Pearson bound and converted to top-k/bottom-k guesses with
    abstention for the one-run bound. Deterministic given cfg.seed.

    The report's pass flag compares the larger empirical bound against the
    accountant's guarantee for the trained mechanism (infinite when the
    noise multiplier is zero or the mechanism is non-private).
    """
    if cfg.mechanism != "none" and cfg.clip.level == "group":
        raise training.ConfigError(
            "an audit trains without group keys; use example-level clipping"
        )
    base = training.build_dataset(cfg)
    m = audit.num_canaries
    if m >= base.size:
        raise training.ConfigError(
            f"label-flip num_canaries ({m}) must be smaller than the dataset ({base.size})"
        )
    root = prng.seed(cfg.seed)
    canaries = assign_canaries(m, base, prng.fold_in(root, 4))

    keep = base.size - m
    train_dataset = Dataset(
        np.concatenate([base.features[:keep], canaries.features[canaries.included]]),
        np.concatenate([base.labels[:keep], canaries.labels[canaries.included]]),
        base.task,
    )

    outcome = training.run_training(cfg, train_dataset)
    scores = score_canaries(cfg.model, outcome.final_params, canaries)

    delta = cfg.privacy.delta if cfg.privacy is not None else 1e-5
    eps_theory = outcome.report["achieved_epsilon"]
    if eps_theory is None:
        eps_theory = math.inf

    decisions = scores > np.median(scores)
    eps_cp = clopper_pearson_epsilon(
        decisions, canaries.included, delta, audit.confidence
    )

    k = audit.one_run_guesses if audit.one_run_guesses is not None else max(1, m // 10)
    k = min(k, m // 2)
    order = np.argsort(-scores, kind="stable")
    # Guess "in" for the k highest scores and "out" for the k lowest.
    right_in = np.count_nonzero(canaries.included[order[:k]])
    right_out = np.count_nonzero(~canaries.included[order[m - k :]])
    correct = int(right_in + right_out)
    r = 2 * k
    eps_one_run = one_run_epsilon(r, correct, m, audit.confidence)

    passed = max(eps_cp, eps_one_run) <= eps_theory
    report = AuditReport(
        included=canaries.included,
        scores=scores,
        epsilon_theory=float(eps_theory),
        epsilon_cp=float(eps_cp),
        epsilon_one_run=float(eps_one_run),
        confidence=audit.confidence,
        m=m,
        r=r,
        v=correct,
        passed=bool(passed),
    )
    if audit.report_path:
        training.write_report(report.to_json_dict(), audit.report_path)
    return report
