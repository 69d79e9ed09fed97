import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from dpcore import batch_selection as bs
from dpcore import prng


def _plan(strategy=bs.POISSON, sampling_prob=0.5, batch_size=None, n=10, iterations=5,
          key=prng.seed(0), group_keys=None):
    return bs.BatchPlan(bs.BatchConfig(strategy, sampling_prob, batch_size), n, iterations, key,
                        group_keys=group_keys)


def _digest(plan):
    h = hashlib.sha256()
    for batch in bs.batches(plan):
        h.update(np.int64(batch.size).tobytes())
        h.update(batch.astype("<i8").tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("strategy,sampling_prob,batch_size,iterations,digest", [
    (bs.POISSON, 0.3, None, 40, "904120dd2de3e3a2"),
    (bs.CYCLIC_POISSON, 0.3, None, 12, "d2be7a48e3d7b1db"),
    (bs.SHUFFLED_FIXED, None, 8, 14, "93ca84c860e013b3"),
])
def test_streams_are_pinned(strategy, sampling_prob, batch_size, iterations, digest):
    # Each strategy's stream, batch sizes included: a change to any of the
    # three random streams fails here.
    plan = _plan(strategy, sampling_prob, batch_size, n=50, iterations=iterations,
                 key=prng.seed(7))
    assert _digest(plan) == digest


def test_poisson_q_one_full_batches():
    plan = _plan(n=7, sampling_prob=1.0, iterations=3)
    for batch in bs.batches(plan):
        assert np.array_equal(batch, np.arange(7))


def test_poisson_q_zero_rejected():
    # A run that samples no one is a configuration error, not T noise steps.
    for strategy in (bs.POISSON, bs.CYCLIC_POISSON):
        with pytest.raises(ValueError, match=r"sampling_prob in \(0, 1\]"):
            _plan(strategy, sampling_prob=0.0)


def test_poisson_invalid_q_rejected():
    with pytest.raises(ValueError):
        _plan(sampling_prob=1.5)
    with pytest.raises(ValueError):
        _plan(sampling_prob=-0.1)


def test_poisson_marginal_inclusion_rate():
    # n*T Bernoulli(q) trials; the pooled inclusion count must sit inside the
    # 99.9% binomial band around q.
    n, q, t_steps = 1000, 0.01, 1000
    plan = _plan(n=n, sampling_prob=q, iterations=t_steps)
    included = sum(b.size for b in bs.batches(plan))
    trials = n * t_steps
    lo, hi = scipy.stats.binom.interval(0.999, trials, q)
    assert lo <= included <= hi


def test_poisson_determinism():
    plan = _plan(iterations=20)
    a = [b.copy() for b in bs.batches(plan)]
    b_ = [b.copy() for b in bs.batches(plan)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b_))


def test_poisson_cross_step_independence():
    # Inclusion indicator of one index across steps: empirical covariance
    # between consecutive steps stays within Monte-Carlo noise of zero.
    n, q, t_steps = 50, 0.3, 4000
    plan = _plan(n=n, sampling_prob=q, iterations=t_steps)
    indicators = np.zeros((t_steps, n))
    for t, batch in enumerate(bs.batches(plan)):
        indicators[t, batch] = 1.0
    a, b = indicators[:-1, 0], indicators[1:, 0]
    cov = np.mean(a * b) - np.mean(a) * np.mean(b)
    assert abs(cov) < 5.0 * q * (1 - q) / np.sqrt(t_steps)


def test_cyclic_q_one_full_permutations():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=9, sampling_prob=1.0, iterations=4)
    for batch in bs.batches(plan):
        assert np.array_equal(np.sort(batch), np.arange(9))


def test_cyclic_determinism():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=40, sampling_prob=0.2, iterations=15)
    a = [b.copy() for b in bs.batches(plan)]
    b_ = [b.copy() for b in bs.batches(plan)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b_))


@pytest.mark.parametrize("shards", [2, 3, 4, 10])
def test_cyclic_epoch_draws_no_index_twice(shards):
    # Banded-mf accounting assumes single participation: within one epoch of
    # ceil(1/q) steps, each index is a candidate once, so it is drawn at most
    # once.
    q = 1 / shards
    k = math.ceil(1 / q)
    plan = _plan(bs.CYCLIC_POISSON, sampling_prob=q, n=60, iterations=5 * k)
    drawn = list(bs.batches(plan))
    assert len(drawn) == 5 * k
    for epoch in range(5):
        seen = np.concatenate(drawn[epoch * k : (epoch + 1) * k])
        assert seen.size > 0
        assert np.unique(seen).size == seen.size
        assert np.all((seen >= 0) & (seen < 60))


def test_shuffled_epoch_partition():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=6, batch_size=3, iterations=2,
                 sampling_prob=None)
    batches = list(bs.batches(plan))
    assert all(b.size == 3 for b in batches)
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(6))


def test_shuffled_full_batch_is_permutation():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=8, batch_size=8, iterations=3,
                 sampling_prob=None)
    for batch in bs.batches(plan):
        assert np.array_equal(np.sort(batch), np.arange(8))


def test_shuffled_oversized_batch_rejected():
    with pytest.raises(ValueError):
        _plan(strategy=bs.SHUFFLED_FIXED, n=4, batch_size=5, sampling_prob=None)


def test_shuffled_epoch_multiset():
    n, b = 10**4, 100
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=n, batch_size=b, iterations=n // b,
                 sampling_prob=None)
    seen = np.concatenate(list(bs.batches(plan)))
    assert np.array_equal(np.sort(seen), np.arange(n))


def test_shuffled_drops_partial_batch():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=7, batch_size=3, iterations=4,
                 sampling_prob=None)
    batches = list(bs.batches(plan))
    assert all(b.size == 3 for b in batches)
    # 2 batches per epoch; index 7th of each shuffle never appears that epoch.
    assert len(batches) == 4


def test_expected_batch_size_is_q_n_or_b():
    assert _plan(n=2000, sampling_prob=0.1).expected_batch_size == 0.1 * 2000
    assert _plan(strategy=bs.CYCLIC_POISSON, n=2000,
                 sampling_prob=1 / 96).expected_batch_size == (1 / 96) * 2000
    shuffled = _plan(strategy=bs.SHUFFLED_FIXED, batch_size=5, sampling_prob=None)
    assert shuffled.expected_batch_size == 5.0


def test_truncated_poisson_is_not_a_strategy():
    # Truncation raises the sensitivity of a step to 2C, which plain-Poisson
    # accounting does not cover.
    with pytest.raises(ValueError, match="unknown strategy"):
        _plan(strategy="truncated-poisson")


def _assert_whole_groups(batch, keys):
    drawn = np.unique(keys[batch])
    assert np.array_equal(batch, np.flatnonzero(np.isin(keys, drawn)))
    return drawn


def test_group_poisson_samples_each_group_at_rate_q():
    # The accountant is charged q per privacy unit. At group level each group
    # must take part in a step with probability q, with all of its rows;
    # drawing rows instead puts a 10-row group in 1 - 0.9^10 = 65% of steps.
    # The batch still averages q·n rows, the trainer's denominator.
    n, groups, q, t_steps = 200, 20, 0.1, 2000
    keys = np.arange(n) % groups
    plan = _plan(n=n, sampling_prob=q, iterations=t_steps, group_keys=keys)
    counts = np.zeros(groups)
    rows = 0
    for batch in bs.batches(plan):
        counts[_assert_whole_groups(batch, keys)] += 1
        rows += batch.size
    se = math.sqrt(q * (1 - q) / t_steps)
    assert np.all(np.abs(counts / t_steps - q) <= 5 * se)
    rows_se = math.sqrt(np.sum(np.bincount(keys) ** 2) * q * (1 - q) / t_steps)
    assert abs(rows / t_steps - plan.expected_batch_size) <= 5 * rows_se


def test_cyclic_group_takes_part_once_per_epoch():
    # Banded-mf's single participation holds for the privacy unit: a cyclic
    # epoch puts each group, whole, in one shard.
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 12, 90)
    q = 0.5
    k = bs.cyclic_epoch_length(q)
    plan = _plan(bs.CYCLIC_POISSON, sampling_prob=q, n=90, iterations=20 * k, group_keys=keys)
    drawn = [_assert_whole_groups(batch, keys) for batch in bs.batches(plan)]
    for epoch in range(20):
        seen = np.concatenate(drawn[epoch * k : (epoch + 1) * k])
        assert np.unique(seen).size == seen.size


def test_group_sampling_needs_the_poisson_family_and_a_key_per_row():
    with pytest.raises(ValueError, match="cannot sample groups"):
        _plan(strategy=bs.SHUFFLED_FIXED, batch_size=2, sampling_prob=None,
              group_keys=np.zeros(10, dtype=np.int64))
    with pytest.raises(ValueError, match="one entry per row"):
        _plan(group_keys=np.zeros(9, dtype=np.int64))


@pytest.mark.parametrize("strategy,digest", [
    (bs.POISSON, "02bfa5ad0f6c20dd"),
    (bs.CYCLIC_POISSON, "01b1ddeecf7b3a5f"),
])
def test_group_streams_are_pinned(strategy, digest):
    # The group-level streams, as test_streams_are_pinned pins the row-level ones.
    keys = np.arange(50) % 7
    plan = _plan(strategy, 0.3, n=50, iterations=20, key=prng.seed(7), group_keys=keys)
    assert _digest(plan) == digest


def test_group_batches_hold_the_rows_np_isin_finds():
    # A group-level batch marks the drawn groups in a lookup table and reads
    # it at every row; the rows must be those np.isin finds, in ascending order.
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        keys = rng.integers(-3, int(rng.integers(1, 80)), n)  # gaps, negatives, repeats
        strategy = (bs.POISSON, bs.CYCLIC_POISSON)[trial % 2]
        q = float(rng.choice([0.05, 0.3, 0.5, 1.0]))
        plan = _plan(strategy, q, n=n, iterations=8, key=prng.seed(trial), group_keys=keys)
        _, group_of = np.unique(keys, return_inverse=True)
        drawn_groups = bs._draws(plan, group_of.max() + 1)
        for batch, drawn in zip(bs.batches(plan), drawn_groups, strict=True):
            assert batch.dtype == np.int64
            assert np.array_equal(batch, np.flatnonzero(np.isin(group_of, drawn)))
