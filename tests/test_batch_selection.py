import numpy as np
import pytest
import scipy.stats

from dpcore import batch_selection as bs
from dpcore import prng


def _plan(**kwargs):
    defaults = dict(strategy=bs.POISSON, n=10, iterations=5, key=prng.seed(0),
                    sampling_prob=0.5)
    defaults.update(kwargs)
    return bs.BatchPlan(**defaults)


def test_poisson_q_one_full_batches():
    plan = _plan(n=7, sampling_prob=1.0, iterations=3)
    for batch in bs.poisson_batches(plan):
        assert np.array_equal(batch, np.arange(7))


def test_poisson_q_zero_empty_batches():
    plan = _plan(sampling_prob=0.0)
    for batch in bs.poisson_batches(plan):
        assert batch.size == 0


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
    included = sum(b.size for b in bs.poisson_batches(plan))
    trials = n * t_steps
    lo, hi = scipy.stats.binom.interval(0.999, trials, q)
    assert lo <= included <= hi


def test_poisson_determinism():
    plan = _plan(iterations=20)
    a = [b.copy() for b in bs.poisson_batches(plan)]
    b_ = [b.copy() for b in bs.poisson_batches(plan)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b_))


def test_poisson_cross_step_independence():
    # Inclusion indicator of one index across steps: empirical covariance
    # between consecutive steps stays within Monte-Carlo noise of zero.
    n, q, t_steps = 50, 0.3, 4000
    plan = _plan(n=n, sampling_prob=q, iterations=t_steps)
    indicators = np.zeros((t_steps, n))
    for t, batch in enumerate(bs.poisson_batches(plan)):
        indicators[t, batch] = 1.0
    a, b = indicators[:-1, 0], indicators[1:, 0]
    cov = np.mean(a * b) - np.mean(a) * np.mean(b)
    assert abs(cov) < 5.0 * q * (1 - q) / np.sqrt(t_steps)


def test_cyclic_q_one_full_permutations():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=9, sampling_prob=1.0, iterations=4)
    for batch in bs.cyclic_poisson_batches(plan):
        assert np.array_equal(np.sort(batch), np.arange(9))


def test_cyclic_determinism():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=40, sampling_prob=0.2, iterations=15)
    a = [b.copy() for b in bs.cyclic_poisson_batches(plan)]
    b_ = [b.copy() for b in bs.cyclic_poisson_batches(plan)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b_))


def test_cyclic_shards_partition_dataset():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=100, sampling_prob=0.1, iterations=10)
    for epoch in range(3):
        shards = bs.cyclic_epoch_shards(plan, epoch)
        assert len(shards) == 10
        combined = np.sort(np.concatenate(shards))
        assert np.array_equal(combined, np.arange(100))


def test_cyclic_batches_are_subsets_of_shards():
    plan = _plan(strategy=bs.CYCLIC_POISSON, n=60, sampling_prob=0.25, iterations=8)
    shards = bs.cyclic_epoch_shards(plan, 0) + bs.cyclic_epoch_shards(plan, 1)
    for batch, shard in zip(bs.cyclic_poisson_batches(plan), shards):
        assert set(batch.tolist()) <= set(shard.tolist())


def test_shuffled_epoch_partition():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=6, batch_size=3, iterations=2,
                 sampling_prob=None)
    batches = list(bs.shuffled_fixed_batches(plan))
    assert all(b.size == 3 for b in batches)
    assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(6))


def test_shuffled_full_batch_is_permutation():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=8, batch_size=8, iterations=3,
                 sampling_prob=None)
    for batch in bs.shuffled_fixed_batches(plan):
        assert np.array_equal(np.sort(batch), np.arange(8))


def test_shuffled_oversized_batch_rejected():
    with pytest.raises(ValueError):
        _plan(strategy=bs.SHUFFLED_FIXED, n=4, batch_size=5, sampling_prob=None)


def test_shuffled_epoch_multiset():
    n, b = 10**4, 100
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=n, batch_size=b, iterations=n // b,
                 sampling_prob=None)
    seen = np.concatenate(list(bs.shuffled_fixed_batches(plan)))
    assert np.array_equal(np.sort(seen), np.arange(n))


def test_shuffled_drops_partial_batch():
    plan = _plan(strategy=bs.SHUFFLED_FIXED, n=7, batch_size=3, iterations=4,
                 sampling_prob=None)
    batches = list(bs.shuffled_fixed_batches(plan))
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
