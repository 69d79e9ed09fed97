import hashlib
import sys
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from dpcore import prng


def test_seed_determinism_bitwise():
    a = prng.gaussian(prng.seed(0), 100, 1.0)
    b = prng.gaussian(prng.seed(0), 100, 1.0)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = prng.gaussian(prng.seed(0), 1000, 1.0)
    b = prng.gaussian(prng.seed(1), 1000, 1.0)
    assert np.any(a != b)


def test_split_path_replay():
    k1 = prng.split(prng.split(prng.seed(42), 1)[0], 4)[3]
    k2 = prng.split(prng.split(prng.seed(42), 1)[0], 4)[3]
    assert k1 == k2
    assert np.array_equal(prng.gaussian(k1, 64, 1.0), prng.gaussian(k2, 64, 1.0))


def test_split_children_distinct_streams():
    k = prng.seed(7)
    c0, c1 = prng.split(k, 2)
    s0 = prng.gaussian(c0, 256, 1.0)
    s1 = prng.gaussian(c1, 256, 1.0)
    assert np.any(s0 != s1)
    assert np.any(s0 != prng.gaussian(k, 256, 1.0))


def test_split_one_child_differs_from_parent():
    k = prng.seed(3)
    (child,) = prng.split(k, 1)
    assert child != k
    assert np.any(prng.gaussian(child, 128, 1.0) != prng.gaussian(k, 128, 1.0))


def test_split_determinism():
    assert prng.split(prng.seed(7), 4) == prng.split(prng.seed(7), 4)


def test_split_zero_is_error():
    with pytest.raises(ValueError):
        prng.split(prng.seed(0), 0)


def test_split_keys_pairwise_distinct():
    k = prng.seed(12)
    children = prng.split(k, 32)
    words = {c.words for c in children} | {k.words}
    assert len(words) == 33


def test_gaussian_zero_stddev_exact_zeros():
    out = prng.gaussian(prng.seed(1), 5, 0.0)
    assert np.array_equal(out, np.zeros(5))


def test_gaussian_empty():
    assert prng.gaussian(prng.seed(1), 0, 1.0).shape == (0,)


def test_gaussian_negative_stddev_rejected():
    with pytest.raises(ValueError):
        prng.gaussian(prng.seed(1), 4, -1.0)


def test_gaussian_moments_large_sample():
    n = 10**6
    z = prng.gaussian(prng.seed(2024), n, 1.0)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.02


def test_gaussian_stddev_scaling():
    k = prng.seed(5)
    assert np.array_equal(prng.gaussian(k, 50, 3.0), 3.0 * prng.gaussian(k, 50, 1.0))


def test_sibling_streams_uncorrelated():
    c0, c1 = prng.split(prng.seed(99), 2)
    n = 10**5
    a = prng.gaussian(c0, n, 1.0)
    b = prng.gaussian(c1, n, 1.0)
    corr = float(np.dot(a - a.mean(), b - b.mean()) / (n * a.std() * b.std()))
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_uniform_range_and_determinism():
    u = prng.uniform(prng.seed(8), 10**4)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert np.array_equal(u, prng.uniform(prng.seed(8), 10**4))


def test_permutation_is_permutation():
    p = prng.permutation(prng.seed(4), 100)
    assert np.array_equal(np.sort(p), np.arange(100))
    assert np.array_equal(p, prng.permutation(prng.seed(4), 100))


def test_key_words_out_of_range_rejected():
    for words in ((0, 1, 2, -1), (2**64, 0, 0, 0), (0, 0, 2**70, 0)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            prng.PrngKey(words)
    with pytest.raises(ValueError, match="4 words"):
        prng.PrngKey((1, 2, 3))
    assert prng.PrngKey((0, 0, 0, 2**64 - 1)).words[3] == 2**64 - 1


# Golden streams, computed with a fresh Philox generator per draw (the
# reference path below). A failure here means some stream changed, which
# changes every seeded run.
def _hex_words(key):
    return [format(w, "016x") for w in key.words]


def _digest(values, dtype):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()[:16]


def test_golden_key_words():
    assert _hex_words(prng.seed(0)) == [
        "3e37ef666b127a35", "73396e200db16df4", "cdfe2cd8714a5f0a", "c6678fe6a1383e69"]
    assert _hex_words(prng.seed(41)) == [
        "60279a2006b0d6f7", "3d9b62f677c8a499", "cf0db592728b8993", "b4b175eb5ee5b1c6"]
    assert _hex_words(prng.fold_in(prng.seed(41), 5)) == [
        "6f3effd00538a9ec", "beca1e6530523345", "036c73842c549402", "388c5cd90bb407ca"]
    assert [_hex_words(k) for k in prng.split(prng.seed(7), 3)] == [
        ["8d0152652f111e94", "4e60bde43dcfbfc4", "12113d5e1e5b92a0", "4732cebcc1eda2de"],
        ["37b8b724b2a64734", "75dba449b5940977", "be3cc39753bfbddd", "dcff69c60d224551"],
        ["4092a707d2bc2a5a", "b18a86c3c611aa84", "122ad1467b7922d5", "78722b3943027c44"],
    ]


_GOLDEN_KEYS = {
    "seed0": prng.seed(0),
    "seed41": prng.seed(41),
    "child": prng.fold_in(prng.seed(7), 3),
}

# (key, length): SHA-256 prefixes of uniform, gaussian (stddev 1) and
# permutation outputs as little-endian float64 / int64 bytes.
_GOLDEN_STREAMS = {
    ("seed0", 1): ("18842ab87d19e6b8", "842ad29665f85668", "af5570f5a1810b7a"),
    ("seed0", 3): ("613f02c0ada374e9", "bdc58895d56be567", "ab25350e3e65efeb"),
    ("seed0", 21): ("ac7bc3c755f60c77", "c0df8bef3f0faaff", "d5c64dc51afa2cc9"),
    ("seed0", 2000): ("c02ca25ac78d7cf8", "6ed24a1649b1e697", "d44629a2571329d0"),
    ("seed0", 2817): ("55a1ef1f15241883", "3a8bc694a21c4a95", "b6077a7ad6cb2202"),
    ("seed41", 1): ("7ecf717bb6db3b91", "fb8c9da0b7a85061", "af5570f5a1810b7a"),
    ("seed41", 3): ("db803b788356c225", "e46e83227a9c12b5", "23e8d60b496f9e37"),
    ("seed41", 21): ("3478eb1a86cc2d7a", "89a976f14d36be23", "32df72abce92651c"),
    ("seed41", 2000): ("98a9de52d2d37855", "4e12f991e5227819", "1b9e5164dd202693"),
    ("seed41", 2817): ("5cf217accc5bbe67", "354cd91d655e4ff4", "8dafb59d67410d70"),
    ("child", 1): ("4ea6bbbc10c70283", "091e2574e53f4a58", "af5570f5a1810b7a"),
    ("child", 3): ("bc37b54b87747cfe", "0158777a3e8f1150", "23e8d60b496f9e37"),
    ("child", 21): ("6f871525f4dffa85", "d251e5038c3ea7f9", "322f6a0a9d4699b5"),
    ("child", 2000): ("b59c93c8a92a5ecb", "17d1609bc4a720a1", "0a56fec4d8565c80"),
    ("child", 2817): ("76a416fb61f90e7b", "dafbdb385c07d7d3", "d02aa0555dea900a"),
}


@pytest.mark.parametrize("name,length", sorted(_GOLDEN_STREAMS))
def test_golden_streams(name, length):
    key = _GOLDEN_KEYS[name]
    assert (
        _digest(prng.uniform(key, length), "<f8"),
        _digest(prng.gaussian(key, length, 1.0), "<f8"),
        _digest(prng.permutation(key, length), "<i8"),
    ) == _GOLDEN_STREAMS[(name, length)]


def _reference_generator(key):
    """A fresh generator at the start of the key's stream: the reference path."""
    w = np.array(key.words, dtype=np.uint64)
    counter = np.array([w[2], w[3], 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=w[:2], counter=counter))


def _reference_words(key, length):
    return np.frombuffer(_reference_generator(key).bytes(8 * length), dtype=np.uint64)


# The probability of the "bernoulli" draws below.
_P = 0.3


def _fresh(kind, key, length):
    """The draw of a brand-new generator, untouched by any earlier draw."""
    if kind == "permutation":
        return _reference_generator(key).permutation(length)
    top = (_reference_words(key, length) >> np.uint64(11)).astype(np.float64)
    if kind == "uniform":
        return top * 2.0**-53
    if kind == "bernoulli":
        return top * 2.0**-53 < _P
    return ndtri((top + 0.5) * 2.0**-53)


def _draw(kind, key, length):
    if kind == "gaussian":
        return prng.gaussian(key, length, 1.0)
    if kind == "bernoulli":
        return prng.bernoulli(key, length, _P)
    return getattr(prng, kind)(key, length)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 21, 2000, 2817])
def test_raw_words_match_fresh_philox_bytes(length):
    for key in (prng.seed(0), prng.fold_in(prng.seed(7), 3), prng.PrngKey((2**64 - 1,) * 4)):
        assert np.array_equal(
            prng._bit_generator(key).random_raw(length), _reference_words(key, length))
        for kind in ("uniform", "gaussian", "permutation", "bernoulli"):
            assert np.array_equal(_draw(kind, key, length), _fresh(kind, key, length))


_BERNOULLI_KEYS = (prng.seed(0), prng.seed(41), prng.fold_in(prng.seed(7), 3),
                   prng.PrngKey((2**64 - 1,) * 4))


@pytest.mark.parametrize("p", [1.0, 1 - 2.0**-53, 0.5, 0.1, 1 / 96, 0.005, 2.0**-53, 3 * 2.0**-53])
def test_bernoulli_is_uniform_below_p_bit_for_bit(p):
    for key in _BERNOULLI_KEYS:
        for length in (0, 1, 3, 2000, 2817):
            flags = prng.bernoulli(key, length, p)
            assert flags.dtype == bool
            assert np.array_equal(flags, prng.uniform(key, length) < p)


def test_bernoulli_threshold_is_exact_at_drawn_uniforms():
    # A p equal to a drawn uniform u must drop that entry (u < u is false),
    # and the next double above u must keep it: the integer threshold sits
    # exactly on the float boundary.
    for key in _BERNOULLI_KEYS:
        u = prng.uniform(key, 2000)
        for p in (*u[:5], u.max(), u.min()):
            for at in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
                assert np.array_equal(prng.bernoulli(key, 2000, float(at)), u < at)


def test_bernoulli_rejects_bad_arguments():
    assert not prng.bernoulli(prng.seed(0), 50, 0.0).any()
    assert prng.bernoulli(prng.seed(0), 50, 7.0).all()
    for p in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="probability"):
            prng.bernoulli(prng.seed(0), 5, p)
    with pytest.raises(ValueError, match="non-negative"):
        prng.bernoulli(prng.seed(0), -1, 0.5)


# Draws that leave the generator mid-block (buffer_pos < 4) or holding a
# buffered 32-bit half (has_uint32 = 1).
_DIRTY_DRAWS = [("permutation", 2), ("permutation", 5), ("uniform", 3), ("gaussian", 1)]


@pytest.mark.parametrize("before", _DIRTY_DRAWS)
@pytest.mark.parametrize("kind", ["uniform", "gaussian", "permutation", "bernoulli"])
def test_draw_independent_of_previous_draw(before, kind):
    other, key = prng.seed(1), prng.seed(2)
    _draw(before[0], other, before[1])
    assert np.array_equal(_draw(kind, key, 21), _fresh(kind, key, 21))


def test_draws_from_two_threads_interleave_independently():
    # Lengths up to 3000, odd and even: numpy releases the interpreter lock
    # while it generates, so long draws of the two threads overlap.
    kinds = ("uniform", "gaussian", "permutation", "bernoulli")
    plans = [
        [(kinds[i % 4], prng.fold_in(prng.seed(100 + thread), i), 1 + (i * 389) % 3000)
         for i in range(200)]
        for thread in range(2)
    ]
    expected = [[_fresh(*draw) for draw in plan] for plan in plans]
    results = [[], []]
    start = threading.Barrier(2)

    def run(index):
        start.wait(timeout=60)
        for draw in plans[index]:
            results[index].append(_draw(*draw))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == len(want) == 200
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
