"""Deterministic, splittable pseudo-random number generation.

Every stochastic component of this package (batch sampling, noise addition,
canary assignment, parameter init) draws its randomness through the keys
defined here, so a whole training run is a pure function of one 64-bit seed.

Keys are 256 bits of opaque state, four 64-bit words (w0, w1, w2, w3). Key
derivation (seeding, splitting, fold-in) uses SHA-256 over the parent state
plus a domain tag, which makes child keys collision-free by construction and
splitting O(1) per child. A key's stream is the raw 64-bit output words of
Philox-4x64-10 under the Philox key (w0, w1), starting at the counter
(w2, w3, 0, 0). Uniforms take the top 53 bits of one word each. Normal
deviates use a single fixed transform: 53-bit uniforms in (0, 1) mapped
through the inverse normal CDF, so streams are reproducible at the bit level
for a given numpy/scipy pair.

Philox is counter-based, so a stream needs no set-up beyond its key and
counter. Each thread therefore keeps one private Philox bit generator and
re-keys it before every draw by assigning its whole state, output buffer
included; a draw never depends on what the generator did before. This is
thread-safe because no thread can reach another thread's generator, and a
draw re-keys and reads it within one call.

The generator is statistically strong but NOT suitable as a cryptographic
noise source for production privacy deployments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import threading

import numpy as np
from scipy.special import ndtri

_SPLIT_TAG = b"dpcore.split"
_SEED_TAG = b"dpcore.seed"
_WORDS = struct.Struct(">4Q")


@dataclasses.dataclass(frozen=True)
class PrngKey:
    """An immutable 256-bit PRNG key.

    Attributes:
      words: Four 64-bit words of opaque state, each in [0, 2**64).
    """

    words: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.words) != 4:
            raise ValueError(f"key state must be 4 words, got {len(self.words)}")
        try:
            _WORDS.pack(*self.words)
        except struct.error:
            raise ValueError(
                f"key words must be integers in [0, 2**64), got {self.words}"
            ) from None

    def _bytes(self) -> bytes:
        return _WORDS.pack(*self.words)


def seed(s: int) -> PrngKey:
    """Creates a root key from a 64-bit integer seed.

    Equal seeds yield keys with identical streams.
    """
    material = (int(s) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    digest = hashlib.sha256(_SEED_TAG + material).digest()
    return PrngKey(_WORDS.unpack(digest))


def split(key: PrngKey, n: int) -> list[PrngKey]:
    """Derives ``n`` independent child keys from ``key``.

    Children are pairwise distinct and distinct from the parent. By
    convention the parent should not be used for generation afterwards
    (documented, not enforced).

    Args:
      key: The parent key.
      n: Number of children, at least 1.

    Returns:
      A list of ``n`` keys, deterministic in (key, n).
    """
    if n < 1:
        raise ValueError(f"split requires n >= 1, got {n}")
    return [fold_in(key, i) for i in range(n)]


def fold_in(key: PrngKey, index: int) -> PrngKey:
    """Derives the ``index``-th child of ``key`` without materializing siblings."""
    if index < 0:
        raise ValueError(f"fold_in index must be non-negative, got {index}")
    material = key._bytes() + _SPLIT_TAG + int(index).to_bytes(8, "big")
    digest = hashlib.sha256(material).digest()
    return PrngKey(_WORDS.unpack(digest))


_thread_local = threading.local()


def _bit_generator(key: PrngKey) -> np.random.Philox:
    """This thread's Philox, re-keyed to the start of ``key``'s stream.

    The whole state is assigned, so a 32-bit half or output words buffered by
    an earlier draw are discarded. The result is valid until the next call in
    this thread.
    """
    try:
        bit_generator = _thread_local.philox
    except AttributeError:
        bit_generator = _thread_local.philox = np.random.Philox(0)
    w0, w1, w2, w3 = key.words
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (w2, w3, 0, 0), "key": (w0, w1)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def _top53(key: PrngKey, length: int) -> np.ndarray:
    """The top 53 bits of the first ``length`` stream words, as float64."""
    raw = _bit_generator(key).random_raw(length)
    return (raw >> np.uint64(11)).astype(np.float64)


def _uniform_open(key: PrngKey, length: int) -> np.ndarray:
    """53-bit uniforms strictly inside (0, 1), one per output element."""
    # Offset by half a ulp so 0 and 1 are unreachable.
    return (_top53(key, length) + 0.5) * 2.0**-53


def uniform(key: PrngKey, length: int) -> np.ndarray:
    """I.i.d. uniforms in [0, 1), deterministic given the key."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return _top53(key, length) * 2.0**-53


def gaussian(key: PrngKey, length: int, stddev: float) -> np.ndarray:
    """I.i.d. N(0, stddev^2) samples via inverse-CDF on the key's stream.

    Args:
      key: Source of randomness.
      length: Number of samples, may be 0.
      stddev: Standard deviation; 0 yields exact zeros.

    Returns:
      A float64 vector of ``length`` samples.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if stddev < 0:
        raise ValueError(f"stddev must be non-negative, got {stddev}")
    if stddev == 0.0:
        return np.zeros(length, dtype=np.float64)
    return ndtri(_uniform_open(key, length)) * stddev


def permutation(key: PrngKey, n: int) -> np.ndarray:
    """A uniform random permutation of range(n), deterministic given the key."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return np.random.Generator(_bit_generator(key)).permutation(n)
