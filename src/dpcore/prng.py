"""Deterministic, splittable pseudo-random number generation.

Every stochastic component of this package (batch sampling, noise addition,
canary assignment, parameter init) draws its randomness through the keys
defined here, so a whole training run is a pure function of one 64-bit seed.

Keys are 256 bits of opaque state. Key derivation (seeding, splitting,
fold-in) uses SHA-256 over the parent state plus a domain tag, which makes
child keys collision-free by construction and splitting O(1) per child.
The raw bit stream of a key is Philox-4x64-10 in counter mode (the first
128 bits of state are the Philox key, the remaining 128 bits seed the
counter). Normal deviates use a single fixed transform: 53-bit uniforms in
(0, 1) mapped through the inverse normal CDF, so streams are reproducible
at the bit level for a given numpy/scipy pair.

The generator is statistically strong but NOT suitable as a cryptographic
noise source for production privacy deployments.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from scipy.special import ndtri

_SPLIT_TAG = b"dpcore.split"
_SEED_TAG = b"dpcore.seed"


@dataclasses.dataclass(frozen=True)
class PrngKey:
    """An immutable 256-bit PRNG key.

    Attributes:
      words: Four 64-bit words of opaque state.
    """

    words: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.words) != 4:
            raise ValueError(f"key state must be 4 words, got {len(self.words)}")

    def _bytes(self) -> bytes:
        return b"".join(int(w).to_bytes(8, "big") for w in self.words)

    def generator(self) -> np.random.Generator:
        """Returns a numpy Generator positioned at the start of this key's stream."""
        words = np.array(self.words, dtype=np.uint64)
        bg = np.random.Philox(
            key=words[:2], counter=np.array([words[2], words[3], 0, 0], dtype=np.uint64)
        )
        return np.random.Generator(bg)


def _words_from_digest(digest: bytes) -> tuple[int, int, int, int]:
    return tuple(int.from_bytes(digest[8 * i : 8 * (i + 1)], "big") for i in range(4))


def seed(s: int) -> PrngKey:
    """Creates a root key from a 64-bit integer seed.

    Equal seeds yield keys with identical streams.
    """
    material = (int(s) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    digest = hashlib.sha256(_SEED_TAG + material).digest()
    return PrngKey(_words_from_digest(digest))


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
    return PrngKey(_words_from_digest(digest))


def _uniform_open(key: PrngKey, length: int) -> np.ndarray:
    """53-bit uniforms strictly inside (0, 1), one per output element."""
    if length == 0:
        return np.zeros(0, dtype=np.float64)
    raw = np.frombuffer(key.generator().bytes(8 * length), dtype=np.uint64)
    # Top 53 bits, offset by half a ulp so 0 and 1 are unreachable.
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform(key: PrngKey, length: int) -> np.ndarray:
    """I.i.d. uniforms in [0, 1), deterministic given the key."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if length == 0:
        return np.zeros(0, dtype=np.float64)
    raw = np.frombuffer(key.generator().bytes(8 * length), dtype=np.uint64)
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


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
    return key.generator().permutation(n)
