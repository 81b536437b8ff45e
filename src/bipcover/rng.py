"""Deterministic counter-based pseudo-randomness.

Every random quantity in this package is a pure function of a 64-bit seed
and a counter, obtained through a splitmix64-style finalizer.  This keeps
sampling reproducible regardless of evaluation order or parallel
scheduling: the value at counter i never depends on whether counter j was
evaluated first.

Two entry points:

* ``hash_at(seed, i)`` / ``hash_block(seed, start, count)`` - keyed
  counter hashing, scalar and numpy-vectorised.  Used for edge sampling,
  where the counter is the row-major edge slot index.
* ``RandomStream`` - a sequential stream over the same primitive, used
  for algorithm-internal draws (preference coin flips, subsampling).
  ``block(k)`` draws k words at once, the same words as k scalar draws.

``hash_block`` runs in lanes of ``LANE`` counters (256 KB of words, in L2):
one add of ``(lane start * GOLDEN + seed) mod 2^64`` to a step table of
``(k + 1) * GOLDEN``, built on first use, then an in-place mix that reuses
one scratch buffer.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D49BF24592E92D
LANE = 1 << 15

# Domain separation constants: distinct sampling purposes fed the same
# user seed must not share a hash stream.
TAG_GRAPH = 0x67726170685F6269  # "graph_bi"
TAG_COLOURING = 0x636F6C6F75725F32  # "colour_2"
TAG_MINDEG = 0x6D696E6465677261  # "mindegra"
TAG_SWEEP = 0x737765657054524C  # "sweepTRL"


def mix64(x: int) -> int:
    """Finalizer of splitmix64: a 64-bit bijective scrambler."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def hash_at(seed: int, counter: int) -> int:
    """64-bit hash of (seed, counter), identical to one hash_block lane."""
    return mix64((seed + (counter + 1) * _GOLDEN) & MASK64)


@functools.cache
def _step_table() -> np.ndarray:  # shared: read only
    steps = np.arange(1, LANE + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    return steps


def hash_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorised ``hash_at(seed, start + k)`` for k in range(count), one lane at a time."""
    out, t = np.empty(count, dtype=np.uint64), np.empty(min(count, LANE), dtype=np.uint64)
    for lo in range(0, count, LANE):
        x, tx = out[lo:lo + LANE], t[:count - lo]
        np.add(_step_table()[:len(x)], np.uint64(((start + lo) * _GOLDEN + seed) & MASK64), out=x)
        for shift, mul in ((30, _MIX1), (27, _MIX2)):
            x ^= np.right_shift(x, np.uint64(shift), out=tx)
            x *= np.uint64(mul)
        x ^= np.right_shift(x, np.uint64(31), out=tx)
    return out


def combine(*parts: int) -> int:
    """Derive one seed from several integers (order-sensitive)."""
    acc = 0x243F6A8885A308D3  # arbitrary nonzero start
    for p in parts:
        acc = mix64(acc ^ ((p & MASK64) + _GOLDEN))
    return acc


def threshold_u64(probability: Fraction) -> int:
    """Inclusion threshold t such that P(u64 < t) == probability up to 2^-64."""
    if probability < 0 or probability > 1:
        raise ValueError(f"probability {probability} outside [0, 1]")
    return (probability.numerator << 64) // probability.denominator


class RandomStream:
    """Sequential deterministic stream of 64-bit words.

    Thin stateful wrapper over the counter hash; one instance per
    algorithm invocation keeps every draw a function of the seed alone.
    """

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._counter = 0

    def next_u64(self) -> int:
        v = hash_at(self._seed, self._counter)
        self._counter += 1
        return v

    def block(self, k: int) -> np.ndarray:
        """The next ``k`` words as a uint64 array, as ``k`` next_u64 calls."""
        words = hash_block(self._seed, self._counter, k)
        self._counter += k
        return words

    def coin(self) -> bool:
        return self.next_u64() & 1 == 1

    def bernoulli(self, probability: Fraction) -> bool:
        return self.next_u64() < threshold_u64(probability)
