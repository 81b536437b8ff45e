"""Seeded samplers for random bipartite graphs and colourings.

All samplers are counter-based: the decision for edge slot (i, j) is a
hash of (seed, i*n2 + j), with slots enumerated row-major over part-1
then part-2 indices.  The same seed and parameters therefore always
produce a bit-identical graph, independent of platform, process, or
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError
from .graph import BipartiteGraph, TwoColouring, rows_and_transpose
from .rng import (LANE, TAG_COLOURING, TAG_GRAPH, TAG_MINDEG, combine, hash_block,
                  threshold_u64)


def as_fraction(x) -> Fraction:
    """Normalise a probability-like argument to an exact Fraction.

    Strings and Fractions convert exactly; floats convert to their exact
    binary value.  Pass "0.05" rather than 0.05 when the decimal value
    matters.  Anything else, or an unreadable value ("abc", "1/0", nan),
    raises InvalidArgumentError.
    """
    if isinstance(x, (Fraction, str, int, float)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise InvalidArgumentError(f"cannot interpret {x!r} as an exact fraction")


@dataclass(frozen=True)
class ModelParams:
    n1: int
    n2: int
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidArgumentError("part sizes must be at least 1")
        if not 0 <= self.p <= 1:
            raise InvalidArgumentError("edge probability must be in [0, 1]")


_CHUNK_SLOTS = LANE  # slots hashed and thresholded per block, in L2 cache
_ORDER_CHUNK = 4096  # slots per bulk step of the min-degree sampler


def _slot_matrix(seed: int, n1: int, n2: int, probability: Fraction) -> np.ndarray:
    """Boolean (n1, n2) matrix: slot included iff its hash clears the threshold
    (a Python int, so probability 1's 2^64 compares too), one block at a time."""
    thr = threshold_u64(probability)
    out = np.empty((n1, n2), dtype=bool)
    for start in range(0, n1 * n2, _CHUNK_SLOTS):
        block = out.reshape(-1)[start:start + _CHUNK_SLOTS]
        np.less(hash_block(seed, start, len(block)), thr, out=block)
    return out


def sample_bipartite(params: ModelParams, seed: int) -> BipartiteGraph:
    """Each of the n1*n2 possible edges appears independently with probability p."""
    present = _slot_matrix(combine(seed, TAG_GRAPH), params.n1, params.n2, params.p)
    return BipartiteGraph(params.n1, params.n2, *rows_and_transpose(present))


def sample_colouring(g: BipartiteGraph, red_probability, seed: int) -> TwoColouring:
    """Colour each edge of ``g`` red independently with the given probability."""
    q = as_fraction(red_probability)
    if not 0 <= q <= 1:
        raise InvalidArgumentError("red probability must be in [0, 1]")
    masks1, masks2 = rows_and_transpose(_slot_matrix(combine(seed, TAG_COLOURING), g.n1, g.n2, q))
    red1 = tuple(row & mask for row, mask in zip(g.rows(1), masks1))
    red2 = tuple(row & mask for row, mask in zip(g.rows(2), masks2))
    return TwoColouring(g, red1, red2)


def sample_mindeg_subgraph(n: int, min_degree_fraction, seed: int) -> BipartiteGraph:
    """Spanning subgraph of K_{n,n} with minimum degree >= ceil(fraction * n).

    Visits the n^2 edge slots in a seed-determined random order and
    deletes an edge whenever both endpoints stay strictly above the
    floor, so most degrees end up at the floor exactly.

    Runs in bulk with the same result.  The keys ``hash_at(seed, slot)``
    are distinct, so every sort gives the same order.  Per chunk of
    ``_ORDER_CHUNK`` slots, a slot with an endpoint at the floor stays; a
    vertex whose degree minus its live slots in the chunk is at least the
    floor passes each of its checks there, so slots joining two such
    vertices are deleted at once, touching no other vertex, and the rest
    are checked in order.
    """
    frac = as_fraction(min_degree_fraction)
    if not 0 < frac <= 1:
        raise InvalidArgumentError("min degree fraction must be in (0, 1]")
    floor = math.ceil(frac * n)
    present = np.ones(n * n, dtype=bool)
    if floor < n:
        order = np.argsort(hash_block(combine(seed, TAG_MINDEG), 0, n * n))
        deg1, deg2 = np.full(n, n), np.full(n, n)
        for start in range(0, n * n, _ORDER_CHUNK):
            slots = order[start:start + _ORDER_CHUNK]
            i, j = np.divmod(slots, n)
            live = (deg1[i] > floor) & (deg2[j] > floor)
            slots, i, j = slots[live], i[live], j[live]
            drop = ((deg1 - np.bincount(i, minlength=n) >= floor)[i]
                    & (deg2 - np.bincount(j, minlength=n) >= floor)[j])
            rest = np.flatnonzero(~drop)
            d1, d2 = deg1.tolist(), deg2.tolist()
            for k, a, b in zip(rest.tolist(), i[rest].tolist(), j[rest].tolist()):
                if d1[a] > floor and d2[b] > floor:
                    d1[a] -= 1
                    d2[b] -= 1
                    drop[k] = True
            present[slots[drop]] = False
            deg1 -= np.bincount(i[drop], minlength=n)
            deg2 -= np.bincount(j[drop], minlength=n)
    return BipartiteGraph(n, n, *rows_and_transpose(present.reshape(n, n)))
