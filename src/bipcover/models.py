"""Seeded samplers for random bipartite graphs and colourings.

All samplers are counter-based: the decision for edge slot (i, j) is a
hash of (seed, i*n2 + j), with slots enumerated row-major over part-1
then part-2 indices.  The same seed and parameters therefore always
produce a bit-identical graph, independent of platform, process, or
evaluation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError
from .graph import BipartiteGraph, TwoColouring, rows_and_transpose
from .rng import (LANE, MASK64, TAG_COLOURING, TAG_GRAPH, TAG_MINDEG, combine, hash_block,
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


def _check_part_sizes(*sizes) -> None:
    if not all(isinstance(size, numbers.Integral) for size in sizes):
        raise InvalidArgumentError("part sizes must be integers")
    if min(sizes) < 1:
        raise InvalidArgumentError("part sizes must be at least 1")


@dataclass(frozen=True)
class ModelParams:
    n1: int
    n2: int
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        _check_part_sizes(self.n1, self.n2)
        if not 0 <= self.p <= 1:
            raise InvalidArgumentError("edge probability must be in [0, 1]")


_CHUNK_SLOTS = LANE  # slots hashed and thresholded per block, in L2 cache
_ORDER_CHUNK = 4096  # slots per bulk step of the min-degree sampler
_CUT_SLACKS = 2  # the min-degree sampler's stage cut, in multiples of the slack fraction


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


def _delete_in_order(order, n, floor, deg1, deg2, present) -> None:
    """Visit ``order``'s slots in turn, deleting each whose endpoints both stay above the
    floor.  Per chunk, a vertex whose degree minus its live slots there is at least the
    floor passes all its checks, so slots joining two such go at once; the rest in order."""
    for start in range(0, order.size, _ORDER_CHUNK):
        slots = order[start:start + _ORDER_CHUNK]
        i = slots // n  # np.divmod takes ten times as long
        j = slots - i * n
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


def sample_mindeg_subgraph(n: int, min_degree_fraction, seed: int) -> BipartiteGraph:
    """Spanning subgraph of K_{n,n} with minimum degree >= ceil(fraction * n).

    Visits the n^2 edge slots in a seed-determined random order and
    deletes an edge whenever both endpoints stay strictly above the
    floor, so most degrees end up at the floor exactly.

    Runs in two stages with the same result, as the keys ``hash_at(seed, slot)`` are
    distinct.  Stage 1 sorts the slots keyed below a cut at ``_CUT_SLACKS`` times the
    slack (n - floor) / n of key space.  Degrees only fall, so a later slot can go only
    if both its endpoints are above the floor now: stage 2 sorts just those pairs, by
    the keys stage 1 hashed.
    """
    _check_part_sizes(n)
    frac = as_fraction(min_degree_fraction)
    if not 0 < frac <= 1:
        raise InvalidArgumentError("min degree fraction must be in (0, 1]")
    floor = math.ceil(frac * n)
    present = np.ones(n * n, dtype=bool)
    if floor < n:
        cut = np.uint64(min((_CUT_SLACKS * (n - floor) << 64) // n, MASK64))
        deg1, deg2 = np.full(n, n), np.full(n, n)
        keys = hash_block(combine(seed, TAG_MINDEG), 0, n * n)
        first = np.flatnonzero(keys < cut)
        _delete_in_order(first[np.argsort(keys[first])], n, floor, deg1, deg2, present)
        late = np.add.outer(np.flatnonzero(deg1 > floor) * n, np.flatnonzero(deg2 > floor)).ravel()
        late = late[keys[late] >= cut]
        _delete_in_order(late[np.argsort(keys[late])], n, floor, deg1, deg2, present)
    return BipartiteGraph(n, n, *rows_and_transpose(present.reshape(n, n)))
