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
from .graph import BipartiteGraph, TwoColouring, rows_from_matrix
from .rng import (TAG_COLOURING, TAG_GRAPH, TAG_MINDEG, combine, hash_block,
                  threshold_u64)


def as_fraction(x) -> Fraction:
    """Normalise a probability-like argument to an exact Fraction.

    Strings and Fractions convert exactly; floats convert to their exact
    binary value.  Pass "0.05" rather than 0.05 when the decimal value
    matters.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise InvalidArgumentError(f"cannot interpret {x!r} as an exact fraction")


@dataclass(frozen=True)
class ModelParams:
    n1: int
    n2: int
    p: Fraction

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidArgumentError("part sizes must be at least 1")
        if not 0 <= self.p <= 1:
            raise InvalidArgumentError("edge probability must be in [0, 1]")


_CHUNK_SLOTS = 1 << 22  # bound peak memory for very large hosts


def _slot_matrix(seed: int, n1: int, n2: int, probability: Fraction) -> np.ndarray:
    """Boolean (n1, n2) matrix: slot included iff its hash clears the threshold."""
    if probability == 1:
        return np.ones((n1, n2), dtype=bool)
    if probability == 0:
        return np.zeros((n1, n2), dtype=bool)
    thr = np.uint64(threshold_u64(probability))
    total = n1 * n2
    out = np.empty(total, dtype=bool)
    for start in range(0, total, _CHUNK_SLOTS):
        count = min(_CHUNK_SLOTS, total - start)
        np.less(hash_block(seed, start, count), thr, out=out[start:start + count])
    return out.reshape(n1, n2)


def sample_bipartite(params: ModelParams, seed: int) -> BipartiteGraph:
    """Each of the n1*n2 possible edges appears independently with probability p."""
    present = _slot_matrix(combine(seed, TAG_GRAPH), params.n1, params.n2, params.p)
    rows1 = rows_from_matrix(present)
    rows2 = rows_from_matrix(present.T)
    return BipartiteGraph(params.n1, params.n2, rows1, rows2)


def sample_colouring(g: BipartiteGraph, red_probability, seed: int) -> TwoColouring:
    """Colour each edge of ``g`` red independently with the given probability."""
    q = as_fraction(red_probability)
    if not 0 <= q <= 1:
        raise InvalidArgumentError("red probability must be in [0, 1]")
    red_slots = _slot_matrix(combine(seed, TAG_COLOURING), g.n1, g.n2, q)
    red1 = tuple(g.row(1, i) & mask for i, mask in enumerate(rows_from_matrix(red_slots)))
    red2 = tuple(g.row(2, j) & mask for j, mask in enumerate(rows_from_matrix(red_slots.T)))
    return TwoColouring(g, red1, red2)


def sample_mindeg_subgraph(n: int, min_degree_fraction, seed: int) -> BipartiteGraph:
    """Spanning subgraph of K_{n,n} with minimum degree >= ceil(fraction * n).

    Visits the n^2 edge slots in a seed-determined random order and
    deletes an edge whenever both endpoints stay strictly above the
    floor, so most degrees end up at the floor exactly.
    """
    frac = as_fraction(min_degree_fraction)
    if not 0 < frac <= 1:
        raise InvalidArgumentError("min degree fraction must be in (0, 1]")
    floor = math.ceil(frac * n)
    present = np.ones((n, n), dtype=bool)
    if floor < n:
        keys = hash_block(combine(seed, TAG_MINDEG), 0, n * n)
        order = np.argsort(keys, kind="stable")
        deg1 = [n] * n
        deg2 = [n] * n
        flat = present.reshape(-1)
        for slot in order.tolist():
            i, j = divmod(slot, n)
            if deg1[i] > floor and deg2[j] > floor:
                flat[slot] = False
                deg1[i] -= 1
                deg2[j] -= 1
    rows1 = rows_from_matrix(present)
    rows2 = rows_from_matrix(present.T)
    return BipartiteGraph(n, n, rows1, rows2)
