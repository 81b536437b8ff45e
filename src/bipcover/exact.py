"""Exact brute-force solvers for tree cover and tree partition numbers.

A cover by k monochromatic trees exists iff k monochromatic components
cover the vertex set: every tree lies inside a component of its colour,
and every component carries a spanning tree.  The cover number therefore
reduces to minimum set cover over the component lists of all colours,
solved here by branch and bound.  The partition number counts a single
vertex as a part, as the paper's partitions do, and is found by
recursive search over colour-connected parts with memoisation on the
remaining vertex mask.

Both searches are exponential in the worst case and exist as desk-scale
oracles; ``tp_exact`` and ``exhaustive_knn_check`` carry hard size
guards that a ``force`` flag can lift.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, count, permutations

import numpy as np

from .errors import InvalidArgumentError, TooLargeError
from .graph import BipartiteGraph, MonoPartition, components_from_rows, iter_bits, vertex_set

TP_VERTEX_GUARD = 16
KNN_ENUMERATION_GUARD = 1 << 16


@dataclass
class ExactResult:
    value: int
    witness: object  # cover: list[(colour, frozenset[Vertex])]; partition: MonoPartition
    nodes_explored: int


def _component_masks(n1: int, n2: int, layers) -> dict[int, tuple[int, int, int]]:
    """{combined mask: (colour, part-1 mask, part-2 mask)} over the
    monochromatic components of every colour layer, in colour order; a
    component that several colours share keeps its first colour.

    ``layers`` yields (part-1 rows, part-2 rows) per colour.  The combined
    mask places part-1 bits at 0..n1-1 and part-2 bits at n1..n1+n2-1.
    Singleton components are included so the universe is always
    coverable.
    """
    out: dict[int, tuple[int, int, int]] = {}
    for c, (rows1, rows2) in enumerate(layers):
        for m1, m2 in components_from_rows(n1, n2, rows1, rows2):
            out.setdefault(m1 | m2 << n1, (c, m1, m2))
    return out


def _min_cover(universe: int, sets: list[int]) -> tuple[int, list[int], int]:
    """Exact minimum set cover by branch and bound.

    Returns (size, chosen set indices, nodes explored).  ``sets`` must cover
    ``universe`` and come largest first, as ``_maximal``'s list of the maximal
    components of all layers, singletons included, does.
    """
    covering: dict[int, list[int]] = {}
    cover_union: dict[int, int] = {}
    for v in iter_bits(universe):
        bit = 1 << v
        covering[v] = [k for k, s in enumerate(sets) if s & bit]
        cover_union[v] = 0
        for k in covering[v]:
            cover_union[v] |= sets[k]

    # Greedy upper bound.
    best: list[int] = []
    left = universe
    while left:
        k = max(range(len(sets)), key=lambda t: (sets[t] & left).bit_count())
        best.append(k)
        left &= ~sets[k]
    best_size = len(best)

    nodes = 0

    def lower_bound(left: int) -> int:
        # Pick pairwise set-independent uncovered vertices greedily: no
        # single set touches two of them, so each costs one set.
        count = 0
        while left:
            v = (left & -left).bit_length() - 1
            count += 1
            left &= ~cover_union[v]
        return count

    def search(left: int, chosen: list[int]) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if not left:
            if len(chosen) < best_size:
                best = list(chosen)
                best_size = len(chosen)
            return
        if len(chosen) + lower_bound(left) >= best_size:
            return
        # Branch on the uncovered vertex with fewest candidate sets.
        v = min(iter_bits(left),
                key=lambda u: sum(1 for k in covering[u] if sets[k] & left))
        candidates = sorted((k for k in covering[v]),
                            key=lambda k: -(sets[k] & left).bit_count())
        for k in candidates:
            chosen.append(k)
            search(left & ~sets[k], chosen)
            chosen.pop()

    search(universe, [])
    return best_size, best, nodes


def _maximal(masks) -> list[int]:
    """The distinct masks by decreasing size, minus each one inside a kept
    one: by transitivity, exactly those inside any larger mask."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not any(m & ~other == 0 for other in kept):
            kept.append(m)
    return kept


def _walked_colours(colouring) -> list[int]:
    """The colours with an edge plus the first edgeless one, ascending: an
    edgeless layer gives only singletons, which colour 0 (walked[0]) gives first."""
    used = colouring.used_colours
    first_empty = next((k for k, c in enumerate(used) if k != c), len(used))
    return sorted({*used, first_empty} - {colouring.num_colours})


def tc_exact(g: BipartiteGraph, colouring) -> ExactResult:
    """Minimum number of monochromatic components covering V(G), with witness."""
    walked = _walked_colours(colouring)
    comps = _component_masks(g.n1, g.n2, map(colouring.layer_rows, walked))
    universe = (1 << (g.n1 + g.n2)) - 1
    kept = _maximal(comps)
    value, chosen, nodes = _min_cover(universe, kept)
    witness = [(colouring.label(walked[c]), vertex_set(m1, m2))
               for c, m1, m2 in (comps[kept[k]] for k in chosen)]
    return ExactResult(value, witness, nodes)


def _connected_subsets(anchor: int, allowed: int, adj: list[int]) -> list[int]:
    """All subsets of ``allowed`` containing ``anchor`` that are connected
    under ``adj``.  Standard grow-by-frontier enumeration without
    duplicates: each extension step may only add allowed neighbours not
    previously declined."""
    results: list[int] = []
    anchor_bit = 1 << anchor

    def grow(current: int, candidates: int, banned: int) -> None:
        results.append(current)
        frontier = candidates & ~banned
        declined = 0
        for v in iter_bits(frontier):
            bit = 1 << v
            new_candidates = (candidates | adj[v]) & allowed & ~(current | bit)
            grow(current | bit, new_candidates, banned | declined)
            declined |= bit

    grow(anchor_bit, adj[anchor] & allowed, 0)
    return results


def tp_exact(g: BipartiteGraph, colouring, force: bool = False) -> ExactResult:
    """Minimum partition of V(G) into parts each connected in one colour;
    a single vertex is such a part.

    Exponential search, guarded to 16 vertices unless ``force``.
    """
    total = g.n1 + g.n2
    if total > TP_VERTEX_GUARD and not force:
        raise TooLargeError(f"{total} vertices exceeds the guard of {TP_VERTEX_GUARD}; "
                            "pass force=True (`bipcover exact --force`) to override")
    walked = _walked_colours(colouring)
    layers = [colouring.layer_rows(c) for c in walked]
    # Per walked colour, adjacency over combined vertex ids 0..n1+n2-1.
    colour_adj = [[row << g.n1 for row in rows1] + list(rows2) for rows1, rows2 in layers]
    low = (1 << g.n1) - 1
    nodes = 0
    memo: dict[int, tuple[int, list[tuple[int, int]]]] = {}

    def solve(remaining: int) -> tuple[int, list[tuple[int, int]]]:
        nonlocal nodes
        if remaining in memo:
            return memo[remaining]
        nodes += 1
        # A single part absorbing everything left is always optimal; check
        # before enumerating subsets.
        for c, (rows1, rows2) in enumerate(layers):
            if len(components_from_rows(g.n1, g.n2, rows1, rows2,
                                        remaining & low, remaining >> g.n1)) == 1:
                memo[remaining] = (1, [(c, remaining)])
                return memo[remaining]
        v = (remaining & -remaining).bit_length() - 1
        best: tuple[int, list[tuple[int, int]]] | None = None
        tried: set[int] = set()
        for c, adj in enumerate(colour_adj):
            for part in _connected_subsets(v, remaining, adj):
                if part in tried:
                    continue
                tried.add(part)
                # Nonempty: part == remaining met the one-part check.
                sub = solve(remaining & ~part)
                if best is None or sub[0] + 1 < best[0]:
                    best = (sub[0] + 1, [(c, part)] + sub[1])
        memo[remaining] = best
        return best

    value, raw_parts = solve((1 << total) - 1)
    parts = [(colouring.label(walked[c]), vertex_set(mask & low, mask >> g.n1))
             for c, mask in raw_parts]
    return ExactResult(value, MonoPartition(tuple(parts)), nodes)


@dataclass
class KnnReport:
    """Outcome of exhausting all r-colourings of K_{n,n}."""

    n: int
    r: int
    bound: int
    total_colourings: int
    max_tc: int
    tc_histogram: dict[int, int] = field(default_factory=dict)
    violations: list[int] = field(default_factory=list)  # colouring codes with tc > bound


def _orbit_keys(r: int, digits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One key per row multiset (row of ``rows``; ``digits[a, j]`` colours
    column j in row code a): the lexicographic minimum over G of its permuted
    row-code count vector, in base n + 1, s digits to an int64 word (the most
    with (n + 1)**s < 2**63), smallest row code most significant.  G is
    column x colour permutations, all n!r! of them: the caller keys each
    multiset by its own row codes instead when G would outnumber them."""
    row_codes, n = digits.shape
    columns = np.array(list(permutations(range(n))))
    colours = np.array(list(permutations(range(r))))
    # image[g, a]: the row code that g = (column, colour permutation) makes of a.
    image = np.einsum("tan,sn->sta", colours[:, digits], r ** columns).reshape(-1, row_codes)
    s = next(k for k in count(1) if (n + 1) ** (k + 1) >= 1 << 63)
    width, b = -(-row_codes // s), np.arange(row_codes)
    place = np.zeros((row_codes, width), np.int64)
    place[b, b // s] = (n + 1) ** (s - 1 - b % s)
    table = place[image.T].transpose(0, 2, 1).copy()  # table[a, word, g]
    keys = np.empty((len(rows), width), np.int64)
    block = max(1, (1 << 15) // (len(image) * n * width))  # 256 KB of gathered words
    for start in range(0, len(rows), block):
        images = table[rows[start:start + block]].sum(axis=1)  # [multiset, word, g]
        live = np.ones((len(images), len(image)), bool)
        for w in range(width):
            word = np.where(live, images[:, w], np.iinfo(np.int64).max).min(axis=1)
            keys[start:start + block, w] = word
            live &= images[:, w] == word[:, None]
    return keys


def exhaustive_knn_check(n: int, r: int, bound: int | None = None,
                         force: bool = False) -> KnnReport:
    """Compute tc over every r-colouring of K_{n,n} and report the maximum
    and the colourings with tc above ``bound``: by default the Gyarfas-Lehel
    bound 2r - 2, or 1 for r = 1, whose one colouring has tc 1.

    Colouring ``code`` gives edge (i, j) base-r digit i*n + j, so part-1 row
    i has row code ``code // R**i % R``, one of R = r**n.  tc does not change when
    the part-1 vertices are permuted, so the walk is over multisets of row
    codes, and the guard counts multisets.  Nor does it change under the group
    G of column (part-2) times colour permutations, so tc is solved once per
    class of equal ``_orbit_keys``: the least permuted row-code count vector
    over G.  Unless n!r! <= the multiset count, G is the identity alone and
    a multiset's sorted row codes are its key.
    The counts are unreduced: a multiset weighs the n!/prod(mult!) colourings
    it stands for, and ``violations`` lists every violating code, ascending.
    The multisets come in lexicographic order, which is the order of each
    orbit's smallest code (smallest row code last), so the histogram keys
    come in the order of their first colouring code, as in a raw walk.
    """
    if n < 1 or r < 1:
        raise InvalidArgumentError("n and r must be positive")
    bound = max(1, 2 * r - 2) if bound is None else bound
    row_codes = r ** n
    representatives = math.comb(row_codes + n - 1, n)
    if representatives > KNN_ENUMERATION_GUARD and not force:
        raise TooLargeError(f"{representatives} representatives (part-1 row multisets) exceed "
                            f"the guard of {KNN_ENUMERATION_GUARD}; "
                            "pass force=True (`bipcover exact --force`) to override")
    # digits[a][j]: the colour of edge (i, j) when part-1 row i has row code a.
    digits = [[a // r ** j % r for j in range(n)] for a in range(row_codes)]
    walk = chain.from_iterable(combinations_with_replacement(range(row_codes), n))
    rows = np.fromiter(walk, np.min_scalar_type(row_codes - 1),
                       representatives * n).reshape(representatives, n)
    # Sort by key, stably: each class of equal keys is led by its first multiset.
    whole = math.factorial(n) * math.factorial(r) <= representatives
    keys = _orbit_keys(r, np.array(digits), rows) if whole else rows
    order = np.lexsort(keys.T)
    ranked = keys[order]
    fresh = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    universe = (1 << (2 * n)) - 1
    column = [1 << j for j in range(n)]
    values = []
    for lead in rows[order[fresh]].tolist():
        # Only the colours in use: every vertex has an edge, so no singleton layer is needed.
        layers = defaultdict(lambda: ([0] * n, [0] * n))
        for i, a in enumerate(lead):
            bit = 1 << i
            for j, c in enumerate(digits[a]):
                rows1, rows2 = layers[c]
                rows1[i] |= column[j]
                rows2[j] |= bit
        values.append(_min_cover(universe, _maximal(_component_masks(n, n, layers.values())))[0])
    # tc per multiset, in walk order: its class is its rank among the fresh keys.
    value = np.array(values)[(np.cumsum(fresh) - 1)[np.argsort(order)]]
    # n!/prod(mult!) over each sorted multiset, one row at a time: n! itself overflows.
    weight = run = np.ones(representatives, np.int64)
    for i in range(1, n):
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1)
        weight = weight * (i + 1) // run
    counts = {v: int(weight[value == v].sum()) for v in dict.fromkeys(value.tolist())}
    violations = []
    for multiset in rows[value > bound].tolist():
        # Each distinct ordering (a_0, a_1, ...) of the multiset once, as sum(a_i * R**i).
        partial = [(0, tuple(multiset))]
        for i in range(n):
            partial = [(code + a * row_codes ** i, left[:k] + left[k + 1:])
                       for code, left in partial
                       for k, a in enumerate(left) if k == 0 or a != left[k - 1]]
        violations += (code for code, _ in partial)
    return KnnReport(n, r, bound, r ** (n * n), max(counts), counts, sorted(violations))
