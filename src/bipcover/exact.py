"""Exact brute-force solvers for tree cover and tree partition numbers.

A cover by k monochromatic trees exists iff k monochromatic components
cover the vertex set: every tree lies inside a component of its colour,
and every component carries a spanning tree.  The cover number therefore
reduces to minimum set cover over the component lists of all colours,
solved here by branch and bound.  The partition number is found by
recursive search over colour-connected parts with memoisation on the
remaining vertex mask.

Both searches are exponential in the worst case and exist as desk-scale
oracles; ``tp_exact`` and ``exhaustive_knn_check`` carry hard size
guards that a ``force`` flag can lift.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, permutations, product

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
    ``universe``, as the maximal components of all layers, singletons included, do.
    """
    order = sorted(range(len(sets)), key=lambda k: -sets[k].bit_count())
    sets_by_size = [sets[k] for k in order]

    covering: dict[int, list[int]] = {}
    cover_union: dict[int, int] = {}
    for v in iter_bits(universe):
        bit = 1 << v
        covering[v] = [k for k, s in enumerate(sets_by_size) if s & bit]
        cover_union[v] = 0
        for k in covering[v]:
            cover_union[v] |= sets_by_size[k]

    # Greedy upper bound.
    best: list[int] = []
    left = universe
    while left:
        k = max(range(len(sets_by_size)), key=lambda t: (sets_by_size[t] & left).bit_count())
        best.append(k)
        left &= ~sets_by_size[k]
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
                key=lambda u: sum(1 for k in covering[u] if sets_by_size[k] & left))
        candidates = sorted((k for k in covering[v]),
                            key=lambda k: -(sets_by_size[k] & left).bit_count())
        for k in candidates:
            chosen.append(k)
            search(left & ~sets_by_size[k], chosen)
            chosen.pop()

    search(universe, [])
    return best_size, [order[k] for k in best], nodes


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


def tp_exact(g: BipartiteGraph, colouring, allow_singletons: bool = True,
             force: bool = False) -> ExactResult:
    """Minimum partition of V(G) into parts each connected in one colour.

    Exponential search, guarded to 16 vertices unless ``force``.
    """
    total = g.n1 + g.n2
    if total > TP_VERTEX_GUARD and not force:
        raise TooLargeError(f"{total} vertices exceeds the guard of {TP_VERTEX_GUARD}; "
                            "pass force=True to override")
    walked = _walked_colours(colouring)
    layers = [colouring.layer_rows(c) for c in walked]
    # Per walked colour, adjacency over combined vertex ids 0..n1+n2-1.
    colour_adj = [[row << g.n1 for row in rows1] + list(rows2) for rows1, rows2 in layers]
    r = len(walked)
    full = (1 << total) - 1
    low = (1 << g.n1) - 1
    nodes = 0
    memo: dict[int, tuple[int, list[tuple[int, int]]] | None] = {}

    def solve(remaining: int) -> tuple[int, list[tuple[int, int]]] | None:
        nonlocal nodes
        if remaining in memo:
            return memo[remaining]
        nodes += 1
        v = (remaining & -remaining).bit_length() - 1
        # A single part absorbing everything left is always optimal; check
        # before enumerating subsets.
        if allow_singletons or remaining.bit_count() >= 2:
            for c, (rows1, rows2) in enumerate(layers):
                if len(components_from_rows(g.n1, g.n2, rows1, rows2,
                                            remaining & low, remaining >> g.n1)) == 1:
                    memo[remaining] = (1, [(c, remaining)])
                    return memo[remaining]
        best: tuple[int, list[tuple[int, int]]] | None = None
        tried: set[int] = set()
        for c in range(r):
            for part in _connected_subsets(v, remaining, colour_adj[c]):
                if part in tried:
                    continue
                tried.add(part)
                if not allow_singletons and part.bit_count() < 2:
                    continue
                # Nonempty: part == remaining met the one-part check, or was a banned singleton.
                sub = solve(remaining & ~part)
                if sub is None:
                    continue
                cand = (sub[0] + 1, [(c, part)] + sub[1])
                if best is None or cand[0] < best[0]:
                    best = cand
        memo[remaining] = best
        return best

    solution = solve(full)
    if solution is None:
        raise InvalidArgumentError(
            "no partition exists without singleton parts on this instance")
    value, raw_parts = solution
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


def exhaustive_knn_check(n: int, r: int, bound: int, force: bool = False) -> KnnReport:
    """Compute tc over every r-colouring of K_{n,n} and report the maximum.

    Colouring ``code`` gives edge (i, j) base-r digit i*n + j, so part-1 row
    i has row code ``code // R**i % R``, one of R = r**n.  tc does not change when
    the part-1 vertices are permuted, so the enumeration is quotiented: each
    multiset of row codes is solved once, and the guard counts multisets.
    The counts are unreduced: a multiset weighs the n!/prod(mult!) colourings
    it stands for, and ``violations`` lists every violating code, ascending.
    The multisets come in lexicographic order, which is the order of each
    orbit's smallest code (smallest row code last), so the histogram keys
    come in the order of their first colouring code, as in a raw walk.
    """
    if n < 1 or r < 1:
        raise InvalidArgumentError("n and r must be positive")
    row_codes = r ** n
    representatives = math.comb(row_codes + n - 1, n)
    if representatives > KNN_ENUMERATION_GUARD and not force:
        raise TooLargeError(f"{representatives} representatives (part-1 row multisets) exceed "
                            f"the guard of {KNN_ENUMERATION_GUARD}; pass force=True to override")
    # digits[a][j]: the colour of edge (i, j) when part-1 row i has row code a.
    digits = [[a // r ** j % r for j in range(n)] for a in range(row_codes)]
    universe = (1 << (2 * n)) - 1
    counts, violations = {}, []
    for rows in combinations_with_replacement(range(row_codes), n):
        layers = [([0] * n, [0] * n) for _ in range(r)]
        for (i, a), j in product(enumerate(rows), range(n)):
            rows1, rows2 = layers[digits[a][j]]
            rows1[i] |= 1 << j
            rows2[j] |= 1 << i
        value, _, _ = _min_cover(universe, _maximal(_component_masks(n, n, layers)))
        counts[value] = counts.get(value, 0) + math.factorial(n) // math.prod(
            map(math.factorial, Counter(rows).values()))
        if value > bound:
            violations += {sum(a * row_codes ** i for i, a in enumerate(perm))
                           for perm in permutations(rows)}
    return KnnReport(n, r, bound, r ** (n * n), max(counts), counts, sorted(violations))
