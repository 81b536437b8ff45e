"""Deterministic lower-bound colourings.

Three constructions, each forcing a minimum number of monochromatic
components in any cover:

* ``colour_lower3`` - picks an anchor in each part, splits both parts
  into anchor / neighbourhood / remainder zones, and colours the zone
  pairs so that no two components cover everything (forces >= 3).
* ``colour_lower4`` - finds two vertices per part with disjoint
  neighbourhoods and paints all their edges red; the four chosen
  vertices then sit in four distinct red components and in no blue one
  (forces >= 4 when the witness invariants hold).
* ``colour_blowup_pair`` - two disjoint complete bipartite halves, each
  carrying a blown-up proper r-edge-colouring, forcing >= 2r.

Choices are lowest-index-first throughout so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionInfeasibleError, InvalidArgumentError
from .graph import (BipartiteGraph, Colour, RColouring, TwoColouring, Vertex,
                    bit_indices, colour_layers, iter_bits, rows_from_edges, vertex_set)


@dataclass(frozen=True)
class Lower3Witness:
    """Anchors and remainder zones certifying the 3-component bound."""

    anchor_red: Vertex   # part-1 vertex whose edges are all red
    anchor_blue: Vertex  # part-2 non-neighbour of it, edges all blue
    rest1: frozenset[Vertex]  # part 1 minus the blue anchor's neighbours and anchor_red
    rest2: frozenset[Vertex]  # part 2 minus the red anchor's neighbours and anchor_blue


@dataclass(frozen=True)
class Lower4Witness:
    """Two disjoint-neighbourhood pairs certifying the 4-component bound."""

    pair1: tuple[Vertex, Vertex]  # part-1 pair with no common neighbour
    pair2: tuple[Vertex, Vertex]  # part-2 pair, also outside pair1's neighbourhoods


def colour_lower3(g: BipartiteGraph) -> tuple[TwoColouring, Lower3Witness]:
    """Colouring in which no two monochromatic components cover V(G).

    Zones (r = anchor_red, b = anchor_blue): part 1 = {r} | N(b) | X,
    part 2 = {b} | N(r) | Y.  Red edges: r-N(r), X-N(r), Y-N(b).  Blue:
    b-N(b), N(b)-N(r), X-Y.  Components containing r and b miss Y, so
    any cover needs a third component.

    Raises ConstructionInfeasibleError when no anchor pair leaves both
    remainder zones nonempty (e.g. on complete graphs).
    """
    full1 = (1 << g.n1) - 1
    full2 = (1 << g.n2) - 1
    for r_idx in range(g.n1):
        nr = g.row(1, r_idx)
        non_nbrs = full2 & ~nr
        for b_idx in iter_bits(non_nbrs):
            nb = g.row(2, b_idx)
            x_mask = full1 & ~nb & ~(1 << r_idx)
            y_mask = full2 & ~nr & ~(1 << b_idx)
            if x_mask and y_mask:
                # Every edge is zoned: X rows miss b (X misses N(b)), N(b) rows
                # off Y are blue, r's row is N(r).
                red1 = [nr if i == r_idx else g.row(1, i) & (nr if x_mask >> i & 1 else y_mask)
                        for i in range(g.n1)]
                witness = Lower3Witness(Vertex(1, r_idx), Vertex(2, b_idx),
                                        vertex_set(x_mask, 0), vertex_set(0, y_mask))
                return TwoColouring.from_red_rows(g, red1), witness
    raise ConstructionInfeasibleError(
        "no anchor pair with both remainder zones nonempty; "
        "some vertex has fewer than two non-neighbours")


def _first_disjoint_pair(rows: tuple[int, ...], allowed: int) -> tuple[int, int] | None:
    idxs = bit_indices(allowed)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if rows[idxs[a]] & rows[idxs[b]] == 0:
                return idxs[a], idxs[b]
    return None


def colour_lower4(g: BipartiteGraph) -> tuple[TwoColouring, Lower4Witness]:
    """Red on every edge at the four witness vertices, blue elsewhere.

    The part-1 pair is the lexicographically first with disjoint
    neighbourhoods; the part-2 pair is the first disjoint pair outside
    the part-1 pair's neighbourhoods.  No backtracking over the part-1
    choice: if the restricted part-2 search fails the construction is
    declared infeasible (expected at densities above the threshold
    regime).
    """
    rows1, rows2 = g.rows(1), g.rows(2)
    pair1 = _first_disjoint_pair(rows1, (1 << g.n1) - 1)
    if pair1 is None:
        raise ConstructionInfeasibleError("no part-1 pair with disjoint neighbourhoods")
    u1, v1 = pair1
    allowed2 = ((1 << g.n2) - 1) & ~(rows1[u1] | rows1[v1])
    pair2 = _first_disjoint_pair(rows2, allowed2)
    if pair2 is None:
        raise ConstructionInfeasibleError(
            "no disjoint-neighbourhood part-2 pair outside the part-1 pair's neighbourhoods")
    u2, v2 = pair2
    special2 = (1 << u2) | (1 << v2)
    red1 = [rows1[i] if i in (u1, v1) else rows1[i] & special2 for i in range(g.n1)]
    colouring = TwoColouring.from_red_rows(g, red1)
    witness = Lower4Witness((Vertex(1, u1), Vertex(1, v1)), (Vertex(2, u2), Vertex(2, v2)))
    return colouring, witness


def lower4_witness_valid(g: BipartiteGraph, witness: Lower4Witness) -> bool:
    """Re-check the invariants that make the 4-component bound sound."""
    (a, b), (c, d) = witness.pair1, witness.pair2
    if g.row(1, a.index) & g.row(1, b.index):
        return False
    if g.row(2, c.index) & g.row(2, d.index):
        return False
    reach = g.row(1, a.index) | g.row(1, b.index)
    return not (reach >> c.index & 1 or reach >> d.index & 1)


def colour_blowup_pair(n: int, r: int) -> tuple[BipartiteGraph, TwoColouring | RColouring]:
    """Two disjoint K_{n/2,n/2} halves, each a blown-up proper r-colouring.

    Each half's parts split into r equal groups; the edge bundle between
    group i and group j gets colour (i + j) mod r, the Latin-square
    proper colouring of K_{r,r} with every vertex blown up to a group.
    Any cover of the output needs at least 2r components.  Requires
    n divisible by 2r (equal groups in each half).
    """
    if r < 2:
        raise InvalidArgumentError("need at least 2 colours")
    if n % (2 * r) != 0:
        raise InvalidArgumentError(f"n={n} must be divisible by 2r={2 * r}")
    if r > n // 2:
        raise InvalidArgumentError("more colours than group slots")
    half = n // 2
    group = half // r
    idx = np.arange(n)
    i, j = np.nonzero(idx[:, None] // half == idx // half)  # both ends in one half
    codes = ((i % half) // group + (j % half) // group) % r
    g = BipartiteGraph(n, n, *rows_from_edges(n, n, i, j))
    layers = colour_layers(n, n, i, j, codes, r)
    return g, (TwoColouring(g, *layers[Colour.RED]) if r == 2 else RColouring(g, layers))
