"""Cover all but O(1/p) vertices with at most three monochromatic trees.

Strategy, for a total red/blue colouring of a balanced bipartite graph
whose density is calibrated by the parameter ``p``:

1. If one colour's subgraph has a spanning component, one tree suffices.
2. Otherwise both colours have heavy vertices (colour degree above a
   third of the degree).  Pick a red-heavy root and a blue-heavy root in
   opposite parts and orient the construction by the majority colour
   between their neighbourhoods.
3. Jokers are minority-root neighbours with many majority-coloured
   common neighbours with the majority root; they can join either tree,
   so their tree preference is drawn by coin in the matched split that
   ``construct.ConstructionRun.matched_split`` shares with partition3.
4. Every other vertex of the minority root's part with enough joker
   neighbours gets the preference colour in which it sees more jokers,
   and is attached through a preference-matching joker.  Vertices with
   too few joker neighbours stay uncovered (there are at most ~100/p of
   them at calibrated densities).
5. The remaining part is either absorbed as leaves of the two trees
   (when nobody sees many opposite-preference attached vertices) or
   routed through a third tree rooted at a well-connected pivot, using a
   second joker set and a second random preference draw.

Random draws that fail their matching condition are retried up to a
retry budget; still-unmatched vertices are moved to the uncovered set
with a reason tag rather than ever emitting an invalid cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .construct import (AuditReport, ConstructionRun, heavy_masks, majority_colour, orient,
                        pick_roots, reaching, tag)
from .errors import InvalidArgumentError, PropertyFailureError
from .graph import (BLUE, RED, BipartiteGraph, Colour, MonoTree, TreeCover,
                    TwoColouring, Vertex, bit_indices, components_from_rows, edges_between,
                    iter_bits, lowest, part_vertices, select, spanning_tree_of,
                    vertex_masks, vertex_set, vertex_table)
from .models import as_fraction


_EPSILON = Fraction(1, 10)  # the audit's degree band is (1 +- epsilon) * p * n


class CoverCase(str, Enum):
    SPANNING = "spanning"
    THIRD_TREE = "third_tree"
    LEAF_ATTACH = "leaf_attach"


@dataclass(frozen=True)
class CoverParams:
    p: Fraction
    retry_limit: int = 16
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        if not 0 < self.p <= 1:
            raise InvalidArgumentError("p must be in (0, 1]")
        if self.retry_limit < 1:
            raise InvalidArgumentError("retry limit must be at least 1")


@dataclass
class CoverState:
    """Everything the construction decided, in absolute red/blue terms.

    Populated fields depend on how far the pipeline ran: a spanning
    instance stops after the heavy sets, a third-tree instance fills the
    second joker round as well.
    """

    n: int
    p: Fraction
    epsilon: Fraction
    case: CoverCase
    heavy_red: frozenset[Vertex] = frozenset()
    heavy_blue: frozenset[Vertex] = frozenset()
    root_red: Vertex | None = None
    root_blue: Vertex | None = None
    parts_swapped: bool = False
    majority: Colour | None = None
    jokers: frozenset[Vertex] = frozenset()
    attachable: frozenset[Vertex] = frozenset()
    attachable_red: frozenset[Vertex] = frozenset()
    attachable_blue: frozenset[Vertex] = frozenset()
    stranded: frozenset[Vertex] = frozenset()
    preference: dict[Vertex, Colour] = field(default_factory=dict)
    demoted: frozenset[Vertex] = frozenset()
    third_root: Vertex | None = None
    jokers2: frozenset[Vertex] = frozenset()
    attachable2: frozenset[Vertex] = frozenset()
    stranded2: frozenset[Vertex] = frozenset()
    preference2: dict[Vertex, Colour] = field(default_factory=dict)
    uncovered_reasons: dict[Vertex, str] = field(default_factory=dict)

    def oriented_roots(self) -> tuple[Vertex, Vertex]:
        """(majority-colour root, minority-colour root)."""
        return orient(self.majority, self.root_red, self.root_blue)


def _pivot_scan(g: BipartiteGraph, colouring: TwoColouring, state: CoverState,
                att_p: int, att_s: int) -> tuple[int, tuple[int, Colour] | None]:
    """The still-unassigned rest w1 of the majority root's part, and the
    first vertex of w1 that sees at least p*n/100 attached vertices of the
    other tree's preference in that tree's colour: (index, third-tree
    colour), or None when no vertex roots a third tree."""
    maj = state.majority
    minr = maj.other
    root_p, root_s = state.oriented_roots()
    part_p = root_p.part
    thr = math.ceil(state.p * state.n / 100)  # counts are integers
    ns_full = colouring.coloured_row(root_s.part, root_s.index, minr)
    w1 = ((1 << g.part_size(part_p)) - 1) & ~ns_full & ~(1 << root_p.index)
    for v in iter_bits(w1):
        if (colouring.coloured_row(part_p, v, minr) & att_p).bit_count() >= thr:
            return w1, (v, minr)
        if (colouring.coloured_row(part_p, v, maj) & att_s).bit_count() >= thr:
            return w1, (v, maj)
    return w1, None


class _Pipeline(ConstructionRun):
    """One almost_cover run; mutable scratch space around the final state."""

    def __init__(self, g: BipartiteGraph, colouring: TwoColouring, params: CoverParams):
        super().__init__("almost_cover", g, colouring, params)
        n, p = self.n, params.p
        # Counts are integers: c > x iff c >= floor(x) + 1, c >= x iff c >= ceil(x).
        self.thr_joker = math.floor(p * p * n / 25) + 1  # > p*p*n/25
        self.thr_attach = math.ceil(p * p * n / 200)     # >= p*p*n/200
        self.thr_pref = math.ceil(p * p * n / 400)       # >= p*p*n/400
        # tree assembly: tree id -> (colour, root, edges list), in P, S, 3 order
        self.trees: dict[str, tuple[Colour, Vertex, list]] = {}
        self.uncovered: dict[Vertex, str] = {}

    # -- small helpers ----------------------------------------------------

    def attach(self, tid: str, part: int, mask: int, parents: int) -> None:
        """Attach the vertices of ``part`` in ``mask``, ascending, each under
        its lowest neighbour in ``parents`` by an edge of the tree's colour."""
        colour, _, edges = self.trees[tid]
        rows = self.rows(part, colour)
        kids, others = vertex_table(part, self.n), vertex_table(3 - part, self.n)
        for x in bit_indices(mask):
            child, parent = kids[x], others[lowest(rows[x] & parents)]
            edges.append((child, parent) if part == 1 else (parent, child))

    def joker_round(self, part: int, rest: int, jokers: int,
                    first: Colour) -> tuple[int, int, int, int, int]:
        """One joker round for the vertices ``rest`` of ``part``: (attachable,
        prefers ``first``, first half, other half, unmatched).

        A vertex is attachable with at least thr_attach joker neighbours and
        prefers ``first`` with at least thr_pref ``first``-coloured ones.
        The jokers go through ``matched_split`` with floor 1: every
        attachable vertex needs an edge of its preferred colour into that
        colour's half, and the vertices still without one are unmatched."""
        attachable = reaching(self.rows(part), rest, jokers, self.thr_attach)
        pref = reaching(self.rows(part, first), attachable, jokers, self.thr_pref)
        return attachable, pref, *self.matched_split(part, jokers, pref, attachable & ~pref,
                                                     first, 1)

    # -- pipeline ----------------------------------------------------------

    def run(self) -> tuple[TreeCover, CoverState]:
        # Heavy: colour degree strictly above a third of the degree.
        heavy = heavy_masks(self.g, self.col, lambda d, dc: 3 * dc > d)
        state = CoverState(
            n=self.n, p=self.params.p, epsilon=_EPSILON, case=CoverCase.SPANNING,
            heavy_red=vertex_set(*heavy[RED]), heavy_blue=vertex_set(*heavy[BLUE]))
        for colour in (RED, BLUE):
            rows1, rows2 = self.col.layer_rows(colour)
            if len(components_from_rows(self.g.n1, self.g.n2, rows1, rows2)) == 1:
                tree = spanning_tree_of(self.g, self.col, colour, self.g.vertices())
                return TreeCover((tree,), frozenset()), state

        if heavy[RED] == (0, 0) or heavy[BLUE] == (0, 0):
            raise PropertyFailureError(
                "heavy-sets", "one colour has no heavy vertex and neither colour spans")

        # Not None: a vertex with an edge is heavy in its larger colour (3*dc > d).
        root_red, root_blue = pick_roots(heavy)

        # Majority colour between the two root neighbourhoods.  nb lives on
        # root_red's side (it is the other root's neighbour mask), so its
        # bits are iterated as root_red.part vertices.
        crow = self.col.coloured_row
        nr = crow(root_red.part, root_red.index, RED)
        nb = crow(root_blue.part, root_blue.index, BLUE)
        state.root_red, state.root_blue = root_red, root_blue
        state.parts_swapped = root_red.part == 2
        state.majority = majority_colour(self.col, root_red.part, nb, nr)[0]
        return self._construct(state), state

    def _construct(self, state: CoverState) -> TreeCover:
        g, crow = self.g, self.col.coloured_row
        maj: Colour = state.majority
        minr: Colour = maj.other
        root_p, root_s = state.oriented_roots()
        part_p, part_s = root_p.part, root_s.part

        np_full = crow(part_p, root_p.index, maj)          # subset of side part_s
        np_assigned = np_full & ~(1 << root_s.index)
        ns_full = crow(part_s, root_s.index, minr)         # subset of side part_p
        ns_assigned = ns_full & ~(1 << root_p.index)

        # Joker set: minority-root neighbours with many majority-coloured
        # common neighbours with the majority root.  A joker's edge to root_s
        # is minority-coloured, so its >= thr_joker >= 1 majority neighbours
        # in np_full all lie in np_assigned: every joker drawn for the
        # majority tree has a parent there.
        jokers = reaching(self.rows(part_p, maj), ns_assigned, np_full, self.thr_joker)

        # Opposite side: vertices that can reach the jokers, with random
        # joker preferences retried until each has a matching joker.
        rest_s = ((1 << g.part_size(part_s)) - 1) & ~np_full & ~(1 << root_s.index)
        attachable, pref_p, jok_p, jok_s, failed = self.joker_round(
            part_s, rest_s, jokers, maj)
        pref_s = attachable & ~pref_p
        stranded = rest_s & ~attachable
        att_p, att_s = pref_p & ~failed, pref_s & ~failed

        # Record state in absolute colours before the case split.
        state.jokers = frozenset(part_vertices(part_p, jokers))
        state.attachable = frozenset(part_vertices(part_s, attachable))
        state.stranded = frozenset(part_vertices(part_s, stranded))
        red_pref_mask, blue_pref_mask = orient(maj, pref_p, pref_s)
        state.attachable_red = frozenset(part_vertices(part_s, red_pref_mask))
        state.attachable_blue = frozenset(part_vertices(part_s, blue_pref_mask))
        state.demoted = frozenset(part_vertices(part_s, failed))

        state.preference = prefs = tag(
            {root_p: maj, root_s: minr}, (part_s, np_assigned, maj),
            (part_p, ns_assigned & ~jokers, minr), (part_p, jok_p, maj), (part_p, jok_s, minr),
            (part_s, attachable, minr), (part_s, pref_p, maj))

        # Assemble the two main trees (third tree handled per case).
        self.trees = {"P": (maj, root_p, []), "S": (minr, root_s, [])}
        self.attach("P", part_s, np_assigned, 1 << root_p.index)
        self.attach("S", part_p, (ns_assigned & ~jokers) | jok_s, 1 << root_s.index)
        self.attach("P", part_p, jok_p, np_assigned)
        tag(self.uncovered, (part_s, failed, "retry-exhausted"),
            (part_s, stranded, "isolated-from-jokers"))

        # Case split over the still-unassigned part of the majority root's side.
        w1, pivot = _pivot_scan(g, self.col, state, att_p, att_s)
        halves, live = {"P": jok_p, "S": jok_s}, {"P": att_p, "S": att_s}
        if pivot is not None:
            state.case = CoverCase.THIRD_TREE
            self._third_tree(state, part_p, part_s, *pivot, halves, live, w1)
        else:
            state.case = CoverCase.LEAF_ATTACH
            for tid in "PS":
                self.attach(tid, part_s, live[tid], halves[tid])
            maj_rows, min_rows = self.rows(part_p, maj), self.rows(part_p, minr)
            to_p = select(w1, lambda v: (maj_rows[v] & att_p).bit_count()
                          >= max((min_rows[v] & att_s).bit_count(), 1))
            to_s = reaching(min_rows, w1 & ~to_p, att_s, 1)
            self.attach("P", part_p, to_p, att_p)
            self.attach("S", part_p, to_s, att_s)
            tag(prefs, (part_p, to_p | to_s, minr), (part_p, to_p, maj))
            tag(self.uncovered, (part_p, w1 & ~to_p & ~to_s, "no-attachment"))

        state.uncovered_reasons = dict(self.uncovered)
        trees = tuple(MonoTree(colour, frozenset({root}.union(*edges)), tuple(edges))
                      for colour, root, edges in self.trees.values())
        return TreeCover(trees, frozenset(self.uncovered))

    def _third_tree(self, state: CoverState, part_p: int, part_s: int, pivot: int,
                    c3: Colour, halves: dict[str, int], live: dict[str, int],
                    w1: int) -> None:
        donor = c3.other
        donor_tid = "P" if donor is state.majority else "S"
        pivot_v = Vertex(part_p, pivot)
        j2 = self.col.coloured_row(part_p, pivot, c3) & live[donor_tid]
        rest = w1 & ~(1 << pivot)
        z1, pref2_donor, j2_donor, j2_c3, failed2 = self.joker_round(part_p, rest, j2, donor)
        pref2_c3 = z1 & ~pref2_donor
        k1 = rest & ~z1

        # Donor-tree members of the second joker set keep their original
        # attachment, ahead of that tree's other attachables (edge order is
        # output); the rest move under the pivot's tree.
        self.trees["3"] = (c3, pivot_v, [])
        self.attach(donor_tid, part_s, j2_donor, halves[donor_tid])
        self.attach("3", part_s, j2_c3, 1 << pivot)
        for tid in "PS":
            self.attach(tid, part_s, live[tid] & ~j2, halves[tid])
        self.attach(donor_tid, part_p, pref2_donor & ~failed2, j2_donor)
        self.attach("3", part_p, pref2_c3 & ~failed2, j2_c3)
        tag(self.uncovered, (part_p, failed2, "retry-exhausted"),
            (part_p, k1, "isolated-from-second-jokers"))

        state.third_root = pivot_v
        state.jokers2 = frozenset(part_vertices(part_s, j2))
        state.attachable2 = frozenset(part_vertices(part_p, z1))
        state.stranded2 = frozenset(part_vertices(part_p, k1))
        state.preference2 = tag({}, (part_s, j2_donor, donor), (part_s, j2_c3, c3),
                                (part_p, pref2_donor, donor), (part_p, pref2_c3, c3))
        state.demoted = state.demoted | frozenset(part_vertices(part_p, failed2))


def almost_cover(g: BipartiteGraph, colouring: TwoColouring,
                 params: CoverParams) -> tuple[TreeCover, CoverState]:
    """At most three vertex-disjoint monochromatic trees covering all but
    a hopefully-O(1/p) remainder, plus the construction's full state.

    The cover is always structurally valid; how small the uncovered set
    is depends on the input's pseudo-randomness and is the caller's
    check (the sweep harness compares against 200/p).
    """
    return _Pipeline(g, colouring, params).run()


def classify_case(g: BipartiteGraph, colouring: TwoColouring,
                  state: CoverState) -> CoverCase:
    """Recompute the case split from a populated state (deterministic)."""
    if state.case is CoverCase.SPANNING:
        return CoverCase.SPANNING
    side_s = state.oriented_roots()[1].part - 1
    att_red = vertex_masks(g, state.attachable_red - state.demoted)[side_s]
    att_blue = vertex_masks(g, state.attachable_blue - state.demoted)[side_s]
    _, pivot = _pivot_scan(g, colouring, state, *orient(state.majority, att_red, att_blue))
    return CoverCase.LEAF_ATTACH if pivot is None else CoverCase.THIRD_TREE


def audit_state(g: BipartiteGraph, colouring: TwoColouring,
                state: CoverState) -> AuditReport:
    """Measured quantities against the bounds the construction aims for.

    Entries with ``satisfied=None`` were not applicable to this run (for
    example the second-round bounds of a run that never built a third
    tree).  The sweep harness charts how often each bound holds.
    """
    report = AuditReport()
    n, p = state.n, state.p
    deep = state.case is not CoverCase.SPANNING and state.root_red is not None
    if deep:
        report.check("joker-count", len(state.jokers), p * n / 100)
        report.check("stranded-count", len(state.stranded), 100 / p, at_most=True)
        maj = state.majority
        root_p, root_s = state.oriented_roots()
        np_full = colouring.coloured_row(root_p.part, root_p.index, maj)
        ns_full = colouring.coloured_row(root_s.part, root_s.index, maj.other)
        # ns_full sits on root_p's side: iterate it there.
        e_maj = edges_between(colouring.layer_rows(maj)[root_p.part - 1], ns_full, np_full)
        report.check("majority-edge-density", e_maj,
                     p * np_full.bit_count() * ns_full.bit_count() / 4)
    else:
        report.not_applicable("joker-count", "stranded-count", "majority-edge-density")
    third = state.case is CoverCase.THIRD_TREE
    report.check("stranded2-count", len(state.stranded2) if third else None, 100 / p,
                 at_most=True)
    report.check("uncovered-total", len(state.uncovered_reasons), 200 / p, at_most=True)

    eps = state.epsilon
    # Degrees are integers, so the exact band is the integer one.
    lo, hi = math.ceil((1 - eps) * p * n), math.floor((1 + eps) * p * n)
    in_band = sum(1 for part in (1, 2) for row in g.rows(part) if lo <= row.bit_count() <= hi)
    report.add("degree-band-fraction", in_band / g.vertex_count, None, None)
    return report
