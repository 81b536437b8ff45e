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
   so their tree preference is drawn uniformly at random.
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
from typing import Iterable

from .errors import InvalidArgumentError, PropertyFailureError
from .graph import (BLUE, RED, BipartiteGraph, Colour, MonoTree, TreeCover,
                    TwoColouring, Vertex, components_from_rows, iter_bits,
                    spanning_tree_of, vertex_set)
from .models import as_fraction
from .rng import RandomStream


class CoverCase(str, Enum):
    SPANNING = "spanning"
    THIRD_TREE = "third_tree"
    LEAF_ATTACH = "leaf_attach"


@dataclass(frozen=True)
class CoverParams:
    p: Fraction
    epsilon: Fraction = Fraction(1, 10)
    retry_limit: int = 16
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if not 0 < self.p <= 1:
            raise InvalidArgumentError("p must be in (0, 1]")
        if not 0 < self.epsilon < 1:
            raise InvalidArgumentError("epsilon must be in (0, 1)")
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


@dataclass
class AuditEntry:
    name: str
    measured: float | None
    bound: float | None
    satisfied: bool | None  # None = not applicable

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "bound": self.bound, "satisfied": self.satisfied}


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if e.satisfied is not None)

    def entry(self, name: str) -> AuditEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"entries": [e.as_dict() for e in self.entries]}


def _mask(vertices: Iterable[Vertex], part: int) -> int:
    m = 0
    for v in vertices:
        if v.part == part:
            m |= 1 << v.index
    return m


def _edges_between(colouring: TwoColouring, side_x: int, mask_x: int,
                   mask_y: int, colour: Colour) -> int:
    total = 0
    for i in iter_bits(mask_x):
        total += (colouring.coloured_row(side_x, i, colour) & mask_y).bit_count()
    return total


class _Pipeline:
    """One almost_cover run; mutable scratch space around the final state."""

    def __init__(self, g: BipartiteGraph, colouring: TwoColouring, params: CoverParams):
        if g.n1 != g.n2:
            raise InvalidArgumentError("almost_cover needs a balanced graph")
        self.g = g
        self.col = colouring
        self.params = params
        self.n = g.n1
        self.p = params.p
        self.rng = RandomStream(params.seed)
        n, p = self.n, self.p
        self.thr_joker = p * p * n / 25    # strict >
        self.thr_attach = p * p * n / 200  # >=
        self.thr_pref = p * p * n / 400    # >=
        self.thr_pivot = p * n / 100       # >=
        # tree assembly: tree id -> (colour, root, members set, edges list)
        self.trees: dict[str, tuple[Colour, Vertex, set[Vertex], list]] = {}
        self.uncovered: dict[Vertex, str] = {}

    # -- small helpers ----------------------------------------------------

    def crow(self, part: int, idx: int, colour: Colour) -> int:
        return self.col.coloured_row(part, idx, colour)

    def full(self, part: int) -> int:
        return (1 << self.g.part_size(part)) - 1

    def new_tree(self, tid: str, colour: Colour, root: Vertex) -> None:
        self.trees[tid] = (colour, root, {root}, [])

    def attach(self, tid: str, child: Vertex, parent: Vertex) -> None:
        colour, root, members, edges = self.trees[tid]
        members.add(child)
        a, b = (child, parent) if child.part == 1 else (parent, child)
        edges.append((a, b))

    def demote(self, v: Vertex, reason: str) -> None:
        self.uncovered[v] = reason

    # -- pipeline ----------------------------------------------------------

    def run(self) -> tuple[TreeCover, CoverState]:
        spanning = self._try_spanning()
        if spanning is not None:
            return spanning

        hr1, hr2, hb1, hb2 = self._heavy_sets()
        if (hr1 | hr2) == 0 or (hb1 | hb2) == 0:
            raise PropertyFailureError(
                "heavy-sets", "one colour has no heavy vertex and neither colour spans")

        orientation = self._pick_roots(hr1, hr2, hb1, hb2)
        if orientation is None:
            raise PropertyFailureError(
                "roots", "heavy vertices of the two colours only exist in one part")
        root_red, root_blue, swapped = orientation

        # Majority colour between the two root neighbourhoods.  nb lives on
        # root_red's side (it is the other root's neighbour mask), so its
        # bits are iterated as root_red.part vertices.
        nr = self.crow(root_red.part, root_red.index, RED)
        nb = self.crow(root_blue.part, root_blue.index, BLUE)
        e_red = _edges_between(self.col, root_red.part, nb, nr, RED)
        e_blue = _edges_between(self.col, root_red.part, nb, nr, BLUE)
        maj = RED if e_red >= e_blue else BLUE

        state = CoverState(
            n=self.n, p=self.p, epsilon=self.params.epsilon, case=CoverCase.LEAF_ATTACH,
            heavy_red=vertex_set(hr1, hr2), heavy_blue=vertex_set(hb1, hb2),
            root_red=root_red, root_blue=root_blue, parts_swapped=swapped, majority=maj)
        cover = self._construct(state)
        return cover, state

    def _try_spanning(self) -> tuple[TreeCover, CoverState] | None:
        for colour in (RED, BLUE):
            rows1, rows2 = self.col.layer_rows(colour)
            comps = components_from_rows(self.g.n1, self.g.n2, rows1, rows2)
            if len(comps) == 1:
                tree = spanning_tree_of(self.g, self.col, colour, self.g.vertices())
                hr1, hr2, hb1, hb2 = self._heavy_sets()
                state = CoverState(
                    n=self.n, p=self.p, epsilon=self.params.epsilon,
                    case=CoverCase.SPANNING,
                    heavy_red=vertex_set(hr1, hr2), heavy_blue=vertex_set(hb1, hb2))
                return TreeCover((tree,), frozenset()), state
        return None

    def _heavy_sets(self) -> tuple[int, int, int, int]:
        """Masks of vertices with colour degree strictly above a third of
        their degree: (red part 1, red part 2, blue part 1, blue part 2)."""
        out = []
        for colour in (RED, BLUE):
            for part in (1, 2):
                m = 0
                for i in range(self.g.part_size(part)):
                    d = self.g.row(part, i).bit_count()
                    dc = self.crow(part, i, colour).bit_count()
                    if 3 * dc > d:
                        m |= 1 << i
                out.append(m)
        return out[0], out[1], out[2], out[3]

    @staticmethod
    def _lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    def _pick_roots(self, hr1, hr2, hb1, hb2) -> tuple[Vertex, Vertex, bool] | None:
        if hr1 and hb2:
            return Vertex(1, self._lowest(hr1)), Vertex(2, self._lowest(hb2)), False
        if hr2 and hb1:
            return Vertex(2, self._lowest(hr2)), Vertex(1, self._lowest(hb1)), True
        return None

    def _construct(self, state: CoverState) -> TreeCover:
        g, col, n = self.g, self.col, self.n
        maj: Colour = state.majority
        minr: Colour = maj.other
        root_p = state.root_red if maj is RED else state.root_blue
        root_s = state.root_blue if maj is RED else state.root_red
        part_p, part_s = root_p.part, root_s.part

        np_full = self.crow(part_p, root_p.index, maj)          # subset of side part_s
        np_assigned = np_full & ~(1 << root_s.index)
        ns_full = self.crow(part_s, root_s.index, minr)         # subset of side part_p
        ns_assigned = ns_full & ~(1 << root_p.index)

        # Joker set: minority-root neighbours with many majority-coloured
        # common neighbours with the majority root.
        jokers = 0
        for v in iter_bits(ns_assigned):
            if (self.crow(part_p, v, maj) & np_full).bit_count() > self.thr_joker:
                jokers |= 1 << v

        # Opposite side: vertices that can reach the jokers.
        rest_s = self.full(part_s) & ~np_full & ~(1 << root_s.index)
        attachable = 0
        for z in iter_bits(rest_s):
            if (g.row(part_s, z) & jokers).bit_count() >= self.thr_attach:
                attachable |= 1 << z
        stranded = rest_s & ~attachable

        pref_p = 0  # preference = majority
        for z in iter_bits(attachable):
            if (self.crow(part_s, z, maj) & jokers).bit_count() >= self.thr_pref:
                pref_p |= 1 << z
        pref_s = attachable & ~pref_p

        # Random joker preferences, retried until every attachable vertex
        # has a preference-matching joker neighbour in its colour.
        joker_list = list(iter_bits(jokers))
        jok_p = jok_s = jok_p_live = 0
        failed = 0
        for _ in range(self.params.retry_limit):
            jok_p = jok_s = 0
            for v in joker_list:
                if self.rng.coin():
                    jok_p |= 1 << v
                else:
                    jok_s |= 1 << v
            jok_p_live = 0
            for v in iter_bits(jok_p):
                if self.crow(part_p, v, maj) & np_assigned:
                    jok_p_live |= 1 << v
            failed = 0
            for z in iter_bits(attachable):
                pc = maj if pref_p >> z & 1 else minr
                match = jok_p_live if pc is maj else jok_s
                if not self.crow(part_s, z, pc) & match:
                    failed |= 1 << z
            if not failed:
                break

        att_p_live = pref_p & ~failed
        att_s_live = pref_s & ~failed

        # Record state in absolute colours before the case split.
        state.jokers = vertex_set(*((jokers, 0) if part_p == 1 else (0, jokers)))
        side_pack = lambda m: (m, 0) if part_s == 1 else (0, m)  # noqa: E731
        state.attachable = vertex_set(*side_pack(attachable))
        state.stranded = vertex_set(*side_pack(stranded))
        red_pref_mask = pref_p if maj is RED else pref_s
        blue_pref_mask = pref_s if maj is RED else pref_p
        state.attachable_red = vertex_set(*side_pack(red_pref_mask))
        state.attachable_blue = vertex_set(*side_pack(blue_pref_mask))
        state.demoted = vertex_set(*side_pack(failed)) | vertex_set(
            *((jok_p & ~jok_p_live, 0) if part_p == 1 else (0, jok_p & ~jok_p_live)))

        prefs: dict[Vertex, Colour] = {root_p: maj, root_s: minr}
        for v in iter_bits(np_assigned):
            prefs[Vertex(part_s, v)] = maj
        for v in iter_bits(ns_assigned & ~jokers):
            prefs[Vertex(part_p, v)] = minr
        for v in iter_bits(jok_p):
            prefs[Vertex(part_p, v)] = maj
        for v in iter_bits(jok_s):
            prefs[Vertex(part_p, v)] = minr
        for z in iter_bits(attachable):
            prefs[Vertex(part_s, z)] = maj if pref_p >> z & 1 else minr
        state.preference = prefs

        # Assemble the two main trees (third tree handled per case).
        self.new_tree("P", maj, root_p)
        self.new_tree("S", minr, root_s)
        for v in iter_bits(np_assigned):
            self.attach("P", Vertex(part_s, v), root_p)
        for v in iter_bits((ns_assigned & ~jokers) | jok_s):
            self.attach("S", Vertex(part_p, v), root_s)
        for v in iter_bits(jok_p_live):
            parent = self._lowest(self.crow(part_p, v, maj) & np_assigned)
            self.attach("P", Vertex(part_p, v), Vertex(part_s, parent))
        for v in iter_bits(jok_p & ~jok_p_live):
            self.demote(Vertex(part_p, v), "unattached-joker")
        for z in iter_bits(failed):
            self.demote(Vertex(part_s, z), "retry-exhausted")
        for z in iter_bits(stranded):
            self.demote(Vertex(part_s, z), "isolated-from-jokers")

        # Case split over the still-unassigned part of the majority root's side.
        w1 = self.full(part_p) & ~ns_full & ~(1 << root_p.index)
        pivot = None
        third_colour = None
        for v in iter_bits(w1):
            if (self.crow(part_p, v, minr) & att_p_live).bit_count() >= self.thr_pivot:
                pivot, third_colour = v, minr
                break
            if (self.crow(part_p, v, maj) & att_s_live).bit_count() >= self.thr_pivot:
                pivot, third_colour = v, maj
                break

        attach_z = {}  # attachable vertex -> (tree id, joker parent)
        for z in iter_bits(att_p_live):
            parent = self._lowest(self.crow(part_s, z, maj) & jok_p_live)
            attach_z[z] = ("P", Vertex(part_p, parent))
        for z in iter_bits(att_s_live):
            parent = self._lowest(self.crow(part_s, z, minr) & jok_s)
            attach_z[z] = ("S", Vertex(part_p, parent))

        if pivot is not None:
            state.case = CoverCase.THIRD_TREE
            self._third_tree(state, part_p, part_s, pivot, third_colour, maj,
                             att_p_live, att_s_live, attach_z, w1)
        else:
            state.case = CoverCase.LEAF_ATTACH
            for z, (tid, parent) in attach_z.items():
                self.attach(tid, Vertex(part_s, z), parent)
            for v in iter_bits(w1):
                a_p = self.crow(part_p, v, maj) & att_p_live
                a_s = self.crow(part_p, v, minr) & att_s_live
                if a_p.bit_count() >= a_s.bit_count() and a_p:
                    self.attach("P", Vertex(part_p, v), Vertex(part_s, self._lowest(a_p)))
                    prefs[Vertex(part_p, v)] = maj
                elif a_s:
                    self.attach("S", Vertex(part_p, v), Vertex(part_s, self._lowest(a_s)))
                    prefs[Vertex(part_p, v)] = minr
                else:
                    self.demote(Vertex(part_p, v), "no-attachment")

        state.uncovered_reasons = dict(self.uncovered)
        trees = []
        for tid in ("P", "S", "3"):
            if tid in self.trees:
                colour, _, members, edges = self.trees[tid]
                trees.append(MonoTree(colour, frozenset(members), tuple(edges)))
        return TreeCover(tuple(trees), frozenset(self.uncovered))

    def _third_tree(self, state: CoverState, part_p: int, part_s: int, pivot: int,
                    c3: Colour, maj: Colour, att_p_live: int, att_s_live: int,
                    attach_z: dict, w1: int) -> None:
        minr = maj.other
        donor = maj if c3 is minr else minr
        donor_tid = "P" if donor is maj else "S"
        donor_live = att_p_live if donor is maj else att_s_live
        g = self.g

        pivot_v = Vertex(part_p, pivot)
        j2 = self.crow(part_p, pivot, c3) & donor_live
        rest = w1 & ~(1 << pivot)
        z1 = 0
        for x in iter_bits(rest):
            if (g.row(part_p, x) & j2).bit_count() >= self.thr_attach:
                z1 |= 1 << x
        k1 = rest & ~z1

        pref2_donor = 0
        for x in iter_bits(z1):
            if (self.crow(part_p, x, donor) & j2).bit_count() >= self.thr_pref:
                pref2_donor |= 1 << x
        pref2_c3 = z1 & ~pref2_donor

        j2_list = list(iter_bits(j2))
        j2_donor = j2_c3 = 0
        failed2 = 0
        for _ in range(self.params.retry_limit):
            j2_donor = j2_c3 = 0
            for v in j2_list:
                if self.rng.coin():
                    j2_donor |= 1 << v
                else:
                    j2_c3 |= 1 << v
            failed2 = 0
            for x in iter_bits(z1):
                pc = donor if pref2_donor >> x & 1 else c3
                match = j2_donor if pc is donor else j2_c3
                if not self.crow(part_p, x, pc) & match:
                    failed2 |= 1 << x
            if not failed2:
                break

        # Donor-tree members of the second joker set keep their original
        # attachment; the rest move under the pivot's tree.
        self.new_tree("3", c3, pivot_v)
        for z in iter_bits(j2_donor):
            tid, parent = attach_z[z]
            self.attach(tid, Vertex(part_s, z), parent)
        for z in iter_bits(j2_c3):
            self.attach("3", Vertex(part_s, z), pivot_v)
        for z, (tid, parent) in attach_z.items():
            if not j2 >> z & 1:
                self.attach(tid, Vertex(part_s, z), parent)

        for x in iter_bits(z1 & ~failed2):
            if pref2_donor >> x & 1:
                parent = self._lowest(self.crow(part_p, x, donor) & j2_donor)
                self.attach(donor_tid, Vertex(part_p, x), Vertex(part_s, parent))
            else:
                parent = self._lowest(self.crow(part_p, x, c3) & j2_c3)
                self.attach("3", Vertex(part_p, x), Vertex(part_s, parent))
        for x in iter_bits(failed2):
            self.demote(Vertex(part_p, x), "retry-exhausted")
        for x in iter_bits(k1):
            self.demote(Vertex(part_p, x), "isolated-from-second-jokers")

        side_p = lambda m: (m, 0) if part_p == 1 else (0, m)  # noqa: E731
        side_s = lambda m: (m, 0) if part_s == 1 else (0, m)  # noqa: E731
        state.third_root = pivot_v
        state.jokers2 = vertex_set(*side_s(j2))
        state.attachable2 = vertex_set(*side_p(z1))
        state.stranded2 = vertex_set(*side_p(k1))
        prefs2: dict[Vertex, Colour] = {}
        for z in iter_bits(j2_donor):
            prefs2[Vertex(part_s, z)] = donor
        for z in iter_bits(j2_c3):
            prefs2[Vertex(part_s, z)] = c3
        for x in iter_bits(pref2_donor):
            prefs2[Vertex(part_p, x)] = donor
        for x in iter_bits(pref2_c3):
            prefs2[Vertex(part_p, x)] = c3
        state.preference2 = prefs2
        state.demoted = state.demoted | vertex_set(*side_p(failed2))


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
    maj = state.majority
    minr = maj.other
    root_p = state.root_red if maj is RED else state.root_blue
    root_s = state.root_blue if maj is RED else state.root_red
    part_p, part_s = root_p.part, root_s.part
    thr = state.p * state.n / 100
    att_red = _mask(state.attachable_red - state.demoted, part_s)
    att_blue = _mask(state.attachable_blue - state.demoted, part_s)
    att_p = att_red if maj is RED else att_blue
    att_s = att_blue if maj is RED else att_red
    ns_full = colouring.coloured_row(part_s, root_s.index, minr)
    w1 = ((1 << g.part_size(part_p)) - 1) & ~ns_full & ~(1 << root_p.index)
    for v in iter_bits(w1):
        if (colouring.coloured_row(part_p, v, minr) & att_p).bit_count() >= thr:
            return CoverCase.THIRD_TREE
        if (colouring.coloured_row(part_p, v, maj) & att_s).bit_count() >= thr:
            return CoverCase.THIRD_TREE
    return CoverCase.LEAF_ATTACH


def audit_state(g: BipartiteGraph, colouring: TwoColouring, params: CoverParams,
                state: CoverState) -> AuditReport:
    """Measured quantities against the bounds the construction aims for.

    Entries with ``satisfied=None`` were not applicable to this run (for
    example the second-round bounds of a run that never built a third
    tree).  The sweep harness charts how often each bound holds.
    """
    report = AuditReport()
    n, p = state.n, state.p

    def add(name, measured, bound, satisfied):
        report.entries.append(AuditEntry(name, measured, bound, satisfied))

    deep = state.case is not CoverCase.SPANNING and state.root_red is not None
    if deep:
        add("joker-count", len(state.jokers), float(p * n / 100),
            Fraction(len(state.jokers)) >= p * n / 100)
        add("stranded-count", len(state.stranded), float(100 / p),
            Fraction(len(state.stranded)) <= 100 / p)
        maj = state.majority
        root_p = state.root_red if maj is RED else state.root_blue
        root_s = state.root_blue if maj is RED else state.root_red
        np_full = colouring.coloured_row(root_p.part, root_p.index, maj)
        ns_full = colouring.coloured_row(root_s.part, root_s.index, maj.other)
        # ns_full sits on root_p's side: iterate it there.
        e_maj = _edges_between(colouring, root_p.part, ns_full, np_full, maj)
        bound = p * np_full.bit_count() * ns_full.bit_count() / 4
        add("majority-edge-density", e_maj, float(bound), Fraction(e_maj) >= bound)
    else:
        add("joker-count", None, None, None)
        add("stranded-count", None, None, None)
        add("majority-edge-density", None, None, None)
    if state.case is CoverCase.THIRD_TREE:
        add("stranded2-count", len(state.stranded2), float(100 / p),
            Fraction(len(state.stranded2)) <= 100 / p)
    else:
        add("stranded2-count", None, None, None)
    uncovered = len(state.uncovered_reasons)
    add("uncovered-total", uncovered, float(200 / p), Fraction(uncovered) <= 200 / p)

    eps = state.epsilon
    # Degrees are integers, so the exact band is the integer one.
    lo, hi = math.ceil((1 - eps) * p * n), math.floor((1 + eps) * p * n)
    in_band = sum(1 for part in (1, 2) for i in range(g.part_size(part))
                  if lo <= g.row(part, i).bit_count() <= hi)
    add("degree-band-fraction", in_band / g.vertex_count, None, None)
    return report
