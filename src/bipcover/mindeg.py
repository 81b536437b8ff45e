"""Partition a dense 2-coloured balanced bipartite graph into at most
three monochromatic connected parts.

Requires minimum degree at least (13/16 + delta) * n.  Outline:

1. If no vertex is heavy in one of the colours (colour degree at least
   (9/16 + 3*delta/4) * n), the other colour's subgraph has minimum
   degree above n/4 and its components, of which there are at most
   three, already partition the graph.
2. Otherwise pick heavy roots of the two colours in opposite parts and
   carve a base set out of each root's neighbourhood.  The majority
   colour between the two bases orients everything below.
3. Jokers are minority-base vertices with many majority-coloured edges
   into the majority base.  The majority base is thinned to a random
   sample, each vertex kept with the fixed probability min(1/25, delta)
   so that its part is mostly free for re-assignment, retried until
   every joker keeps majority edges into the sample.
4. Every remaining vertex on the sample's side prefers a colour in
   which it has many joker neighbours; the jokers are split by the
   shared ``matched_split`` until everyone keeps enough matching jokers.
5. The remaining vertices on the other side attach through whichever of
   the two preference classes grew large; if some vertex has no edge of
   that colour there, a relink set around it is split by ``matched_split``
   so that everybody can still pick a colour, at the cost of the majority
   class splitting into at most two connected parts.

Every probabilistic step verifies its matching condition and retries up
to ``retry_limit``.  PartitionFailureError names the step that failed:
``opposite-roots``, ``base-edges`` (rounding at small n), ``sample-retry``,
``joker-retry``, ``relink-degree`` or ``relink-retry``.  The other bounds,
and the connectivity of each preference class, follow from the entry
checks and these steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .construct import (AuditReport, ConstructionRun, bernoulli_subset, heavy_masks,
                        majority_colour, orient, pick_roots, reaching, retry_draw, tag)
from .errors import InvalidArgumentError, PartitionFailureError
from .graph import (BLUE, RED, BipartiteGraph, Colour, MonoPartition,
                    TwoColouring, Vertex, components_from_rows, edges_between,
                    bit_indices, lowest, part_vertices, select, vertex_masks, vertex_set)
from .models import as_fraction

SUBSAMPLE_CAP = Fraction(1, 25)  # sample probability min(1/25, delta), not a setting
BRANCHES = ("one-colour", "two-parts", "relink")  # the values of PartitionState.branch


@dataclass(frozen=True)
class PartitionParams:
    delta: Fraction = Fraction(1, 20)
    retry_limit: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if not 0 < self.delta < Fraction(3, 16):
            raise InvalidArgumentError("delta must be in (0, 3/16)")
        if self.retry_limit < 1:
            raise InvalidArgumentError("retry limit must be at least 1")


@dataclass
class PartitionState:
    """Decisions of one partition3 run, in absolute red/blue terms."""

    n: int
    delta: Fraction
    subsample_p: Fraction
    branch: str  # one of BRANCHES
    heavy_red: frozenset[Vertex] = frozenset()
    heavy_blue: frozenset[Vertex] = frozenset()
    root_red: Vertex | None = None
    root_blue: Vertex | None = None
    base_red: frozenset[Vertex] = frozenset()
    base_blue: frozenset[Vertex] = frozenset()
    majority: Colour | None = None
    jokers: frozenset[Vertex] = frozenset()
    base_sample: frozenset[Vertex] = frozenset()
    bulk: frozenset[Vertex] = frozenset()
    bulk_red: frozenset[Vertex] = frozenset()
    bulk_blue: frozenset[Vertex] = frozenset()
    rest: frozenset[Vertex] = frozenset()
    second_root: Vertex | None = None
    relink: frozenset[Vertex] = frozenset()
    preference: dict[Vertex, Colour] = field(default_factory=dict)
    min_bulk_matches: int | None = None  # smallest per-bulk-vertex joker match count


def _lowest_k(mask: int, k: int) -> int:
    # k never exceeds the mask: heavy_thr - 1 >= base_size, and u0 sees over relink_size
    rest = mask
    for _ in range(k):
        rest &= rest - 1  # clears the lowest set bit
    return mask ^ rest


class _Run(ConstructionRun):
    def __init__(self, g: BipartiteGraph, colouring: TwoColouring, params: PartitionParams):
        super().__init__("partition3", g, colouring, params)
        need = (Fraction(13, 16) + params.delta) * self.n
        if g.min_degree() < need:
            raise InvalidArgumentError(
                f"minimum degree {g.min_degree()} below required {float(need):.2f}")

    def run(self) -> tuple[MonoPartition, PartitionState]:
        n, delta = self.n, self.params.delta
        heavy_thr = math.ceil((Fraction(9, 16) + 3 * delta / 4) * n)  # dc is an integer
        heavy = heavy_masks(self.g, self.col, lambda d, dc: dc >= heavy_thr)

        state = PartitionState(
            n=n, delta=delta, subsample_p=min(SUBSAMPLE_CAP, delta), branch="one-colour",
            heavy_red=vertex_set(*heavy[RED]), heavy_blue=vertex_set(*heavy[BLUE]))

        for missing, keep in ((BLUE, RED), (RED, BLUE)):
            if heavy[missing] == (0, 0):
                return self._one_colour_partition(keep, state), state

        roots = pick_roots(heavy)
        if roots is None:
            raise PartitionFailureError(
                "opposite-roots", "both colours' heavy vertices lie in a single part")
        root_red, root_blue = roots
        state.root_red, state.root_blue = root_red, root_blue
        return self._deep(state, root_red, root_blue)

    def _one_colour_partition(self, colour: Colour,
                              state: PartitionState) -> MonoPartition:
        # With no heavy vertex in the other colour, this colour's degree
        # exceeds n/4 everywhere, which caps the component count at 3.
        comps = components_from_rows(self.g.n1, self.g.n2, *self.col.layer_rows(colour))
        parts = tuple((colour, vertex_set(m1, m2)) for m1, m2 in comps)
        state.preference = {v: colour for _, part in parts for v in part}
        return MonoPartition(parts)

    def _deep(self, state: PartitionState, root_red: Vertex,
              root_blue: Vertex) -> tuple[MonoPartition, PartitionState]:
        g, crow, n, delta = self.g, self.col.coloured_row, self.n, self.params.delta
        retry = self.params.retry_limit

        base_size = int((Fraction(9, 16) + delta / 2) * n)
        nr = crow(root_red.part, root_red.index, RED) & ~(1 << root_blue.index)
        nb = crow(root_blue.part, root_blue.index, BLUE) & ~(1 << root_red.index)
        base_red_mask = _lowest_k(nr, base_size)    # on root_blue's part side
        base_blue_mask = _lowest_k(nb, base_size)   # on root_red's part side
        state.base_red = frozenset(part_vertices(root_blue.part, base_red_mask))
        state.base_blue = frozenset(part_vertices(root_red.part, base_blue_mask))

        maj, e_bases = majority_colour(self.col, root_red.part, base_blue_mask, base_red_mask)
        total_bound = (Fraction(3, 8) + delta) * n * base_size
        if e_bases < total_bound:
            raise PartitionFailureError(
                "base-edges", f"e(bases)={e_bases} below {float(total_bound):.1f}")
        # The majority colour has at least half the base-edges bound.
        state.majority = maj
        minr = maj.other

        # Orient: jokers sit in the minority root's base, the sample is
        # drawn from the majority root's base, which lies on the minority
        # root's side.
        root_p, root_s = orient(maj, root_red, root_blue)
        base_p, base_s = orient(maj, base_red_mask, base_blue_mask)
        side_p_base, side_s_base = root_s.part, root_p.part

        joker_thr = delta * n / 100
        # Over 3n/16 jokers: a joker sends <= base_size majority edges, others < joker_thr.
        maj_rows = self.rows(side_s_base, maj)
        jokers = reaching(maj_rows, base_s, base_p, joker_thr)
        state.jokers = frozenset(part_vertices(side_s_base, jokers))

        # Thin the majority base to a small random sample that every joker
        # still reaches in the majority colour.
        sp = state.subsample_p
        lo, hi = sp * n / 2, sp * n
        match_thr = delta * sp * n / 200
        sample, failed = retry_draw(
            retry, lambda: bernoulli_subset(self.rng, base_p, sp),
            lambda s: not lo <= s.bit_count() <= hi
            or reaching(maj_rows, jokers, s, match_thr) != jokers)
        if failed:
            raise PartitionFailureError(
                "sample-retry", f"no draw in {retry} tries hit size "
                f"[{float(lo):.1f}, {float(hi):.1f}] with all jokers matched")
        state.base_sample = frozenset(part_vertices(side_p_base, sample))

        # Everyone else on the sample's side picks the colour with more
        # joker neighbours (guaranteed at least delta*n/2 in one colour).
        bulk = ((1 << g.part_size(side_p_base)) - 1) & ~(1 << root_s.index) & ~sample
        bulk_p = select(bulk, lambda w: (crow(side_p_base, w, maj) & jokers).bit_count()
                        >= (crow(side_p_base, w, minr) & jokers).bit_count())
        bulk_s = bulk & ~bulk_p

        # Joker preference draw: every bulk vertex must keep enough
        # matching jokers of its chosen colour.
        match_floor = delta * n / 8
        jok_p, jok_s, failed = self.matched_split(side_p_base, jokers, bulk_p, bulk_s,
                                                  maj, match_floor)
        if failed:
            raise PartitionFailureError(
                "joker-retry", f"some bulk vertex kept fewer than "
                f"{float(match_floor):.1f} matching jokers in {retry} draws")
        # Never empty: an accepted sample has >= sp*n/2 > 0 vertices, so n >= 25
        # and the bulk has >= n - 1 - n/25 vertices.
        state.min_bulk_matches = min(
            [(crow(side_p_base, w, c) & half).bit_count()
             for mask, c, half in ((bulk_p, maj, jok_p), (bulk_s, minr, jok_s))
             for w in bit_indices(mask)])

        bulk_red, bulk_blue = orient(maj, bulk_p, bulk_s)
        state.bulk = frozenset(part_vertices(side_p_base, bulk))
        state.bulk_red = frozenset(part_vertices(side_p_base, bulk_red))
        state.bulk_blue = frozenset(part_vertices(side_p_base, bulk_blue))

        # The big preference class on the bulk side absorbs the leftover part.
        # A nonempty sample forces n >= 25, so the larger class has at least 12n/25 - 1/2 >= 0.4n.
        if bulk_s.bit_count() >= Fraction(2, 5) * n:
            big_colour, big_mask = minr, bulk_s
        else:
            big_colour, big_mask = maj, bulk_p

        # Each rest vertex sees at least (17/80 + delta)n > (3/16 + delta)n of the big class.
        rest = ((1 << g.part_size(side_s_base)) - 1) & ~(1 << root_p.index) & ~base_s
        state.rest = frozenset(part_vertices(side_s_base, rest))

        # preference assembly (absolute colours)
        state.preference = prefs = tag(
            {root_p: maj, root_s: minr}, (side_p_base, sample, maj),
            (side_s_base, base_s & ~jokers, minr), (side_s_base, jok_p, maj),
            (side_s_base, jok_s, minr), (side_p_base, bulk, minr), (side_p_base, bulk_p, maj))
        # note: base_p minus the sample is part of the bulk, already chosen

        stuck = rest & ~reaching(self.rows(side_s_base, big_colour), rest, big_mask, 1)
        if not stuck:
            tag(prefs, (side_s_base, rest, big_colour))
            state.branch = "two-parts"
            return self._assemble(prefs), state

        # Some vertex has no big-colour edge into the big class: rewire a
        # relink set around it so every leftover vertex can still choose.
        state.branch = "relink"
        other_colour = big_colour.other
        u0 = lowest(stuck)
        state.second_root = Vertex(side_s_base, u0)
        relink_size = int((Fraction(3, 16) + delta) * n)
        relink_pool = crow(side_s_base, u0, other_colour) & big_mask
        relink = _lowest_k(relink_pool, relink_size)
        state.relink = frozenset(part_vertices(side_p_base, relink))

        few = rest & ~reaching(self.rows(side_s_base), rest, relink, 2 * delta * n)
        if few:
            raise PartitionFailureError(
                "relink-degree", f"vertex {side_s_base}:{lowest(few)} sees only "
                f"{(g.row(side_s_base, lowest(few)) & relink).bit_count()} relink vertices")
        # u takes other_colour if it has half of u's (>= 2*delta*n) relink edges.
        rest_other = select(rest, lambda u: 2 * (crow(side_s_base, u, other_colour) & relink)
                            .bit_count() >= (g.row(side_s_base, u) & relink).bit_count())

        half_floor = delta * n / 2
        relink_other, relink_big, failed = self.matched_split(
            side_s_base, relink, rest_other, rest & ~rest_other, other_colour, half_floor)
        if failed:
            raise PartitionFailureError(
                "relink-retry", f"some leftover vertex kept fewer than "
                f"{float(half_floor):.1f} matching relink vertices in {retry} draws")

        tag(prefs, (side_p_base, relink_other, other_colour), (side_p_base, relink_big, big_colour),
            (side_s_base, rest, big_colour), (side_s_base, rest_other, other_colour))
        return self._assemble(prefs), state

    def _assemble(self, prefs: dict[Vertex, Colour]) -> MonoPartition:
        """Split each preference class into its colour components."""
        g = self.g
        parts = []
        # Each class is connected by the matchings that passed; a relink adds one
        # component, relink_other + rest_other, joined through u0: 1 + 1 or 1 + 2 parts.
        for colour in (RED, BLUE):
            m1, m2 = vertex_masks(g, [v for v, c in prefs.items() if c is colour])
            comps = components_from_rows(g.n1, g.n2, *self.col.layer_rows(colour), m1, m2)
            parts.extend((colour, vertex_set(c1, c2)) for c1, c2 in comps)
        return MonoPartition(tuple(parts))


def partition3(g: BipartiteGraph, colouring: TwoColouring,
               params: PartitionParams) -> tuple[MonoPartition, PartitionState]:
    """Partition V(G) into at most three monochromatic connected parts.

    Precondition: balanced parts, a colouring of ``g`` and minimum degree
    at least (13/16 + delta) * n, checked on entry.  Raises
    PartitionFailureError when a claimed bound fails at this scale or a
    randomised step exhausts its retries; never returns an invalid
    partition.
    """
    return _Run(g, colouring, params).run()


def audit_partition_state(g: BipartiteGraph, colouring: TwoColouring,
                          state: PartitionState) -> AuditReport:
    """Measured values against the construction's claimed bounds."""
    report = AuditReport()
    n, delta = state.n, state.delta
    deep = state.majority is not None
    if deep:
        maj = state.majority
        side = state.root_red.part  # base_blue's side; base_red is opposite
        blue_base_mask = vertex_masks(g, state.base_blue)[side - 1]
        red_base_mask = vertex_masks(g, state.base_red)[2 - side]
        e_total = edges_between(g.rows(side), blue_base_mask, red_base_mask)
        e_maj = edges_between(colouring.layer_rows(maj)[side - 1], blue_base_mask, red_base_mask)
        size = len(state.base_red)
        report.check("base-edges", e_total, (Fraction(3, 8) + delta) * n * size)
        report.check("majority-base-edges", e_maj, (Fraction(3, 16) + delta / 2) * n * size)
        report.check("joker-count", len(state.jokers), Fraction(3, 16) * n)
        sp = state.subsample_p
        sample_size = len(state.base_sample)
        report.add("sample-size", sample_size, float(sp * n),
                   sp * n / 2 <= sample_size <= sp * n)
        report.check("bulk-matches", state.min_bulk_matches, delta * n / 8)
    else:
        report.not_applicable("base-edges", "majority-base-edges", "joker-count",
                              "sample-size", "bulk-matches")
    return report
