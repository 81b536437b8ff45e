"""Steps shared by the almost-cover and the minimum-degree partition.

Both constructions run one skeleton: heavy vertices, roots of the two
colours in opposite parts, a majority colour that orients the rest,
jokers, and seeded preference draws that are retried until a matching
condition holds.  Each step that both take lives here once, together
with the audit report shape both return.  ``reaching`` selects vertices
by their edge count into a mask, and ``tag`` fills the vertex-keyed maps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InvalidArgumentError
from .graph import (BLUE, RED, BipartiteGraph, Colour, TwoColouring, Vertex, bit_indices,
                    edges_between, lowest, part_vertices, rows_from_matrix, select_flags)
from .rng import RandomStream, threshold_u64

T = TypeVar("T")


class ConstructionRun:
    """One construction run on a balanced graph: its input, the part size
    ``n`` and the random stream seeded by ``params.seed``."""

    def __init__(self, name: str, g: BipartiteGraph, colouring: TwoColouring, params):
        if g.n1 != g.n2:
            raise InvalidArgumentError(f"{name} needs a balanced graph")
        if colouring.graph != g:
            raise InvalidArgumentError(f"{name} needs a colouring of the given graph")
        self.g, self.col, self.params, self.n = g, colouring, params, g.n1
        self.rng = RandomStream(params.seed)

    def rows(self, part: int, colour: Colour | None = None) -> tuple[int, ...]:
        """The rows of ``part``'s vertices: all their edges, or those of ``colour``."""
        return self.g.rows(part) if colour is None else self.col.layer_rows(colour)[part - 1]

    def matched_split(self, part: int, pool: int, first: int, second: int,
                      colour: Colour, floor) -> tuple[int, int, int]:
        """``coin_split`` of ``pool``, redrawn up to ``retry_limit`` times until
        each vertex of ``part`` in ``first`` (``second``) has at least ``floor``
        edges of ``colour`` (``colour.other``) into the first (second) half:
        (first half, second half, the vertices short in the last draw)."""
        (half, other_half), short = retry_draw(
            self.params.retry_limit, lambda: coin_split(self.rng, pool),
            lambda h: first & ~reaching(self.rows(part, colour), first, h[0], floor)
            | second & ~reaching(self.rows(part, colour.other), second, h[1], floor))
        return half, other_half, short


def reaching(rows: Sequence[int], mask: int, target: int, floor) -> int:
    """The bits x of ``mask`` with at least ``floor`` bits of ``rows[x]`` in
    ``target``: on a part's (colour) rows, the vertices of ``mask`` with at
    least ``floor`` (colour) edges into the opposite-part mask ``target``."""
    floor = math.ceil(floor)  # a count reaches floor iff it reaches its ceiling
    return select_flags(mask, [(rows[x] & target).bit_count() >= floor for x in bit_indices(mask)])


def tag(into: dict[Vertex, T], *entries: tuple[int, int, T]) -> dict[Vertex, T]:
    """Set ``into[Vertex(part, x)] = value`` for each (part, mask, value) entry
    in turn and each bit x of its mask, ascending; return ``into``.  A vertex
    already in ``into`` keeps its place: a later entry overrides in place."""
    for part, mask, value in entries:
        into.update(dict.fromkeys(part_vertices(part, mask), value))
    return into


def heavy_masks(g: BipartiteGraph, colouring: TwoColouring,
                is_heavy: Callable[[np.ndarray, np.ndarray], np.ndarray]
                ) -> dict[Colour, tuple[int, int]]:
    """Per colour, the (part 1, part 2) masks of the vertices v with
    ``is_heavy(degree of v, colour degree of v)``, called once per part
    and colour on the int arrays of the part's degrees."""
    masks = []
    for part in (1, 2):
        d = np.array([row.bit_count() for row in g.rows(part)])
        red = np.array([row.bit_count() for row in colouring.layer_rows(RED)[part - 1]])
        # The colouring is total, so every other edge is blue.
        masks.append(rows_from_matrix(np.array([is_heavy(d, red), is_heavy(d, d - red)])))
    return dict(zip((RED, BLUE), zip(*masks)))


def pick_roots(heavy: dict[Colour, tuple[int, int]]) -> tuple[Vertex, Vertex] | None:
    """(red root, blue root): the lowest heavy vertices of the two colours
    in opposite parts, red in part 1 when possible; None if no such pair."""
    (hr1, hr2), (hb1, hb2) = heavy[RED], heavy[BLUE]
    if hr1 and hb2:
        return Vertex(1, lowest(hr1)), Vertex(2, lowest(hb2))
    if hr2 and hb1:
        return Vertex(2, lowest(hr2)), Vertex(1, lowest(hb1))
    return None


def majority_colour(colouring: TwoColouring, part: int, mask_x: int,
                    mask_y: int) -> tuple[Colour, int]:
    """(the colour with more edges between ``mask_x`` in ``part`` and the
    opposite-part ``mask_y``, red on a tie; the edge count of both colours)."""
    e_red, e_blue = (edges_between(colouring.layer_rows(c)[part - 1], mask_x, mask_y)
                     for c in (RED, BLUE))
    return RED if e_red >= e_blue else BLUE, e_red + e_blue


def orient(majority: Colour, red: T, blue: T) -> tuple[T, T]:
    """(majority colour's item, minority colour's item).

    Applied to a (majority, minority) pair it gives back (red, blue).
    """
    return (red, blue) if majority is RED else (blue, red)


def coin_split(rng: RandomStream, mask: int) -> tuple[int, int]:
    """Split ``mask`` by one coin per bit, ascending: (heads, tails).  A bit
    is heads when its word of one ``rng.block`` is odd, as ``rng.coin()`` is."""
    heads = select_flags(mask, rng.block(mask.bit_count()) & 1 == 1)
    return heads, mask & ~heads


def bernoulli_subset(rng: RandomStream, mask: int, probability: Fraction) -> int:
    """The bits of ``mask`` kept with ``probability`` each, ascending: a bit
    stays when its word of one ``rng.block`` is below the threshold, as
    ``rng.bernoulli`` decides."""
    return select_flags(mask, rng.block(mask.bit_count()) < threshold_u64(probability))


def retry_draw(limit: int, draw: Callable[[], T],
               failures: Callable[[T], object]) -> tuple[T, object]:
    """Draw up to ``limit`` (at least 1) times, stopping at the first draw
    whose ``failures`` are falsy; return the last draw and its failures."""
    for _ in range(limit):
        drawn = draw()
        failed = failures(drawn)
        if not failed:
            break
    return drawn, failed


@dataclass
class AuditEntry:
    name: str
    measured: float | None
    bound: float | None
    satisfied: bool | None  # None = not applicable


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    def add(self, name: str, measured, bound, satisfied) -> None:
        self.entries.append(AuditEntry(name, measured, bound, satisfied))

    def check(self, name: str, measured, bound, at_most: bool = False) -> None:
        """Record ``measured`` against the exact ``bound``: at least it, or at
        most it with ``at_most``.  A None measurement is not applicable."""
        if measured is None:
            return self.not_applicable(name)
        holds = Fraction(measured) <= bound if at_most else Fraction(measured) >= bound
        self.add(name, measured, float(bound), holds)

    def not_applicable(self, *names: str) -> None:
        self.entries.extend(AuditEntry(name, None, None, None) for name in names)

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if e.satisfied is not None)

    def entry(self, name: str) -> AuditEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def as_dict(self) -> dict:
        return asdict(self)
