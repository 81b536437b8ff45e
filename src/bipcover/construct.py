"""Steps shared by the almost-cover and the minimum-degree partition.

Both constructions run one skeleton: heavy vertices, roots of the two
colours in opposite parts, a majority colour that orients the rest,
jokers, and seeded preference draws that are retried until a matching
condition holds.  Each step that both take lives here once, together
with the audit report shape both return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import InvalidArgumentError
from .graph import BLUE, RED, BipartiteGraph, Colour, TwoColouring, Vertex, lowest, select
from .rng import RandomStream

T = TypeVar("T")


class ConstructionRun:
    """One construction run on a balanced graph: its input, the part size
    ``n`` and the random stream seeded by ``params.seed``."""

    def __init__(self, name: str, g: BipartiteGraph, colouring: TwoColouring, params):
        if g.n1 != g.n2:
            raise InvalidArgumentError(f"{name} needs a balanced graph")
        self.g, self.col, self.params, self.n = g, colouring, params, g.n1
        self.rng = RandomStream(params.seed)


def heavy_masks(g: BipartiteGraph, colouring: TwoColouring,
                is_heavy: Callable[[int, int], bool]) -> dict[Colour, tuple[int, int]]:
    """Per colour, the (part 1, part 2) masks of the vertices v with
    ``is_heavy(degree of v, colour degree of v)``."""
    masks = {RED: [0, 0], BLUE: [0, 0]}
    for part in (1, 2):
        for i in range(g.part_size(part)):
            d = g.row(part, i).bit_count()
            red = colouring.coloured_row(part, i, RED).bit_count()
            # The colouring is total, so every other edge is blue.
            for colour, dc in ((RED, red), (BLUE, d - red)):
                if is_heavy(d, dc):
                    masks[colour][part - 1] |= 1 << i
    return {colour: tuple(m) for colour, m in masks.items()}


def pick_roots(heavy: dict[Colour, tuple[int, int]]) -> tuple[Vertex, Vertex] | None:
    """(red root, blue root): the lowest heavy vertices of the two colours
    in opposite parts, red in part 1 when possible; None if no such pair."""
    (hr1, hr2), (hb1, hb2) = heavy[RED], heavy[BLUE]
    if hr1 and hb2:
        return Vertex(1, lowest(hr1)), Vertex(2, lowest(hb2))
    if hr2 and hb1:
        return Vertex(2, lowest(hr2)), Vertex(1, lowest(hb1))
    return None


def orient(majority: Colour, red: T, blue: T) -> tuple[T, T]:
    """(majority colour's item, minority colour's item).

    Applied to a (majority, minority) pair it gives back (red, blue).
    """
    return (red, blue) if majority is RED else (blue, red)


def coin_split(rng: RandomStream, mask: int) -> tuple[int, int]:
    """Split ``mask`` by one coin per bit, ascending: (heads, tails)."""
    heads = select(mask, lambda _: rng.coin())
    return heads, mask & ~heads


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

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "bound": self.bound, "satisfied": self.satisfied}


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    def add(self, name: str, measured, bound, satisfied) -> None:
        self.entries.append(AuditEntry(name, measured, bound, satisfied))

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
