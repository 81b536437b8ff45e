"""Bipartite graphs, edge colourings, and the cover/partition validators.

Vertices are addressed as (part, index) with part in {1, 2} and a
0-based index within the part.  Adjacency is stored as one bit-set row
per vertex over the opposite part, so neighbourhood intersections and
restricted degree counts are single integer operations.  A colouring
stores the same rows once per colour.

All graph and colouring objects are immutable after construction and
safe to share across threads or processes; every operation here is a
pure query.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import IntEnum
from functools import reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidArgumentError, NotConnectedError


class Vertex(NamedTuple):
    part: int
    index: int

    def __str__(self) -> str:  # matches the "part:index" file token
        return f"{self.part}:{self.index}"


class Colour(IntEnum):
    RED = 0
    BLUE = 1

    @property
    def token(self) -> str:
        return "R" if self is Colour.RED else "B"

    @property
    def other(self) -> "Colour":
        return Colour.BLUE if self is Colour.RED else Colour.RED


RED = Colour.RED
BLUE = Colour.BLUE
_COLOURS = (RED, BLUE)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending, lazily: for loops that may stop early."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits, ascending.  Past about 32 set bits one numpy
    expansion beats the ``iter_bits`` loop, whose cost follows the set bits."""
    if mask.bit_count() <= 32:
        return list(iter_bits(mask))
    buf = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(buf, bitorder="little")).tolist()


_VERTEX_TABLES = {1: (), 2: ()}


def vertex_table(part: int, size: int) -> tuple[Vertex, ...]:
    """The shared ``Vertex(part, i)`` objects for i < ``size`` (or more).  A
    table grows by replacing its tuple, never in place, so readers in other
    threads keep a complete, unchanging table."""
    table = _VERTEX_TABLES[part]
    if len(table) < size:
        table = table + tuple(Vertex(part, i) for i in range(len(table), size))
        _VERTEX_TABLES[part] = table
    return table


def lowest(mask: int) -> int:
    """Index of the lowest set bit (-1 for an empty mask)."""
    return (mask & -mask).bit_length() - 1


def select(mask: int, keep: Callable[[int], object]) -> int:
    """The bits i of ``mask`` for which ``keep(i)`` is truthy, tested ascending."""
    return sum(1 << i for i in bit_indices(mask) if keep(i))


def edges_between(rows: Sequence[int], mask_x: int, mask_y: int) -> int:
    """Sum over i in ``mask_x`` of |rows[i] & mask_y|: the edges between
    two opposite-part masks, ``rows`` being the rows on mask_x's side."""
    return sum((rows[i] & mask_y).bit_count() for i in bit_indices(mask_x))


def rows_to_matrix(rows: Sequence[int], width: int) -> np.ndarray:
    """0/1 uint8 matrix with one row per bit row; column j is bit j.

    Every row must fit in ``width`` bits.
    """
    nbytes = (width + 7) // 8
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def rows_from_matrix(matrix: np.ndarray) -> tuple[int, ...]:
    """Bit rows of a 2-D 0/1 (or boolean) matrix: bit j of row i is matrix[i, j]."""
    # packbits on a transposed view is ~3x slower than copy-then-pack.
    packed = np.packbits(np.ascontiguousarray(matrix), axis=1, bitorder="little")
    step = packed.shape[1]
    buf = packed.tobytes()
    return tuple(int.from_bytes(buf[i * step:(i + 1) * step], "little")
                 for i in range(packed.shape[0]))


def select_flags(mask: int, keep: np.ndarray) -> int:
    """The bits of ``mask`` whose entry of ``keep`` is true, one entry per
    set bit, ascending: ``select`` on a precomputed boolean array."""
    bits = rows_to_matrix([mask], mask.bit_length())[0].view(bool)
    bits[bits] = keep
    return rows_from_matrix(bits[None])[0]


def transpose_rows(rows: tuple[int, ...], width: int) -> tuple[int, ...]:
    """Rows of the transposed bit matrix: bit i of out[j] is bit j of rows[i]."""
    return rows_from_matrix(rows_to_matrix(rows, width).T)


def rows_from_edges(n1: int, n2: int, i: np.ndarray,
                    j: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(part-1 rows, part-2 rows) of the n1 x n2 bipartite graph with the
    edges (i[k], j[k]); every index must be in range, repeats are harmless."""
    matrix = np.zeros((n1, n2), dtype=np.uint8)
    matrix[i, j] = 1
    return rows_from_matrix(matrix), rows_from_matrix(matrix.T)


def colour_layers(n1: int, n2: int, i: np.ndarray, j: np.ndarray, codes: np.ndarray,
                  r: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Layer rows (part 1, part 2) of colours 0..r-1 for the edges
    (i[k], j[k]) of colour codes[k]; only the colours that occur get rows,
    the rest share one empty layer."""
    layers = [((0,) * n1, (0,) * n2)] * r
    for c in np.unique(codes).tolist():
        layers[c] = rows_from_edges(n1, n2, i[codes == c], j[codes == c])
    return layers


def first_hit(mask: np.ndarray, stop: int) -> int:
    """Position of the first true entry of mask[:stop] (stop if none)."""
    hits = np.flatnonzero(mask[:stop])
    return int(hits[0]) if hits.size else stop


def _is_index(x, n: int) -> bool:
    """Whether ``x`` is an integer (has ``__index__``) in range(n)."""
    return hasattr(x, "__index__") and 0 <= x < n


def _check_part_sizes(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise InvalidArgumentError("both parts must be nonempty")


class BipartiteGraph:
    """Immutable bipartite graph with bit-set adjacency rows.

    ``row(1, i)`` is the neighbour set of part-1 vertex i as a bit mask
    over part-2 indices, and symmetrically for ``row(2, j)``.  The
    constructor takes both parts' rows unchecked; ``from_rows``,
    ``from_edges`` and ``complete`` check their input and derive them.
    """

    __slots__ = ("n1", "n2", "_rows1", "_rows2")

    def __init__(self, n1: int, n2: int, rows1: tuple[int, ...], rows2: tuple[int, ...]):
        self.n1 = n1
        self.n2 = n2
        self._rows1 = rows1
        self._rows2 = rows2

    @classmethod
    def from_rows(cls, n1: int, n2: int, rows1: Iterable[int]) -> "BipartiteGraph":
        """Checked part-1 rows; the part-2 rows are their transpose."""
        _check_part_sizes(n1, n2)
        r1 = tuple(rows1)
        if len(r1) != n1:
            raise InvalidArgumentError(f"expected {n1} part-1 rows, got {len(r1)}")
        full2 = (1 << n2) - 1
        for i, row in enumerate(r1):
            if row & ~full2:
                raise InvalidArgumentError(f"row of vertex 1:{i} has bits outside part 2")
        return cls(n1, n2, r1, transpose_rows(r1, n2))

    @classmethod
    def from_edges(cls, n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        pairs = list(edges)
        for a, b in pairs:
            if not (_is_index(a, n1) and _is_index(b, n2)):
                raise InvalidArgumentError(f"edge ({a},{b}) out of range")
        _check_part_sizes(n1, n2)
        i, j = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2).T
        return cls(n1, n2, *rows_from_edges(n1, n2, i, j))

    @classmethod
    def complete(cls, n1: int, n2: int) -> "BipartiteGraph":
        _check_part_sizes(n1, n2)  # before the shift, which rejects a negative n2
        return cls.from_rows(n1, n2, [(1 << n2) - 1] * n1)

    def part_size(self, part: int) -> int:
        return len(self.rows(part))

    def rows(self, part: int) -> tuple[int, ...]:
        """The adjacency rows of one part's vertices, by index."""
        if part not in (1, 2):
            raise InvalidArgumentError(f"part must be 1 or 2, got {part}")
        return self._rows1 if part == 1 else self._rows2

    def row(self, part: int, index: int) -> int:
        return self.rows(part)[index]

    def check_vertex(self, v: Vertex) -> None:
        vertex_masks(self, (v,))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._rows1[i] >> j & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (part-1 index, part-2 index), row-major order."""
        for i, row in enumerate(self._rows1):
            for j in bit_indices(row):
                yield i, j

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._rows1)

    def vertices(self) -> Iterator[Vertex]:
        yield from vertex_table(1, self.n1)[:self.n1]
        yield from vertex_table(2, self.n2)[:self.n2]

    @property
    def vertex_count(self) -> int:
        return self.n1 + self.n2

    def min_degree(self) -> int:
        return min(row.bit_count() for row in self._rows1 + self._rows2)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.n1 == other.n1 and self.n2 == other.n2
                and self._rows1 == other._rows1)

    def __hash__(self) -> int:
        return hash((self.n1, self.n2, self._rows1))

    def __repr__(self) -> str:
        return f"BipartiteGraph(n1={self.n1}, n2={self.n2}, edges={self.edge_count})"


class RColouring:
    """Edge colouring with colour indices 0..r-1, stored as one layer per
    colour: the layer's adjacency rows for part 1 and for part 2.

    The part-1 layer rows must partition E(G), every edge in exactly one
    layer and no non-edge in any, or the constructor raises (this is how
    ``from_edge_map`` rejects a map that misses an edge).  Each layer's
    part-2 rows must be the transpose of its part-1 rows, or it raises.
    ``used_colours`` lists, ascending, the layers that have an edge.  Two
    colourings are equal when they have the same type, graph and layers.
    """

    __slots__ = ("graph", "num_colours", "used_colours", "_layers")

    def __init__(self, graph: BipartiteGraph,
                 layers: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]):
        self._adopt(graph, tuple(layers))
        self._check_layers()

    def _adopt(self, graph: BipartiteGraph, layers: tuple) -> None:
        self.graph = graph
        self._layers = layers
        self.num_colours = len(layers)
        self.used_colours = tuple(c for c, (rows1, _) in enumerate(layers) if any(rows1))

    def _check_layers(self) -> None:
        n1, n2 = self.graph.n1, self.graph.n2
        for c, (rows1, rows2) in enumerate(self._layers):
            if len(rows1) != n1 or len(rows2) != n2:
                raise InvalidArgumentError(f"layer {c} needs {n1} part-1 and {n2} part-2 rows")
        # A layer without a part-1 bit breaks no partition: the cost follows the colours in use.
        used = (self._layers[c][0] for c in self.used_colours)
        for i, (row, *cells) in enumerate(zip(self.graph._rows1, *used)):
            union = reduce(operator.or_, cells, 0)
            if union & ~row:
                raise InvalidArgumentError(f"a layer row of 1:{i} marks a non-edge")
            if union != row or sum(cell.bit_count() for cell in cells) != row.bit_count():
                raise InvalidArgumentError("colouring must cover every edge exactly once")
        # One transpose per layer in use; an unused layer's part-2 rows must be empty.
        used = set(self.used_colours)
        for c, (rows1, rows2) in enumerate(self._layers):
            if (rows2 != transpose_rows(rows1, n2)) if c in used else any(rows2):
                raise InvalidArgumentError(f"layer {c} part-2 rows are not its part-1 transpose")

    @classmethod
    def from_edge_map(cls, graph: BipartiteGraph, r: int,
                      colours: dict[tuple[int, int], int]) -> "RColouring":
        if r < 1:
            raise InvalidArgumentError("need at least one colour")
        # A key's edge check comes before its colour check: only keys
        # before the first non-edge can fail on colour, a type error first.
        cells, off, non_edge = [], [], None
        for (a, b), c in colours.items():
            if not (_is_index(a, graph.n1) and _is_index(b, graph.n2)
                    and graph.has_edge(operator.index(a), operator.index(b))):
                non_edge = a, b
                break
            if not hasattr(c, "__index__"):
                raise InvalidArgumentError(f"colour {c!r} is not an integer")
            if not 0 <= c < r:
                off.append(c)
            cells.append((a, b, c))
        if off:
            raise InvalidArgumentError(f"colour {off[0]} out of range 0..{r - 1}")
        if non_edge:
            raise InvalidArgumentError("({},{}) is not an edge".format(*non_edge))
        i, j, codes = np.array(cells, dtype=np.int64).reshape(len(cells), 3).T
        return cls(graph, colour_layers(graph.n1, graph.n2, i, j, codes, r))

    def label(self, c: int) -> int:
        """The colour value that queries return for layer ``c``."""
        return c

    def layer_rows(self, colour: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Adjacency rows of the single-colour subgraph (part 1, part 2)."""
        return self._layers[colour]

    def coloured_row(self, part: int, index: int, colour: int) -> int:
        return self._layers[colour][part - 1][index]

    def colour_of(self, i: int, j: int):
        for c in self.used_colours:
            if self._layers[c][0][i] >> j & 1:
                return self.label(c)
        raise InvalidArgumentError(f"({i},{j}) is not an edge")

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.graph == other.graph
                and self._layers == other._layers)

    def __hash__(self) -> int:
        return hash((self.graph, self._layers))


def _check_red_rows(part: int, red: Sequence[int], rows: tuple[int, ...]) -> None:
    if len(red) != len(rows):
        raise InvalidArgumentError(f"one red row per part-{part} vertex required")
    bad = next((i for i, (r, row) in enumerate(zip(red, rows)) if r & ~row), None)
    if bad is not None:
        raise InvalidArgumentError(f"red row of {part}:{bad} marks a non-edge")


class TwoColouring(RColouring):
    """Red/blue label per edge: the r = 2 case of RColouring.

    Red rows must mark edges of the graph only, and red2 must be red1's
    transpose.  Only the first is checked: the in-package builders pack both
    sides from one matrix, and the second check is one ``transpose_rows``,
    about 1.6 ms per n = 1000 colouring on a 2-vCPU host, on every sweep
    trial; ``from_red_rows`` derives red2.  The blue layer is the adjacency
    rows minus the red rows, so the colouring is total on E(G) by construction.
    """

    __slots__ = ()

    def __init__(self, graph: BipartiteGraph, red1: tuple[int, ...], red2: tuple[int, ...]):
        _check_red_rows(1, red1, graph._rows1)
        _check_red_rows(2, red2, graph._rows2)
        blue1 = tuple(row & ~red for row, red in zip(graph._rows1, red1))
        blue2 = tuple(row & ~red for row, red in zip(graph._rows2, red2))
        # The red-row checks imply that the two layers partition E(G).
        self._adopt(graph, ((red1, red2), (blue1, blue2)))

    @classmethod
    def from_red_rows(cls, graph: BipartiteGraph, red1: Iterable[int]) -> "TwoColouring":
        """Checked part-1 red rows; the part-2 red rows are their transpose."""
        r1 = tuple(red1)
        _check_red_rows(1, r1, graph._rows1)  # bits outside part 2 overflow the transpose
        return cls(graph, r1, transpose_rows(r1, graph.n2))

    @classmethod
    def from_edge_map(cls, graph: BipartiteGraph,
                      colours: dict[tuple[int, int], int]) -> "TwoColouring":
        """Checked as RColouring's with r = 2: each value is 0/RED or 1/BLUE."""
        return cls(graph, *RColouring.from_edge_map(graph, 2, colours).layer_rows(Colour.RED))

    @classmethod
    def monochromatic(cls, graph: BipartiteGraph, colour: Colour) -> "TwoColouring":
        return cls.from_red_rows(graph, graph._rows1 if colour is Colour.RED else [0] * graph.n1)

    def label(self, c: int) -> Colour:
        return _COLOURS[c]

    def swapped(self) -> "TwoColouring":
        """The same edges with red and blue exchanged."""
        return TwoColouring(self.graph, *self.layer_rows(Colour.BLUE))

    def edge_colours(self) -> Iterator[tuple[int, int, Colour]]:
        red1 = self._layers[Colour.RED][0]
        for i, j in self.graph.edges():
            yield i, j, Colour.RED if red1[i] >> j & 1 else Colour.BLUE


# ---------------------------------------------------------------------------
# Queries


def split_vertices(g: BipartiteGraph, vertices: Iterable[Vertex]) -> tuple[int, int, list]:
    """(part-1 mask, part-2 mask, the vertices outside ``g`` in iteration order)."""
    m1 = m2 = 0
    foreign = []
    for v in vertices:
        i = v.index if isinstance(v.index, int) else -1  # a non-integer index is foreign
        if v.part == 1 and 0 <= i < g.n1:
            m1 |= 1 << i
        elif v.part == 2 and 0 <= i < g.n2:
            m2 |= 1 << i
        else:
            foreign.append(v)
    return m1, m2, foreign


def vertex_masks(g: BipartiteGraph, vertices: Iterable[Vertex]) -> tuple[int, int]:
    """Split a vertex set into (part-1 mask, part-2 mask), validating ids."""
    m1, m2, foreign = split_vertices(g, vertices)
    if foreign:
        raise InvalidArgumentError(f"vertex {foreign[0]!r} not in this graph")
    return m1, m2


def min_vertex(m1: int, m2: int) -> Vertex:
    """The least vertex (part 1 first) of a nonempty mask pair."""
    return Vertex(1, lowest(m1)) if m1 else Vertex(2, lowest(m2))


def part_vertices(part: int, mask: int) -> list[Vertex]:
    """The vertices of one part that ``mask`` names, ascending: shared objects."""
    table = vertex_table(part, mask.bit_length())
    return [table[i] for i in bit_indices(mask)]


def vertex_set(mask1: int, mask2: int) -> frozenset[Vertex]:
    return frozenset(part_vertices(1, mask1) + part_vertices(2, mask2))


def degree(g: BipartiteGraph, v: Vertex, *, within: Iterable[Vertex] | None = None,
           colouring: TwoColouring | None = None, colour: Colour | None = None) -> int:
    """|N(v)| restricted to ``within`` and, if given, to one colour's edges."""
    g.check_vertex(v)
    if (colouring is None) != (colour is None):
        raise InvalidArgumentError("colouring and colour must be given together")
    row = colouring.coloured_row(v.part, v.index, colour) if colouring else g.row(v.part, v.index)
    if within is None:
        return row.bit_count()
    masks = vertex_masks(g, within)
    if masks[v.part - 1]:
        raise InvalidArgumentError("'within' must lie in the part opposite to v")
    return (row & masks[2 - v.part]).bit_count()


def edge_count_between(g: BipartiteGraph, a: Iterable[Vertex], b: Iterable[Vertex], *,
                       colouring: TwoColouring | None = None,
                       colour: Colour | None = None) -> int:
    """Number of (optionally colour-restricted) edges with one end in each set."""
    if (colouring is None) != (colour is None):
        raise InvalidArgumentError("colouring and colour must be given together")
    a1, a2 = vertex_masks(g, a)
    b1, b2 = vertex_masks(g, b)
    if (a1 and a2) or (b1 and b2):
        raise InvalidArgumentError("each set must lie within a single part")
    if (a1 or a2) == 0 or (b1 or b2) == 0:
        return 0
    if (a1 and b1) or (a2 and b2):
        raise InvalidArgumentError("sets must lie in opposite parts")
    left, right = (a1, b2) if a1 else (b1, a2)
    rows1 = colouring.layer_rows(colour)[0] if colouring else g._rows1
    return edges_between(rows1, left, right)


def components_from_rows(n1: int, n2: int, rows1: Sequence[int], rows2: Sequence[int],
                         m1: int | None = None, m2: int | None = None) -> list[tuple[int, int]]:
    """Connected components of a bipartite subgraph given by bit rows.

    Returns (part-1 mask, part-2 mask) pairs covering the vertex set
    (m1, m2), all n1+n2 vertices by default; the rows are restricted to
    that set, and vertices with no edge inside it come back as
    singletons.  Ordered by their smallest vertex (part 1 first).
    """
    unseen1 = (1 << n1) - 1 if m1 is None else m1
    unseen2 = (1 << n2) - 1 if m2 is None else m2
    comps: list[tuple[int, int]] = []
    while unseen1 or unseen2:
        # Seed at the smallest unseen vertex, part 1 first.
        if unseen1:
            c1, c2 = unseen1 & -unseen1, 0
        else:
            c1, c2 = 0, unseen2 & -unseen2
        unseen1 &= ~c1
        unseen2 &= ~c2
        frontier1, frontier2 = c1, c2
        while frontier1 or frontier2:
            grow2 = 0
            for i in iter_bits(frontier1):
                grow2 |= rows1[i]
            grow1 = 0
            for j in iter_bits(frontier2):
                grow1 |= rows2[j]
            frontier1 = grow1 & unseen1
            frontier2 = grow2 & unseen2
            unseen1 &= ~frontier1
            unseen2 &= ~frontier2
            c1 |= frontier1
            c2 |= frontier2
        comps.append((c1, c2))
    return comps


def monochromatic_components(g: BipartiteGraph, colouring, colour) -> list[frozenset[Vertex]]:
    """Components of one colour's subgraph; together they partition V(G).

    Vertices with no edge of the colour appear as singletons, so the
    result is always a partition of the whole vertex set.
    """
    rows1, rows2 = colouring.layer_rows(colour)
    return [vertex_set(m1, m2) for m1, m2 in components_from_rows(g.n1, g.n2, rows1, rows2)]


# ---------------------------------------------------------------------------
# Covers and partitions


@dataclass(frozen=True)
class MonoTree:
    """A tree using edges of one colour; a single vertex with no edges is allowed."""

    colour: Colour
    vertices: frozenset[Vertex]
    edges: tuple[tuple[Vertex, Vertex], ...]


@dataclass(frozen=True)
class TreeCover:
    """Vertex-disjoint monochromatic trees plus the vertices left uncovered."""

    trees: tuple[MonoTree, ...]
    uncovered: frozenset[Vertex]


@dataclass(frozen=True)
class MonoPartition:
    """Disjoint parts, each connected inside one colour, covering V(G)."""

    parts: tuple[tuple[Colour, frozenset[Vertex]], ...]


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _check_tree(g: BipartiteGraph, colouring: TwoColouring, tree: MonoTree, label: str,
                report: ValidationReport, m1: int, m2: int, foreign: list) -> None:
    if not tree.vertices:
        report.add(f"{label}: empty vertex set")
        return
    if foreign:
        report.add(f"{label}: vertex {foreign[0]} not in graph")
        return
    if len(tree.edges) != len(tree.vertices) - 1:
        report.add(f"{label}: {len(tree.edges)} edges for {len(tree.vertices)} vertices")
    rows1, rows2 = [0] * g.n1, [0] * g.n2
    tree_rows = colouring.layer_rows(tree.colour)[0]
    for a, b in tree.edges:
        u, w = (a, b) if a.part == 1 else (b, a)
        if u.part != 1 or w.part != 2:
            report.add(f"{label}: edge {a}-{b} does not join the two parts")
        elif u not in tree.vertices or w not in tree.vertices:
            report.add(f"{label}: edge {a}-{b} leaves the tree's vertex set")
        elif not tree_rows[u.index] >> w.index & 1:  # has_edge only names the fault
            fault = (f"is not {tree.colour.token}" if g.has_edge(u.index, w.index)
                     else "not present in the graph")
            report.add(f"{label}: edge {a}-{b} {fault}")
        else:
            rows1[u.index] |= 1 << w.index
            rows2[w.index] |= 1 << u.index
    # Connectivity over the tree's own edges; with the edge count check
    # this certifies acyclicity as well.
    if len(components_from_rows(g.n1, g.n2, rows1, rows2, m1, m2)) != 1:
        report.add(f"{label}: edges do not connect all vertices")


def _report_gap(g: BipartiteGraph, m1: int, m2: int, what: str, report: ValidationReport) -> None:
    gap1, gap2 = (1 << g.n1) - 1 & ~m1, (1 << g.n2) - 1 & ~m2
    if gap1 or gap2:
        count = gap1.bit_count() + gap2.bit_count()
        report.add(f"coverage: {count} vertices {what}, e.g. {min_vertex(gap1, gap2)}")


def validate_cover(g: BipartiteGraph, colouring: TwoColouring,
                   cover: TreeCover) -> ValidationReport:
    """Re-derive every TreeCover invariant from raw adjacency.

    Violations are report entries, not exceptions; an empty report means
    the cover is valid.
    """
    report = ValidationReport()
    groups = [tree.vertices for tree in cover.trees] + [cover.uncovered]
    m1s, m2s, outs = zip(*(split_vertices(g, grp) for grp in groups))
    for t, tree in enumerate(cover.trees):
        _check_tree(g, colouring, tree, f"tree {t}", report, m1s[t], m2s[t], outs[t])
    names = [f"tree {t}" for t in range(len(cover.trees))] + ["uncovered"]
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            shared = groups[a] & groups[b]
            if shared:
                report.add(f"{names[a]} and {names[b]} share {min(shared)}")
    _report_gap(g, reduce(operator.or_, m1s), reduce(operator.or_, m2s), "unaccounted", report)
    foreign = set().union(*outs)
    if foreign:
        report.add(f"coverage: {len(foreign)} foreign vertices, e.g. {min(foreign)}")
    return report


def validate_partition(g: BipartiteGraph, colouring: TwoColouring,
                       partition: MonoPartition) -> ValidationReport:
    """Check disjointness, exact coverage, and per-part colour connectivity."""
    report = ValidationReport()
    seen1 = seen2 = 0
    for k, (colour, part) in enumerate(partition.parts):
        if not part:
            report.add(f"part {k}: empty")
            continue
        m1, m2, foreign = split_vertices(g, part)
        if foreign:
            report.add(f"part {k}: vertex {foreign[0]} not in graph")
            return report
        if m1 & seen1 or m2 & seen2:
            report.add(f"part {k} overlaps an earlier part at {min_vertex(m1 & seen1, m2 & seen2)}")
        seen1, seen2 = seen1 | m1, seen2 | m2
        inside = components_from_rows(g.n1, g.n2, *colouring.layer_rows(colour), m1, m2)
        if len(inside) != 1:
            report.add(f"part {k}: {len(inside)} {colour.token}-components, expected 1")
    _report_gap(g, seen1, seen2, "missing", report)
    return report


def spanning_tree_of(g: BipartiteGraph, colouring: TwoColouring, colour: Colour,
                     vertices: Iterable[Vertex]) -> MonoTree:
    """Breadth-first spanning tree of ``vertices`` inside one colour's subgraph."""
    vset = frozenset(vertices)
    if not vset:
        raise InvalidArgumentError("cannot build a tree on no vertices")
    masks = vertex_masks(g, vset)
    root = min_vertex(*masks)
    rows = colouring.layer_rows(colour)
    tables = vertex_table(1, g.n1), vertex_table(2, g.n2)
    side, frontier = root.part - 1, [root.index]
    unreached = list(masks)
    unreached[side] ^= 1 << root.index
    edges: list[tuple[Vertex, Vertex]] = []
    while frontier:
        nxt: list[int] = []
        near, far, side_rows = tables[side], tables[1 - side], rows[side]
        for x in frontier:
            fresh = side_rows[x] & unreached[1 - side]
            if fresh:
                unreached[1 - side] ^= fresh
                ys = bit_indices(fresh)
                edges.extend((near[x], far[y]) if side == 0 else (far[y], near[x]) for y in ys)
                nxt += ys
        side, frontier = 1 - side, nxt
    if any(unreached):
        gap = sum(m.bit_count() for m in unreached)
        raise NotConnectedError(f"vertex set is not connected in {colour.token}: {gap} unreachable")
    return MonoTree(colour, vset, tuple(edges))
