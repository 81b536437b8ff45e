"""Text file formats for graphs, colourings, covers, and partitions.

Graph + colouring format (one file carries both):

    # free-form comments
    bipartite <n1> <n2>
    <i> <j> <R|B>

One line per edge, ``i`` a part-1 index and ``j`` a part-2 index.  The
colour token is either R/B, a colour index (0..r-1, used by r-coloured
instances from the exact solver's tooling), or absent, in which case the
file holds a bare graph.  A file must be uniformly coloured or uniformly
bare; duplicate edges and out-of-range indices are rejected.

Vertex tokens elsewhere are ``part:index`` (e.g. ``2:5``) and edge tokens
are ``i-j``.
"""

from __future__ import annotations

import io
from typing import Iterable, Iterator, TextIO

from .errors import FormatError
from .graph import (BipartiteGraph, Colour, MonoPartition, MonoTree, RColouring,
                    TreeCover, TwoColouring, Vertex)

Colouring = TwoColouring | RColouring
_RB = {"R": Colour.RED, "B": Colour.BLUE}


def _parse_colour_token(token: str) -> int:
    if token in _RB:
        return _RB[token]
    try:
        c = int(token)
    except ValueError:
        raise FormatError(f"bad colour token {token!r}") from None
    if c < 0:
        raise FormatError(f"negative colour index {c}")
    return c


def content_lines(source: str | TextIO) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its
    ``#`` comment is stripped."""
    text = source if isinstance(source, str) else source.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(source: str | TextIO) -> tuple[BipartiteGraph, Colouring | None]:
    """Parse the graph format; returns (graph, colouring or None)."""
    n1 = n2 = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    colours: dict[tuple[int, int], int] = {}
    bare_lines = coloured_lines = 0
    for lineno, line in content_lines(source):
        fields = line.split()
        if n1 is None:
            if fields[0] != "bipartite" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'bipartite <n1> <n2>'")
            try:
                n1, n2 = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: part sizes must be integers") from None
            if n1 < 1 or n2 < 1:
                raise FormatError(f"line {lineno}: part sizes must be positive")
            continue
        if len(fields) not in (2, 3):
            raise FormatError(f"line {lineno}: expected '<i> <j> [colour]'")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= i < n1 and 0 <= j < n2):
            raise FormatError(f"line {lineno}: edge ({i},{j}) out of range")
        if (i, j) in seen:
            raise FormatError(f"line {lineno}: duplicate edge ({i},{j})")
        seen.add((i, j))
        edges.append((i, j))
        if len(fields) == 3:
            colours[(i, j)] = _parse_colour_token(fields[2])
            coloured_lines += 1
        else:
            bare_lines += 1
    if n1 is None:
        raise FormatError("missing 'bipartite <n1> <n2>' header")
    if bare_lines and coloured_lines:
        raise FormatError("mix of coloured and uncoloured edge lines")
    graph = BipartiteGraph.from_edges(n1, n2, edges)
    if not coloured_lines:
        return graph, None
    max_colour = max(colours.values(), default=0)
    if max_colour <= 1:
        two = TwoColouring.from_edge_map(
            graph, {e: Colour(c) for e, c in colours.items()})
        return graph, two
    return graph, RColouring.from_edge_map(graph, max_colour + 1, colours)


def write_graph(g: BipartiteGraph, colouring: Colouring | None = None,
                comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    for c in comments:
        out.write(f"# {c}\n")
    out.write(f"bipartite {g.n1} {g.n2}\n")
    for i, j in g.edges():
        if colouring is None:
            out.write(f"{i} {j}\n")
        elif isinstance(colouring, TwoColouring):
            out.write(f"{i} {j} {colouring.colour_of(i, j).token}\n")
        else:
            out.write(f"{i} {j} {colouring.colour_of(i, j)}\n")
    return out.getvalue()


def _vertex_token(v: Vertex) -> str:
    return f"{v.part}:{v.index}"


def _parse_vertex(token: str, lineno: int) -> Vertex:
    try:
        part, index = token.split(":")
        return Vertex(int(part), int(index))
    except ValueError:
        raise FormatError(f"line {lineno}: bad vertex token {token!r}") from None


def write_cover(cover: TreeCover, g: BipartiteGraph, comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    for c in comments:
        out.write(f"# {c}\n")
    out.write(f"cover {g.n1} {g.n2}\n")
    for tree in cover.trees:
        out.write(f"tree {tree.colour.token}\n")
        out.write("vertices " + " ".join(_vertex_token(v) for v in sorted(tree.vertices)) + "\n")
        if tree.edges:
            tokens = []
            for a, b in tree.edges:
                u, w = (a, b) if a.part == 1 else (b, a)
                tokens.append(f"{u.index}-{w.index}")
            out.write("edges " + " ".join(tokens) + "\n")
        out.write("end\n")
    out.write("uncovered")
    for v in sorted(cover.uncovered):
        out.write(f" {_vertex_token(v)}")
    out.write("\n")
    return out.getvalue()


def parse_cover(source: str | TextIO) -> TreeCover:
    trees: list[MonoTree] = []
    uncovered: frozenset[Vertex] = frozenset()
    colour: Colour | None = None
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    header_seen = False
    for lineno, line in content_lines(source):
        fields = line.split()
        kind = fields[0]
        if not header_seen:
            if kind != "cover" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'cover <n1> <n2>'")
            header_seen = True
            continue
        if kind == "tree":
            if colour is not None:
                raise FormatError(f"line {lineno}: previous tree not ended")
            if len(fields) != 2 or fields[1] not in _RB:
                raise FormatError(f"line {lineno}: expected 'tree <R|B>'")
            colour = _RB[fields[1]]
            vertices, edges = [], []
        elif kind == "vertices":
            vertices.extend(_parse_vertex(t, lineno) for t in fields[1:])
        elif kind == "edges":
            for token in fields[1:]:
                try:
                    i, j = token.split("-")
                    edges.append((Vertex(1, int(i)), Vertex(2, int(j))))
                except ValueError:
                    raise FormatError(f"line {lineno}: bad edge token {token!r}") from None
        elif kind == "end":
            if colour is None:
                raise FormatError(f"line {lineno}: 'end' outside a tree block")
            trees.append(MonoTree(colour, frozenset(vertices), tuple(edges)))
            colour = None
        elif kind == "uncovered":
            uncovered = frozenset(_parse_vertex(t, lineno) for t in fields[1:])
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if colour is not None:
        raise FormatError("unterminated tree block")
    if not header_seen:
        raise FormatError("missing 'cover <n1> <n2>' header")
    return TreeCover(tuple(trees), uncovered)


def write_partition(partition: MonoPartition, g: BipartiteGraph,
                    comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    for c in comments:
        out.write(f"# {c}\n")
    out.write(f"partition {g.n1} {g.n2}\n")
    for colour, part in partition.parts:
        out.write(f"part {colour.token} "
                  + " ".join(_vertex_token(v) for v in sorted(part)) + "\n")
    return out.getvalue()


def parse_partition(source: str | TextIO) -> MonoPartition:
    parts: list[tuple[Colour, frozenset[Vertex]]] = []
    header_seen = False
    for lineno, line in content_lines(source):
        fields = line.split()
        if not header_seen:
            if fields[0] != "partition" or len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'partition <n1> <n2>'")
            header_seen = True
            continue
        if fields[0] != "part" or len(fields) < 2 or fields[1] not in _RB:
            raise FormatError(f"line {lineno}: expected 'part <R|B> <vertices...>'")
        colour = _RB[fields[1]]
        parts.append((colour, frozenset(_parse_vertex(t, lineno) for t in fields[2:])))
    if not header_seen:
        raise FormatError("missing 'partition <n1> <n2>' header")
    return MonoPartition(tuple(parts))
