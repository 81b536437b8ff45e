"""Text file formats for graphs, colourings, covers, and partitions.

Graph + colouring format (one file carries both):

    # free-form comments
    bipartite <n1> <n2>
    <i> <j> <R|B>

One line per edge, ``i`` a part-1 index and ``j`` a part-2 index.  The
colour token is either R/B, a colour index (0..r-1, used by r-coloured
instances from the exact solver's tooling; below n1*n2 unless it is 0
or 1), or absent, in which case the file holds a bare graph.  A file
must be uniformly coloured or uniformly bare; duplicate edges and
out-of-range indices are rejected.

Vertex tokens elsewhere are ``part:index`` (e.g. ``2:5``) and edge tokens
are ``i-j``.
"""

from __future__ import annotations

import io
from itertools import repeat
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import FormatError
from .graph import (BipartiteGraph, Colour, MonoPartition, MonoTree, RColouring,
                    TreeCover, TwoColouring, Vertex, colour_layers, first_hit,
                    rows_from_edges, rows_to_matrix)

Colouring = TwoColouring | RColouring
_RB = {"R": Colour.RED, "B": Colour.BLUE}


def content_lines(source: str | TextIO) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its
    ``#`` comment is stripped."""
    text = source if isinstance(source, str) else source.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_ints(tokens: np.ndarray, table: dict[str, int], lo: int,
               hi: int) -> tuple[np.ndarray, int]:
    """Value of each token up to the first one ``int`` rejects, as int64,
    and that token's position (len(tokens) if none).

    A token found in ``table`` takes its value there (no table value is
    -1); any other is read by ``int``.  Values beyond int64 are clipped to
    [lo, hi], which the callers choose so that no range check changes its
    verdict.
    """
    values = np.fromiter(map(table.get, tokens, repeat(-1)), np.int64, len(tokens))
    misses = np.flatnonzero(values == -1)
    try:
        values[misses] = np.fromiter(map(int, tokens[misses]), np.int64, len(misses))
        return values, len(tokens)
    except (ValueError, OverflowError):
        pass
    for k in misses.tolist():  # only after the bulk conversion failed
        try:
            values[k] = min(max(int(tokens[k]), lo), hi)
        except ValueError:
            return values, k
    return values, len(tokens)


def _parse_header(fields: list[str], lineno: int, directive: str) -> tuple[int, int]:
    """The part sizes of a '<directive> <n1> <n2>' header line."""
    if fields[0] != directive or len(fields) != 3:
        raise FormatError(f"line {lineno}: expected '{directive} <n1> <n2>'")
    try:
        n1, n2 = int(fields[1]), int(fields[2])
    except ValueError:
        raise FormatError(f"line {lineno}: part sizes must be integers") from None
    if n1 < 1 or n2 < 1:
        raise FormatError(f"line {lineno}: part sizes must be positive")
    return n1, n2


def _parse_edge_lines(tokens: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                      linenos: np.ndarray, n1: int, n2: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Endpoint arrays and colour codes (None for a bare graph) of the edge
    lines, whose fields are tokens[starts[k]:starts[k] + counts[k]].

    The checks run in bulk.  Each looks only at the lines before the first
    failure found so far, so the error names the first bad line and, within
    it, the first failed check: field count, integer endpoints, range,
    duplicate, colour token.
    """
    error = None
    stop = first_hit((counts < 2) | (counts > 3), len(counts))
    if stop < len(counts):
        error = f"line {linenos[stop]}: expected '<i> <j> [colour]'"
    size = max(n1, n2)
    # The lookup table only saves int() calls; it never outgrows the input.
    table = {str(k): k for k in range(min(size, len(tokens)))}
    ends, parsed = _read_ints(tokens[(starts[:stop, None] + (0, 1)).ravel()], table, -1, size)
    if parsed < 2 * stop:
        stop = parsed // 2
        error = f"line {linenos[stop]}: endpoints must be integers"
    i, j = ends[0:2 * stop:2], ends[1:2 * stop:2]
    bad = first_hit((i < 0) | (i >= n1) | (j < 0) | (j >= n2), stop)
    if bad < stop:
        stop = bad
        a, b = map(int, tokens[starts[stop]:starts[stop] + 2])
        error = f"line {linenos[stop]}: edge ({a},{b}) out of range"
    i, j = i[:stop], j[:stop]
    keys = i * n2 + j
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        stop = int(repeats.min())
        error = f"line {linenos[stop]}: duplicate edge ({i[stop]},{j[stop]})"
    # There is at most one colour per edge slot, so an index from n1*n2 on
    # is rejected (0 and 1, red and blue, always pass); larger ones are
    # clipped to the bound, which is kept in int64.
    bound = max(min(n1 * n2, np.iinfo(np.int64).max), 2)
    colour_tokens = tokens[starts[:stop][counts[:stop] == 3] + 2]
    codes, parsed = _read_ints(colour_tokens, _RB, -1, bound)
    bad = first_hit((codes < 0) | (codes >= bound), parsed)
    if bad < len(colour_tokens):
        token = colour_tokens[bad]
        if bad == parsed:
            error = f"bad colour token {token!r}"
        elif codes[bad] < 0:
            error = f"negative colour index {int(token)}"
        else:
            error = f"colour index {int(token)} out of range 0..{bound - 1}"
    if error is not None:
        raise FormatError(error)
    if 0 < len(colour_tokens) < len(counts):
        raise FormatError("mix of coloured and uncoloured edge lines")
    return i, j, codes if len(colour_tokens) else None


def parse_graph(source: str | TextIO) -> tuple[BipartiteGraph, Colouring | None]:
    """Parse the graph format; returns (graph, colouring or None).

    A malformed file raises FormatError for its first bad line.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        text = "\n".join(lines)
    # Every line break splitlines() knows is whitespace to split(), so the
    # tokens of the whole text are the lines' fields end to end.
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    del lines
    tokens = np.array(text.split(), dtype=object)
    content = np.flatnonzero(counts)
    if not content.size:
        raise FormatError("missing 'bipartite <n1> <n2>' header")
    counts = counts[content]
    starts = np.cumsum(counts) - counts
    n1, n2 = _parse_header(tokens[:counts[0]].tolist(), content[0] + 1, "bipartite")
    i, j, codes = _parse_edge_lines(tokens, starts[1:], counts[1:], content[1:] + 1, n1, n2)
    graph = BipartiteGraph(n1, n2, *rows_from_edges(n1, n2, i, j))
    if codes is None:
        return graph, None
    r = int(codes.max()) + 1
    if r <= 2:
        red = codes == Colour.RED
        return graph, TwoColouring(graph, *rows_from_edges(n1, n2, i[red], j[red]))
    return graph, RColouring(graph, colour_layers(n1, n2, i, j, codes, r))


def write_graph(g: BipartiteGraph, colouring: Colouring | None = None,
                comments: Iterable[str] = ()) -> str:
    i, j = np.nonzero(rows_to_matrix([g.row(1, a) for a in range(g.n1)], g.n2))
    colour = np.zeros(len(i), dtype=np.intp)
    if colouring is None:
        tokens = [""]
    else:
        # Tails and matrices only for the colours that occur; an edge in
        # none of the later layers is in the first.
        used = colouring.used_colours or (0,)
        tokens = [f" {Colour(c).token}" if isinstance(colouring, TwoColouring) else f" {c}"
                  for c in used]
        for k, c in enumerate(used[1:], start=1):
            colour[rows_to_matrix(colouring.layer_rows(c)[0], g.n2)[i, j] == 1] = k
    heads = np.array([f"{a} " for a in range(g.n1)], dtype=object)
    tails = np.array([[f"{b}{t}\n" for b in range(g.n2)] for t in tokens], dtype=object)
    lines = heads[i] + tails[colour, j]
    return "".join([*(f"# {c}\n" for c in comments), f"bipartite {g.n1} {g.n2}\n",
                    *lines.tolist()])


def _parse_vertex(token: str, lineno: int) -> Vertex:
    try:
        part, index = token.split(":")
        return Vertex(int(part), int(index))
    except ValueError:
        raise FormatError(f"line {lineno}: bad vertex token {token!r}") from None


def _outside(sizes: dict[int, int], lineno: int, vertices: Iterable[Vertex]) -> str | None:
    """The error for the first of ``vertices`` outside the header's parts, if any."""
    for v in vertices:
        if not 0 <= v.index < sizes.get(v.part, 0):
            return f"line {lineno}: vertex {v} outside the header's parts"
    return None


def _repeated(lineno: int, vertices: list[Vertex]) -> str | None:
    """The error for the first of ``vertices`` that repeats an earlier one, if any."""
    seen: set[Vertex] = set()
    for v in vertices:
        if v in seen:
            return f"line {lineno}: vertex {v} repeated"
        seen.add(v)
    return None


def write_cover(cover: TreeCover, g: BipartiteGraph, comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    for c in comments:
        out.write(f"# {c}\n")
    out.write(f"cover {g.n1} {g.n2}\n")
    for tree in cover.trees:
        out.write(f"tree {tree.colour.token}\n")
        out.write("vertices " + " ".join(map(str, sorted(tree.vertices))) + "\n")
        if tree.edges:
            ends = [(a, b) if a.part == 1 else (b, a) for a, b in tree.edges]
            out.write("edges " + " ".join(f"{u.index}-{w.index}" for u, w in ends) + "\n")
        out.write("end\n")
    out.write("uncovered")
    for v in sorted(cover.uncovered):
        out.write(f" {v}")
    out.write("\n")
    return out.getvalue()


def parse_cover(source: str | TextIO) -> TreeCover:
    trees: list[MonoTree] = []
    uncovered: frozenset[Vertex] | None = None
    colour: Colour | None = None
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    sizes: dict[int, int] | None = None
    stray = None  # the first vertex outside the header's parts, reported after all else
    repeat = None  # the first vertex repeated in a tree block or line, reported last
    for lineno, line in content_lines(source):
        fields = line.split()
        kind = fields[0]
        if sizes is None:
            sizes = dict(zip((1, 2), _parse_header(fields, lineno, "cover")))
            continue
        if kind in ("vertices", "edges", "end") and colour is None:
            raise FormatError(f"line {lineno}: '{kind}' outside a tree block")
        if kind == "tree":
            if colour is not None:
                raise FormatError(f"line {lineno}: previous tree not ended")
            if len(fields) != 2 or fields[1] not in _RB:
                raise FormatError(f"line {lineno}: expected 'tree <R|B>'")
            colour = _RB[fields[1]]
            vertices, edges = [], []
        elif kind == "vertices":
            found = [_parse_vertex(t, lineno) for t in fields[1:]]
            repeat = repeat or _repeated(lineno, vertices + found)
            vertices.extend(found)
            stray = stray or _outside(sizes, lineno, found)
        elif kind == "edges":
            for token in fields[1:]:
                try:
                    i, j = token.split("-")
                    edges.append((Vertex(1, int(i)), Vertex(2, int(j))))
                except ValueError:
                    raise FormatError(f"line {lineno}: bad edge token {token!r}") from None
                stray = stray or _outside(sizes, lineno, edges[-1])
        elif kind == "end":
            trees.append(MonoTree(colour, frozenset(vertices), tuple(edges)))
            colour = None
        elif kind == "uncovered":
            if colour is not None:
                raise FormatError(f"line {lineno}: 'uncovered' inside a tree block")
            if uncovered is not None:
                raise FormatError(f"line {lineno}: second 'uncovered' line")
            found = [_parse_vertex(t, lineno) for t in fields[1:]]
            repeat = repeat or _repeated(lineno, found)
            uncovered = frozenset(found)
            stray = stray or _outside(sizes, lineno, found)
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if colour is not None:
        raise FormatError("unterminated tree block")
    if sizes is None:
        raise FormatError("missing 'cover <n1> <n2>' header")
    if stray:
        raise FormatError(stray)
    if uncovered is None:
        raise FormatError("missing 'uncovered' line")
    if repeat:
        raise FormatError(repeat)
    return TreeCover(tuple(trees), uncovered)


def write_partition(partition: MonoPartition, g: BipartiteGraph,
                    comments: Iterable[str] = ()) -> str:
    out = io.StringIO()
    for c in comments:
        out.write(f"# {c}\n")
    out.write(f"partition {g.n1} {g.n2}\n")
    for colour, part in partition.parts:
        out.write(f"part {colour.token} "
                  + " ".join(map(str, sorted(part))) + "\n")
    return out.getvalue()


def parse_partition(source: str | TextIO) -> MonoPartition:
    parts: list[tuple[Colour, frozenset[Vertex]]] = []
    sizes: dict[int, int] | None = None
    stray = repeat = None  # as in parse_cover
    for lineno, line in content_lines(source):
        fields = line.split()
        if sizes is None:
            sizes = dict(zip((1, 2), _parse_header(fields, lineno, "partition")))
            continue
        if fields[0] != "part" or len(fields) < 2 or fields[1] not in _RB:
            raise FormatError(f"line {lineno}: expected 'part <R|B> <vertices...>'")
        found = [_parse_vertex(t, lineno) for t in fields[2:]]
        repeat = repeat or _repeated(lineno, found)
        parts.append((_RB[fields[1]], frozenset(found)))
        stray = stray or _outside(sizes, lineno, found)
    if sizes is None:
        raise FormatError("missing 'partition <n1> <n2>' header")
    if stray or repeat:
        raise FormatError(stray or repeat)
    return MonoPartition(tuple(parts))
