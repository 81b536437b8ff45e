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

Cover and partition files are written only, each after its validator ran.
A cover file holds ``tree <R|B>`` / ``vertices`` / ``edges`` / ``end``
blocks and an ``uncovered`` line, a partition file ``part <R|B>`` lines.
Vertex tokens are ``part:index`` (e.g. ``2:5``) and edge tokens ``i-j``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, TextIO

import numpy as np

from .errors import FormatError
from .graph import (BipartiteGraph, Colour, MonoPartition, RColouring, TreeCover,
                    TwoColouring, colour_layers, first_hit, rows_from_edges,
                    rows_to_matrix)

Colouring = TwoColouring | RColouring
_RB = {"R": Colour.RED, "B": Colour.BLUE}


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


def _parse_header(fields: list[str], lineno: int) -> tuple[int, int]:
    """The part sizes of a 'bipartite <n1> <n2>' header line."""
    if fields[0] != "bipartite" or len(fields) != 3:
        raise FormatError(f"line {lineno}: expected 'bipartite <n1> <n2>'")
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
    n1, n2 = _parse_header(tokens[:counts[0]].tolist(), content[0] + 1)
    i, j, codes = _parse_edge_lines(tokens, starts[1:], counts[1:], content[1:] + 1, n1, n2)
    graph = BipartiteGraph(n1, n2, *rows_from_edges(n1, n2, i, j))
    if codes is None:
        return graph, None
    r = int(codes.max()) + 1
    if r <= 2:
        red = codes == Colour.RED
        return graph, TwoColouring(graph, *rows_from_edges(n1, n2, i[red], j[red]))
    return graph, RColouring(graph, colour_layers(n1, n2, i, j, codes, r))


def _head(directive: str, g: BipartiteGraph, comments: Iterable[str]) -> list[str]:
    """The '# comment' lines and the '<directive> <n1> <n2>' header of a file."""
    return [*(f"# {c}\n" for c in comments), f"{directive} {g.n1} {g.n2}\n"]


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
    return "".join([*_head("bipartite", g, comments), *lines.tolist()])


def write_cover(cover: TreeCover, g: BipartiteGraph, comments: Iterable[str] = ()) -> str:
    out = _head("cover", g, comments)
    for tree in cover.trees:
        out.append(f"tree {tree.colour.token}\n")
        out.append("vertices " + " ".join(map(str, sorted(tree.vertices))) + "\n")
        if tree.edges:
            ends = [(a, b) if a.part == 1 else (b, a) for a, b in tree.edges]
            out.append("edges " + " ".join(f"{u.index}-{w.index}" for u, w in ends) + "\n")
        out.append("end\n")
    out.append(" ".join(["uncovered", *map(str, sorted(cover.uncovered))]) + "\n")
    return "".join(out)


def write_partition(partition: MonoPartition, g: BipartiteGraph,
                    comments: Iterable[str] = ()) -> str:
    out = _head("partition", g, comments)
    for colour, part in partition.parts:
        out.append(f"part {colour.token} " + " ".join(map(str, sorted(part))) + "\n")
    return "".join(out)
