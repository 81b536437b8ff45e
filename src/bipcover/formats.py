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

from typing import Iterable, TextIO

import numpy as np

from .errors import FormatError
from .graph import (BipartiteGraph, Colour, MonoPartition, RColouring, TreeCover,
                    TwoColouring, colour_layers, first_hit, rows_from_edges,
                    rows_to_matrix)

Colouring = TwoColouring | RColouring

# The code points str.split() splits on, and those of them that end a line for
# splitlines() ("\r\n" ends one).  _CLASS is 2 at a line break, 1 at any other
# code point that ends a token (whitespace or '#'), else 0.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = _BREAKS + "\t\x1f \xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200b)))
_CLASS = np.zeros(0x110000, np.uint8)
_CLASS[[*map(ord, _SPACES), ord("#")]] = 1
_CLASS[list(map(ord, _BREAKS))] = 2


def _scan(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The code points; a (start, stop) row per token, the fields
    ``line.split("#", 1)[0].split()`` of each line of ``text.splitlines()``
    in turn; and for each line with fields its first row and its number."""
    points = (np.frombuffer(text.encode("ascii"), np.uint8) if text.isascii() else
              np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32))
    cls = _CLASS.take(points)
    breaks = np.flatnonzero(cls == 2)
    breaks = breaks[(points[breaks] != 10) | (points[breaks - 1] != 13) | (breaks == 0)]
    blank = cls != 0
    if "#" in text:  # blank each line from its first '#' to its break
        hashes = np.flatnonzero(points == ord("#"))
        ends = np.append(breaks, len(points))[np.searchsorted(breaks, hashes)]
        first = np.diff(ends, prepend=-1) != 0
        steps = np.zeros(len(points) + 1, np.int8)
        steps[hashes[first]], steps[ends[first]] = 1, -1
        blank |= np.cumsum(steps[:-1], dtype=np.int8).view(bool)
    bounds = np.flatnonzero(np.diff(blank, prepend=True, append=True)).reshape(-1, 2)
    # after[k]: the first token after break k, a break put before the text being break 0.
    after = np.searchsorted(bounds[:, 0], np.append(-1, breaks))
    lines = np.flatnonzero((np.diff(after, append=len(bounds) + 1) != 0) & (after < len(bounds)))
    return points, bounds, after[lines], lines + 1


def _read_ints(text: str, points: np.ndarray, bounds: np.ndarray, rows: np.ndarray, lo: int,
               hi: int, letters: str = "") -> tuple[np.ndarray, int]:
    """Value of each token text[start:stop], (start, stop) in bounds[rows], as
    int64 up to the first one ``int`` rejects, and that one's position
    (len(rows) if none).  Runs of at most 18 ASCII digits, and one-character
    tokens in ``letters`` (valued at their index there), are read in bulk;
    any other by ``int``, clipped to [lo, hi], chosen by the callers so that
    no range check changes its verdict."""
    starts, stops = bounds.take(rows, axis=0).T
    lengths = stops - starts
    values = np.zeros(len(starts), np.int64)
    plain = lengths <= 18  # below 10**18, inside int64
    for k in range(int(lengths.max(initial=0, where=plain)), 0, -1):
        digit = points[np.maximum(stops - k, starts)] - 48  # wraps above 9 off the digits
        plain &= digit <= 9
        values = values * 10 + np.where(lengths >= k, digit, 0)
    for value, letter in enumerate(letters):
        hit = (lengths == 1) & (points[starts] == ord(letter))
        values, plain = np.where(hit, value, values), plain | hit
    for k in np.flatnonzero(~plain).tolist():  # only tokens outside the bulk forms
        try:
            values[k] = min(max(int(text[starts[k]:stops[k]]), lo), hi)
        except ValueError:
            return values, k
    return values, len(starts)


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


def _parse_edge_lines(text: str, points: np.ndarray, bounds: np.ndarray, firsts: np.ndarray,
                      counts: np.ndarray, linenos: np.ndarray, n1: int, n2: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Endpoint arrays and colour codes (None for a bare graph) of the edge
    lines, whose fields are tokens firsts[k]:firsts[k] + counts[k] (see _scan).

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
    (i, parsed_i), (j, parsed_j) = (_read_ints(text, points, bounds, firsts[:stop] + k, -1, size)
                                    for k in (0, 1))
    if min(parsed_i, parsed_j) < stop:
        stop = min(parsed_i, parsed_j)
        error = f"line {linenos[stop]}: endpoints must be integers"
    bad = first_hit((i < 0) | (i >= n1) | (j < 0) | (j >= n2), stop)
    if bad < stop:
        stop = bad
        a, b = (int(text[slice(*bounds[firsts[stop] + k])]) for k in (0, 1))
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
    colours = firsts[:stop][counts[:stop] == 3] + 2
    codes, parsed = _read_ints(text, points, bounds, colours, -1, bound, "RB")  # Colour 0, 1
    bad = first_hit((codes < 0) | (codes >= bound), parsed)
    if bad < len(codes):
        token = text[slice(*bounds[colours[bad]])]
        if bad == parsed:
            error = f"bad colour token {token!r}"
        elif codes[bad] < 0:
            error = f"negative colour index {int(token)}"
        else:
            error = f"colour index {int(token)} out of range 0..{bound - 1}"
    if error is not None:
        raise FormatError(error)
    if 0 < len(codes) < len(counts):
        raise FormatError("mix of coloured and uncoloured edge lines")
    return i, j, codes if len(codes) else None


def parse_graph(source: str | TextIO) -> tuple[BipartiteGraph, Colouring | None]:
    """Parse the graph format; returns (graph, colouring or None).

    A malformed file raises FormatError for its first bad line.
    """
    text = source if isinstance(source, str) else source.read()
    points, bounds, firsts, linenos = _scan(text)
    if not firsts.size:
        raise FormatError("missing 'bipartite <n1> <n2>' header")
    counts = np.diff(firsts, append=len(bounds))
    n1, n2 = _parse_header([text[a:b] for a, b in bounds[:counts[0]].tolist()], linenos[0])
    i, j, codes = _parse_edge_lines(text, points, bounds, firsts[1:], counts[1:], linenos[1:],
                                    n1, n2)
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
