"""Shared helpers: tiny graph builders and independent naive oracles.

The naive validators and the all-partitions enumerator deliberately use
plain dict/set logic instead of the package's bit-set machinery, so they
can serve as independent cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from bipcover import (BLUE, RED, BipartiteGraph, Colour, RColouring, TwoColouring, Vertex)
from bipcover.errors import FormatError, InvalidArgumentError
from bipcover.exact import KnnReport, _component_masks, _maximal, _min_cover
from bipcover.graph import components_from_rows, select, vertex_masks
from bipcover.rng import combine

# The hash constants, written out so that a change to ``bipcover.rng``'s
# own copies is judged against these.  MIX2 is not splitmix64's published
# second multiplier, 0x94D049BB133111EB; every seeded output depends on this one.
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D49BF24592E92D
TAG_MINDEG = 0x6D696E6465677261  # "mindegra"


def graph_from_coloured_edges(n1, n2, coloured):
    """coloured: iterable of (i, j, Colour)."""
    edges = [(i, j) for i, j, _ in coloured]
    g = BipartiteGraph.from_edges(n1, n2, edges)
    colouring = TwoColouring.from_edge_map(g, {(i, j): c for i, j, c in coloured})
    return g, colouring


def matching_graph():
    """3x3 perfect matching a_i b_i with a1b1 red, a2b2 and a3b3 blue."""
    return graph_from_coloured_edges(
        3, 3, [(0, 0, RED), (1, 1, BLUE), (2, 2, BLUE)])


def adjacency_dict(g: BipartiteGraph) -> dict[Vertex, set[Vertex]]:
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in g.vertices()}
    for i, j in g.edges():
        adj[Vertex(1, i)].add(Vertex(2, j))
        adj[Vertex(2, j)].add(Vertex(1, i))
    return adj


def colour_dict(g: BipartiteGraph, colouring: TwoColouring) -> dict:
    return {(i, j): colouring.colour_of(i, j) for i, j in g.edges()}


def naive_connected(vertices: set[Vertex], edges: list[tuple[Vertex, Vertex]]) -> bool:
    if not vertices:
        return False
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in vertices}
    for a, b in edges:
        if a not in adj or b not in adj:
            return False
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    stack = [next(iter(sorted(vertices)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == vertices


def naive_validate_cover(g, colouring, cover) -> bool:
    """Independent re-derivation of every cover invariant from scratch."""
    colours = colour_dict(g, colouring)
    all_vertices = set(g.vertices())
    claimed: list[set[Vertex]] = []
    for tree in cover.trees:
        vs = set(tree.vertices)
        if not vs or not vs <= all_vertices:
            return False
        if len(tree.edges) != len(vs) - 1:
            return False
        for a, b in tree.edges:
            u, w = (a, b) if a.part == 1 else (b, a)
            if u not in vs or w not in vs:
                return False
            if (u.index, w.index) not in colours:
                return False
            if colours[(u.index, w.index)] is not tree.colour:
                return False
        if not naive_connected(vs, list(tree.edges)):
            return False
        claimed.append(vs)
    claimed.append(set(cover.uncovered))
    union: set[Vertex] = set()
    total = 0
    for group in claimed:
        union |= group
        total += len(group)
    return union == all_vertices and total == len(all_vertices)


def _in_graph(g, v) -> bool:
    """Whether ``v`` is a vertex of ``g``: part 1 or 2 and an ``int`` index
    in that part's range."""
    return v.part in (1, 2) and isinstance(v.index, int) \
        and 0 <= v.index < (g.n1 if v.part == 1 else g.n2)


def _reference_check_tree(g, colouring, tree, label, report: list[str]) -> None:
    if not tree.vertices:
        report.append(f"{label}: empty vertex set")
        return
    for v in tree.vertices:
        if not _in_graph(g, v):
            report.append(f"{label}: vertex {v} not in graph")
            return
    if len(tree.edges) != len(tree.vertices) - 1:
        report.append(f"{label}: {len(tree.edges)} edges for {len(tree.vertices)} vertices")
    adjacency: dict[Vertex, list[Vertex]] = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        u, w = (a, b) if a.part == 1 else (b, a)
        if u.part != 1 or w.part != 2:
            report.append(f"{label}: edge {a}-{b} does not join the two parts")
            continue
        if u not in tree.vertices or w not in tree.vertices:
            report.append(f"{label}: edge {a}-{b} leaves the tree's vertex set")
            continue
        if not g.has_edge(u.index, w.index):
            report.append(f"{label}: edge {a}-{b} not present in the graph")
            continue
        if colouring.colour_of(u.index, w.index) is not tree.colour:
            report.append(f"{label}: edge {a}-{b} is not {tree.colour.token}")
            continue
        adjacency[u].append(w)
        adjacency[w].append(u)
    start = min(tree.vertices)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(tree.vertices):
        report.append(f"{label}: edges do not connect all vertices")


def reference_validate_cover(g, colouring, cover) -> list[str]:
    """The violations ``validate_cover`` must report, message for message.

    A frozen copy of the dict-and-DFS cover validator that predates the
    bit-row one: same checks, same order, same wording.
    """
    report: list[str] = []
    for t, tree in enumerate(cover.trees):
        _reference_check_tree(g, colouring, tree, f"tree {t}", report)
    groups = [tree.vertices for tree in cover.trees] + [cover.uncovered]
    names = [f"tree {t}" for t in range(len(cover.trees))] + ["uncovered"]
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            shared = groups[a] & groups[b]
            if shared:
                report.append(f"{names[a]} and {names[b]} share {sorted(shared)[0]}")
    covered: set[Vertex] = set()
    for grp in groups:
        covered |= grp
    everything = set(g.vertices())
    missing = everything - covered
    extra = covered - everything
    if missing:
        report.append(f"coverage: {len(missing)} vertices unaccounted, e.g. {sorted(missing)[0]}")
    if extra:
        report.append(f"coverage: {len(extra)} foreign vertices, e.g. {sorted(extra)[0]}")
    return report


def reference_validate_partition(g, colouring, partition) -> list[str]:
    """The violations ``validate_partition`` must report, message for message.

    A frozen copy of the partition validator as it stands before the
    validators move to masks: same checks, same order, same wording.
    """
    report: list[str] = []
    seen: set[Vertex] = set()
    for k, (colour, part) in enumerate(partition.parts):
        if not part:
            report.append(f"part {k}: empty")
            continue
        for v in part:
            if not _in_graph(g, v):
                report.append(f"part {k}: vertex {v} not in graph")
                return report
        overlap = seen & part
        if overlap:
            report.append(f"part {k} overlaps an earlier part at {sorted(overlap)[0]}")
        seen |= part
        inside = components_from_rows(g.n1, g.n2, *colouring.layer_rows(colour),
                                      *vertex_masks(g, part))
        if len(inside) != 1:
            report.append(f"part {k}: {len(inside)} {colour.token}-components, expected 1")
    missing = set(g.vertices()) - seen
    if missing:
        report.append(f"coverage: {len(missing)} vertices missing, e.g. {sorted(missing)[0]}")
    return report


def naive_validate_partition(g, colouring, partition) -> bool:
    all_vertices = set(g.vertices())
    union: set[Vertex] = set()
    total = 0
    for colour, part in partition.parts:
        vs = set(part)
        if not vs or not vs <= all_vertices:
            return False
        edges = []
        for v in vs:
            for w in vs:
                if v.part == 1 and w.part == 2 and g.has_edge(v.index, w.index):
                    if colouring.colour_of(v.index, w.index) is colour:
                        edges.append((v, w))
        if not naive_connected(vs, edges):
            return False
        union |= vs
        total += len(vs)
    return union == all_vertices and total == len(all_vertices)


def set_partitions(items: list):
    """Every partition of ``items`` into nonempty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[head] + smaller[k]] + smaller[k + 1:]
        yield [[head]] + smaller


def naive_tp(g, colouring) -> int:
    """Minimum monochromatic-connected partition size by full enumeration;
    a single vertex is a block.

    Block feasibility is cached per vertex set; the same blocks recur
    across the Bell-number many partitions.
    """
    vertices = sorted(g.vertices())
    cache: dict[frozenset, bool] = {}

    def block_ok(block: frozenset) -> bool:
        if block not in cache:
            cache[block] = _block_ok(g, colouring, set(block))
        return cache[block]

    best = None
    for blocks in set_partitions(vertices):
        if best is not None and len(blocks) >= best:
            continue
        if all(block_ok(frozenset(block)) for block in blocks):
            best = len(blocks)
    return best


def _block_ok(g, colouring, block: set[Vertex]) -> bool:
    for colour in map(colouring.label, range(colouring.num_colours)):
        edges = []
        for v in block:
            if v.part != 1:
                continue
            for w in block:
                if w.part == 2 and g.has_edge(v.index, w.index) \
                        and colouring.colour_of(v.index, w.index) == colour:
                    edges.append((v, w))
        if naive_connected(block, edges):
            return True
    return False


# ---------------------------------------------------------------------------
# Per-bit and per-pair loops: references for the numpy bit-matrix kernel


def naive_matrix(rows, width) -> list[list[int]]:
    """Row i, column j holds bit j of rows[i]."""
    return [[row >> j & 1 for j in range(width)] for row in rows]


def naive_rows_from_edges(n1, n2, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(part-1 rows, part-2 rows) by one ``|= 1 << j`` per edge."""
    rows1, rows2 = [0] * n1, [0] * n2
    for i, j in edges:
        rows1[i] |= 1 << j
        rows2[j] |= 1 << i
    return tuple(rows1), tuple(rows2)


def naive_mindeg_subgraph(n, fraction, seed) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(part-1 rows, part-2 rows) of the min-degree sampler's graph by its
    slot-by-slot greedy: visit the slots in stable key order and delete
    each one whose endpoints both sit above the floor."""
    floor = math.ceil(Fraction(fraction) * n)
    order = np.argsort(naive_hash_block(combine(seed, TAG_MINDEG), 0, n * n), kind="stable")
    deg1, deg2 = [n] * n, [n] * n
    edges = []
    for slot in order.tolist():
        i, j = divmod(slot, n)
        if deg1[i] > floor and deg2[j] > floor:
            deg1[i] -= 1
            deg2[j] -= 1
        else:
            edges.append((i, j))
    return naive_rows_from_edges(n, n, edges)


def naive_transpose(rows, width) -> tuple[int, ...]:
    out = [0] * width
    for i, row in enumerate(rows):
        for j in range(width):
            if row >> j & 1:
                out[j] |= 1 << i
    return tuple(out)


def naive_degree_bands(g: BipartiteGraph, p: Fraction, eps: Fraction):
    """(degree checked, degree violations, codegree checked, codegree
    violations) by exact Fraction comparisons, pair by pair, in the
    report's order: per part, vertices ascending, pairs row-major."""
    n = g.n1
    d_lo, d_hi = (1 - eps) * p * n, (1 + eps) * p * n
    c_lo, c_hi = (1 - eps) * p * p * n, (1 + eps) * p * p * n
    d_checked = c_checked = 0
    d_bad, c_bad = [], []
    for part in (1, 2):
        rows = [g.row(part, i) for i in range(n)]
        for i, row in enumerate(rows):
            d_checked += 1
            d = bin(row).count("1")
            if not d_lo <= d <= d_hi:
                d_bad.append((Vertex(part, i), d, (float(d_lo), float(d_hi))))
        for i in range(n):
            for j in range(i + 1, n):
                c_checked += 1
                c = bin(rows[i] & rows[j]).count("1")
                if not c_lo <= c <= c_hi:
                    c_bad.append(((Vertex(part, i), Vertex(part, j)), c,
                                  (float(c_lo), float(c_hi))))
    return d_checked, d_bad, c_checked, c_bad


def naive_components(n1, n2, rows1, m1, m2) -> list[tuple[int, int]]:
    """(part-1 mask, part-2 mask) of each component of the subgraph that
    the part-1 rows induce on the vertex set (m1, m2), by breadth-first
    search over an adjacency dict, ordered by smallest vertex."""
    inside = {Vertex(1, i) for i in range(n1) if m1 >> i & 1}
    inside |= {Vertex(2, j) for j in range(n2) if m2 >> j & 1}
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in inside}
    for i in range(n1):
        for j in range(n2):
            a, b = Vertex(1, i), Vertex(2, j)
            if rows1[i] >> j & 1 and a in inside and b in inside:
                adj[a].add(b)
                adj[b].add(a)
    comps = []
    seen: set[Vertex] = set()
    for start in sorted(inside):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            for w in adj[queue.pop()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append((sum(1 << v.index for v in comp if v.part == 1),
                      sum(1 << v.index for v in comp if v.part == 2)))
    return comps


# ---------------------------------------------------------------------------
# Randomness oracles: the forms the blocked draws replaced


def naive_hash_block(seed: int, start: int, count: int) -> np.ndarray:
    """``hash_at(seed, start + k)`` for k in range(count), all at once, each
    step on a fresh temporary."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = idx * np.uint64(GOLDEN) + np.uint64(seed & MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(MIX2)
    return x ^ (x >> np.uint64(31))


def naive_coin_split(rng, mask: int) -> tuple[int, int]:
    """(heads, tails) by one scalar coin per bit, ascending."""
    heads = select(mask, lambda _: rng.coin())
    return heads, mask & ~heads


def naive_bernoulli_subset(rng, mask: int, probability: Fraction) -> int:
    """The bits of ``mask`` kept by one scalar Bernoulli draw each, ascending."""
    return select(mask, lambda _: rng.bernoulli(probability))


def naive_heavy_masks(g: BipartiteGraph, colouring: TwoColouring, is_heavy):
    """Per colour, the (part 1, part 2) heavy masks, one vertex at a time."""
    masks = {RED: [0, 0], BLUE: [0, 0]}
    for part in (1, 2):
        for i in range(g.part_size(part)):
            d = g.row(part, i).bit_count()
            red = colouring.coloured_row(part, i, RED).bit_count()
            for colour, dc in ((RED, red), (BLUE, d - red)):
                if is_heavy(d, dc):
                    masks[colour][part - 1] |= 1 << i
    return {colour: tuple(m) for colour, m in masks.items()}


def naive_colour_of(colouring, i: int, j: int):
    """The label of the first layer, scanning all of them, that holds edge (i, j)."""
    for c in range(colouring.num_colours):
        if colouring.layer_rows(c)[0][i] >> j & 1:
            return colouring.label(c)
    raise InvalidArgumentError(f"({i},{j}) is not an edge")


# ---------------------------------------------------------------------------
# The K_{n,n} check without the symmetry quotient: one tc solve per colouring


def _decode_colouring(code: int, n: int, r: int) -> list[tuple[list[int], list[int]]]:
    """Colour layers (part-1 rows, part-2 rows) of colouring ``code`` of
    K_{n,n}: base-r digit i*n + j is the colour of edge (i, j)."""
    layers = [([0] * n, [0] * n) for _ in range(r)]
    for slot in range(n * n):
        code, c = divmod(code, r)
        i, j = divmod(slot, n)
        rows1, rows2 = layers[c]
        rows1[i] |= 1 << j
        rows2[j] |= 1 << i
    return layers


def naive_knn_check(n: int, r: int, bound: int) -> KnnReport:
    """``exhaustive_knn_check`` by solving every raw colouring code in
    ascending order, unguarded."""
    total = r ** (n * n)
    universe = (1 << (2 * n)) - 1
    report = KnnReport(n=n, r=r, bound=bound, total_colourings=total, max_tc=0)
    for code in range(total):
        masks = _component_masks(n, n, _decode_colouring(code, n, r))
        kept = _maximal(sorted(masks, key=lambda m: -m.bit_count()))
        value, _, _ = _min_cover(universe, kept)
        report.tc_histogram[value] = report.tc_histogram.get(value, 0) + 1
        if value > report.max_tc:
            report.max_tc = value
        if value > bound:
            report.violations.append(code)
    return report


# ---------------------------------------------------------------------------
# The two-halves blow-up through a per-edge colour dict


def reference_colour_blowup_pair(n: int, r: int):
    """``colour_blowup_pair`` as it stood before it built its colour layers
    from index arrays, frozen: one colour per edge in a dict, then the
    checked ``from_edge_map`` constructors."""
    half = n // 2
    group = half // r
    half_mask = (1 << half) - 1
    rows1 = [half_mask if i < half else half_mask << half for i in range(n)]
    g = BipartiteGraph.from_rows(n, n, rows1)

    def colour_of(i: int, j: int) -> int:
        gi = (i % half) // group
        gj = (j % half) // group
        return (gi + gj) % r

    colours = {(i, j): colour_of(i, j) for i, j in g.edges()}
    if r == 2:
        two = TwoColouring.from_edge_map(g, {e: Colour(c) for e, c in colours.items()})
        return g, two
    return g, RColouring.from_edge_map(g, r, colours)


# ---------------------------------------------------------------------------
# Graph files through Python's own string methods


def reference_parse_graph(text: str):
    """``formats.parse_graph`` as a per-line string reader: ``splitlines``,
    ``split("#", 1)``, per-line ``str.split`` and ``int``.  Each edge line
    runs its checks in order (field count, integer endpoints, range,
    duplicate, colour token), so the first bad line raises; a mix of
    coloured and bare lines is rejected only after every line passed."""
    content = [(lineno, fields) for lineno, line in enumerate(text.splitlines(), start=1)
               if (fields := line.split("#", 1)[0].split())]
    if not content:
        raise FormatError("missing 'bipartite <n1> <n2>' header")
    (lineno, header), *edge_lines = content
    if header[0] != "bipartite" or len(header) != 3:
        raise FormatError(f"line {lineno}: expected 'bipartite <n1> <n2>'")
    try:
        n1, n2 = int(header[1]), int(header[2])
    except ValueError:
        raise FormatError(f"line {lineno}: part sizes must be integers") from None
    if n1 < 1 or n2 < 1:
        raise FormatError(f"line {lineno}: part sizes must be positive")
    slots = max(n1 * n2, 2)  # a colour index must be below it; 0 and 1 always pass
    colours: dict[tuple[int, int], int | None] = {}
    for lineno, fields in edge_lines:
        if len(fields) not in (2, 3):
            raise FormatError(f"line {lineno}: expected '<i> <j> [colour]'")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= a < n1 and 0 <= b < n2):
            raise FormatError(f"line {lineno}: edge ({a},{b}) out of range")
        if (a, b) in colours:
            raise FormatError(f"line {lineno}: duplicate edge ({a},{b})")
        colour = None
        if len(fields) == 3 and fields[2] in ("R", "B"):
            colour = "RB".index(fields[2])
        elif len(fields) == 3:
            try:
                colour = int(fields[2])
            except ValueError:
                raise FormatError(f"bad colour token {fields[2]!r}") from None
            if colour < 0:
                raise FormatError(f"negative colour index {colour}")
            if colour >= slots:
                raise FormatError(f"colour index {colour} out of range 0..{slots - 1}")
        colours[a, b] = colour
    used = set(colours.values())
    if None in used and len(used) > 1:
        raise FormatError("mix of coloured and uncoloured edge lines")
    g = BipartiteGraph.from_edges(n1, n2, colours)
    if not colours or None in used:
        return g, None
    if max(used) <= 1:
        return g, TwoColouring.from_edge_map(g, colours)
    return g, RColouring.from_edge_map(g, max(used) + 1, colours)
