"""Core graph types, queries, validators, and their invariants."""

import ast
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, MonoPartition, MonoTree,
                      RColouring, TreeCover, TwoColouring, Vertex,
                      monochromatic_components, sample_bipartite, sample_colouring,
                      spanning_tree_of, validate_cover, validate_partition)
from bipcover import CoverParams, PartitionParams, almost_cover, colour_lower3, partition3
from bipcover.errors import InvalidArgumentError, NotConnectedError, PartitionFailureError
from bipcover.errors import ConstructionInfeasibleError, PropertyFailureError
from bipcover import graph
from bipcover.graph import (bit_indices, components_from_rows, iter_bits, part_vertices,
                            rows_and_transpose, rows_from_edges, rows_from_matrix, rows_to_matrix,
                            transpose_rows, vertex_set, vertex_table)
from bipcover.models import ModelParams, sample_mindeg_subgraph
from bipcover.formats import parse_graph, write_graph
from conftest import (graph_from_coloured_edges, matching_graph, naive_colour_of,
                      naive_components, naive_matrix, naive_rows_from_edges,
                      naive_transpose, naive_validate_cover,
                      naive_validate_partition)
from conftest import reference_validate_cover, reference_validate_partition


def v1(i):
    return Vertex(1, i)


def v2(j):
    return Vertex(2, j)


class TestConstruction:
    def test_adjacency_is_symmetric(self):
        g = BipartiteGraph.from_edges(3, 4, [(0, 1), (2, 3), (1, 0)])
        for i, j in g.edges():
            assert g.row(2, j) >> i & 1

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(InvalidArgumentError):
            BipartiteGraph.from_edges(2, 2, [(0, 5)])

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidArgumentError):
            BipartiteGraph.from_rows(2, 2, [0b100, 0])

    def test_colouring_must_stay_on_edges(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0)])
        with pytest.raises(InvalidArgumentError):
            TwoColouring.from_red_rows(g, [0b10, 0])

    def test_colouring_must_be_total(self):
        g = BipartiteGraph.complete(2, 2)
        with pytest.raises(InvalidArgumentError):
            TwoColouring.from_edge_map(g, {(0, 0): RED})

    def test_edge_map_values_are_checked_colours(self):
        g = BipartiteGraph.complete(2, 2)
        named = {(0, 0): RED, (0, 1): BLUE, (1, 0): BLUE, (1, 1): RED}
        assert TwoColouring.from_edge_map(g, {e: int(c) for e, c in named.items()}) == \
            TwoColouring.from_edge_map(g, named)
        for bad, message in ((2, "out of range"), ("R", "'R' is not an integer"),
                             (0.9, "0.9 is not an integer")):
            with pytest.raises(InvalidArgumentError, match=message):
                TwoColouring.from_edge_map(g, {**named, (0, 1): bad})
            with pytest.raises(InvalidArgumentError, match=message):
                RColouring.from_edge_map(g, 2, {**named, (0, 1): bad})


class TestComponents:
    def test_monochromatic_connected_graph(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, RED)
        red = monochromatic_components(g, col, RED)
        blue = monochromatic_components(g, col, BLUE)
        assert len(red) == 1 and len(red[0]) == 6
        assert len(blue) == 6 and all(len(c) == 1 for c in blue)

    def test_matching_components(self):
        g, col = matching_graph()
        red = monochromatic_components(g, col, RED)
        blue = monochromatic_components(g, col, BLUE)
        assert frozenset([v1(0), v2(0)]) in red
        assert sum(1 for c in red if len(c) == 1) == 4
        assert frozenset([v1(1), v2(1)]) in blue
        assert frozenset([v1(2), v2(2)]) in blue
        assert sum(1 for c in blue if len(c) == 1) == 2

    def test_empty_graph_all_singletons(self):
        g = BipartiteGraph.from_edges(2, 3, [])
        col = TwoColouring.monochromatic(g, RED)
        for colour in (RED, BLUE):
            comps = monochromatic_components(g, col, colour)
            assert len(comps) == 5
            assert all(len(c) == 1 for c in comps)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 32), st.integers(2, 7))
    def test_components_partition_vertices(self, seed, n):
        g = sample_bipartite(ModelParams(n, n, Fraction(1, 2)), seed)
        col = sample_colouring(g, Fraction(1, 2), seed)
        for colour in (RED, BLUE):
            comps = monochromatic_components(g, col, colour)
            everything = [v for c in comps for v in c]
            assert len(everything) == 2 * n
            assert set(everything) == set(g.vertices())


class TestValidators:
    def test_valid_spanning_tree_cover(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, RED)
        tree = spanning_tree_of(g, col, RED, g.vertices())
        report = validate_cover(g, col, TreeCover((tree,), frozenset()))
        assert report.ok

    def test_shared_vertex_detected(self):
        g = BipartiteGraph.complete(2, 2)
        col = TwoColouring.monochromatic(g, RED)
        t1 = MonoTree(RED, frozenset([v1(0), v2(0)]), ((v1(0), v2(0)),))
        t2 = MonoTree(RED, frozenset([v1(1), v2(0)]), ((v1(1), v2(0)),))
        report = validate_cover(g, col, TreeCover((t1, t2), frozenset([v2(1)])))
        assert any("share" in v for v in report.violations)

    def test_bad_edge_count_detected(self):
        g = BipartiteGraph.complete(2, 2)
        col = TwoColouring.monochromatic(g, RED)
        bad = MonoTree(RED, frozenset([v1(0), v2(0), v2(1)]), ((v1(0), v2(0)),))
        report = validate_cover(
            g, col, TreeCover((bad,), frozenset([v1(1)])))
        assert any("edges for" in v for v in report.violations)

    def test_wrong_colour_edge_detected(self):
        g, col = matching_graph()
        bad = MonoTree(RED, frozenset([v1(1), v2(1)]), ((v1(1), v2(1)),))
        cover = TreeCover((bad,), frozenset(set(g.vertices()) - {v1(1), v2(1)}))
        assert not validate_cover(g, col, cover).ok

    def test_missing_edge_detected(self):
        g, col = matching_graph()
        bad = MonoTree(RED, frozenset([v1(0), v2(1)]), ((v1(0), v2(1)),))
        cover = TreeCover((bad,), frozenset(set(g.vertices()) - {v1(0), v2(1)}))
        report = validate_cover(g, col, cover)
        assert report.violations == reference_validate_cover(g, col, cover)
        assert "tree 0: edge 1:0-2:1 not present in the graph" in report.violations

    def test_wrong_colour_edge_then_non_edge_in_edge_order(self):
        # One colour-layer lookup per edge; has_edge only tells the two faults apart.
        g, col = matching_graph()
        tree = MonoTree(RED, frozenset([v1(0), v1(1), v2(0), v2(1)]),
                        ((v1(1), v2(1)), (v2(1), v1(0)), (v1(0), v2(0))))
        cover = TreeCover((tree,), frozenset([v1(2), v2(2)]))
        report = validate_cover(g, col, cover)
        assert report.violations == [
            "tree 0: edge 1:1-2:1 is not R",
            "tree 0: edge 2:1-1:0 not present in the graph",
            "tree 0: edges do not connect all vertices",
        ] == reference_validate_cover(g, col, cover)

    def test_coverage_gap_detected(self):
        g, col = matching_graph()
        t = MonoTree(RED, frozenset([v1(0), v2(0)]), ((v1(0), v2(0)),))
        report = validate_cover(g, col, TreeCover((t,), frozenset([v1(1)])))
        assert any("coverage" in v for v in report.violations)

    def test_partition_of_components_is_valid(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, BLUE)
        part = MonoPartition(((BLUE, frozenset(g.vertices())),))
        assert validate_partition(g, col, part).ok

    def test_partition_missing_vertex(self):
        g = BipartiteGraph.complete(2, 2)
        col = TwoColouring.monochromatic(g, BLUE)
        part = MonoPartition(((BLUE, frozenset([v1(0), v1(1), v2(0)])),))
        report = validate_partition(g, col, part)
        assert any("coverage" in v for v in report.violations)

    def test_partition_disconnected_part(self):
        # a2b2 and a3b3 are separate blue edges, so one blue part holding
        # all four vertices is disconnected in blue.
        g, col = matching_graph()
        part = MonoPartition((
            (BLUE, frozenset([v1(1), v2(1), v1(2), v2(2)])),
            (RED, frozenset([v1(0), v2(0)])),
        ))
        report = validate_partition(g, col, part)
        assert any("components" in v for v in report.violations)

    def test_partition_overlap_detected(self):
        g, col = matching_graph()
        parts = MonoPartition(((RED, frozenset([v1(0), v2(0)])), (RED, frozenset([v2(0)])),
                               (BLUE, frozenset([v1(1), v2(1)])),
                               (BLUE, frozenset([v1(2), v2(2)]))))
        report = validate_partition(g, col, parts)
        assert report.violations == reference_validate_partition(g, col, parts) == [
            "part 1 overlaps an earlier part at 2:0"]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 32))
    def test_agrees_with_naive_validator(self, seed):
        g = sample_bipartite(ModelParams(6, 6, Fraction(2, 3)), seed)
        col = sample_colouring(g, Fraction(1, 2), seed)
        comps = monochromatic_components(g, col, RED)
        trees = []
        covered = set()
        for comp in comps:
            if len(comp) > 1:
                trees.append(spanning_tree_of(g, col, RED, comp))
                covered |= comp
        cover = TreeCover(tuple(trees), frozenset(set(g.vertices()) - covered))
        report = validate_cover(g, col, cover)
        assert report.ok == naive_validate_cover(g, col, cover)
        assert report.ok
        if trees:  # mutate: drop a vertex from the uncovered set
            broken = TreeCover(tuple(trees),
                               frozenset(list(cover.uncovered)[:-1])
                               if cover.uncovered else frozenset([v1(0)]))
            assert validate_cover(g, col, broken).ok \
                == naive_validate_cover(g, col, broken)


class TestSpanningTree:
    def test_single_vertex(self):
        g, col = matching_graph()
        tree = spanning_tree_of(g, col, RED, [v1(0)])
        assert tree.vertices == frozenset([v1(0)])
        assert tree.edges == ()

    def test_path(self):
        g, col = graph_from_coloured_edges(2, 1, [(0, 0, RED), (1, 0, RED)])
        tree = spanning_tree_of(g, col, RED, [v1(0), v1(1), v2(0)])
        assert len(tree.edges) == 2

    def test_cycle_spanning_tree(self):
        g, col = graph_from_coloured_edges(
            2, 2, [(0, 0, RED), (0, 1, RED), (1, 0, RED), (1, 1, RED)])
        tree = spanning_tree_of(g, col, RED, g.vertices())
        assert len(tree.vertices) == 4
        assert len(tree.edges) == 3
        assert validate_cover(g, col, TreeCover((tree,), frozenset())).ok

    def test_disconnected_raises(self):
        g, col = matching_graph()
        with pytest.raises(NotConnectedError):
            spanning_tree_of(g, col, RED, [v1(0), v2(0), v1(1), v2(1)])

    def test_wrong_colour_rejected(self):
        g, col = matching_graph()
        with pytest.raises(NotConnectedError):
            spanning_tree_of(g, col, BLUE, [v1(0), v2(0)])


class TestValidatorPins:
    """Branches of the mask referees that hypothesis draws reach only by
    chance, each pinned against the frozen reference validators."""

    @pytest.mark.parametrize("foreign", (Vertex(1, -1), Vertex(3, 0), Vertex(1, 3)))
    def test_foreign_vertex_in_a_tree_and_in_uncovered(self, foreign):
        # 1:-1 sorts before every vertex of the graph, 3:0 after all of them;
        # 1:3 is one past part 1.
        g, col = matching_graph()
        tree = MonoTree(RED, frozenset([v1(0), v2(0), foreign]), ((v1(0), v2(0)),))
        rest = frozenset(g.vertices()) - {v2(0)}
        cover = TreeCover((tree,), rest | {foreign})
        report = validate_cover(g, col, cover)
        assert report.violations == reference_validate_cover(g, col, cover) == [
            f"tree 0: vertex {foreign} not in graph",
            f"tree 0 and uncovered share {min(foreign, v1(0))}",
            f"coverage: 1 foreign vertices, e.g. {foreign}"]

    def test_two_foreign_vertices_counted_once_each(self):
        g, col = matching_graph()
        tree = MonoTree(RED, frozenset([v1(0), v2(0)]), ((v1(0), v2(0)),))
        cover = TreeCover((tree,), frozenset(g.vertices()) - {v1(0), v2(0)}
                          | {Vertex(3, 0), Vertex(1, -1), Vertex(2, 3)})
        report = validate_cover(g, col, cover)
        assert report.violations == reference_validate_cover(g, col, cover) == [
            "coverage: 3 foreign vertices, e.g. 1:-1"]

    @pytest.mark.parametrize("foreign", (Vertex(1, -1), Vertex(3, 0), Vertex(1, 3)))
    def test_foreign_vertex_in_a_part(self, foreign):
        g, col = matching_graph()
        parts = MonoPartition(((RED, frozenset([v1(0), v2(0)])),
                               (BLUE, frozenset([v1(1), v2(1), foreign]))))
        report = validate_partition(g, col, parts)
        assert report.violations == reference_validate_partition(g, col, parts) == [
            f"part 1: vertex {foreign} not in graph"]

    def test_cover_missing_only_part_2_vertices(self):
        g, col = matching_graph()
        tree = MonoTree(RED, frozenset([v1(0), v2(0)]), ((v1(0), v2(0)),))
        cover = TreeCover((tree,), frozenset([v1(1), v1(2)]))
        report = validate_cover(g, col, cover)
        assert report.violations == reference_validate_cover(g, col, cover) == [
            "coverage: 2 vertices unaccounted, e.g. 2:1"]

    def test_partition_missing_only_part_2_vertices(self):
        g, col = matching_graph()
        parts = MonoPartition(((RED, frozenset([v1(0), v2(0)])),
                               (BLUE, frozenset([v1(1), v2(1)])), (BLUE, frozenset([v1(2)]))))
        report = validate_partition(g, col, parts)
        assert report.violations == reference_validate_partition(g, col, parts) == [
            "coverage: 1 vertices missing, e.g. 2:2"]

    def test_partition_overlap_at_part_2_vertices(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, BLUE)
        parts = MonoPartition(((BLUE, frozenset([v1(0), v2(1), v2(2)])),
                               (BLUE, frozenset([v1(1), v2(2), v2(1)])),
                               (BLUE, frozenset([v1(1), v1(2), v2(0), v2(1)]))))
        report = validate_partition(g, col, parts)
        assert report.violations == reference_validate_partition(g, col, parts) == [
            "part 1 overlaps an earlier part at 2:1",
            "part 2 overlaps an earlier part at 1:1"]

    @pytest.mark.parametrize("colour, vertices, message", [
        (RED, [v1(0), v2(0), v1(1), v2(1)], "vertex set is not connected in R: 2 unreachable"),
        (BLUE, [v2(2), v1(1), v2(1)], "vertex set is not connected in B: 1 unreachable"),
        (BLUE, [v2(1), v2(2)], "vertex set is not connected in B: 1 unreachable"),
    ])
    def test_not_connected_message(self, colour, vertices, message):
        g, col = matching_graph()
        with pytest.raises(NotConnectedError) as exc:
            spanning_tree_of(g, col, colour, vertices)
        assert str(exc.value) == message

    def test_tree_edges_level_by_level(self):
        # Levels alternate parts; every edge is still written (part 1, part 2).
        g = BipartiteGraph.complete(2, 3)
        col = TwoColouring.monochromatic(g, BLUE)
        tree = spanning_tree_of(g, col, BLUE, [v2(2), v1(1), v2(0), v1(0)])
        assert tree.edges == ((v1(0), v2(0)), (v1(0), v2(2)), (v1(1), v2(0)))
        tree = spanning_tree_of(g, col, BLUE, [v2(1)])
        assert (tree.vertices, tree.edges) == (frozenset([v2(1)]), ())


def test_broken_covers_agree_with_naive():
    # mutate a valid cover three ways; both validators must reject each
    g = BipartiteGraph.complete(3, 3)
    col = TwoColouring.monochromatic(g, RED)
    tree = spanning_tree_of(g, col, RED, g.vertices())
    good = TreeCover((tree,), frozenset())
    assert validate_cover(g, col, good).ok and naive_validate_cover(g, col, good)

    recoloured = TreeCover((MonoTree(BLUE, tree.vertices, tree.edges),), frozenset())
    missing_edge = TreeCover((MonoTree(RED, tree.vertices, tree.edges[:-1]),),
                             frozenset())
    double_booked = TreeCover((tree,), frozenset([v1(0)]))
    for broken in (recoloured, missing_edge, double_booked):
        assert not validate_cover(g, col, broken).ok
        assert not naive_validate_cover(g, col, broken)


def test_partition_validator_agrees_with_naive():
    g, col = matching_graph()
    good = MonoPartition((
        (RED, frozenset([v1(0), v2(0)])),
        (BLUE, frozenset([v1(1), v2(1)])),
        (BLUE, frozenset([v1(2), v2(2)])),
    ))
    assert validate_partition(g, col, good).ok
    assert naive_validate_partition(g, col, good)
    bad = MonoPartition((
        (RED, frozenset([v1(0), v2(0), v1(1), v2(1)])),
        (BLUE, frozenset([v1(2), v2(2)])),
    ))
    assert not validate_partition(g, col, bad).ok
    assert not naive_validate_partition(g, col, bad)


BIT_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 1000)


def bit_rows(count: int, width: int, fill: str, seed: int = 0) -> tuple[int, ...]:
    full = (1 << width) - 1
    if fill == "zero":
        return (0,) * count
    if fill == "one":
        return (full,) * count
    rng = random.Random(seed * 10007 + width * 31 + count)
    return tuple(rng.getrandbits(width) for _ in range(count))


masks_to_300_bits = st.integers(0, 300).flatmap(lambda w: st.integers(0, (1 << w) - 1))


class TestSharedVertices:
    @settings(max_examples=200, deadline=None)
    @given(masks_to_300_bits)
    @example(0)
    @example((1 << 300) - 1)  # past the numpy switch
    def test_bit_indices_match_iter_bits(self, mask):
        got = bit_indices(mask)
        assert got == list(iter_bits(mask))
        assert all(type(i) is int for i in got)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2)), masks_to_300_bits, masks_to_300_bits)
    def test_part_vertices_and_vertex_set_match_naive(self, part, mask, other):
        naive = [Vertex(part, i) for i in iter_bits(mask)]
        got = part_vertices(part, mask)
        assert got == naive and list(map(hash, got)) == list(map(hash, naive))
        assert all(type(v) is Vertex and type(v.index) is int for v in got)
        naive_set = set(naive) | {Vertex(3 - part, i) for i in iter_bits(other)}
        masks = (mask, other) if part == 1 else (other, mask)
        assert sorted(vertex_set(*masks)) == sorted(naive_set)
        assert {hash(v) for v in vertex_set(*masks)} == set(map(hash, naive_set))

    def test_a_grown_table_gives_back_the_same_objects(self, monkeypatch):
        monkeypatch.setattr(graph, "_VERTEX_TABLES", {1: (), 2: ()})
        small = vertex_table(2, 4)
        big = vertex_table(2, 1000)
        assert (len(small), len(big)) == (4, 1000)
        assert all(a is b for a, b in zip(small, big))
        assert vertex_table(2, 10) is big and part_vertices(2, 0b1001)[1] is big[3]
        assert next(BipartiteGraph.complete(3, 2).vertices()) is vertex_table(1, 1)[0]

    def test_threads_growing_the_tables_read_complete_ones(self, monkeypatch):
        # Four threads grow both tables width by width while reading them.
        monkeypatch.setattr(graph, "_VERTEX_TABLES", {1: (), 2: ()})

        def wrong_widths(start):
            wrong = []
            for width in range(start, 1200, 4):
                for part in (1, 2):
                    mask = (1 << width) - 1 ^ (1 << width // 2)
                    if part_vertices(part, mask) != [Vertex(part, i) for i in iter_bits(mask)]:
                        wrong.append((part, width))
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(wrong_widths, k) for k in range(1, 5)]
                assert [f.result(timeout=120) for f in futures] == [[]] * 4
        finally:
            sys.setswitchinterval(interval)
        for part in (1, 2):
            assert vertex_table(part, 1199)[:1199] == tuple(Vertex(part, i) for i in range(1199))


class TestBitMatrix:
    @pytest.mark.parametrize("width", BIT_WIDTHS)
    @pytest.mark.parametrize("count", (1, 5, 66))
    @pytest.mark.parametrize("fill", ("random", "zero", "one"))
    def test_kernel_matches_per_bit_oracle(self, width, count, fill):
        rows = bit_rows(count, width, fill)
        matrix = rows_to_matrix(rows, width)
        assert matrix.dtype == np.uint8 and matrix.shape == (count, width)
        assert matrix.tolist() == naive_matrix(rows, width)
        assert rows_from_matrix(matrix) == rows
        assert rows_from_matrix(matrix.astype(bool)) == rows
        assert transpose_rows(rows, width) == naive_transpose(rows, width)

    @pytest.mark.parametrize("width", BIT_WIDTHS)
    def test_transpose_round_trip(self, width):
        for seed in range(3):
            rows = bit_rows(width + 3, width, "random", seed)
            back = transpose_rows(transpose_rows(rows, width), len(rows))
            assert back == rows

    def test_transposed_view_packs_like_a_copy(self):
        rows = bit_rows(9, 70, "random")
        view = rows_to_matrix(rows, 70).T
        assert rows_from_matrix(view) == rows_from_matrix(view.copy())
        assert rows_from_matrix(view) == naive_transpose(rows, 70)

    def test_empty_shapes(self):
        assert transpose_rows((), 5) == (0,) * 5
        assert transpose_rows((0, 0), 0) == ()
        assert rows_to_matrix((), 9).shape == (0, 9)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2 ** 32 - 1),
           st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    @example(1, 1, 0, 1.0)  # one cell
    @example(1, 70, 3, 0.5)  # one row
    @example(70, 1, 3, 0.5)  # one column
    @example(13, 61, 5, 0.5)  # neither side a multiple of 8: both sides padded
    @example(64, 64, 5, 1.0)  # whole 8x8 blocks only
    def test_both_sides_match_packing_each_side(self, n1, n2, seed, density):
        matrix = (np.random.default_rng(seed).random((n1, n2)) < density).astype(np.uint8)
        rows, cols = rows_and_transpose(matrix)
        assert rows == rows_from_matrix(matrix)
        assert cols == rows_from_matrix(matrix.T)
        assert rows_and_transpose(matrix.astype(bool)) == (rows, cols)
        assert transpose_rows(rows, n2) == cols
        assert transpose_rows(cols, n1) == rows

    def test_unbalanced_graph_rows_agree(self):
        g = sample_bipartite(ModelParams(13, 70, Fraction(1, 3)), 4)
        rows1 = tuple(g.row(1, i) for i in range(13))
        rows2 = tuple(g.row(2, j) for j in range(70))
        assert transpose_rows(rows1, 70) == rows2 == naive_transpose(rows1, 70)
        assert transpose_rows(rows2, 13) == rows1


def edge_rows(n1, n2, edges):
    i = np.array([e[0] for e in edges], dtype=np.int64)
    j = np.array([e[1] for e in edges], dtype=np.int64)
    return rows_from_edges(n1, n2, i, j)


class TestRowsFromEdges:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (3, 70), (65, 9)])
    def test_no_edges(self, n1, n2):
        assert edge_rows(n1, n2, []) == ((0,) * n1, (0,) * n2)

    @pytest.mark.parametrize("width", BIT_WIDTHS[:-1] + (16, 17))
    def test_single_edge_at_each_byte_boundary(self, width):
        ends = sorted({0, width - 1} | {b + d for b in range(8, width, 8) for d in (-1, 0)})
        for k in ends:
            for edge in [(0, k), (k, width - 1 - k)]:
                assert edge_rows(width, width, [edge]) == \
                    naive_rows_from_edges(width, width, [edge])
            assert edge_rows(3, width, [(2, k)]) == naive_rows_from_edges(3, width, [(2, k)])
            assert edge_rows(width, 3, [(k, 1)]) == naive_rows_from_edges(width, 3, [(k, 1)])

    @pytest.mark.parametrize("n1,n2", [(7, 65), (64, 9), (63, 63)])
    def test_edge_order_does_not_matter(self, n1, n2):
        rng = random.Random(n1 * 101 + n2)
        edges = [(i, j) for i in range(n1) for j in range(n2) if rng.random() < 0.3]
        expected = naive_rows_from_edges(n1, n2, edges)
        for _ in range(3):
            rng.shuffle(edges)
            assert edge_rows(n1, n2, edges) == expected
        assert edge_rows(n1, n2, edges + edges[:5]) == expected


MASKED_WIDTHS = (1, 7, 64, 65, 300)  # 65 and 300: frontiers expand through bit_indices


class TestMaskedComponents:
    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from(MASKED_WIDTHS), st.sampled_from(MASKED_WIDTHS),
           st.sampled_from(("empty", "full", "random", "default")),
           st.integers(1, 4), st.randoms(use_true_random=False))
    def test_matches_naive_induced_bfs(self, n1, n2, masks, sparsity, rng):
        # Each row bit is set with probability 2**-sparsity.
        rows1 = []
        for _ in range(n1):
            row = (1 << n2) - 1
            for _ in range(sparsity):
                row &= rng.getrandbits(n2)
            rows1.append(row)
        rows2 = naive_transpose(rows1, n2)
        full1, full2 = (1 << n1) - 1, (1 << n2) - 1
        if masks == "default":
            assert components_from_rows(n1, n2, rows1, rows2) == \
                naive_components(n1, n2, rows1, full1, full2)
            return
        m1, m2 = {"empty": (0, 0), "full": (full1, full2),
                  "random": (rng.getrandbits(n1), rng.getrandbits(n2))}[masks]
        comps = components_from_rows(n1, n2, rows1, rows2, m1, m2)
        assert comps == naive_components(n1, n2, rows1, m1, m2)
        # The components partition exactly the masked vertex set.
        assert sum(c1.bit_count() + c2.bit_count() for c1, c2 in comps) == \
            m1.bit_count() + m2.bit_count()
        assert all(c1 & ~m1 == 0 and c2 & ~m2 == 0 for c1, c2 in comps)

    def test_one_mask_side_empty(self):
        g = BipartiteGraph.complete(3, 4)
        rows1 = tuple(g.row(1, i) for i in range(3))
        rows2 = tuple(g.row(2, j) for j in range(4))
        # With no part-2 vertex left, the part-1 vertices are isolated.
        assert components_from_rows(3, 4, rows1, rows2, 0b101, 0) == [(0b1, 0), (0b100, 0)]
        assert components_from_rows(3, 4, rows1, rows2, 0, 0b11) == [(0, 0b1), (0, 0b10)]
        assert components_from_rows(3, 4, rows1, rows2, 0b10, 0b1000) == [(0b10, 0b1000)]


class TestColouringLayers:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n1,n2", [(1, 1), (7, 65), (64, 9), (30, 30)])
    def test_blue_layer_is_adjacency_minus_red(self, seed, n1, n2):
        g = sample_bipartite(ModelParams(n1, n2, Fraction(2, 3)), seed)
        col = sample_colouring(g, Fraction(1, 3), seed)
        red1, red2 = col.layer_rows(RED)
        blue1, blue2 = col.layer_rows(BLUE)
        assert blue1 == tuple(g.row(1, i) & ~red1[i] for i in range(n1))
        assert blue2 == tuple(g.row(2, j) & ~red2[j] for j in range(n2))
        assert red2 == naive_transpose(red1, n2)
        for colour, (rows1, rows2) in ((RED, (red1, red2)), (BLUE, (blue1, blue2))):
            assert [col.coloured_row(1, i, colour) for i in range(n1)] == list(rows1)
            assert [col.coloured_row(2, j, colour) for j in range(n2)] == list(rows2)
        swapped = col.swapped()
        assert swapped.layer_rows(RED) == (blue1, blue2)
        assert swapped.layer_rows(BLUE) == (red1, red2)
        assert all(col.colour_of(i, j) is c for i, j, c in col.edge_colours())

    def test_r_colouring_equality_is_structural(self):
        g = BipartiteGraph.complete(2, 3)
        colours = {(i, j): (i + j) % 3 for i, j in g.edges()}
        a = RColouring.from_edge_map(g, 3, colours)
        b = RColouring.from_edge_map(g, 3, dict(colours))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        colours[(0, 0)] = 1
        assert RColouring.from_edge_map(g, 3, colours) != a
        # The same colour per edge plus one unused colour is another colouring.
        assert RColouring.from_edge_map(g, 4, {e: b.colour_of(*e) for e in g.edges()}) != a

    @pytest.mark.parametrize("seed", range(12))
    def test_colour_of_visits_used_layers_like_a_full_scan(self, seed):
        rnd = random.Random(seed)
        n1, n2, r = rnd.randint(1, 7), rnd.randint(1, 7), rnd.randint(1, 9)
        g = sample_bipartite(ModelParams(n1, n2, Fraction(rnd.randint(0, 4), 4)), seed)
        palette = rnd.sample(range(r), rnd.randint(1, r))  # some colours unused
        col = RColouring.from_edge_map(g, r, {e: rnd.choice(palette) for e in g.edges()})
        assert col.used_colours == tuple(c for c in range(r) if any(col.layer_rows(c)[0]))
        for i, j in g.edges():
            assert col.colour_of(i, j) == naive_colour_of(col, i, j)
        for i in range(n1):
            for j in range(n2):
                if not g.has_edge(i, j):
                    with pytest.raises(InvalidArgumentError):
                        col.colour_of(i, j)

    def test_colour_of_on_sparse_high_colour_indices(self):
        # Colour indices 0 and n1*n2 - 1 only: 14,400 layers, two in use.
        g, col = parse_graph("bipartite 120 120\n" + "".join(
            f"{a} {a * 7 % 120} {14399 if a % 2 else 0}\n" for a in range(120)))
        assert col.num_colours == 14400 and col.used_colours == (0, 14399)
        for i, j in g.edges():
            assert col.colour_of(i, j) == naive_colour_of(col, i, j) == (14399 if i % 2 else 0)

    def test_edge_map_cost_follows_colours_in_use(self, monkeypatch):
        # Colour indices 0 and n1*n2 - 1 only: 14,400 layers, two built and
        # two checked against their transpose, one per colour in use.
        g = BipartiteGraph.complete(120, 120)
        colours = {(i, j): 14399 if (i + j) % 2 else 0 for i, j in g.edges()}
        calls = {"rows_from_edges": 0, "transpose_rows": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(graph, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(graph, name, counted)
        col = RColouring.from_edge_map(g, 14400, colours)
        assert calls == {"rows_from_edges": 2, "transpose_rows": 2}
        assert (g, col) == parse_graph(write_graph(g, col))
        assert col.used_colours == (0, 14399)

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_edge_map_layers_match_a_per_edge_build(self, data):
        n1 = data.draw(st.integers(1, 6))
        n2 = data.draw(st.integers(3 if n1 == 1 else 2 if n1 == 2 else 1, 6))
        cells = data.draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))
        edges = [divmod(k, n2) for k, on in enumerate(cells) if on] or [(0, 0)]
        # A few sparse indices below n1*n2, the largest at least 2.
        top = data.draw(st.integers(2, n1 * n2 - 1))
        palette = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3)) + [top]
        picks = [top] + data.draw(st.lists(st.sampled_from(palette), min_size=len(edges) - 1,
                                           max_size=len(edges) - 1))
        colours = dict(zip(data.draw(st.permutations(edges)), picks))
        r = max(colours.values()) + 1
        g = BipartiteGraph.from_edges(n1, n2, edges)
        col = RColouring.from_edge_map(g, r, colours)
        assert r >= 3 and parse_graph(write_graph(g, col)) == (g, col)
        assert [col.layer_rows(c) for c in range(r)] == [
            naive_rows_from_edges(n1, n2, [e for e, k in colours.items() if k == c])
            for c in range(r)]

    def test_two_colouring_differs_from_r_colouring_with_its_layers(self):
        g, col = matching_graph()
        as_r = RColouring.from_edge_map(g, 2, {(i, j): int(c) for i, j, c in col.edge_colours()})
        assert [as_r.layer_rows(c) for c in (0, 1)] == [col.layer_rows(c) for c in (RED, BLUE)]
        assert as_r != col and col != as_r
        assert isinstance(col, RColouring) and type(as_r) is RColouring
        assert col.colour_of(0, 0) is RED and type(as_r.colour_of(0, 0)) is int


def k44_minus_00():
    return BipartiteGraph.from_edges(4, 4, [(i, j) for i in range(4) for j in range(4)
                                            if (i, j) != (0, 0)])


class TestTwoColouringChecks:
    def test_red_bit_on_a_non_edge_rejected(self):
        # Kept before the constructor checked its rows: 1:0-2:0 became a
        # red component of a graph without that edge.
        g = k44_minus_00()
        with pytest.raises(InvalidArgumentError, match="red row of 1:0 marks a non-edge"):
            TwoColouring(g, (1, 0, 0, 0), (1, 0, 0, 0))

    def test_bad_part2_row_alone_rejected(self):
        g = k44_minus_00()
        with pytest.raises(InvalidArgumentError, match="red row of 2:0 marks a non-edge"):
            TwoColouring(g, (0, 0, 0, 0), (1, 0, 0, 0))

    def test_missing_rows_rejected(self):
        g = k44_minus_00()
        with pytest.raises(InvalidArgumentError, match="one red row per part-1 vertex required"):
            TwoColouring(g, (), ())
        with pytest.raises(InvalidArgumentError, match="one red row per part-2 vertex required"):
            TwoColouring(g, (0, 0, 0, 0), (0, 0, 0))

    @pytest.mark.parametrize("row", (1 << 4, 1 << 70, -1))
    def test_row_off_the_part_rejected_before_the_transpose(self, row):
        g = BipartiteGraph.complete(4, 4)
        with pytest.raises(InvalidArgumentError, match="red row of 1:2 marks a non-edge"):
            TwoColouring.from_red_rows(g, (0, 0, row, 0))

    def test_checked_rows_build_the_same_colouring(self):
        g = k44_minus_00()
        red1 = tuple(g.row(1, i) & 0b0101 for i in range(4))
        col = TwoColouring(g, red1, transpose_rows(red1, 4))
        assert col == TwoColouring.from_red_rows(g, red1)
        assert col.swapped().swapped() == col


class TestDerivedPart2Rows:
    """``from_rows``, ``complete``, ``from_red_rows`` and ``monochromatic``
    derive the part-2 rows; only the plain constructors take them."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 70), st.integers(1, 70), st.data())
    def test_from_rows_transposes_part_1(self, n1, n2, data):
        rows1 = data.draw(st.lists(st.integers(0, (1 << n2) - 1), min_size=n1, max_size=n1))
        g = BipartiteGraph.from_rows(n1, n2, rows1)
        assert g.rows(2) == transpose_rows(tuple(rows1), n2)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 5), (4, 3), (9, 17), (70, 8)])
    def test_complete_has_every_pair(self, n1, n2):
        g = BipartiteGraph.complete(n1, n2)
        every = BipartiteGraph.from_edges(n1, n2, [(i, j) for i in range(n1) for j in range(n2)])
        assert g == every
        assert g.rows(2) == every.rows(2)

    @pytest.mark.parametrize("n1, n2", [(2, -1), (-1, 2), (0, 0)])
    def test_complete_checks_sizes_before_building_rows(self, n1, n2):
        with pytest.raises(InvalidArgumentError, match="both parts must be nonempty"):
            BipartiteGraph.complete(n1, n2)

    @pytest.mark.parametrize("seed", range(4))
    def test_monochromatic_has_the_explicit_red_rows(self, seed):
        g = sample_bipartite(ModelParams(9, 13, Fraction(1, 2)), seed)
        explicit = {RED: (g.rows(1), g.rows(2)), BLUE: ((0,) * 9, (0,) * 13)}
        for colour, red in explicit.items():
            col, expected = TwoColouring.monochromatic(g, colour), TwoColouring(g, *red)
            assert [col.layer_rows(c) for c in (RED, BLUE)] == \
                [expected.layer_rows(c) for c in (RED, BLUE)]

    def test_no_part_2_rows_argument(self):
        # A second rows argument was taken unchecked: from_rows(2, 2, [1, 0],
        # [3, 3]) equalled from_rows(2, 2, [1, 0]) with other part-2 rows.
        with pytest.raises(TypeError):
            BipartiteGraph.from_rows(2, 2, [1, 0], [3, 3])
        with pytest.raises(TypeError):
            TwoColouring.from_red_rows(BipartiteGraph.complete(2, 2), (1, 0), (3, 3))


class TestRColouringPartition:
    """RColouring(graph, layers) takes part-1 layer rows that partition E(G)."""

    @pytest.mark.parametrize("layers", [
        # (0,1) and (1,0) lie in no layer.
        [((1, 0), (1, 0)), ((0, 2), (0, 2)), ((0, 0), (0, 0))],
        # (0,0) lies in both layers.
        [((3, 3), (3, 3)), ((1, 0), (1, 0))],
        # No layer at all.
        [],
    ])
    def test_layers_missing_or_repeating_an_edge_rejected(self, layers):
        with pytest.raises(InvalidArgumentError) as exc:
            RColouring(BipartiteGraph.complete(2, 2), layers)
        assert str(exc.value) == "colouring must cover every edge exactly once"

    def test_non_edge_rejected(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(InvalidArgumentError) as exc:
            RColouring(g, [((1, 0), (1, 0)), ((0, 3), (2, 2))])
        assert str(exc.value) == "a layer row of 1:1 marks a non-edge"

    @pytest.mark.parametrize("layers", [[((3,), (3, 3))], [((3, 3), (3, 3)), ((0, 0), (0,))]])
    def test_row_counts_checked(self, layers):
        with pytest.raises(InvalidArgumentError) as exc:
            RColouring(BipartiteGraph.complete(2, 2), layers)
        assert str(exc.value) == f"layer {len(layers) - 1} needs 2 part-1 and 2 part-2 rows"

    def test_edge_map_missing_an_edge_keeps_its_message(self):
        g = BipartiteGraph.complete(2, 2)
        with pytest.raises(InvalidArgumentError) as exc:
            RColouring.from_edge_map(g, 3, {(0, 0): 0, (1, 1): 2, (1, 0): 1})
        assert str(exc.value) == "colouring must cover every edge exactly once"

    def test_partitioning_layers_accepted(self):
        g = BipartiteGraph.complete(2, 2)
        col = RColouring(g, [((1, 0), (1, 0)), ((0, 0), (0, 0)), ((2, 3), (2, 3))])
        assert col == RColouring.from_edge_map(g, 3, {(0, 0): 0, (0, 1): 2, (1, 0): 2,
                                                      (1, 1): 2})
        assert col.used_colours == (0, 2)


def test_graph_imports_nothing_of_the_package_but_errors():
    # The validators must not depend on the constructions they referee.
    tree = ast.parse(Path(__file__).parent.parent.joinpath("src/bipcover/graph.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("bipcover")):
            package.add((node.level, node.module))
        elif isinstance(node, ast.Import):
            package.update((0, a.name) for a in node.names if a.name.startswith("bipcover"))
    assert package == {(1, "errors")}


FOREIGN = ("3:0", "1:n+2", "2:-1")
MUTATIONS = ("drop-edge", "add-edge", "flip-colour", "drop-vertex", "copy-to-uncovered",
             "foreign-in-tree", "foreign-in-uncovered", "reverse-edge", "part1-edge", "split")


def tree_side(edges, start):
    """The vertices joined to ``start`` by ``edges``."""
    side, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in side:
                    side.add(y)
                    stack.append(y)
    return side


def mutated(data, g, cover):
    """``cover`` with one drawn mutation applied."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    trees, uncovered = list(cover.trees), set(cover.uncovered)
    foreign = {"3:0": Vertex(3, 0), "1:n+2": Vertex(1, g.n1 + 2),
               "2:-1": Vertex(2, -1)}[data.draw(st.sampled_from(FOREIGN))]
    if kind == "foreign-in-uncovered" or not trees:
        return TreeCover(cover.trees, frozenset(uncovered | {foreign}))
    t = data.draw(st.integers(0, len(trees) - 1))
    colour, vertices, edges = trees[t].colour, set(trees[t].vertices), list(trees[t].edges)
    k = data.draw(st.integers(0, max(len(edges) - 1, 0)))
    some_vertex = data.draw(st.sampled_from(sorted(vertices))) if vertices else foreign
    i, i2 = data.draw(st.integers(0, g.n1 - 1)), data.draw(st.integers(0, g.n1 - 1))
    j = data.draw(st.integers(0, g.n2 - 1))
    if kind == "drop-edge" and edges:
        del edges[k]
    elif kind == "add-edge":
        edges.append((Vertex(1, i), Vertex(2, j)))
    elif kind == "flip-colour":
        colour = colour.other
    elif kind == "drop-vertex":
        vertices.discard(some_vertex)
    elif kind == "copy-to-uncovered":
        uncovered.add(some_vertex)
    elif kind == "foreign-in-tree":
        vertices.add(foreign)
    elif kind == "reverse-edge" and edges:
        edges[k] = edges[k][::-1]
    elif kind == "part1-edge":
        edges.append((Vertex(1, i), Vertex(1, i2)))
    elif kind == "split" and edges:
        # Cut edge k: two trees, each valid if the original was.
        rest = edges[:k] + edges[k + 1:]
        side = tree_side(rest, edges[k][0])
        trees.insert(t + 1, MonoTree(colour, frozenset(vertices - side),
                                     tuple(e for e in rest if e[0] not in side)))
        vertices &= side
        edges = [e for e in rest if e[0] in side]
    trees[t] = MonoTree(colour, frozenset(vertices), tuple(edges))
    return TreeCover(tuple(trees), frozenset(uncovered))


class TestValidatorOracle:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(6, 40), st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))),
           st.integers(0, 2 ** 32), st.booleans(), st.data())
    def test_violations_match_the_reference_validator(self, n, p, seed, lower3, data):
        g = sample_bipartite(ModelParams(n, n, p), seed)
        col = sample_colouring(g, Fraction(1, 2), seed)
        if lower3:
            try:
                col, _ = colour_lower3(g)
            except ConstructionInfeasibleError:
                pass
        try:
            cover, _ = almost_cover(g, col, CoverParams(p=p, seed=seed))
        except PropertyFailureError as exc:
            assert exc.step == "heavy-sets"
            return
        assert validate_cover(g, col, cover).violations == []
        assert reference_validate_cover(g, col, cover) == []
        for _ in range(data.draw(st.integers(1, 3))):
            cover = mutated(data, g, cover)
            assert validate_cover(g, col, cover).violations == \
                reference_validate_cover(g, col, cover)


def test_cover_oracle_input_without_heavy_sets():
    # Drawn once by the oracle above: under lower3 one colour has no heavy
    # vertex and neither colour spans the host.
    g = sample_bipartite(ModelParams(6, 6, Fraction(1, 3)), 1054)
    col, _ = colour_lower3(g)
    with pytest.raises(PropertyFailureError) as exc:
        almost_cover(g, col, CoverParams(p=Fraction(1, 3), seed=1054))
    assert exc.value.step == "heavy-sets"


PARTITION_MUTATIONS = ("drop-vertex", "move-vertex", "duplicate-vertex", "flip-colour",
                       "foreign-vertex", "empty-part", "split-part")


def mutated_partition(data, g, partition):
    """``partition`` with one drawn mutation applied."""
    kind = data.draw(st.sampled_from(PARTITION_MUTATIONS))
    parts = [(colour, set(part)) for colour, part in partition.parts]
    k, other = (data.draw(st.integers(0, len(parts) - 1)) for _ in range(2))
    colour, part = parts[k]
    v = data.draw(st.sampled_from(sorted(part))) if part else None
    if kind == "foreign-vertex" or v is None:
        part.add({"3:0": Vertex(3, 0), "1:n+2": Vertex(1, g.n1 + 2),
                  "2:-1": Vertex(2, -1)}[data.draw(st.sampled_from(FOREIGN))])
    elif kind == "drop-vertex":
        part.discard(v)
    elif kind == "move-vertex":
        part.discard(v)
        parts[other][1].add(v)
    elif kind == "duplicate-vertex":
        parts[other][1].add(v)
    elif kind == "flip-colour":
        parts[k] = (colour.other, part)
    elif kind == "empty-part":
        part.clear()
    else:  # split-part: a drawn nonempty share of the part becomes a part of its own
        share = set(data.draw(st.lists(st.sampled_from(sorted(part)), min_size=1)))
        if share != part:
            parts.insert(k + 1, (colour, share))
            part -= share
    return MonoPartition(tuple((c, frozenset(p)) for c, p in parts))


class TestPartitionValidatorOracle:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(16, 64), st.sampled_from((Fraction(1, 100), Fraction(1, 20),
                                                  Fraction(1, 10))),
           st.integers(0, 2 ** 32), st.sampled_from(("uniform", "rows", "lower3")),
           st.booleans(), st.data())
    def test_violations_match_the_reference_validator(self, n, delta, seed, source, swap,
                                                      data):
        g = sample_mindeg_subgraph(n, Fraction(13, 16) + delta, seed)
        try:
            if source == "uniform":
                col = sample_colouring(g, data.draw(st.sampled_from(
                    (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))), seed)
            elif source == "rows":
                cut = data.draw(st.integers(0, n))
                col = TwoColouring.from_red_rows(g, [g.row(1, i) * (i < cut) for i in range(n)])
            else:
                col, _ = colour_lower3(g)
            col = col.swapped() if swap else col
            partition, _ = partition3(g, col, PartitionParams(delta=delta, seed=seed))
        except (ConstructionInfeasibleError, PartitionFailureError):
            return
        assert validate_partition(g, col, partition).violations == []
        assert reference_validate_partition(g, col, partition) == []
        for _ in range(data.draw(st.integers(1, 3))):
            partition = mutated_partition(data, g, partition)
            assert validate_partition(g, col, partition).violations == \
                reference_validate_partition(g, col, partition)


def _matching_colouring():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    return g, TwoColouring.monochromatic(g, RED)


GRAPH_INPUT_ERRORS = [
    ("index-beyond-int64", lambda: BipartiteGraph.from_edges(2, 2, [(0, 0), (2 ** 70, 1)]),
     f"edge ({2 ** 70},1) out of range"),
    ("from-rows-empty-part", lambda: BipartiteGraph.from_rows(0, 2, []),
     "both parts must be nonempty"),
    ("complete-empty-part", lambda: BipartiteGraph.complete(0, 3), "both parts must be nonempty"),
    ("complete-float-part", lambda: BipartiteGraph.complete(2.5, 3),
     "part sizes must be integers"),
    ("complete-str-part", lambda: BipartiteGraph.complete("3", 2), "part sizes must be integers"),
    ("from-edges-float-part", lambda: BipartiteGraph.from_edges(2.5, 3, []),
     "part sizes must be integers"),
    ("from-rows-float-part", lambda: BipartiteGraph.from_rows(2, 2.5, [0, 0]),
     "part sizes must be integers"),
    ("from-rows-whole-float-part", lambda: BipartiteGraph.from_rows(2.0, 0, []),
     "part sizes must be integers"),
    ("part-1-row-count", lambda: BipartiteGraph.from_rows(2, 2, [1]),
     "expected 2 part-1 rows, got 1"),
    ("part-size-of-part-3", lambda: BipartiteGraph.complete(2, 2).part_size(3),
     "part must be 1 or 2, got 3"),
    ("row-of-part-0", lambda: BipartiteGraph.complete(2, 2).row(0, 0),
     "part must be 1 or 2, got 0"),
    ("no-colours", lambda: RColouring.from_edge_map(BipartiteGraph.complete(1, 1), 0, {}),
     "need at least one colour"),
    ("non-edge-key", lambda: RColouring.from_edge_map(_matching_colouring()[0], 2,
                                                      {(0, 0): 0, (0, 1): 1}),
     "(0,1) is not an edge"),
    ("tree-on-no-vertices", lambda: spanning_tree_of(*_matching_colouring(), RED, []),
     "cannot build a tree on no vertices"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in GRAPH_INPUT_ERRORS],
                         ids=[case[0] for case in GRAPH_INPUT_ERRORS])
def test_graph_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message


def test_graph_repr():
    assert repr(BipartiteGraph.complete(2, 3)) == "BipartiteGraph(n1=2, n2=3, edges=6)"


def test_validate_cover_flags_a_tree_without_vertices():
    g, col = _matching_colouring()
    cover = TreeCover((MonoTree(RED, frozenset(), ()),), frozenset(g.vertices()))
    assert validate_cover(g, col, cover).violations == ["tree 0: empty vertex set"]


@pytest.mark.parametrize("call, message", [
    (lambda: BipartiteGraph.from_edges(2, 2, [(0.5, 1)]), "edge (0.5,1) out of range"),
    (lambda: BipartiteGraph.from_edges(2, 2, [(0, 1), ("a", 1)]), "edge (a,1) out of range"),
    (lambda: RColouring.from_edge_map(BipartiteGraph.complete(2, 2), 2, {(0.5, 1): 0}),
     "(0.5,1) is not an edge"),
    (lambda: RColouring.from_edge_map(BipartiteGraph.complete(2, 2), 2, {(1, 1.0): 0}),
     "(1,1.0) is not an edge"),
], ids=("float-endpoint", "string-endpoint", "float-key", "float-key-on-an-edge"))
def test_non_integer_endpoints_rejected(call, message):
    # These used to be truncated to an edge or to fail with a bare ValueError.
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message


def test_numpy_integer_endpoints_accepted():
    i, j = np.int64(1), np.int64(0)
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (i, j)])
    assert g == BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0)])
    assert RColouring.from_edge_map(g, 3, {(0, 0): 2, (i, j): np.int64(1)}) == \
        RColouring.from_edge_map(g, 3, {(0, 0): 2, (1, 0): 1})


def test_numpy_integer_part_sizes_accepted():
    n1, n2 = np.int64(2), np.uint8(3)
    assert BipartiteGraph.complete(n1, n2) == BipartiteGraph.complete(2, 3)
    assert BipartiteGraph.from_edges(n1, n2, [(1, 2)]) == BipartiteGraph.from_edges(2, 3, [(1, 2)])
    assert BipartiteGraph.from_rows(n1, n2, [1, 6]) == BipartiteGraph.from_rows(2, 3, [1, 6])


@pytest.mark.parametrize("colours, message", [
    # Type before range, both before the first non-edge key.
    ({(0, 0): 7, (1, 1): "R", (0, 1): 0}, "colour 'R' is not an integer"),
    # A bad type after the first non-edge key is never looked at.
    ({(0, 0): 7, (0, 1): 0, (1, 1): "R"}, "colour 7 out of range 0..1"),
    ({(1, 1): 1, (1, 0): 7, (0, 0): "R"}, "(1,0) is not an edge"),
], ids=("type-first", "range-before-non-edge", "non-edge-last"))
def test_edge_map_errors_keep_their_order(colours, message):
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(InvalidArgumentError) as exc:
        RColouring.from_edge_map(g, 2, colours)
    assert str(exc.value) == message


@pytest.mark.parametrize("edges, layers, bad", [
    # K_{2,2} in one layer with empty part-2 rows: tc_exact answered 2, tc is 1.
    ([(0, 0), (0, 1), (1, 0), (1, 1)], [((3, 3), (0, 0))], 0),
    ([(0, 0), (1, 1)], [((1, 2), (2, 1))], 0),
    ([(0, 0), (1, 1)], [((1, 2), (1, 2)), ((0, 0), (1, 0))], 1),
], ids=("empty-part-2", "swapped-part-2", "unused-layer-with-a-bit"))
def test_r_colouring_part2_rows_must_be_the_transpose(edges, layers, bad):
    with pytest.raises(InvalidArgumentError) as exc:
        RColouring(BipartiteGraph.from_edges(2, 2, edges), layers)
    assert str(exc.value) == f"layer {bad} part-2 rows are not its part-1 transpose"


ODD = Vertex(1, 0.5)


def test_validators_report_a_non_integer_index_as_foreign():
    g, col = _matching_colouring()
    tree = MonoTree(RED, frozenset({v1(0), v2(0)}), ((v1(0), v2(0)),))
    covers = {
        "tree": TreeCover((MonoTree(RED, tree.vertices | {ODD}, tree.edges),),
                          frozenset({v1(1), v2(1)})),
        "uncovered": TreeCover((tree,), frozenset({v1(1), v2(1), ODD})),
    }
    expected = {"tree": ["tree 0: vertex 1:0.5 not in graph",
                         "coverage: 1 foreign vertices, e.g. 1:0.5"],
                "uncovered": ["coverage: 1 foreign vertices, e.g. 1:0.5"]}
    for where, cover in covers.items():
        assert validate_cover(g, col, cover).violations == expected[where] == \
            reference_validate_cover(g, col, cover)
    partition = MonoPartition(((RED, frozenset({v1(0), v2(0), ODD})),
                               (RED, frozenset({v1(1), v2(1)}))))
    assert validate_partition(g, col, partition).violations == \
        ["part 0: vertex 1:0.5 not in graph"] == reference_validate_partition(g, col, partition)
