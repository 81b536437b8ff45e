"""Exact solvers against independent enumeration oracles."""

from fractions import Fraction

import pytest

from bipcover import (BLUE, RED, BipartiteGraph, RColouring, TwoColouring, Vertex,
                      exhaustive_knn_check, sample_bipartite, sample_colouring,
                      tc_exact, tp_exact, validate_partition)
from bipcover import exact
from bipcover.errors import TooLargeError
from bipcover.formats import parse_graph
from bipcover.graph import components_from_rows
from bipcover.models import ModelParams
from conftest import graph_from_coloured_edges, matching_graph, naive_tp


class TestTcExact:
    def test_all_red_connected(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, RED)
        assert tc_exact(g, col).value == 1

    def test_matching_needs_three(self):
        g, col = matching_graph()
        result = tc_exact(g, col)
        assert result.value == 3

    def test_witness_covers_everything(self):
        g = sample_bipartite(ModelParams(6, 6, Fraction(1, 2)), 21)
        col = sample_colouring(g, Fraction(1, 2), 21)
        result = tc_exact(g, col)
        union = set()
        for _, vertices in result.witness:
            union |= vertices
        assert union == set(g.vertices())

    def test_witness_is_minimal(self):
        # dropping any one component from the witness leaves a gap
        g = sample_bipartite(ModelParams(5, 5, Fraction(2, 5)), 33)
        col = sample_colouring(g, Fraction(1, 2), 33)
        result = tc_exact(g, col)
        for skip in range(len(result.witness)):
            union = set()
            for k, (_, vertices) in enumerate(result.witness):
                if k != skip:
                    union |= vertices
            assert union != set(g.vertices())

    def test_monotone_under_edge_addition(self):
        # adding an edge (in either colour) never increases the cover number
        for seed in range(25):
            g = sample_bipartite(ModelParams(4, 4, Fraction(1, 2)), seed)
            col = sample_colouring(g, Fraction(1, 2), seed)
            base = tc_exact(g, col).value
            missing = [(i, j) for i in range(4) for j in range(4)
                       if not g.has_edge(i, j)]
            if not missing:
                continue
            i, j = missing[0]
            for colour in (RED, BLUE):
                g2 = BipartiteGraph.from_edges(
                    4, 4, list(g.edges()) + [(i, j)])
                colours = {(a, b): col.colour_of(a, b) for a, b in g.edges()}
                colours[(i, j)] = colour
                col2 = TwoColouring.from_edge_map(g2, colours)
                assert tc_exact(g2, col2).value <= base


class TestTpExact:
    def test_all_red_connected(self):
        g = BipartiteGraph.complete(3, 3)
        col = TwoColouring.monochromatic(g, RED)
        assert tp_exact(g, col).value == 1

    def test_k22_split_colouring(self):
        g, col = graph_from_coloured_edges(
            2, 2, [(0, 0, RED), (0, 1, RED), (1, 0, BLUE), (1, 1, BLUE)])
        with_singletons = tp_exact(g, col, allow_singletons=True)
        without = tp_exact(g, col, allow_singletons=False)
        assert with_singletons.value == 2
        assert without.value == 2
        assert all(len(part) >= 2 for _, part in without.witness.parts)

    def test_witness_validates(self):
        g = sample_bipartite(ModelParams(4, 4, Fraction(1, 2)), 5)
        col = sample_colouring(g, Fraction(1, 2), 5)
        result = tp_exact(g, col)
        assert validate_partition(g, col, result.witness).ok
        assert len(result.witness.parts) == result.value

    def test_guard(self):
        g = BipartiteGraph.complete(9, 9)
        col = TwoColouring.monochromatic(g, RED)
        with pytest.raises(TooLargeError):
            tp_exact(g, col)
        assert tp_exact(g, col, force=True).value == 1
        assert tp_exact(BipartiteGraph.complete(8, 8),
                        TwoColouring.monochromatic(BipartiteGraph.complete(8, 8), RED)
                        ).value == 1

    def test_agrees_with_naive_enumeration(self):
        for seed in range(60):
            g = sample_bipartite(ModelParams(4, 4, Fraction(1, 2)), seed)
            col = sample_colouring(g, Fraction(1, 2), seed)
            assert tp_exact(g, col).value == naive_tp(g, col)

    def test_no_singleton_agreement_and_infeasibility(self):
        from bipcover.errors import InvalidArgumentError
        for seed in range(12):
            g = sample_bipartite(ModelParams(3, 3, Fraction(1, 2)), seed)
            col = sample_colouring(g, Fraction(1, 2), seed)
            expected = naive_tp(g, col, allow_singletons=False)
            if expected is None:
                with pytest.raises(InvalidArgumentError):
                    tp_exact(g, col, allow_singletons=False)
            else:
                assert tp_exact(g, col, allow_singletons=False).value == expected

    def test_cover_never_exceeds_partition(self):
        for seed in range(40):
            g = sample_bipartite(ModelParams(4, 4, Fraction(3, 5)), seed)
            col = sample_colouring(g, Fraction(1, 2), seed)
            assert tc_exact(g, col).value <= tp_exact(g, col).value


class TestExhaustive:
    def test_single_edge_single_colour(self):
        report = exhaustive_knn_check(1, 1, 1)
        assert report.max_tc == 1
        assert report.total_colourings == 1

    def test_n2_all_sixteen(self):
        report = exhaustive_knn_check(2, 2, 2)
        assert report.total_colourings == 16
        assert report.max_tc == 2
        assert report.tc_histogram == {1: 10, 2: 6}
        assert report.violations == []

    def test_n3_all_512(self):
        report = exhaustive_knn_check(3, 2, 2)
        assert report.total_colourings == 512
        assert report.max_tc == 2
        assert report.violations == []

    def test_guard(self):
        with pytest.raises(TooLargeError):
            exhaustive_knn_check(5, 2, 2)


def latin_square_colouring(n):
    """K_{n,n} with edge (i, j) coloured (i + j) mod n: every colour class
    is a perfect matching."""
    g = BipartiteGraph.complete(n, n)
    return g, RColouring.from_edge_map(g, n, {(i, j): (i + j) % n for i, j in g.edges()})


class TestWitnessLabels:
    def test_r3_witness_colours_are_plain_ints(self):
        g, col = latin_square_colouring(3)
        tc = tc_exact(g, col)
        tp = tp_exact(g, col)
        assert tc.value == tp.value == 3
        colours = [c for c, _ in tc.witness] + [c for c, _ in tp.witness.parts]
        assert 0 in colours
        assert all(type(c) is int for c in colours)

    def test_two_colouring_witness_colours_are_members(self):
        g, col = matching_graph()
        tc = tc_exact(g, col)
        tp = tp_exact(g, col)
        colours = [c for c, _ in tc.witness] + [c for c, _ in tp.witness.parts]
        assert colours and all(c is RED or c is BLUE for c in colours)


def test_knn_agrees_with_tc_exact_per_colouring():
    n, r = 2, 3
    g = BipartiteGraph.complete(n, n)
    histogram: dict[int, int] = {}
    for code in range(r ** (n * n)):
        colours, rest = {}, code
        for i in range(n):
            for j in range(n):
                rest, colours[(i, j)] = divmod(rest, r)
        value = tc_exact(g, RColouring.from_edge_map(g, r, colours)).value
        histogram[value] = histogram.get(value, 0) + 1
    assert exhaustive_knn_check(n, r, 2).tc_histogram == histogram


class TestSparseColourIndices:
    def test_far_colour_index_walks_used_layers_and_one_empty(self, monkeypatch):
        # Colour indices 0 and 14,399 only: 14,400 layers, two with edges.
        text = "bipartite 120 120\n" + "".join(
            f"{a} {a * 7 % 120} {14399 if a % 2 else 0}\n" for a in range(120))
        g, col = parse_graph(text)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return components_from_rows(*args, **kwargs)

        monkeypatch.setattr(exact, "components_from_rows", counted)
        result = tc_exact(g, col)
        assert len(calls) <= 2 + 1
        assert result.value == 120
        assert [(c, sorted(vs)) for c, vs in result.witness] == [
            (14399 if a % 2 else 0, [Vertex(1, a), Vertex(2, a * 7 % 120)])
            for a in [*range(0, 120, 2), *range(1, 120, 2)]]

    def test_singletons_keep_the_first_colour(self):
        # An isolated vertex is a singleton of every colour; the witness
        # names colour 0, used or not.
        for r, cmap, expected in (
                (5, {(0, 0): 2, (1, 1): 4},
                 [(2, [(1, 0), (2, 0)]), (4, [(1, 1), (2, 1)]), (0, [(1, 2)]), (0, [(2, 2)])]),
                (6, {(0, 0): 0, (1, 1): 3, (2, 0): 3},
                 [(0, [(1, 0), (2, 0)]), (3, [(1, 1), (2, 1)]), (3, [(1, 2), (2, 0)]),
                  (0, [(2, 2)])])):
            g = BipartiteGraph.from_edges(3, 3, list(cmap))
            result = tc_exact(g, RColouring.from_edge_map(g, r, cmap))
            assert result.value == 4
            assert [(c, sorted(vs)) for c, vs in result.witness] == expected
