"""Exact solvers against independent enumeration oracles."""

import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, RColouring, TwoColouring, Vertex,
                      exhaustive_knn_check, sample_bipartite, sample_colouring,
                      tc_exact, tp_exact, validate_partition)
from bipcover import exact
from bipcover.errors import InvalidArgumentError, TooLargeError
from bipcover.formats import parse_graph
from bipcover.graph import components_from_rows
from bipcover.models import ModelParams
from conftest import graph_from_coloured_edges, matching_graph, naive_knn_check, naive_tp


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
        assert tp_exact(g, col).value == 2

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

    def test_referee_reads_r_colouring_labels(self):
        g = BipartiteGraph.complete(1, 1)
        assert naive_tp(g, RColouring.from_edge_map(g, 1, {(0, 0): 0})) == 1

    def test_agrees_with_naive_enumeration_on_three_colourings(self):
        # All 81 3-colourings of K_{2,2}, then seeded random 3-colourings
        # of hosts with up to 3 + 3 vertices.
        g = BipartiteGraph.complete(2, 2)
        edges = list(g.edges())
        for code in range(81):
            col = RColouring.from_edge_map(g, 3, {e: code // 3 ** k % 3
                                                  for k, e in enumerate(edges)})
            assert tp_exact(g, col).value == naive_tp(g, col)
        for seed in range(40):
            rnd = random.Random(seed)
            n1, n2 = rnd.randint(1, 3), rnd.randint(1, 3)
            g = sample_bipartite(ModelParams(n1, n2, Fraction(rnd.randint(1, 4), 4)), seed)
            col = RColouring.from_edge_map(g, 3, {e: rnd.randrange(3) for e in g.edges()})
            assert tp_exact(g, col).value == naive_tp(g, col)

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

    def test_one_colour_bound_is_one(self):
        # 2r - 2 would be 0, but the one colouring of K_{n,n} has tc 1.
        report = exhaustive_knn_check(2, 1)
        assert (report.bound, report.max_tc, report.violations) == (1, 1, [])

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


class TestRowMultisetEnumeration:
    # bound 0 flags every colouring, so every orbit is expanded in full.
    # (2, 7, 1): 2 * 7! > 1,225 multisets, so G is the identity; (1, 12, 0)
    # and (25, 1, 0): 12! and 25! must not be enumerated.
    @pytest.mark.parametrize("n, r, bound", [(1, 1, 1), (1, 3, 0), (2, 2, 0), (2, 2, 1),
                                             (2, 3, 1), (2, 4, 1), (3, 2, 1), (3, 3, 2),
                                             (2, 7, 1), (1, 12, 0), (25, 1, 0)])
    def test_report_matches_unreduced_walk(self, n, r, bound):
        got, want = exhaustive_knn_check(n, r, bound), naive_knn_check(n, r, bound)
        assert list(got.tc_histogram.items()) == list(want.tc_histogram.items())
        assert got.violations == want.violations
        assert (got.max_tc, got.total_colourings) == (want.max_tc, want.total_colourings)
        if bound == 0:
            assert got.violations == list(range(got.total_colourings))

    @pytest.mark.parametrize("n, r", [(1, 1), (1, 12), (1, 64), (2, 7), (25, 1), (2, 2),
                                      (3, 2), (3, 3)])
    def test_orbit_keys_only_for_a_group_no_larger_than_the_walk(self, monkeypatch, n, r):
        # Past the multiset count, G is the identity and each multiset keys itself.
        keyed, orbit_keys = [], exact._orbit_keys

        def recorded(*args):
            keyed.append(1)
            return orbit_keys(*args)

        monkeypatch.setattr(exact, "_orbit_keys", recorded)
        exhaustive_knn_check(n, r, 2)
        whole = math.factorial(n) * math.factorial(r) <= math.comb(r ** n + n - 1, n)
        assert keyed == [1] * whole

    def test_each_class_lead_walks_only_its_colours(self, monkeypatch):
        # n = 1: a lead is one edge of one colour, so one layer and one component
        # call each, not r (4,096 calls at r = 64).
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return components_from_rows(*args, **kwargs)

        monkeypatch.setattr(exact, "components_from_rows", counted)
        assert exhaustive_knn_check(1, 64, 2).tc_histogram == {1: 64}
        assert len(calls) <= 64

    def test_one_vertex_per_part_with_many_colours(self):
        report = exhaustive_knn_check(1, 4096, 2)
        assert report.tc_histogram == {1: 4096}
        assert (report.max_tc, report.violations) == (1, [])

    @pytest.mark.parametrize("n, r", [(3, 2), (2, 3)])
    def test_guard_counts_representatives(self, monkeypatch, n, r):
        representatives = math.comb(r ** n + n - 1, n)
        monkeypatch.setattr(exact, "KNN_ENUMERATION_GUARD", representatives)
        assert exhaustive_knn_check(n, r, 2).total_colourings == r ** (n * n)
        monkeypatch.setattr(exact, "KNN_ENUMERATION_GUARD", representatives - 1)
        with pytest.raises(TooLargeError, match=f"^{representatives} representatives"):
            exhaustive_knn_check(n, r, 2)
        assert exhaustive_knn_check(n, r, 2, force=True).total_colourings == r ** (n * n)

    # (3, 4): three-word keys under the whole group of 3! * 4! elements.
    @pytest.mark.parametrize("n, r", [(3, 2), (4, 2), (2, 3), (3, 3), (3, 4)])
    def test_orbit_keys_partition_as_the_generators_do(self, n, r):
        # Referee: union-find closure of the multisets under an adjacent column
        # transposition and an adjacent colour transposition, which generate
        # column x colour permutations, acting on sorted row tuples.
        row_codes = r ** n
        multisets = list(combinations_with_replacement(range(row_codes), n))
        assert math.factorial(n) * math.factorial(r) <= len(multisets)  # G is whole
        digits = [[a // r ** j % r for j in range(n)] for a in range(row_codes)]

        def code(colours):
            return sum(c * r ** j for j, c in enumerate(colours))

        generators = [[code(d[:j] + [d[j + 1], d[j]] + d[j + 2:]) for d in digits]
                      for j in range(n - 1)]
        generators += [[code([{c: c + 1, c + 1: c}.get(x, x) for x in d]) for d in digits]
                       for c in range(r - 1)]
        parent = {m: m for m in multisets}

        def find(m):
            while parent[m] != m:
                parent[m] = parent[parent[m]]
                m = parent[m]
            return m

        for m, image in product(multisets, generators):
            parent[find(m)] = find(tuple(sorted(image[a] for a in m)))
        by_key, by_closure = defaultdict(set), defaultdict(set)
        keys = exact._orbit_keys(r, np.array(digits), np.array(multisets))
        for m, key in zip(multisets, keys.tolist()):
            by_key[tuple(key)].add(m)
            by_closure[find(m)].add(m)
        assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_closure.values()))


class TestTpSparseColourIndices:
    # Colour indices 0 or 3, and 15, on a 4x4 file: 16 layers, two with edges.
    # Vertex 1:3 is isolated, so a singleton part names colour 0, used or not.
    @pytest.mark.parametrize("low, walked", [(0, [0, 1, 15]), (3, [0, 3, 15])])
    def test_walks_used_layers_and_one_empty(self, monkeypatch, low, walked):
        cmap = {(0, 0): low, (0, 1): 15, (1, 1): low, (1, 2): 15, (2, 2): low,
                (2, 0): 15, (0, 3): low}
        g, col = parse_graph("bipartite 4 4\n" + "".join(
            f"{i} {j} {c}\n" for (i, j), c in cmap.items()))
        calls = []
        layer_rows = RColouring.layer_rows

        def counted(self, colour):
            calls.append(colour)
            return layer_rows(self, colour)

        monkeypatch.setattr(RColouring, "layer_rows", counted)
        result = tp_exact(g, col)
        assert calls == walked
        monkeypatch.setattr(exact, "_walked_colours", lambda c: list(range(c.num_colours)))
        every_layer = tp_exact(g, col)
        assert (result.value, result.witness, result.nodes_explored) == \
            (every_layer.value, every_layer.witness, every_layer.nodes_explored)
        assert validate_partition(g, col, result.witness).ok


@st.composite
def small_coloured_hosts(draw):
    """(n1, n2, r, {(i, j): colour}) with at most 4 + 4 vertices."""
    n1, n2, r = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(-1, r - 1), min_size=n1 * n2, max_size=n1 * n2))
    return n1, n2, r, {divmod(k, n2): c for k, c in enumerate(cells) if c >= 0}


def exact_values(n1, n2, r, cmap):
    g = BipartiteGraph.from_edges(n1, n2, list(cmap))
    col = RColouring.from_edge_map(g, r, cmap)
    return tc_exact(g, col).value, tp_exact(g, col).value


class TestExactSymmetries:
    """tc and tp do not change under the symmetries of a coloured host; the
    first is the premise of the K_{n,n} check's row-multiset weighting."""

    @settings(deadline=None, max_examples=60)
    @given(small_coloured_hosts(), st.data())
    def test_relabelling_within_parts(self, host, data):
        n1, n2, r, cmap = host
        p1 = data.draw(st.permutations(range(n1)))
        p2 = data.draw(st.permutations(range(n2)))
        relabelled = {(p1[i], p2[j]): c for (i, j), c in cmap.items()}
        assert exact_values(n1, n2, r, relabelled) == exact_values(*host)

    @settings(deadline=None, max_examples=40)
    @given(small_coloured_hosts())
    def test_part_swap(self, host):
        n1, n2, r, cmap = host
        swapped = {(j, i): c for (i, j), c in cmap.items()}
        assert exact_values(n2, n1, r, swapped) == exact_values(*host)

    @settings(deadline=None, max_examples=40)
    @given(small_coloured_hosts(), st.data())
    def test_colour_swap(self, host, data):
        n1, n2, r, cmap = host
        perm = data.draw(st.permutations(range(r)))
        recoloured = {e: perm[c] for e, c in cmap.items()}
        assert exact_values(n1, n2, r, recoloured) == exact_values(*host)


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


@settings(deadline=None, max_examples=100)
@given(small_coloured_hosts(), st.data())
def test_maximal_components_cover_the_universe(host, data):
    # _min_cover gets every vertex covered: both callers pass every component
    # of a layer, singletons included, and _maximal drops only nested sets.
    n1, n2, r, cmap = host
    g = BipartiteGraph.from_edges(n1, n2, list(cmap))
    col = RColouring.from_edge_map(g, r, cmap)
    walked = map(col.layer_rows, exact._walked_colours(col))
    assert _union(exact._maximal(exact._component_masks(n1, n2, walked))) \
        == (1 << (n1 + n2)) - 1
    # exhaustive_knn_check's layers: the colours in use in K_{n,n}, one row code
    # per part-1 vertex
    codes = data.draw(st.lists(st.integers(0, r ** n1 - 1), min_size=n1, max_size=n1))
    layers = {a // r ** j % r: ([0] * n1, [0] * n1) for a in codes for j in range(n1)}
    for i, a in enumerate(codes):
        for j in range(n1):
            rows1, rows2 = layers[a // r ** j % r]
            rows1[i] |= 1 << j
            rows2[j] |= 1 << i
    assert _union(exact._maximal(exact._component_masks(n1, n1, layers.values()))) \
        == (1 << 2 * n1) - 1


@settings(deadline=None, max_examples=60)
@given(small_coloured_hosts())
def test_tp_search_never_reaches_an_empty_remainder(host):
    # A part equal to the remaining set is connected, so the one-part check
    # returns before the search recurses on nothing; an empty remainder
    # would end in a negative shift.
    n1, n2, _, cmap = host
    g = BipartiteGraph.from_edges(n1, n2, list(cmap))
    col = TwoColouring.from_edge_map(g, {e: c % 2 for e, c in cmap.items()})
    assert tp_exact(g, col).value == naive_tp(g, col)


@pytest.mark.parametrize("n, r", [(0, 2), (2, 0)])
def test_knn_check_needs_positive_sizes(n, r):
    with pytest.raises(InvalidArgumentError, match="^n and r must be positive$"):
        exhaustive_knn_check(n, r, 1)
