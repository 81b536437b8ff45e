"""Pseudo-randomness property checks and their naive cross-checks."""

import math
import random
from fractions import Fraction

import pytest

from bipcover import (BLUE, RED, BipartiteGraph, Vertex, almost_cover,
                      check_degrees, check_domination, check_expansion,
                      check_min_degree_connectivity,
                      count_no_common_neighbour_pairs, sample_bipartite,
                      sample_colouring)
from bipcover.cover import CoverParams
from bipcover.errors import InvalidArgumentError
from bipcover.models import ModelParams
from bipcover.properties import _codegree_tails
from conftest import naive_degree_bands


class TestDegreeBand:
    def test_complete_graph_never_violates(self):
        g = BipartiteGraph.complete(10, 10)
        deg, codeg = check_degrees(g, Fraction(1), Fraction(1, 10))
        assert deg.satisfied and codeg.satisfied
        assert deg.checked_instances == 20
        assert codeg.checked_instances == 2 * 45

    def test_empty_graph_all_vertices_violate(self):
        g = BipartiteGraph.from_edges(6, 6, [])
        deg, codeg = check_degrees(g, Fraction(1, 2), Fraction(1, 10))
        assert not deg.satisfied
        assert len(deg.violations) == 12
        assert not codeg.satisfied

    def test_violation_witnesses_recheck(self):
        g = sample_bipartite(ModelParams(30, 30, Fraction(1, 4)), 2)
        deg, _ = check_degrees(g, Fraction(1, 4), Fraction(1, 100))
        for vertex, value, (lo, hi) in deg.violations:
            actual = g.row(vertex.part, vertex.index).bit_count()
            assert actual == value
            assert actual < lo or actual > hi

    def test_random_graph_mostly_concentrated(self):
        # At n=500, p=0.2 the degree sd is ~8.9, so a 0.4 band is 4.5
        # sigma per vertex: nearly every seed is violation-free.  (Tighter
        # bands like 0.1 need far larger n*p than desk scale offers.)
        clean = 0
        for seed in range(20):
            g = sample_bipartite(ModelParams(500, 500, Fraction(1, 5)), seed)
            deg, _ = check_degrees(g, Fraction(1, 5), Fraction(2, 5))
            if deg.satisfied:
                clean += 1
        assert clean >= 19


class TestCodegreeKernel:
    @staticmethod
    def assert_matches_oracle(g, p, eps):
        deg, codeg = check_degrees(g, p, eps)
        d_checked, d_bad, c_checked, c_bad = naive_degree_bands(g, p, eps)
        assert deg.checked_instances == d_checked
        assert codeg.checked_instances == c_checked
        assert deg.violations == d_bad
        assert codeg.violations == c_bad
        assert all(type(v[1]) is int for v in deg.violations + codeg.violations)
        assert codeg.satisfied is (not c_bad)
        return c_bad

    @pytest.mark.parametrize("n", (1, 2, 9, 30))
    @pytest.mark.parametrize("p", (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)))
    def test_matches_pair_loop(self, n, p):
        for seed in range(3):
            g = sample_bipartite(ModelParams(n, n, p), seed)
            self.assert_matches_oracle(g, p, Fraction(1, 5))

    def test_integer_band_edges(self):
        # p^2 n = 5 and (1 -+ 1/5) * 5 = 4, 6: codegrees 4 and 6 are in
        # band, 3 and 7 are not; degrees likewise at 8 and 12.
        p, eps = Fraction(1, 2), Fraction(1, 5)
        on_edge = set()
        for seed in range(4):
            g = sample_bipartite(ModelParams(20, 20, p), seed)
            self.assert_matches_oracle(g, p, eps)
            for part in (1, 2):
                rows = [g.row(part, i) for i in range(20)]
                on_edge.update((rows[i] & rows[j]).bit_count()
                               for i in range(20) for j in range(i + 1, 20))
        assert {3, 4, 6, 7} <= on_edge

    @pytest.mark.parametrize("width", (0, 1, 63, 64, 65, 130))
    def test_tails_match_pair_loop(self, width):
        rng = random.Random(width)
        rows = [rng.getrandbits(width) for _ in range(7)]
        rows[2] = (1 << width) - 1
        tails = [t.tolist() for t in _codegree_tails(rows, width)]
        assert tails == [[(rows[i] & rows[j]).bit_count() for j in range(i + 1, 7)]
                         for i in range(6)]

    def test_no_common_pairs_unbalanced(self):
        for n1, n2 in ((1, 1), (1, 7), (9, 2), (30, 65)):
            g = sample_bipartite(ModelParams(n1, n2, Fraction(1, 6)), n1 + n2)
            assert count_no_common_neighbour_pairs(g) == _naive_pair_counts(g)


class TestExpansion:
    # applicability needs |W| >= 100/p, so p=1 keeps instances small

    def test_complete_graph_satisfied(self):
        g = BipartiteGraph.complete(120, 120)
        u = [Vertex(1, i) for i in range(20)]
        w = [Vertex(2, j) for j in range(110)]
        report = check_expansion(g, Fraction(1), u, w)
        assert report.applicable and report.satisfied

    def test_empty_graph_violated(self):
        g = BipartiteGraph.from_edges(120, 120, [])
        u = [Vertex(1, i) for i in range(20)]
        w = [Vertex(2, j) for j in range(110)]
        report = check_expansion(g, Fraction(1), u, w)
        assert report.applicable and not report.satisfied
        assert report.violations

    def test_small_sets_not_applicable(self):
        g = BipartiteGraph.complete(20, 20)
        report = check_expansion(g, Fraction(1, 2), [Vertex(1, 0)], [Vertex(2, 0)])
        assert not report.applicable

    def test_same_side_rejected(self):
        g = BipartiteGraph.complete(20, 20)
        with pytest.raises(InvalidArgumentError):
            check_expansion(g, Fraction(1, 2),
                            [Vertex(1, i) for i in range(10)],
                            [Vertex(1, j) for j in range(10, 20)])

    def test_cover_run_sets_satisfy_expansion(self):
        from bipcover import colour_lower3
        n = 200
        p = Fraction(5 * math.sqrt(math.log(n) / n)).limit_denominator(10 ** 9)
        g = sample_bipartite(ModelParams(n, n, p), 17)
        col, _ = colour_lower3(g)  # never spans, so the roots exist
        _, state = almost_cover(g, col, CoverParams(p=p, seed=17))
        assert state.root_red is not None
        u = [Vertex(2, j) for j in
             _bits(col.coloured_row(state.root_red.part, state.root_red.index, RED))]
        w = [Vertex(1, i) for i in
             _bits(col.coloured_row(state.root_blue.part, state.root_blue.index, BLUE))]
        report = check_expansion(g, p, w, u)
        if report.applicable:
            assert report.satisfied


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class TestDomination:
    def test_complete_graph_no_starved_vertices(self):
        g = BipartiteGraph.complete(16, 16)
        report = check_domination(g, Fraction(1, 2), [Vertex(1, i) for i in range(8)])
        assert report.satisfied
        assert report.stats["starved_count"] == 0

    def test_empty_graph_violated(self):
        # needs n > 100/p starved vertices to cross the allowance
        g = BipartiteGraph.from_edges(150, 150, [])
        report = check_domination(g, Fraction(1), [Vertex(1, i) for i in range(8)])
        assert report.applicable and not report.satisfied
        assert report.stats["starved_count"] == 150

    def test_neighbourhood_domination_random(self):
        n = 300
        p = Fraction(2, 5)
        good = 0
        for seed in range(10):
            g = sample_bipartite(ModelParams(n, n, p), seed)
            u = [Vertex(2, j) for j in _bits(g.row(1, 0))]
            report = check_domination(g, p, u)
            if report.applicable and report.satisfied:
                good += 1
        assert good >= 9


class TestConnectivity:
    def test_complete_graph_connected(self):
        g = BipartiteGraph.complete(12, 12)
        report = check_min_degree_connectivity(
            g, Fraction(1), Fraction(1, 10), g.vertices())
        assert report.applicable and report.satisfied

    def test_two_blocks_not_applicable(self):
        # two disjoint complete halves: min degree n/2 misses the
        # (1/2 + eps) * n bar, showing the eps matters
        n = 8
        rows = [(0b1111 if i < 4 else 0b11110000) for i in range(8)]
        g = BipartiteGraph.from_rows(8, 8, rows)
        report = check_min_degree_connectivity(
            g, Fraction(1), Fraction(1, 10), g.vertices())
        assert not report.applicable

    def test_edge_filter_restricts_subgraph(self):
        g = BipartiteGraph.complete(10, 10)
        col = sample_colouring(g, Fraction(1, 2), 3)
        report = check_min_degree_connectivity(
            g, Fraction(1, 2), Fraction(1, 20), g.vertices(),
            h_edge_filter=lambda a, b: col.colour_of(a.index, b.index) is BLUE)
        # the blue subgraph of a uniform colouring of K_{10,10} usually
        # has min degree near 5 > (1/2 + eps) * 5; if applicable it must
        # be connected or report a witness
        if report.applicable:
            assert report.satisfied is not None


class TestNoCommonNeighbourPairs:
    def test_complete_graph_zero(self):
        assert count_no_common_neighbour_pairs(BipartiteGraph.complete(9, 9)) == (0, 0)

    def test_empty_graph_all_pairs(self):
        g = BipartiteGraph.from_edges(7, 7, [])
        assert count_no_common_neighbour_pairs(g) == (21, 21)

    def test_agrees_with_triple_loop(self):
        for seed in range(6):
            g = sample_bipartite(ModelParams(30, 30, Fraction(1, 8)), seed)
            fast = count_no_common_neighbour_pairs(g)
            slow = _naive_pair_counts(g)
            assert fast == slow

    def test_first_moment_formula(self):
        # mean over 50 seeds against C(n,2) * (1 - p^2)^n
        n = 200
        p = 0.3 * math.sqrt(math.log(n) / n)
        pf = Fraction(p).limit_denominator(10 ** 9)
        counts = []
        for seed in range(50):
            g = sample_bipartite(ModelParams(n, n, pf), seed)
            c1, c2 = count_no_common_neighbour_pairs(g)
            counts.extend([c1, c2])
        mean = sum(counts) / len(counts)
        expected = math.comb(n, 2) * (1 - float(pf) ** 2) ** n
        sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (len(counts) - 1))
        assert abs(mean - expected) <= 3 * sd


def _naive_pair_counts(g):
    counts = []
    for part in (1, 2):
        total = 0
        size = g.part_size(part)
        for i in range(size):
            for j in range(i + 1, size):
                shared = False
                for k in range(g.part_size(2 if part == 1 else 1)):
                    if g.row(part, i) >> k & 1 and g.row(part, j) >> k & 1:
                        shared = True
                        break
                if not shared:
                    total += 1
        counts.append(total)
    return tuple(counts)


@pytest.mark.parametrize("call, message", [
    (lambda: check_expansion(BipartiteGraph.complete(2, 3), Fraction(1, 2), [], []),
     "property checks expect a balanced graph"),
    (lambda: check_domination(BipartiteGraph.complete(2, 2), Fraction(1, 2),
                              [Vertex(1, 0), Vertex(2, 0)]),
     "vertex set spans both parts"),
], ids=("unbalanced", "set-spans-both-parts"))
def test_property_input_checks(call, message):
    with pytest.raises(InvalidArgumentError) as exc:
        call()
    assert str(exc.value) == message


def test_domination_not_applicable_below_its_scale():
    # |U| = 2 < p * n / 100 = 3
    g = BipartiteGraph.complete(300, 300)
    report = check_domination(g, Fraction(1), [Vertex(1, 0), Vertex(1, 1)])
    assert not report.applicable
    assert report.stats == {"reason": "U below the check's scale"}


def test_connectivity_violation_on_two_disjoint_halves():
    # Each half has degree 4 >= (1/2 + 1/10) * (1/2) * 8 = 2.4, yet H has two components.
    rows = [(0b1111 if i < 4 else 0b11110000) for i in range(8)]
    g = BipartiteGraph.from_rows(8, 8, rows)
    report = check_min_degree_connectivity(g, Fraction(1, 2), Fraction(1, 10), g.vertices())
    assert report.applicable and report.satisfied is False
    assert report.violations == [("components", [Vertex(1, 0), Vertex(1, 4)], 2, 1)]


def test_connectivity_on_a_partial_vertex_set():
    # H leaves out 1:0 and 2:5; the rows of the vertices outside H are empty.
    g = BipartiteGraph.complete(6, 6)
    h = [v for v in g.vertices() if v not in (Vertex(1, 0), Vertex(2, 5))]
    report = check_min_degree_connectivity(g, Fraction(1), Fraction(1, 10), h)
    assert report.applicable and report.satisfied
    assert report.stats == {"components": 1, "vertices": 10}
    blue_only = check_min_degree_connectivity(g, Fraction(1), Fraction(1, 10), h,
                                              h_edge_filter=lambda a, b: a.index != 1)
    assert not blue_only.applicable
    assert blue_only.stats["reason"] == "min degree 0 below 3.60"
