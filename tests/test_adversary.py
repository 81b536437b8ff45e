"""Lower-bound colourings checked against the exact solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, RColouring, TwoColouring,
                      Vertex, colour_blowup_pair, colour_lower3, colour_lower4,
                      lower4_witness_valid, monochromatic_components,
                      sample_bipartite, tc_exact)
from bipcover.adversary import Lower4Witness
from bipcover.errors import ConstructionInfeasibleError, InvalidArgumentError
from bipcover.models import ModelParams
from conftest import matching_graph, reference_colour_blowup_pair


class TestLower3:
    def test_matching_graph_exact_choice(self):
        # K_{3,3} minus two disjoint perfect matchings leaves each vertex
        # one neighbour; anchors fall on 1:0 and 2:1 and the colouring is
        # a1b1 red, a2b2 blue, a3b3 blue.
        g, _ = matching_graph()
        colouring, witness = colour_lower3(g)
        assert witness.anchor_red == Vertex(1, 0)
        assert witness.anchor_blue == Vertex(2, 1)
        assert witness.rest1 == frozenset([Vertex(1, 2)])
        assert witness.rest2 == frozenset([Vertex(2, 2)])
        assert colouring.colour_of(0, 0) is RED
        assert colouring.colour_of(1, 1) is BLUE
        assert colouring.colour_of(2, 2) is BLUE
        assert tc_exact(g, colouring).value == 3

    def test_complete_graph_infeasible(self):
        with pytest.raises(ConstructionInfeasibleError):
            colour_lower3(BipartiteGraph.complete(2, 2))

    def test_random_graph_needs_three(self):
        g = sample_bipartite(ModelParams(40, 40, Fraction(1, 2)), 1)
        colouring, witness = colour_lower3(g)
        assert tc_exact(g, colouring).value >= 3

    def test_colouring_is_total(self):
        for seed in (2, 3, 4):
            g = sample_bipartite(ModelParams(12, 12, Fraction(1, 2)), seed)
            colouring, _ = colour_lower3(g)
            assert sum(1 for _ in colouring.edge_colours()) == g.edge_count

    def test_witness_invariants(self):
        g = sample_bipartite(ModelParams(10, 10, Fraction(2, 5)), 9)
        _, w = colour_lower3(g)
        assert not g.has_edge(w.anchor_red.index, w.anchor_blue.index)
        assert w.rest1 and w.rest2

    def test_small_instances_bound(self):
        # every feasible instance up to 24 vertices has exact tc >= 3
        hits = 0
        for seed in range(12):
            g = sample_bipartite(ModelParams(12, 12, Fraction(2, 5)), seed)
            try:
                colouring, _ = colour_lower3(g)
            except ConstructionInfeasibleError:
                continue
            hits += 1
            assert tc_exact(g, colouring).value >= 3
        assert hits >= 8


# The colour of each (part-1 zone, part-2 zone) pair in colour_lower3's
# docstring; a pair missing here is one no edge may join.
LOWER3_ZONE_COLOURS = {("r", "N(r)"): RED, ("X", "N(r)"): RED, ("X", "Y"): BLUE,
                       ("N(b)", "Y"): RED, ("N(b)", "N(r)"): BLUE, ("N(b)", "b"): BLUE}


@st.composite
def hosts(draw):
    n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows1 = draw(st.lists(st.integers(0, (1 << n2) - 1), min_size=n1, max_size=n1))
    return BipartiteGraph.from_rows(n1, n2, rows1)


class TestLower3Zones:
    @settings(deadline=None, max_examples=200)
    @given(hosts())
    def test_every_edge_has_its_zone_colour(self, g):
        try:
            colouring, w = colour_lower3(g)
        except ConstructionInfeasibleError:
            return
        r, b = w.anchor_red.index, w.anchor_blue.index
        n_r = {Vertex(2, j) for j in range(g.n2) if g.has_edge(r, j)}
        n_b = {Vertex(1, i) for i in range(g.n1) if g.has_edge(i, b)}
        zone1 = {w.anchor_red: "r", **{v: "N(b)" for v in n_b}, **{v: "X" for v in w.rest1}}
        zone2 = {w.anchor_blue: "b", **{v: "N(r)" for v in n_r}, **{v: "Y" for v in w.rest2}}
        assert len(zone1) == g.n1 == 1 + len(n_b) + len(w.rest1)
        assert len(zone2) == g.n2 == 1 + len(n_r) + len(w.rest2)
        for i, j, colour in colouring.edge_colours():
            zones = zone1[Vertex(1, i)], zone2[Vertex(2, j)]
            assert LOWER3_ZONE_COLOURS[zones] is colour, zones


class TestLower4:
    def test_empty_graph_four_singleton_components(self):
        g = BipartiteGraph.from_edges(2, 2, [])
        colouring, witness = colour_lower4(g)
        assert witness.pair1 == (Vertex(1, 0), Vertex(1, 1))
        assert witness.pair2 == (Vertex(2, 0), Vertex(2, 1))
        assert tc_exact(g, colouring).value == 4

    def test_complete_graph_infeasible(self):
        with pytest.raises(ConstructionInfeasibleError):
            colour_lower4(BipartiteGraph.complete(3, 3))

    def test_sparse_random_instances(self):
        # at threshold-regime densities the witness certifies tc >= 4
        feasible = 0
        for seed in range(15):
            g = sample_bipartite(ModelParams(12, 12, Fraction(1, 10)), seed)
            try:
                colouring, witness = colour_lower4(g)
            except ConstructionInfeasibleError:
                continue
            feasible += 1
            assert lower4_witness_valid(g, witness)
            assert tc_exact(g, colouring).value >= 4
        assert feasible >= 10

    def test_colouring_is_total(self):
        g = sample_bipartite(ModelParams(10, 10, Fraction(1, 5)), 4)
        colouring, _ = colour_lower4(g)
        assert sum(1 for _ in colouring.edge_colours()) == g.edge_count


class TestBlowup:
    def test_n8_r2_needs_four(self):
        g, colouring = colour_blowup_pair(8, 2)
        assert isinstance(colouring, TwoColouring)
        assert tc_exact(g, colouring).value == 4

    def test_n4_r2_unit_groups(self):
        g, colouring = colour_blowup_pair(4, 2)
        assert tc_exact(g, colouring).value == 4

    def test_min_degree_is_half(self):
        g, _ = colour_blowup_pair(8, 2)
        assert g.min_degree() == 4
        degrees = [g.row(1, i).bit_count() for i in range(8)]
        assert degrees == [4] * 8

    def test_matches_the_dict_construction(self):
        # Every n <= 24 with 2r | n: the same graph, colouring type and layers.
        for n in range(1, 25):
            for r in range(2, n // 2 + 1):
                if n % (2 * r) == 0:
                    assert colour_blowup_pair(n, r) == reference_colour_blowup_pair(n, r)

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidArgumentError):
            colour_blowup_pair(10, 2)  # 10 not divisible by 4
        with pytest.raises(InvalidArgumentError):
            colour_blowup_pair(8, 1)

    def test_component_count_is_2r(self):
        for n, r in ((8, 2), (12, 3), (12, 2)):
            g, colouring = colour_blowup_pair(n, r)
            for c in range(r):
                comps = monochromatic_components(g, colouring, c)
                nontrivial = [comp for comp in comps if len(comp) > 1]
                assert len(nontrivial) == 2 * r

    def test_r3_returns_r_colouring(self):
        g, colouring = colour_blowup_pair(12, 3)
        assert isinstance(colouring, RColouring)
        assert colouring.num_colours == 3
        assert tc_exact(g, colouring).value >= 6


@pytest.mark.parametrize("n, r", [(0, 2), (-4, 2)])
def test_blowup_needs_a_positive_size(n, r):
    with pytest.raises(InvalidArgumentError, match="^more colours than group slots$"):
        colour_blowup_pair(n, r)


def test_lower4_witness_check_rejects_each_broken_invariant():
    # N(1:0) = {2:0}, N(1:1) = {2:1}, N(1:2) = {2:2, 2:3}, N(1:3) = {2:0, 2:4}.
    g = BipartiteGraph.from_edges(4, 5, [(0, 0), (1, 1), (2, 2), (2, 3), (3, 0), (3, 4)])
    pair1 = (Vertex(1, 0), Vertex(1, 1))
    assert lower4_witness_valid(g, Lower4Witness(pair1, (Vertex(2, 2), Vertex(2, 4))))
    # part-1 pair sharing 2:0; part-2 pair sharing 1:2; 2:0 inside the pair's reach
    for broken in (Lower4Witness((Vertex(1, 0), Vertex(1, 3)), (Vertex(2, 2), Vertex(2, 4))),
                   Lower4Witness(pair1, (Vertex(2, 2), Vertex(2, 3))),
                   Lower4Witness(pair1, (Vertex(2, 0), Vertex(2, 2)))):
        assert not lower4_witness_valid(g, broken)
