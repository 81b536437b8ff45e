"""The almost-cover construction: validity, cases, audits, symmetry."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, CoverCase, CoverParams,
                      TwoColouring, Vertex, almost_cover, audit_state,
                      classify_case, colour_lower3, sample_bipartite,
                      sample_colouring, validate_cover)
from bipcover.errors import BipcoverError, InvalidArgumentError, PropertyFailureError
from bipcover.models import ModelParams
from conftest import naive_degree_bands, naive_validate_cover


def threshold_p(n: int, c: float) -> Fraction:
    return Fraction(c * math.sqrt(math.log(n) / n)).limit_denominator(10 ** 9)


def hand_instance_split_roots():
    """K_{4,4}: one part-1 vertex all red, every other edge blue.

    Forces roots 1:0 / 2:0, majority blue, jokers {2:1, 2:2, 2:3}, no
    attachable round, and the vacuous leaf-attach case.
    """
    edges = {}
    for j in range(4):
        edges[(0, j)] = RED
    for i in range(1, 4):
        for j in range(4):
            edges[(i, j)] = BLUE
    g = BipartiteGraph.complete(4, 4)
    return g, TwoColouring.from_edge_map(g, edges)


def hand_instance_third_tree():
    """K_{5,5} minus the a0-b4 edge, wired so the pivot case must fire.

    a0 is the red root (b0..b3 red), b0 the blue root (a1,a2,a3 blue).
    a1 and a2 are the jokers, b4 the one attachable vertex (red
    preference), and a4, whose only blue edge goes to b4, becomes the
    root of a blue third tree.
    """
    eb = {}
    for j in range(4):
        eb[(0, j)] = RED
    for i in (1, 2):
        eb[(i, 0)] = BLUE
        for j in range(1, 5):
            eb[(i, j)] = RED
    for j in range(5):
        eb[(3, j)] = BLUE
    eb[(4, 0)] = RED
    for j in (1, 2, 3):
        eb[(4, j)] = RED
    eb[(4, 4)] = BLUE
    g = BipartiteGraph.from_edges(5, 5, list(eb))
    return g, TwoColouring.from_edge_map(g, eb)


class TestTrivialCases:
    def test_monochromatic_connected_is_one_tree(self):
        g = BipartiteGraph.complete(6, 6)
        col = TwoColouring.monochromatic(g, RED)
        cover, state = almost_cover(g, col, CoverParams(p=Fraction(1, 2), seed=1))
        assert state.case is CoverCase.SPANNING
        assert classify_case(g, col, state) is CoverCase.SPANNING
        assert len(cover.trees) == 1
        assert not cover.uncovered
        assert validate_cover(g, col, cover).ok

    def test_unbalanced_rejected(self):
        g = BipartiteGraph.complete(3, 4)
        col = TwoColouring.monochromatic(g, RED)
        with pytest.raises(InvalidArgumentError):
            almost_cover(g, col, CoverParams(p=Fraction(1, 2)))

    def test_empty_graph_property_failure(self):
        g = BipartiteGraph.from_edges(3, 3, [])
        col = TwoColouring.monochromatic(g, RED)
        with pytest.raises(PropertyFailureError) as err:
            almost_cover(g, col, CoverParams(p=Fraction(1, 2)))
        assert err.value.step == "heavy-sets"


class TestHandInstances:
    def test_split_roots_instance(self):
        g, col = hand_instance_split_roots()
        params = CoverParams(p=Fraction(1, 2), seed=5)
        cover, state = almost_cover(g, col, params)
        assert state.root_red == Vertex(1, 0)
        assert state.root_blue == Vertex(2, 0)
        assert state.majority is BLUE
        assert state.jokers == frozenset([Vertex(2, 1), Vertex(2, 2), Vertex(2, 3)])
        assert state.attachable == frozenset()
        assert state.stranded == frozenset()
        # no attachable vertices in either preference: the vacuous case
        assert state.case is CoverCase.LEAF_ATTACH
        assert not cover.uncovered
        assert validate_cover(g, col, cover).ok

    def test_split_roots_audit_hand_counts(self):
        g, col = hand_instance_split_roots()
        params = CoverParams(p=Fraction(1, 2), seed=5)
        _, state = almost_cover(g, col, params)
        audit = audit_state(g, col, state)
        assert audit.entry("joker-count").measured == 3
        assert audit.entry("stranded-count").measured == 0
        # all 12 edges between N_B(2:0) = {a1,a2,a3} and N_R(1:0) = {b0..b3}
        # are blue, the majority colour
        assert audit.entry("majority-edge-density").measured == 12
        assert audit.entry("uncovered-total").measured == 0
        assert audit.all_satisfied

    def test_third_tree_instance(self):
        g, col = hand_instance_third_tree()
        params = CoverParams(p=Fraction(1, 2), seed=3)
        cover, state = almost_cover(g, col, params)
        assert state.majority is RED
        assert state.case is CoverCase.THIRD_TREE
        assert state.third_root == Vertex(1, 4)
        assert state.jokers == frozenset([Vertex(1, 1), Vertex(1, 2)])
        assert state.attachable == frozenset([Vertex(2, 4)])
        assert state.attachable_red == frozenset([Vertex(2, 4)])
        assert state.jokers2 == frozenset([Vertex(2, 4)])
        assert len(cover.trees) == 3
        assert not cover.uncovered
        assert validate_cover(g, col, cover).ok

    def test_third_tree_classification_stable(self):
        g, col = hand_instance_third_tree()
        for seed in range(8):
            cover, state = almost_cover(g, col, CoverParams(p=Fraction(1, 2), seed=seed))
            assert classify_case(g, col, state) is state.case
            assert validate_cover(g, col, cover).ok


class TestColourSymmetry:
    def test_swapped_colouring_mirrors_cover(self):
        # majority is blue by 12 edges to 0: tie-free, and the swapped
        # run is forced onto the mirrored roots.
        g, col = hand_instance_split_roots()
        params = CoverParams(p=Fraction(1, 2), seed=11)
        cover, state = almost_cover(g, col, params)
        cover_swapped, state_swapped = almost_cover(g, col.swapped(), params)
        original = {(t.colour, t.vertices) for t in cover.trees}
        mirrored = {(t.colour.other, t.vertices) for t in cover_swapped.trees}
        assert mirrored == original
        assert cover_swapped.uncovered == cover.uncovered
        # the swapped run finds its red-heavy root in part 2: the
        # part-name swap path
        assert state.parts_swapped is False
        assert state_swapped.parts_swapped is True
        assert state_swapped.root_red == state.root_blue
        assert state_swapped.root_blue == state.root_red


class TestRandomRegime:
    def test_uniform_colouring_threshold_density(self):
        n = 1000
        p = threshold_p(n, 5.0)
        g = sample_bipartite(ModelParams(n, n, p), 7)
        col = sample_colouring(g, Fraction(1, 2), 7)
        cover, state = almost_cover(g, col, CoverParams(p=p, seed=7))
        assert len(cover.trees) <= 3
        assert validate_cover(g, col, cover).ok
        assert Fraction(len(cover.uncovered)) <= 200 / p

    def test_preference_matches_tree_colour(self):
        n = 300
        p = threshold_p(n, 5.0)
        g = sample_bipartite(ModelParams(n, n, p), 19)
        col, _ = colour_lower3(g)
        cover, state = almost_cover(g, col, CoverParams(p=p, seed=19))
        recorded = state.preference | state.preference2
        for tree in cover.trees:
            for v in tree.vertices:
                if v in recorded and v != state.third_root:
                    assert recorded[v] is tree.colour

    def test_adversarial_colouring_threshold_density(self):
        n = 300
        p = threshold_p(n, 5.0)
        g = sample_bipartite(ModelParams(n, n, p), 13)
        col, _ = colour_lower3(g)
        cover, state = almost_cover(g, col, CoverParams(p=p, seed=13))
        assert state.case is CoverCase.THIRD_TREE  # the tight construction
        assert len(cover.trees) == 3
        assert validate_cover(g, col, cover).ok
        assert Fraction(len(cover.uncovered)) <= 200 / p

    def test_deterministic_given_seed(self):
        n = 120
        p = threshold_p(n, 4.0)
        g = sample_bipartite(ModelParams(n, n, p), 2)
        col, _ = colour_lower3(g)
        runs = [almost_cover(g, col, CoverParams(p=p, seed=42)) for _ in range(2)]
        (c1, s1), (c2, s2) = runs
        assert c1 == c2
        assert s1.preference == s2.preference
        different = almost_cover(g, col, CoverParams(p=p, seed=43))[0]
        # a different seed may still give the same cover; only equality
        # under the same seed is guaranteed, so just validate it
        assert validate_cover(g, col, different).ok

    def test_skewed_colourings_stay_valid(self):
        n = 60
        p = Fraction(1, 2)
        for seed, q in ((1, Fraction(9, 10)), (2, Fraction(1, 10)), (3, Fraction(3, 4))):
            g = sample_bipartite(ModelParams(n, n, p), seed)
            col = sample_colouring(g, q, seed)
            cover, state = almost_cover(g, col, CoverParams(p=p, seed=seed))
            assert validate_cover(g, col, cover).ok
            assert naive_validate_cover(g, col, cover)

    def test_uncovered_reasons_are_tagged(self):
        # sparse graph far below threshold: plenty of uncovered vertices,
        # each with a reason
        n = 40
        p = Fraction(1, 20)
        g = sample_bipartite(ModelParams(n, n, p), 5)
        col = sample_colouring(g, Fraction(1, 2), 5)
        try:
            cover, state = almost_cover(g, col, CoverParams(p=p, seed=5))
        except PropertyFailureError:
            return  # degenerate inputs may legitimately fail earlier
        assert set(state.uncovered_reasons) == set(cover.uncovered)
        allowed = {"isolated-from-jokers", "isolated-from-second-jokers",
                   "retry-exhausted", "no-attachment"}
        assert set(state.uncovered_reasons.values()) <= allowed
        assert validate_cover(g, col, cover).ok


class TestAudit:
    def test_spanning_state_is_not_applicable(self):
        g = BipartiteGraph.complete(4, 4)
        col = TwoColouring.monochromatic(g, BLUE)
        params = CoverParams(p=Fraction(1, 2), seed=0)
        _, state = almost_cover(g, col, params)
        audit = audit_state(g, col, state)
        assert audit.entry("joker-count").satisfied is None
        assert audit.entry("majority-edge-density").satisfied is None

    def test_threshold_regime_bounds_mostly_hold(self):
        n = 200
        p = threshold_p(n, 5.0)
        satisfied = 0
        for seed in range(10):
            g = sample_bipartite(ModelParams(n, n, p), seed)
            col, _ = colour_lower3(g)
            params = CoverParams(p=p, seed=seed)
            _, state = almost_cover(g, col, params)
            audit = audit_state(g, col, state)
            if audit.entry("stranded-count").satisfied \
                    and audit.entry("uncovered-total").satisfied:
                satisfied += 1
        assert satisfied >= 9


@pytest.mark.parametrize("n", (20, 21))
def test_audit_degree_band_fraction_matches_fraction_band(n):
    # The audit's epsilon is fixed at 1/10: (1 -+ 1/10) * p * n is 9, 11 at
    # n = 20 (integer band edges) and 9.45, 11.55 at n = 21.
    p, eps = Fraction(1, 2), Fraction(1, 10)
    for seed in range(4):
        g = sample_bipartite(ModelParams(n, n, p), seed)
        col = sample_colouring(g, Fraction(1, 2), seed)
        params = CoverParams(p=p, seed=seed)
        _, state = almost_cover(g, col, params)
        measured = audit_state(g, col, state).entry("degree-band-fraction").measured
        _, d_bad, _, _ = naive_degree_bands(g, p, eps)
        assert measured == (2 * n - len(d_bad)) / (2 * n)


@pytest.mark.parametrize("seed", (0, 4, 5))
def test_retry_exhaustion_demotes_and_stays_valid(seed):
    # One draw of joker preferences is not enough on these lower3 hosts:
    # the vertices left unmatched are demoted, not emitted in a tree.
    n = 40
    p = threshold_p(n, 3.0)
    g = sample_bipartite(ModelParams(n, n, p), seed)
    col, _ = colour_lower3(g)
    cover, state = almost_cover(g, col, CoverParams(p=p, retry_limit=1, seed=seed))
    exhausted = {v for v, why in state.uncovered_reasons.items() if why == "retry-exhausted"}
    assert exhausted
    assert exhausted <= state.demoted
    assert exhausted <= cover.uncovered
    assert validate_cover(g, col, cover).ok
    assert naive_validate_cover(g, col, cover)


@settings(deadline=None, max_examples=60)
@given(st.integers(6, 40), st.sampled_from((1, 2, 3, 5)), st.integers(0, 2 ** 16),
       st.sampled_from(("uniform", "lower3")))
def test_every_joker_has_a_majority_parent(n, c, seed, source):
    # A joker's edge to the minority root is minority-coloured, so its
    # majority neighbours among the majority root's all avoid that root:
    # each joker drawn for the majority tree has a parent to hang from.
    p = min(Fraction(1), threshold_p(n, c))
    g = sample_bipartite(ModelParams(n, n, p), seed)
    try:
        col = sample_colouring(g, Fraction(1, 2), seed) if source == "uniform" \
            else colour_lower3(g)[0]
        _, state = almost_cover(g, col, CoverParams(p=p, seed=seed))
    except BipcoverError:
        return
    if state.case is CoverCase.SPANNING:
        return
    root_p, root_s = state.oriented_roots()
    parents = col.coloured_row(root_p.part, root_p.index, state.majority) \
        & ~(1 << root_s.index)
    for v in state.jokers:
        assert col.coloured_row(v.part, v.index, state.majority) & parents


@pytest.mark.parametrize("kwargs, message", [
    (dict(p=Fraction(0)), "p must be in (0, 1]"),
    (dict(p=Fraction(3, 2)), "p must be in (0, 1]"),
    (dict(p=Fraction(1, 2), retry_limit=0), "retry limit must be at least 1"),
], ids=("p-zero", "p-above-one", "no-retries"))
def test_cover_params_checked(kwargs, message):
    with pytest.raises(InvalidArgumentError) as exc:
        CoverParams(**kwargs)
    assert str(exc.value) == message
