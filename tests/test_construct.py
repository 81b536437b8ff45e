"""The steps almost_cover and partition3 share: seeded splits and retries."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, CoverParams, ModelParams, PartitionParams,
                      TwoColouring, almost_cover, colour_lower3, partition3, sample_bipartite,
                      sample_colouring)
from bipcover.construct import (AuditReport, ConstructionRun, bernoulli_subset, coin_split,
                                heavy_masks, majority_colour, pick_roots, retry_draw)
from bipcover.errors import (InvalidArgumentError, PartitionFailureError, PropertyFailureError,
                             StepFailureError)
from bipcover.graph import iter_bits, select, select_flags
from bipcover.rng import RandomStream
from conftest import (graph_from_coloured_edges, naive_bernoulli_subset, naive_coin_split,
                      naive_heavy_masks)

MASKS = (0, 1, 0b1011_0010_0110, (1 << 70) | (1 << 3) | 1, (1 << 64) - 1)


def reference_split(rng: RandomStream, mask: int) -> int:
    """Heads of one coin per set bit, lowest bit first."""
    heads = 0
    for i in iter_bits(mask):
        if rng.coin():
            heads |= 1 << i
    return heads


@pytest.mark.parametrize("mask", MASKS)
@pytest.mark.parametrize("seed", (0, 7, 2 ** 63 + 5))
def test_coin_split_one_coin_per_bit_ascending(mask, seed):
    rng, ref = RandomStream(seed), RandomStream(seed)
    heads, tails = coin_split(rng, mask)
    assert heads == reference_split(ref, mask)
    assert tails == mask & ~heads
    assert rng.next_u64() == ref.next_u64()


def test_select_tests_bits_ascending():
    seen = []
    kept = select(0b110101, lambda i: seen.append(i) or i % 2 == 0)
    assert seen == [0, 2, 4, 5]
    assert kept == 0b010101


@pytest.mark.parametrize("limit", (1, 3, 8))
def test_retry_draw_consumes_one_split_per_attempt(limit):
    mask = 0b1101_1011
    rng, ref = RandomStream(11), RandomStream(11)
    expected = [reference_split(ref, mask) for _ in range(limit)]
    attempts = []

    def draw():
        heads, _ = coin_split(rng, mask)
        attempts.append(heads)
        return heads

    last, failed = retry_draw(limit, draw, lambda heads: "always fails")
    assert attempts == expected
    assert (last, failed) == (expected[-1], "always fails")
    assert rng.next_u64() == ref.next_u64()


def test_retry_draw_stops_at_first_clean_draw():
    draws = iter(range(100))
    checked = []

    def failures(x):
        checked.append(x)
        return 3 - x if x < 3 else 0

    assert retry_draw(10, lambda: next(draws), failures) == (3, 0)
    assert checked == [0, 1, 2, 3]
    assert next(draws) == 4


def test_retry_draw_returns_last_draw_and_failures_on_exhaustion():
    draws = iter(range(100))
    assert retry_draw(2, lambda: next(draws), lambda x: {x}) == (1, {1})
    assert retry_draw(1, lambda: next(draws), lambda x: [x]) == (2, [2])


def random_masks(count: int = 200, seed: int = 8):
    """(stream seed, mask) pairs: widths 1-2,000, densities from sparse to full."""
    rnd = random.Random(seed)
    for _ in range(count):
        width = rnd.randint(1, 2000)
        density = rnd.choice((0.01, 0.3, 0.5, 0.9, 1.0))
        yield rnd.getrandbits(64), sum(1 << i for i in range(width) if rnd.random() < density)


def test_block_coin_split_matches_scalar_coins():
    for seed, mask in random_masks():
        rng, ref = RandomStream(seed), RandomStream(seed)
        assert coin_split(rng, mask) == naive_coin_split(ref, mask)
        assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("probability", (Fraction(1, 25), Fraction(1, 2), Fraction(1)))
def test_block_bernoulli_subset_matches_scalar_draws(probability):
    for seed, mask in random_masks(seed=9):
        rng, ref = RandomStream(seed), RandomStream(seed)
        assert bernoulli_subset(rng, mask, probability) == \
            naive_bernoulli_subset(ref, mask, probability)
        assert rng.next_u64() == ref.next_u64()


def test_select_flags_is_select_on_precomputed_verdicts():
    for seed, mask in random_masks(50, seed=10):
        rnd = random.Random(seed)
        verdicts = [rnd.random() < 0.5 for _ in iter_bits(mask)]
        it = iter(verdicts)
        assert select_flags(mask, verdicts) == select(mask, lambda _: next(it))
    assert select_flags(0, []) == 0


@pytest.mark.parametrize("n,seed", [(1, 0), (9, 1), (60, 2), (300, 3)])
def test_array_heavy_masks_match_vertex_loop(n, seed):
    g = sample_bipartite(ModelParams(n, n, Fraction(2, 5)), seed)
    col = sample_colouring(g, Fraction(1, 3), seed)
    heavy_thr = -(-9 * n // 16)
    for is_heavy in (lambda d, dc: 3 * dc > d, lambda d, dc: dc >= heavy_thr):
        assert heavy_masks(g, col, is_heavy) == naive_heavy_masks(g, col, is_heavy)
    empty = BipartiteGraph.from_edges(3, 2, [])
    assert heavy_masks(empty, sample_colouring(empty, Fraction(1, 2), 0),
                       lambda d, dc: dc >= 0) == {c: (0b111, 0b11) for c in (RED, BLUE)}


@pytest.mark.parametrize("source", ("uniform", "lower3"))
def test_cover_rejects_a_colouring_of_another_graph(source):
    # Unchecked, the cover's trees would use edges of g2 that g1 lacks.
    g1, g2 = (sample_bipartite(ModelParams(60, 60, Fraction(1, 2)), s) for s in (1, 2))
    col2 = sample_colouring(g2, Fraction(1, 2), 3) if source == "uniform" else colour_lower3(g2)[0]
    with pytest.raises(InvalidArgumentError, match="colouring of the given graph"):
        almost_cover(g1, col2, CoverParams(p=Fraction(1, 2), seed=1))


def test_partition_rejects_a_colouring_of_another_graph():
    # g2 is K_{16,16} less one edge: its all-red colouring leaves g1's edge 0-0 uncoloured.
    g1 = BipartiteGraph.complete(16, 16)
    g2 = BipartiteGraph.from_rows(16, 16, [(1 << 16) - 2] + [(1 << 16) - 1] * 15)
    with pytest.raises(InvalidArgumentError, match="colouring of the given graph"):
        partition3(g1, TwoColouring.monochromatic(g2, RED),
                   PartitionParams(delta=Fraction(1, 20)))


def test_equal_graph_objects_are_the_same_graph():
    g1, g2 = BipartiteGraph.complete(16, 16), BipartiteGraph.complete(16, 16)
    partition, _ = partition3(g1, TwoColouring.monochromatic(g2, BLUE),
                              PartitionParams(delta=Fraction(1, 20)))
    assert len(partition.parts) == 1


def naive_matched_split(rng, g, col, part, pool, first, second, colour, floor, limit):
    """Scalar coin splits of ``pool`` until no vertex of ``first`` (``second``)
    has fewer than ``floor`` ``colour`` (other colour) edges into its half,
    counted edge by edge; at most ``limit`` draws."""
    def seen(x, c, half):
        pairs = [(x, y) if part == 1 else (y, x) for y in iter_bits(half)]
        return sum(1 for i, j in pairs if g.has_edge(i, j) and col.colour_of(i, j) is c)

    for _ in range(limit):
        half, other_half = naive_coin_split(rng, pool)
        short = 0
        for x in range(g.part_size(part)):
            if (first >> x & 1 and seen(x, colour, half) < floor
                    or second >> x & 1 and seen(x, colour.other, other_half) < floor):
                short |= 1 << x
        if not short:
            break
    return half, other_half, short


@st.composite
def split_inputs(draw):
    n = draw(st.integers(1, 10))
    edges = [(i, j, draw(st.sampled_from((RED, BLUE))))
             for i in range(n) for j in range(n) if draw(st.booleans())]
    g, col = graph_from_coloured_edges(n, n, edges)
    part = draw(st.sampled_from((1, 2)))
    pool = draw(st.integers(0, (1 << n) - 1))
    roles = [draw(st.sampled_from((0, 1, 2))) for _ in range(n)]
    first = sum(1 << x for x, r in enumerate(roles) if r == 1)
    second = sum(1 << x for x, r in enumerate(roles) if r == 2)
    return g, col, part, pool, first, second


@settings(deadline=None, max_examples=300)
@given(split_inputs(), st.sampled_from((RED, BLUE)),
       st.sampled_from((1, 2, 3, Fraction(5, 2))), st.sampled_from((1, 2, 5)),
       st.integers(0, 2 ** 64 - 1))
def test_matched_split_matches_a_naive_retry_loop(inputs, colour, floor, limit, seed):
    g, col, part, pool, first, second = inputs
    run = ConstructionRun("split", g, col, CoverParams(p=Fraction(1, 2), retry_limit=limit,
                                                       seed=seed))
    ref = RandomStream(seed)
    assert run.matched_split(part, pool, first, second, colour, floor) == \
        naive_matched_split(ref, g, col, part, pool, first, second, colour, floor, limit)
    assert run.rng.block(1).tolist() == ref.block(1).tolist()


@pytest.mark.parametrize("limit", (1, 4))
def test_matched_split_exhausts_on_an_unreachable_floor(limit):
    g = BipartiteGraph.complete(6, 6)
    col = sample_colouring(g, Fraction(1, 2), 3)
    run = ConstructionRun("split", g, col, CoverParams(p=Fraction(1, 2), retry_limit=limit,
                                                       seed=9))
    ref = RandomStream(9)
    # Seven edges into a five-vertex pool are out of reach: every draw is
    # spent and every vertex of first and second stays short.
    half, other_half, short = run.matched_split(2, 0b11111, 0b101, 0b010, RED, 7)
    draws = [coin_split(ref, 0b11111) for _ in range(limit)]
    assert (half, other_half, short) == (*draws[-1], 0b111)
    assert run.rng.next_u64() == ref.next_u64()


def test_coin_splits_stay_in_construct():
    # The coin-split retry rule lives in ConstructionRun.matched_split;
    # the constructions call it rather than drawing splits themselves.
    src = Path(__file__).parent.parent / "src" / "bipcover"
    imported = {}
    for name in ("cover", "mindeg"):
        tree = ast.parse((src / f"{name}.py").read_text())
        imported[name] = {a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "coin_split" not in imported["cover"] | imported["mindeg"]
    assert "retry_draw" not in imported["cover"]


def test_audit_report_entry_names_a_missing_entry():
    report = AuditReport()
    report.add("joker-count", 3, 2.0, True)
    assert report.entry("joker-count").measured == 3
    with pytest.raises(KeyError, match="stranded-count"):
        report.entry("stranded-count")


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_cover_heavy_sets_of_both_colours_give_opposite_roots(n1, n2, data):
    # A vertex with an edge is heavy (3*dc > d) in its larger colour, so the
    # neighbour of a red-heavy vertex is heavy in the other part.  Slots are
    # absent, red or blue, so hosts with isolated vertices are drawn too.
    slots = data.draw(st.lists(st.sampled_from((None, RED, BLUE)),
                               min_size=n1 * n2, max_size=n1 * n2))
    cmap = {divmod(k, n2): c for k, c in enumerate(slots) if c is not None}
    g = BipartiteGraph.from_edges(n1, n2, list(cmap))
    heavy = heavy_masks(g, TwoColouring.from_edge_map(g, cmap), lambda d, dc: 3 * dc > d)
    assume(heavy[RED] != (0, 0) and heavy[BLUE] != (0, 0))
    roots = pick_roots(heavy)
    assert roots is not None and roots[0].part != roots[1].part


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32), st.sampled_from((1, 2)),
       st.data())
def test_majority_colour_counts_both_colours_and_breaks_ties_red(n1, n2, seed, part, data):
    rnd = random.Random(seed)
    coloured = [(i, j, rnd.choice((RED, BLUE))) for i in range(n1) for j in range(n2)
                if rnd.random() < 0.7]
    g, col = graph_from_coloured_edges(n1, n2, coloured)
    sizes = (n1, n2) if part == 1 else (n2, n1)
    mask_x = data.draw(st.integers(0, (1 << sizes[0]) - 1))
    mask_y = data.draw(st.integers(0, (1 << sizes[1]) - 1))
    counts = {RED: 0, BLUE: 0}
    for i, j, c in coloured:
        x, y = (i, j) if part == 1 else (j, i)
        if mask_x >> x & 1 and mask_y >> y & 1:
            counts[c] += 1
    majority = RED if counts[RED] >= counts[BLUE] else BLUE
    assert majority_colour(col, part, mask_x, mask_y) == (majority, counts[RED] + counts[BLUE])


def test_step_failures_share_one_base():
    for cls in (PropertyFailureError, PartitionFailureError):
        err = cls("base-edges", "e(bases)=3 below 4.0")
        assert isinstance(err, StepFailureError)
        assert (err.step, str(err)) == ("base-edges", "base-edges: e(bases)=3 below 4.0")
