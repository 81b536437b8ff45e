"""Random model samplers: determinism, edge statistics, degree floors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipcover import (BipartiteGraph, ModelParams, models, sample_bipartite,
                      sample_colouring, sample_mindeg_subgraph)
from bipcover.errors import InvalidArgumentError
from bipcover.formats import write_graph
from bipcover.models import _CHUNK_SLOTS, _slot_matrix, as_fraction
from bipcover.rng import TAG_MINDEG, combine, hash_block, threshold_u64
from conftest import naive_hash_block, naive_mindeg_subgraph

# chi-square critical value, 1 degree of freedom, significance 0.001
CHI2_CRIT_1DF_999 = 10.828


def test_p_zero_is_empty():
    g = sample_bipartite(ModelParams(5, 5, Fraction(0)), 1)
    assert g.edge_count == 0


def test_p_one_is_complete():
    g = sample_bipartite(ModelParams(4, 6, Fraction(1)), 1)
    assert g.edge_count == 24


def test_same_seed_bit_identical():
    params = ModelParams(30, 30, Fraction(1, 3))
    a = sample_bipartite(params, 77)
    b = sample_bipartite(params, 77)
    assert write_graph(a) == write_graph(b)
    c = sample_bipartite(params, 78)
    assert write_graph(c) != write_graph(a)


def test_transpose_consistency():
    g = sample_bipartite(ModelParams(13, 9, Fraction(2, 5)), 5)
    for i, j in g.edges():
        assert g.row(2, j) >> i & 1
    assert sum(g.row(2, j).bit_count() for j in range(9)) == g.edge_count


def test_edge_count_binomial_moments():
    # mean over 200 seeds within 3 population standard deviations of n^2 p
    params = ModelParams(500, 500, Fraction(1, 5))
    counts = [sample_bipartite(params, seed).edge_count for seed in range(200)]
    mean = sum(counts) / len(counts)
    sd = math.sqrt(500 * 500 * 0.2 * 0.8)
    assert abs(mean - 50000) <= 3 * sd


def test_colouring_extremes():
    g = BipartiteGraph.complete(4, 4)
    all_red = sample_colouring(g, 1, 0)
    assert all(c.value == 0 for _, _, c in all_red.edge_colours())
    all_blue = sample_colouring(g, 0, 0)
    assert all(c.value == 1 for _, _, c in all_blue.edge_colours())


def test_colouring_concentration():
    # K_{20,20}, q = 1/2: red count within 3*sqrt(400/4) of 200 on >= 99%
    g = BipartiteGraph.complete(20, 20)
    band = 3 * math.sqrt(400 * 0.25)
    good = 0
    for seed in range(1000):
        col = sample_colouring(g, Fraction(1, 2), seed)
        reds = sum(1 for _, _, c in col.edge_colours() if c.value == 0)
        if abs(reds - 200) <= band:
            good += 1
    assert good >= 990


def test_colouring_stays_on_graph():
    g = sample_bipartite(ModelParams(10, 10, Fraction(1, 4)), 3)
    col = sample_colouring(g, Fraction(1, 2), 3)
    assert sum(1 for _ in col.edge_colours()) == g.edge_count


def test_slot_independence_chi_square():
    # Two fixed edge slots over 10000 seeds: 2x2 contingency is independent.
    params = ModelParams(3, 3, Fraction(1, 2))
    table = [[0, 0], [0, 0]]
    for seed in range(10000):
        g = sample_bipartite(params, seed)
        a = 1 if g.has_edge(0, 0) else 0
        b = 1 if g.has_edge(2, 1) else 0
        table[a][b] += 1
    total = 10000
    row = [table[0][0] + table[0][1], table[1][0] + table[1][1]]
    colm = [table[0][0] + table[1][0], table[0][1] + table[1][1]]
    chi2 = 0.0
    for a in (0, 1):
        for b in (0, 1):
            expected = row[a] * colm[b] / total
            chi2 += (table[a][b] - expected) ** 2 / expected
    assert chi2 < CHI2_CRIT_1DF_999


class TestMindegSubgraph:
    def test_fraction_one_is_complete(self):
        g = sample_mindeg_subgraph(6, 1, 0)
        assert g.edge_count == 36

    def test_floor_respected(self):
        frac = Fraction(13, 16) + Fraction(1, 20)
        g = sample_mindeg_subgraph(64, frac, 9)
        assert g.min_degree() >= math.ceil(frac * 64)

    def test_half_fraction_deletes_edges(self):
        for seed in range(20):
            g = sample_mindeg_subgraph(8, Fraction(1, 2), seed)
            assert g.min_degree() >= 4
            assert g.edge_count < 64  # greedy deletion always removes something

    def test_deterministic(self):
        a = sample_mindeg_subgraph(32, Fraction(7, 8), 5)
        b = sample_mindeg_subgraph(32, Fraction(7, 8), 5)
        assert a == b

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_mindeg_subgraph(8, 0, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_part_size_rejected(self, n):
        # The same check and message as ModelParams.
        with pytest.raises(InvalidArgumentError, match="part sizes must be at least 1"):
            sample_mindeg_subgraph(n, "1/2", 1)


MINDEG_FRACTIONS = (Fraction(13, 16) + Fraction(1, 20), Fraction(1, 2), Fraction(7, 8),
                    Fraction(99, 100), Fraction(1), Fraction(1, 400))


def mindeg_rows(g: BipartiteGraph):
    return (tuple(g.row(1, i) for i in range(g.n1)),
            tuple(g.row(2, j) for j in range(g.n2)))


class TestMindegAgainstSlotWalk:
    """The chunked sampler against the slot-by-slot greedy, graph for graph.

    n^2 runs below, at and above one 4,096-slot chunk (63, 64, 65) and
    over several chunks; fraction 1 makes the floor equal n.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 63, 64, 65, 100, 128])
    @pytest.mark.parametrize("fraction", MINDEG_FRACTIONS)
    def test_small_hosts(self, n, fraction):
        for seed in range(3):
            g = sample_mindeg_subgraph(n, fraction, seed)
            assert mindeg_rows(g) == naive_mindeg_subgraph(n, fraction, seed)

    @pytest.mark.parametrize("fraction", MINDEG_FRACTIONS)
    def test_n400(self, fraction):
        g = sample_mindeg_subgraph(400, fraction, 7)
        assert mindeg_rows(g) == naive_mindeg_subgraph(400, fraction, 7)

    def test_n1000(self):
        g = sample_mindeg_subgraph(1000, MINDEG_FRACTIONS[0], 3)
        assert mindeg_rows(g) == naive_mindeg_subgraph(1000, MINDEG_FRACTIONS[0], 3)

    @pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 20])
    def test_any_chunk_size(self, monkeypatch, chunk):
        from bipcover import models
        monkeypatch.setattr(models, "_ORDER_CHUNK", chunk)
        for n, fraction in ((9, Fraction(1, 2)), (40, MINDEG_FRACTIONS[0]),
                            (65, Fraction(1, 400))):
            g = sample_mindeg_subgraph(n, fraction, 11)
            assert mindeg_rows(g) == naive_mindeg_subgraph(n, fraction, 11)

    @pytest.mark.parametrize("n", [1, 16, 100, 256])
    def test_slot_keys_are_distinct(self, n):
        # Distinct keys make every argsort give the stable order.
        for seed in range(4):
            keys = hash_block(combine(seed, TAG_MINDEG), 0, n * n)
            assert np.unique(keys).size == n * n


CAPPED_CUT = 1 << 20  # a _CUT_SLACKS this large caps the cut: stage 1 visits every slot


def degrees_before_cut(n, fraction, seed, cut):
    """(part-1 degrees, part-2 degrees, slots keyed below ``cut``) after the
    slot-by-slot greedy has visited every slot keyed below ``cut``."""
    floor = math.ceil(Fraction(fraction) * n)
    keys = naive_hash_block(combine(seed, TAG_MINDEG), 0, n * n)
    deg1, deg2 = [n] * n, [n] * n
    order = np.argsort(keys, kind="stable")
    below = order[keys[order] < np.uint64(cut)].tolist()
    for slot in below:
        i, j = divmod(slot, n)
        if deg1[i] > floor and deg2[j] > floor:
            deg1[i] -= 1
            deg2[j] -= 1
    return deg1, deg2, len(below)


class TestMindegKeyRanges:
    """Visiting the slots one key range after another, each range in key order,
    through the sampler's chunk loop gives the slot-walk graph: the sampler's
    two stages are one such split of key space."""

    @pytest.mark.parametrize("chunk", [1, 64, 4096])
    @pytest.mark.parametrize("range_bits", [1, 4], ids=["2", "16"])
    def test_any_range_count(self, monkeypatch, range_bits, chunk):
        monkeypatch.setattr(models, "_ORDER_CHUNK", chunk)
        for n in (1, 2, 7, 65, 128):
            keys = hash_block(combine(5, TAG_MINDEG), 0, n * n)
            ranges = keys >> np.uint64(64 - range_bits)
            for fraction in MINDEG_FRACTIONS:
                floor = math.ceil(fraction * n)
                deg1, deg2 = np.full(n, n), np.full(n, n)
                present = np.ones(n * n, dtype=bool)
                for r in range(1 << range_bits):
                    slots = np.flatnonzero(ranges == r)
                    models._delete_in_order(slots[np.argsort(keys[slots])],
                                            n, floor, deg1, deg2, present)
                g = BipartiteGraph(n, n, *models.rows_and_transpose(present.reshape(n, n)))
                assert mindeg_rows(g) == naive_mindeg_subgraph(n, fraction, 5)


class TestMindegStages:
    """Where the cut splits the slot visit into two stages cannot change a
    graph, and stage 2 visits only the pairs still live after stage 1, in key order."""

    @pytest.mark.parametrize("chunk", [1, 64, 4096])
    @pytest.mark.parametrize("slacks", [0, models._CUT_SLACKS, CAPPED_CUT],
                             ids=["stage2-only", "default", "capped"])
    def test_any_cut(self, monkeypatch, slacks, chunk):
        monkeypatch.setattr(models, "_CUT_SLACKS", slacks)
        monkeypatch.setattr(models, "_ORDER_CHUNK", chunk)
        for n in (1, 2, 7, 65, 128):
            for fraction in MINDEG_FRACTIONS:
                g = sample_mindeg_subgraph(n, fraction, 5)
                assert mindeg_rows(g) == naive_mindeg_subgraph(n, fraction, 5)

    @pytest.mark.parametrize("n, fraction, slacks", [
        (400, MINDEG_FRACTIONS[0], models._CUT_SLACKS),
        (128, Fraction(7, 8), models._CUT_SLACKS),
        (128, MINDEG_FRACTIONS[0], CAPPED_CUT),  # the cut caps: stage 2 keeps no slot
        (2, Fraction(1, 2), models._CUT_SLACKS),  # every vertex ends stage 1 at the floor
    ], ids=["n400", "n128", "capped", "all-at-floor"])
    def test_stage_two_hashes_only_live_pairs(self, monkeypatch, n, fraction, slacks):
        orders, delete_in_order = [], models._delete_in_order

        def recording_delete(order, *args):
            orders.append(order.tolist())
            return delete_in_order(order, *args)

        monkeypatch.setattr(models, "_CUT_SLACKS", slacks)
        monkeypatch.setattr(models, "_delete_in_order", recording_delete)
        g = sample_mindeg_subgraph(n, fraction, 5)
        assert mindeg_rows(g) == naive_mindeg_subgraph(n, fraction, 5)
        floor = math.ceil(fraction * n)
        cut = min((slacks * (n - floor) << 64) // n, (1 << 64) - 1)
        deg1, deg2, below = degrees_before_cut(n, fraction, 5, cut)
        keys = hash_block(combine(5, TAG_MINDEG), 0, n * n).tolist()
        pairs = [i * n + j for i in range(n) if deg1[i] > floor
                 for j in range(n) if deg2[j] > floor]
        live = len(pairs)
        assert orders[1] == sorted((s for s in pairs if keys[s] >= cut), key=keys.__getitem__)
        visited = [len(order) for order in orders]
        assert visited[0] == below and visited[1] <= live
        if slacks == CAPPED_CUT:
            assert visited == [n * n, 0]
        if n == 2:
            assert live == 0 and visited == [n * n, 0]
        if n == 400:
            assert 0 < visited[1] < live < n * n // 100


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), fraction=st.fractions(0, 1, max_denominator=200).filter(bool),
       seed=st.integers(0, (1 << 64) - 1))
def test_mindeg_subgraph_is_maximal(n, fraction, seed):
    # Holds for any visiting order: the floor is kept, and an edge survives
    # only when deleting it would take an endpoint below the floor.
    g = sample_mindeg_subgraph(n, fraction, seed)
    floor = math.ceil(fraction * n)
    assert g.min_degree() >= floor
    if floor < n:
        for i, j in g.edges():
            assert floor in (g.row(1, i).bit_count(), g.row(2, j).bit_count())


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        ModelParams(0, 5, Fraction(1, 2))
    with pytest.raises(InvalidArgumentError):
        ModelParams(5, 5, Fraction(3, 2))


@pytest.mark.parametrize("call", [
    lambda: sample_bipartite(ModelParams(2.5, 3, "1/2"), 1),
    lambda: ModelParams(3, 6.0, "1/2"),
    lambda: ModelParams("3", 3, "1/2"),
    lambda: sample_mindeg_subgraph(2.5, "1/2", 1),
    lambda: sample_mindeg_subgraph("3", "1/2", 1),
], ids=["bipartite-float", "params-whole-float", "params-str", "mindeg-float", "mindeg-str"])
def test_non_integer_part_size_rejected(call):
    # The wording parse_graph uses, not a TypeError from deep in numpy.
    with pytest.raises(InvalidArgumentError, match=r"^part sizes must be integers$"):
        call()


def test_numpy_integer_part_sizes_accepted():
    assert (sample_bipartite(ModelParams(np.int64(5), 5, "1/2"), 1)
            == sample_bipartite(ModelParams(5, 5, "1/2"), 1))
    assert sample_mindeg_subgraph(np.int64(40), "7/8", 1) == sample_mindeg_subgraph(40, "7/8", 1)


def test_params_p_normalised_like_cover_params():
    params = ModelParams(4, 4, 0.5)
    assert params.p == Fraction(1, 2) and type(params.p) is Fraction
    assert ModelParams(4, 4, "1/2") == params
    expected = sample_bipartite(ModelParams(4, 4, Fraction(1, 2)), 9)
    assert sample_bipartite(params, 9) == expected
    assert sample_bipartite(ModelParams(4, 4, "1/2"), 9) == expected
    with pytest.raises(InvalidArgumentError, match="cannot interpret"):
        ModelParams(4, 4, "abc")


def test_as_fraction_rejects_unreadable_values():
    assert as_fraction("0.05") == Fraction(1, 20)
    for bad in ("abc", "1/0", float("nan"), None):
        with pytest.raises(InvalidArgumentError, match="cannot interpret"):
            as_fraction(bad)


def test_chunked_hashing_matches_single_block():
    # force the chunked path with a lowered chunk size and compare
    from bipcover import models
    params = ModelParams(40, 40, Fraction(1, 3))
    whole = sample_bipartite(params, 6)
    original = models._CHUNK_SLOTS
    models._CHUNK_SLOTS = 128
    try:
        chunked = sample_bipartite(params, 6)
    finally:
        models._CHUNK_SLOTS = original
    assert chunked == whole


@pytest.mark.parametrize("shape", [(1, _CHUNK_SLOTS - 1), (181, 181), (128, 256),
                                   (1, _CHUNK_SLOTS + 1), (257, 383)])
@pytest.mark.parametrize("probability", [Fraction(0), Fraction(3, 7), Fraction(1)])
def test_blocked_slot_matrix_matches_all_at_once(shape, probability):
    # Shapes below, at, just above and well past one hash block.
    n1, n2 = shape
    seed = combine(17, TAG_MINDEG)
    want = naive_hash_block(seed, 0, n1 * n2) < threshold_u64(probability)
    assert np.array_equal(_slot_matrix(seed, n1, n2, probability), want.reshape(n1, n2))


@pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(3, 2)])
def test_red_probability_checked(q):
    g = BipartiteGraph.complete(2, 2)
    with pytest.raises(InvalidArgumentError, match=r"^red probability must be in \[0, 1\]$"):
        sample_colouring(g, q, 0)
