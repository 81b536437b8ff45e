"""Pseudo-randomness property checks and their naive cross-checks."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bipcover import (BipartiteGraph, check_degrees, count_no_common_neighbour_pairs,
                      properties, sample_bipartite)
from bipcover.errors import InvalidArgumentError
from bipcover.models import ModelParams
from bipcover.properties import _BLOCK, _codegree_blocks
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
    def test_blocks_match_pair_loop(self, width):
        for count in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
            rng = random.Random(width * 1000 + count)
            rows = [rng.getrandbits(width) for _ in range(count)]
            rows[count // 2] = (1 << width) - 1
            starts, upper_pairs = [], []
            for b, co, upper in _codegree_blocks(rows, width):
                starts.append(b)
                assert co.dtype == np.int32
                assert co.tolist() == [[(rows[i] & rows[j]).bit_count() for j in range(b, count)]
                                       for i in range(b, min(b + _BLOCK, count))]
                assert upper.shape == co.shape
                upper_pairs += [(b + a, b + k) for a, k in zip(*np.nonzero(upper))]
            assert starts == list(range(0, count, _BLOCK))
            assert upper_pairs == [(i, j) for i in range(count) for j in range(i + 1, count)]

    @pytest.mark.parametrize("n", (_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1))
    @pytest.mark.parametrize("p", (Fraction(1, 2), Fraction(1, 20)))
    def test_block_edges_match_oracles(self, n, p):
        rows = list(sample_bipartite(ModelParams(n, n, p), n).rows(1))
        rows[0], rows[n // 2] = 0, (1 << n) - 1  # an isolated vertex and a full one
        g = BipartiteGraph.from_rows(n, n, rows)
        # The transpose puts the isolated and the full vertex in part 2.
        for h in (g, BipartiteGraph.from_rows(n, n, g.rows(2))):
            assert self.assert_matches_oracle(h, p, Fraction(1, 5))
            assert count_no_common_neighbour_pairs(h) == _bit_count_pair_counts(h)

    def test_no_common_pairs_unbalanced(self):
        for n1, n2 in ((1, 1), (1, 7), (9, 2), (30, 65)):
            g = sample_bipartite(ModelParams(n1, n2, Fraction(1, 6)), n1 + n2)
            assert count_no_common_neighbour_pairs(g) == _naive_pair_counts(g)


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


class _CountedPlanes:
    """Word planes that record how many of them each block's loop reads."""

    def __init__(self, words):
        self.words, self.reads = words, []

    def __iter__(self):
        self.reads.append(0)
        for plane in self.words:
            self.reads[-1] += 1
            yield plane


class TestNoCommonEarlyStop:
    """The count's per-block early stop, each case against the bit-count pair loop."""

    @pytest.fixture
    def plane_reads(self, monkeypatch):
        """Per part, a ``_CountedPlanes`` of the count's word planes."""
        parts, word_planes = [], properties._word_planes

        def counted(rows, width):
            words, upper = word_planes(rows, width)
            parts.append(_CountedPlanes(words))
            return parts[-1], upper

        monkeypatch.setattr(properties, "_word_planes", counted)
        return parts

    @pytest.mark.parametrize("width", (64, 130))
    def test_only_common_neighbour_in_last_plane(self, width, plane_reads):
        # Row i holds bit i % (width - 1); odd rows also hold the last bit,
        # which is all that two odd rows share when their low bits differ.
        count = 2 * _BLOCK + 1
        rows = [1 << (i % (width - 1)) | (i % 2) << (width - 1) for i in range(count)]
        g = BipartiteGraph.from_rows(count, width, rows)
        expected = _bit_count_pair_counts(g)
        assert count_no_common_neighbour_pairs(g) == expected
        assert expected[0] <= math.comb(count, 2) - math.comb(count // 2, 2)  # odd pairs share
        assert plane_reads[0].reads[:2] == [(width + 63) // 64] * 2  # the last block is one row

    def test_zero_rows_never_stop_early(self, plane_reads):
        rows = [0] * (_BLOCK + 5) + [random.Random(3).getrandbits(130) for _ in range(_BLOCK)]
        g = BipartiteGraph.from_rows(len(rows), 130, rows)
        assert count_no_common_neighbour_pairs(g) == _bit_count_pair_counts(g)
        assert plane_reads[0].reads[0] == 3  # the first block is all zero rows

    def test_full_rows_stop_after_first_plane(self, plane_reads):
        g = BipartiteGraph.complete(2 * _BLOCK + 1, 130)
        assert count_no_common_neighbour_pairs(g) == _bit_count_pair_counts(g) == (0, 0)
        assert [part.reads for part in plane_reads] == [[1, 1, 1], [1, 1, 1]]

    @pytest.mark.parametrize("n1, n2", ((2 * _BLOCK + 2, 1), (1, 63), (_BLOCK + 1, 63),
                                        (2 * _BLOCK + 2, 64), (2 * _BLOCK + 1, 65)))
    @pytest.mark.parametrize("p", (Fraction(1, 2), Fraction(1, 20)))
    def test_unbalanced_hosts(self, n1, n2, p):
        rows = list(sample_bipartite(ModelParams(n1, n2, p), n1 * n2).rows(1))
        rows[n1 // 2] = 0  # an isolated vertex in part 1
        g = BipartiteGraph.from_rows(n1, n2, rows)
        for h in (g, BipartiteGraph.from_rows(n2, n1, g.rows(2))):
            assert count_no_common_neighbour_pairs(h) == _bit_count_pair_counts(h)


def _bit_count_pair_counts(g):
    counts = []
    for part in (1, 2):
        rows = g.rows(part)
        counts.append(sum((rows[i] & rows[j]).bit_count() == 0
                          for i in range(len(rows)) for j in range(i + 1, len(rows))))
    return tuple(counts)


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


@pytest.mark.parametrize("n2, p, epsilon, message", [
    (3, Fraction(1, 2), Fraction(1, 10), "property checks expect a balanced graph"),
    (2, Fraction(0), Fraction(1, 10), "p must be in (0, 1]"),
    (2, Fraction(-1), Fraction(1, 10), "p must be in (0, 1]"),
    (2, Fraction(2), Fraction(1, 10), "p must be in (0, 1]"),
    (2, Fraction(1, 2), Fraction(0), "epsilon must be in (0, 1)"),
    (2, Fraction(1, 2), Fraction(1), "epsilon must be in (0, 1)"),
    (2, Fraction(1, 2), Fraction(3), "epsilon must be in (0, 1)"),
    (2, Fraction(1, 2), Fraction(-1), "epsilon must be in (0, 1)"),
], ids=("unbalanced", "p-zero", "p-negative", "p-above-one", "epsilon-zero", "epsilon-one",
        "epsilon-above-one", "epsilon-negative"))
def test_property_input_checks(n2, p, epsilon, message):
    with pytest.raises(InvalidArgumentError) as exc:
        check_degrees(BipartiteGraph.complete(2, n2), p, epsilon)
    assert str(exc.value) == message
