"""The pseudo-random structure the cover algorithm consumes, measured on a graph.

``check_degrees`` scans every vertex and every same-part pair for the
degree band (1 +- eps) * p * n and the codegree band (1 +- eps) * p^2 * n;
``count_no_common_neighbour_pairs`` counts, per part, the pairs that
share no neighbour.  Together they are the report ``bipcover check``
prints.  The bounds on the sets a run actually built are checked by the
run's own audit (``audit_state``, ``audit_partition_state``).

Both pair scans pack a part's rows into 64-bit word planes stored
word-major (``_word_planes``), and take a block of ``_BLOCK`` rows against
every later row at a time, keeping its pairs j > i through ``upper``.  The
band check sums the codegrees plane by plane; the count stops each block at
the first plane after which every pair shares a word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graph import BipartiteGraph, pack_rows, vertex_table
from .models import as_fraction


@dataclass
class PropertyReport:
    property_id: str
    satisfied: bool | None = None
    checked_instances: int = 0
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "property": self.property_id,
            "applicable": True,  # every band applies to every balanced graph
            "satisfied": self.satisfied,
            "checked_instances": self.checked_instances,
            "violations": [self._violation_dict(v) for v in self.violations],
            "stats": self.stats,
        }

    @staticmethod
    def _violation_dict(v) -> dict:
        return {"witness": [str(x) for x in v[:-2]], "value": v[-2], "band": v[-1]}


_BLOCK = 64  # rows per block: a block's uint64 plane AND at n = 1000 is 512 KB


def _word_planes(rows: Sequence[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(words, upper): ``words[w]`` holds every row's w-th 64-bit word, and
    ``upper[a, k]`` is k > a, the pairs j > i of a block of rows b, b + 1, ..."""
    words = pack_rows(rows, (width + 63) // 64 * 64).view(np.uint64).T.copy()
    return words, np.triu(np.ones((_BLOCK, len(rows)), dtype=bool), 1)


def _codegree_blocks(rows: Sequence[int], width: int
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For each block of rows b .. b + h - 1, yield (b, co, upper).

    ``co`` is the int32 (h x (len(rows) - b)) array with ``co[a, k] =
    |N(b + a) cap N(b + k)|``; ``upper`` masks its pairs k > a (j > i), so
    that each pair is read once and no row is paired with itself.  Per
    block and word plane, one broadcast AND, one popcount and one add.
    Exact at any width, and no BLAS call, so no thread pool is left
    spinning after the check.
    """
    n, (words, upper) = len(rows), _word_planes(rows, width)
    both = np.empty(_BLOCK * n, dtype=np.uint64)
    ones = np.empty(_BLOCK * n, dtype=np.uint8)
    for b in range(0, n, _BLOCK):
        h, m = min(_BLOCK, n - b), n - b
        co = np.zeros((h, m), dtype=np.int32)
        both_hm, ones_hm = both[:h * m].reshape(h, m), ones[:h * m].reshape(h, m)
        for plane in words:
            np.bitwise_and(plane[b:b + h, None], plane[b:], out=both_hm)
            co += np.bitwise_count(both_hm, out=ones_hm)
        yield b, co, upper[:h, :m]


def check_degrees(g: BipartiteGraph, p, epsilon) -> tuple[PropertyReport, PropertyReport]:
    """Degree and codegree concentration: d(v) within (1 +- eps) * p * n and
    |N(u) cap N(v)| within (1 +- eps) * p^2 * n for same-part pairs.

    Returns (degree report, codegree report); each violation carries the
    witness vertex or pair, the measured value, and the allowed band.
    """
    if g.n1 != g.n2:
        raise InvalidArgumentError("property checks expect a balanced graph")
    n = g.n1
    p, eps = as_fraction(p), as_fraction(epsilon)
    if not 0 < p <= 1:
        raise InvalidArgumentError("p must be in (0, 1]")
    if not 0 < eps < 1:
        raise InvalidArgumentError("epsilon must be in (0, 1)")
    d_lo, d_hi = (1 - eps) * p * n, (1 + eps) * p * n
    c_lo, c_hi = (1 - eps) * p * p * n, (1 + eps) * p * p * n
    d_band, c_band = (float(d_lo), float(d_hi)), (float(c_lo), float(c_hi))
    # Degrees and codegrees are integers, so the exact band is the integer one.
    d_min, d_max = math.ceil(d_lo), math.floor(d_hi)
    c_min, c_max = math.ceil(c_lo), math.floor(c_hi)

    degree_report = PropertyReport("degree-band")
    codegree_report = PropertyReport("codegree-band")
    for part in (1, 2):
        rows, table = g.rows(part), vertex_table(part, n)
        for i, row in enumerate(rows):
            degree_report.checked_instances += 1
            d = row.bit_count()
            if not d_min <= d <= d_max:
                degree_report.violations.append((table[i], d, d_band))
        codegree_report.checked_instances += n * (n - 1) // 2
        for b, co, upper in _codegree_blocks(rows, n):
            bad = ((co < c_min) | (co > c_max)) & upper
            at, to = np.nonzero(bad)  # row-major: pairs in (i, j) order
            for a, k, c in zip(at.tolist(), to.tolist(), co[bad].tolist()):
                codegree_report.violations.append(((table[b + a], table[b + k]), c, c_band))
    for rep in (degree_report, codegree_report):
        rep.satisfied = not rep.violations
        rep.stats["violation_count"] = len(rep.violations)
    return degree_report, codegree_report


def count_no_common_neighbour_pairs(g: BipartiteGraph) -> tuple[int, int]:
    """Per part, how many same-part pairs share no neighbour at all; each
    block stops at the first word plane after which no such pair is left."""
    counts = []
    for part, width in ((1, g.n2), (2, g.n1)):
        rows = g.rows(part)
        (words, upper), n, total = _word_planes(rows, width), len(rows), 0
        for b in range(0, n, _BLOCK):
            zero = upper[:min(_BLOCK, n - b), :n - b].copy()  # pairs sharing no word yet
            for plane in words:
                zero &= (plane[b:b + len(zero), None] & plane[b:]) == 0
                if not zero.any():
                    break
            total += int(np.count_nonzero(zero))
        counts.append(total)
    return counts[0], counts[1]
