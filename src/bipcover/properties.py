"""The pseudo-random structure the cover algorithm consumes, measured on a graph.

``check_degrees`` scans every vertex and every same-part pair for the
degree band (1 +- eps) * p * n and the codegree band (1 +- eps) * p^2 * n;
``count_no_common_neighbour_pairs`` counts, per part, the pairs that
share no neighbour.  Together they are the report ``bipcover check``
prints.  The bounds on the sets a run actually built are checked by the
run's own audit (``audit_state``, ``audit_partition_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graph import BipartiteGraph, Vertex, pack_rows
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


def _codegree_tails(rows: Sequence[int], width: int) -> Iterator[np.ndarray]:
    """For each row i but the last, |N(i) cap N(j)| for j = i+1, i+2, ...

    Rows are packed into 64-bit words and each pair is an AND and a
    popcount: exact at any width, and no BLAS call, so no thread pool is
    left spinning after the check.
    """
    words = pack_rows(rows, (width + 63) // 64 * 64).view(np.uint64)
    for i in range(len(rows) - 1):
        yield np.bitwise_count(words[i + 1:] & words[i]).sum(axis=1, dtype=np.int64)


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
        rows = g.rows(part)
        for i, row in enumerate(rows):
            degree_report.checked_instances += 1
            d = row.bit_count()
            if not d_min <= d <= d_max:
                degree_report.violations.append((Vertex(part, i), d, d_band))
        codegree_report.checked_instances += n * (n - 1) // 2
        for i, tail in enumerate(_codegree_tails(rows, n)):
            for k in np.flatnonzero((tail < c_min) | (tail > c_max)).tolist():
                codegree_report.violations.append(
                    ((Vertex(part, i), Vertex(part, i + 1 + k)), int(tail[k]), c_band))
    for rep in (degree_report, codegree_report):
        rep.satisfied = not rep.violations
        rep.stats["violation_count"] = len(rep.violations)
    return degree_report, codegree_report


def count_no_common_neighbour_pairs(g: BipartiteGraph) -> tuple[int, int]:
    """Per part, how many same-part pairs share no neighbour at all."""
    counts = []
    for part, width in ((1, g.n2), (2, g.n1)):
        rows = g.rows(part)
        counts.append(sum(int(np.count_nonzero(tail == 0))
                          for tail in _codegree_tails(rows, width)))
    return counts[0], counts[1]
