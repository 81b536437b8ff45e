"""Runtime checks for the pseudo-random structure the cover algorithm consumes.

These are desk-scale, witness-driven checks: the degree and codegree
bands scan everything, but expansion and domination quantify over
exponentially many sets in general, so they are evaluated on the
specific sets an algorithm run used (or caller-supplied samples).  A
report whose preconditions fail is marked not applicable rather than
violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .graph import (BipartiteGraph, Vertex, bit_indices, components_from_rows, edges_between,
                    pack_rows, select, transpose_rows, vertex_masks, vertex_set, vertex_table)
from .models import as_fraction


@dataclass
class PropertyReport:
    property_id: str
    applicable: bool = True
    satisfied: bool | None = None
    checked_instances: int = 0
    violations: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "property": self.property_id,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "checked_instances": self.checked_instances,
            "violations": [self._violation_dict(v) for v in self.violations],
            "stats": self.stats,
        }

    @staticmethod
    def _violation_dict(v) -> dict:
        return {"witness": [str(x) for x in v[:-2]], "value": v[-2], "band": v[-1]}


def _require_balanced(g: BipartiteGraph) -> int:
    if g.n1 != g.n2:
        raise InvalidArgumentError("property checks expect a balanced graph")
    return g.n1


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
    n = _require_balanced(g)
    p = as_fraction(p)
    eps = as_fraction(epsilon)
    d_lo, d_hi = (1 - eps) * p * n, (1 + eps) * p * n
    c_lo, c_hi = (1 - eps) * p * p * n, (1 + eps) * p * p * n
    d_band, c_band = (float(d_lo), float(d_hi)), (float(c_lo), float(c_hi))
    # Degrees and codegrees are integers, so the exact band is the integer one.
    d_min, d_max = math.ceil(d_lo), math.floor(d_hi)
    c_min, c_max = math.ceil(c_lo), math.floor(c_hi)

    degree_report = PropertyReport("degree-band")
    codegree_report = PropertyReport("codegree-band")
    for part in (1, 2):
        rows = [g.row(part, i) for i in range(n)]
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


def _split_side(g: BipartiteGraph, vertices: Iterable[Vertex]) -> tuple[int, int]:
    """(part, mask) of a single-part vertex set."""
    m1, m2 = vertex_masks(g, vertices)
    if m1 and m2:
        raise InvalidArgumentError("vertex set spans both parts")
    return (1, m1) if m1 else (2, m2)


def check_expansion(g: BipartiteGraph, p, u_set: Iterable[Vertex],
                    w_set: Iterable[Vertex]) -> PropertyReport:
    """e(U, W) >= p * |U| * |W| / 2 for opposite-part sets of qualifying size."""
    n = _require_balanced(g)
    p = as_fraction(p)
    report = PropertyReport("expansion")
    side_u, mask_u = _split_side(g, u_set)
    side_w, mask_w = _split_side(g, w_set)
    if side_u == side_w:
        raise InvalidArgumentError("expansion sets must lie in opposite parts")
    cu, cw = mask_u.bit_count(), mask_w.bit_count()
    if Fraction(cu) < p * n / 100 or Fraction(cw) < 100 / p:
        report.applicable = False
        report.stats["reason"] = "set sizes below the check's scale"
        return report
    edges = edges_between(g.rows(side_u), mask_u, mask_w)
    bound = p * cu * cw / 2
    report.checked_instances = 1
    report.satisfied = Fraction(edges) >= bound
    report.stats = {"edges": edges, "bound": float(bound), "sizes": (cu, cw)}
    if not report.satisfied:
        report.violations.append((f"|U|={cu}", f"|W|={cw}", edges, float(bound)))
    return report


def check_domination(g: BipartiteGraph, p, u_set: Iterable[Vertex]) -> PropertyReport:
    """All but at most 100/p opposite-part vertices see >= p^2*n/200 of U."""
    n = _require_balanced(g)
    p = as_fraction(p)
    report = PropertyReport("domination")
    side_u, mask_u = _split_side(g, u_set)
    if Fraction(mask_u.bit_count()) < p * n / 100:
        report.applicable = False
        report.stats["reason"] = "U below the check's scale"
        return report
    other = 2 if side_u == 1 else 1
    floor = p * p * n / 200
    starved = []
    for i in range(g.part_size(other)):
        report.checked_instances += 1
        d = (g.row(other, i) & mask_u).bit_count()
        if Fraction(d) < floor:
            starved.append((Vertex(other, i), d, float(floor)))
    report.satisfied = Fraction(len(starved)) <= 100 / p
    report.violations = starved if not report.satisfied else []
    report.stats = {"starved_count": len(starved), "allowed": float(100 / p)}
    return report


def check_min_degree_connectivity(
        g: BipartiteGraph, p, epsilon, h_vertices: Iterable[Vertex],
        h_edge_filter: Callable[[Vertex, Vertex], bool] | None = None) -> PropertyReport:
    """A subgraph with minimum degree >= (1/2 + eps) * p * n must be connected.

    ``h_edge_filter`` restricts which edges belong to H (for example a
    colour test); None keeps every induced edge.
    """
    n = _require_balanced(g)
    p = as_fraction(p)
    eps = as_fraction(epsilon)
    report = PropertyReport("min-degree-connectivity")
    m1, m2 = vertex_masks(g, h_vertices)
    rows1 = tuple(row & m2 if m1 >> i & 1 else 0 for i, row in enumerate(g.rows(1)))
    if h_edge_filter is not None:
        ends1, ends2 = vertex_table(1, g.n1), vertex_table(2, g.n2)
        rows1 = tuple(select(row, lambda j: h_edge_filter(ends1[i], ends2[j]))
                      for i, row in enumerate(rows1))
    rows2 = transpose_rows(rows1, g.n2)
    degrees = [rows1[i].bit_count() for i in bit_indices(m1)]
    degrees += [rows2[j].bit_count() for j in bit_indices(m2)]
    floor = (Fraction(1, 2) + eps) * p * n
    if not degrees or min(degrees) < floor:
        report.applicable = False
        report.stats["reason"] = (f"min degree {min(degrees) if degrees else 0} "
                                  f"below {float(floor):.2f}")
        return report
    comps = components_from_rows(g.n1, g.n2, rows1, rows2, m1, m2)
    report.checked_instances = 1
    report.satisfied = len(comps) == 1
    report.stats = {"components": len(comps), "vertices": m1.bit_count() + m2.bit_count()}
    if not report.satisfied:
        report.violations.append(
            ("components", [sorted(vertex_set(c1, c2))[0] for c1, c2 in comps],
             len(comps), 1))
    return report


def count_no_common_neighbour_pairs(g: BipartiteGraph) -> tuple[int, int]:
    """Per part, how many same-part pairs share no neighbour at all."""
    counts = []
    for part, width in ((1, g.n2), (2, g.n1)):
        rows = [g.row(part, i) for i in range(g.part_size(part))]
        counts.append(sum(int(np.count_nonzero(tail == 0))
                          for tail in _codegree_tails(rows, width)))
    return counts[0], counts[1]
