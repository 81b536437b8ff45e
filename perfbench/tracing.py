"""Spans and counters around bipcover's public functions, from outside the package.

bipcover modules import each other's functions by name, so one function
object can be bound in several modules (``components_from_rows`` lives in
``graph``, ``cover``, ``mindeg``, ``exact`` and ``properties``).  A wrapper
is therefore set on every loaded ``bipcover`` module that binds the
original object, and :func:`uninstall` puts every binding back.

A span's self time is its duration minus the durations of the spans
called inside it.  Counters are read from the wrapped call's arguments
and result, at the same boundary as the span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _cover_counts(counts, args, result):
    cover, state = result
    counts[f"cover.case.{state.case.value}"] += 1
    counts["cover.uncovered_total"] += len(cover.uncovered)


def _mindeg_counts(counts, args, result):
    counts[f"mindeg.branch.{result[1].branch}"] += 1


def _exact_counts(counts, args, result):
    counts["exact.colourings"] += result.total_colourings


def _pair_counts(counts, args, result):
    counts["properties.pairs_checked"] += result[1].checked_instances


def _bytes_in(counts, args, result):
    source = args[0]
    if isinstance(source, str):
        counts["formats.bytes_in"] += len(source.encode())
    else:
        counts["formats.bytes_in"] += os.fstat(source.fileno()).st_size


def _sweep_counts(counts, args, result):
    counts["sweep.trials"] += len(result)
    counts["sweep.error_records"] += sum(1 for r in result if r.error)
    counts["sweep.invalid_records"] += sum(
        1 for r in result if not r.valid and not r.error)


# (span name, module, function, counter hook).  The span name is the
# metric prefix: ``cli`` and ``sweep`` are the front ends' own spans.
SPANS = (
    ("models.sample_bipartite", "bipcover.models", "sample_bipartite", None),
    ("models.sample_colouring", "bipcover.models", "sample_colouring", None),
    ("models.sample_mindeg_subgraph", "bipcover.models", "sample_mindeg_subgraph", None),
    ("adversary.colour_lower3", "bipcover.adversary", "colour_lower3", None),
    ("graph.transpose_rows", "bipcover.graph", "transpose_rows", None),
    ("graph.components_from_rows", "bipcover.graph", "components_from_rows", None),
    ("graph.validate_cover", "bipcover.graph", "validate_cover", None),
    ("graph.spanning_tree_of", "bipcover.graph", "spanning_tree_of", None),
    ("graph.validate_partition", "bipcover.graph", "validate_partition", None),
    ("cover.almost_cover", "bipcover.cover", "almost_cover", _cover_counts),
    ("cover.audit_state", "bipcover.cover", "audit_state", None),
    ("mindeg.partition3", "bipcover.mindeg", "partition3", _mindeg_counts),
    ("mindeg.audit_partition_state", "bipcover.mindeg", "audit_partition_state", None),
    ("exact.exhaustive_knn_check", "bipcover.exact", "exhaustive_knn_check", _exact_counts),
    ("properties.check_degrees", "bipcover.properties", "check_degrees", _pair_counts),
    ("properties.count_no_common_neighbour_pairs", "bipcover.properties",
     "count_no_common_neighbour_pairs", None),
    ("formats.parse_graph", "bipcover.formats", "parse_graph", _bytes_in),
    ("formats.write_graph", "bipcover.formats", "write_graph", None),
    ("cli", "bipcover.cli", "main", None),
    ("sweep", "bipcover.sweep", "run_sweep", _sweep_counts),
    ("sweep.summarise", "bipcover.sweep", "summarise", None),
    ("sweep.records_to_csv", "bipcover.sweep", "records_to_csv", None),
)


class Tracer:
    """Self time, call count and counters per span, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += duration
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def take(self) -> dict:
        """Return the totals so far and start again from zero."""
        totals = {"self_ms": {k: v * 1000 for k, v in self.self_s.items()},
                  "calls": dict(self.calls), "counts": dict(self.counts)}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return totals


def install(tracer: Tracer) -> list:
    """Wrap every span on every bipcover module that binds it; returns the undo list.

    A span whose function no longer exists is left out, so the run reports
    it as a declared span with no calls rather than crashing.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "bipcover" or name.startswith("bipcover.")]
    patches = []
    for name, module_name, attr, hook in SPANS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)
