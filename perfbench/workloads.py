"""The benchmark's four workloads: inputs made from a seed, and one pass over them.

A pass returns the ops it ran, the ops that failed, per-op wall times,
the deterministic bytes it produced (hashed into the pass digest) and
the traffic counts that show which branches of the code it reached.

Ops fail when a validator objects (a sweep record with ``valid=false``
and no structured error, or a K_{n,n} colouring whose tc exceeds the
bound) or when a call raises something other than ``BipcoverError``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from bipcover import cli, exact, formats, models, sweep
from bipcover.errors import BipcoverError

DEFAULT_SEED = 20250808  # the acceptance suite's BASE_SEED


def derive(seed: int, *parts) -> int:
    """A 64-bit input seed from the workload seed; independent of bipcover's own hashing."""
    text = ":".join(str(x) for x in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def threshold_p(n: int) -> Fraction:
    """p = 5 sqrt(log n / n), made rational as acceptance criterion 2 does."""
    return Fraction(5 * math.sqrt(math.log(n) / n)).limit_denominator(10 ** 9)


@dataclass
class PassResult:
    ops: int
    failed: int
    op_ms: list[float]
    busy_s: float  # time inside the timed ops; reference loops excluded
    ref_ms: list[float]  # per op: mean time of the reference loops just before it
    output: bytes
    traffic: dict[str, int]


class Reference:
    """A fixed loop of big-int ANDs, popcounts and dict stores, timed between ops.

    It does not touch bipcover, so a change to the program cannot change it.
    On a shared host the speed of a core drifts by up to 1.6x over minutes;
    an op time divided by this loop's mean time in the same run is much
    steadier than either alone (see README.md).  One loop takes about 1 ms.
    """

    def __init__(self):
        rnd = random.Random(DEFAULT_SEED)
        self._rows = [rnd.getrandbits(1000) for _ in range(48)]
        self.seconds = 0.0
        self.calls = 0

    def _loop(self) -> int:
        total = 0
        for a in self._rows:
            for b in self._rows:
                total += (a & b).bit_count()
        stores = {}
        for i in range(6000):
            stores[i] = i & 7
        return total + len(stores)

    def sample(self, loops: int) -> float:
        """Time ``loops`` loops; returns their mean in ms."""
        begin = self.seconds
        for _ in range(loops):
            start = time.perf_counter()
            self._loop()
            self.seconds += time.perf_counter() - start
            self.calls += 1
        return (self.seconds - begin) * 1000 / loops


def _failed_call(what: str) -> None:
    print(f"perfbench: {what} raised:", flush=True, file=sys.stderr)
    traceback.print_exc()


class SweepWorkload:
    """100 trials per pass, as 50 ops of two ``run_sweep`` calls of one trial each.

    An op is one grid point: the same host (the same trial seed) under a
    uniform colouring and under ``lower3``, as in acceptance criterion 2,
    where both sources share the base seed.  Timing the pair, not each
    trial, keeps the median off the gap between the fast uniform trials
    and the slow lower3 ones: with 50 of each, a per-trial median falls
    between the two groups and follows their extremes.
    """

    SOURCES = ("uniform", "lower3")
    POINTS = 50
    REFERENCE_LOOPS = 4  # before each op: about 2% of an op

    def __init__(self, name, algorithm, n, spans, **grid):
        self.name = name
        self.algorithm, self.n, self.grid = algorithm, n, grid
        self.spans = spans
        self.setup_spans = ()

    def setup(self, seed: int, workdir: str):
        return [[sweep.SweepConfig(n_values=(self.n,), trials=1,
                                   base_seed=derive(seed, self.name, k), source=source,
                                   algorithm=self.algorithm, **self.grid)
                 for source in self.SOURCES]
                for k in range(self.POINTS)]

    def run_pass(self, points, reference: Reference) -> PassResult:
        records, op_ms, ref_ms, failed, errors = [], [], [], 0, []
        for configs in points:
            ref_ms.append(reference.sample(self.REFERENCE_LOOPS))
            start = time.perf_counter()
            ok = True
            for config in configs:
                try:
                    rs = sweep.run_sweep(config)
                except BipcoverError as exc:
                    rs = []
                    errors.append(f"{config.base_seed} {config.source} {type(exc).__name__}")
                except Exception:
                    rs = []
                    ok = False
                    _failed_call(f"run_sweep(base_seed={config.base_seed}, "
                                 f"source={config.source})")
                ok = ok and all(r.valid or r.error for r in rs)
                records.extend(rs)
            op_ms.append((time.perf_counter() - start) * 1000)
            failed += not ok
        csv = sweep.records_to_csv(records)
        summary = sweep.summarise(records)
        deterministic = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
        output = "\n".join([deterministic, summary] + errors).encode()
        traffic = Counter(f"case.{r.case}" for r in records)
        traffic["trials"] = len(records)
        return PassResult(len(points), failed, op_ms, sum(op_ms) / 1000, ref_ms, output,
                          dict(traffic))


class KnnWorkload:
    """One pass is one exhaustive check of K_{4,4}; one op is one colouring.

    The ops run inside one library call, so the per-op time is the pass
    time over the colourings, one sample per pass.  The seed changes
    nothing: the input is every colouring.
    """

    name = "knn-k44"
    spans = ("exact.exhaustive_knn_check", "graph.components_from_rows")
    setup_spans = ()
    N, R, BOUND = 4, 2, 2
    COLOURINGS = R ** (N * N)
    REFERENCE_LOOPS = 60

    def setup(self, seed: int, workdir: str):
        return None

    def run_pass(self, state, reference: Reference) -> PassResult:
        ref_ms = [reference.sample(self.REFERENCE_LOOPS)]
        start = time.perf_counter()
        try:
            report = exact.exhaustive_knn_check(self.N, self.R, self.BOUND)
        except Exception:
            _failed_call("exhaustive_knn_check")
            busy_s = time.perf_counter() - start
            return PassResult(self.COLOURINGS, self.COLOURINGS,
                              [busy_s * 1000 / self.COLOURINGS], busy_s, ref_ms, b"", {})
        busy_s = time.perf_counter() - start
        per_op_ms = busy_s * 1000 / report.total_colourings
        out = {  # the report `bipcover exact --mode knn` prints
            "n": report.n, "r": report.r, "bound": report.bound,
            "total_colourings": report.total_colourings, "max_tc": report.max_tc,
            "histogram": {str(k): v for k, v in sorted(report.tc_histogram.items())},
            "violations": report.violations[:32],
            "violation_count": len(report.violations),
        }
        traffic = {"colourings": report.total_colourings, "max_tc": report.max_tc}
        return PassResult(report.total_colourings, len(report.violations), [per_op_ms],
                          busy_s, ref_ms, json.dumps(out, sort_keys=True).encode(), traffic)


class CheckWorkload:
    """One op is one ``bipcover check <file> --epsilon 0.2`` on a 1000x1000 graph file."""

    name = "check-n1000"
    spans = ("cli", "formats.parse_graph", "properties.check_degrees",
             "properties.count_no_common_neighbour_pairs")
    setup_spans = ("formats.write_graph",)
    N = 1000
    REFERENCE_LOOPS = 60

    def setup(self, seed: int, workdir: str):
        p = threshold_p(self.N)
        g = models.sample_bipartite(models.ModelParams(self.N, self.N, p),
                                    derive(seed, self.name, "graph"))
        colouring = models.sample_colouring(g, Fraction(1, 2),
                                            derive(seed, self.name, "colour"))
        path = os.path.join(workdir, "graph.txt")
        with open(path, "w") as fh:
            fh.write(formats.write_graph(g, colouring))
        return ["check", path, "--p-num", str(p.numerator),
                "--p-den", str(p.denominator), "--epsilon", "0.2"]

    def run_pass(self, argv, reference: Reference) -> PassResult:
        stdout = io.StringIO()
        ref_ms = [reference.sample(self.REFERENCE_LOOPS)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except Exception:
            _failed_call("bipcover check")
            busy_s = time.perf_counter() - start
            return PassResult(1, 1, [busy_s * 1000], busy_s, ref_ms, b"", {})
        busy_s = time.perf_counter() - start
        text = stdout.getvalue()
        traffic = {"exit_code": code}
        if code in (0, 1):
            traffic["pairs_checked"] = json.loads(text)["reports"][1]["checked_instances"]
        return PassResult(1, 0, [busy_s * 1000], busy_s, ref_ms,
                          f"{text}exit {code}\n".encode(), traffic)


_SWEEP_SPANS = ("models.sample_colouring", "adversary.colour_lower3",
                "graph.transpose_rows", "sweep", "sweep.summarise", "sweep.records_to_csv")

WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        "threshold-n1000", "almost_cover", 1000,
        _SWEEP_SPANS + ("models.sample_bipartite", "graph.validate_cover",
                        "graph.spanning_tree_of", "cover.almost_cover", "cover.audit_state"),
        c_values=(Fraction(5),)),
    SweepWorkload(
        "mindeg-n400", "partition3", 400,
        _SWEEP_SPANS + ("models.sample_mindeg_subgraph", "graph.validate_partition",
                        "mindeg.partition3", "mindeg.audit_partition_state"),
        # partition3 does not use p; it only labels the record.
        p_values=(Fraction(1),)),
    KnnWorkload(),
    CheckWorkload(),
)}
