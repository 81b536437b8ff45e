"""Threshold sweep harness: run many seeded trials over an (n, p) grid,
validate every output, and aggregate outcomes.

:func:`run_construction` is the one construct -> validate -> audit step;
each sweep trial and the CLI's cover/partition commands go through it.

Each trial is fully determined by (base seed, n, p index, trial index),
so a sweep is reproducible record-for-record and trials can run in a
process pool in any order.  Per-trial failures (construction
infeasibility, property failures, retry exhaustion) become error records
rather than aborting the sweep.

The records CSV has the fixed header

    n,p_num,p_den,seed,source,algorithm,trees,uncovered,valid,case,runtime_ms

where runtime_ms is measured wall time and therefore the one column that
varies between re-runs; every other byte is deterministic.  The summary
CSV produced by :func:`summarise` contains aggregates only and is fully
byte-stable.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .adversary import colour_lower3, colour_lower4
from .construct import AuditReport
from .cover import CoverCase, CoverParams, almost_cover, audit_state
from .errors import BipcoverError
from .exact import ExactResult, tc_exact
from .graph import (BipartiteGraph, MonoPartition, TreeCover, TwoColouring,
                    ValidationReport, monochromatic_components, validate_cover,
                    validate_partition)
from .mindeg import BRANCHES, PartitionParams, audit_partition_state, partition3
from .models import (ModelParams, as_fraction, sample_bipartite,
                     sample_colouring, sample_mindeg_subgraph)
from .rng import TAG_SWEEP, combine

RECORD_HEADER = "n,p_num,p_den,seed,source,algorithm,trees,uncovered,valid,case,runtime_ms"
SUMMARY_HEADER = ("n,p_num,p_den,source,algorithm,trials,valid_rate,error_rate,"
                  "mean_trees,mean_uncovered,max_uncovered,within_bound_rate,"
                  "audit_rate")

SOURCES = ("uniform", "lower3", "lower4")
ALGORITHMS = ("almost_cover", "partition3", "exact_tc")
# The case column: a cover case, a partition3 branch, "exact" for tc_exact
# (run_construction) or "error" for a failed trial (_trial).
CASES = frozenset((*(c.value for c in CoverCase), *BRANCHES, "exact", "error"))


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    trials: int = 1
    base_seed: int = 0
    source: str = "uniform"
    algorithm: str = "almost_cover"
    p_values: tuple[Fraction, ...] | None = None
    c_values: tuple[Fraction, ...] | None = None  # p = c * sqrt(log n / n)
    delta: Fraction = PartitionParams.delta
    retry_limit: int = CoverParams.retry_limit
    threads: int = 1

    def __post_init__(self):
        # Grids are lists or tuples; p and c values from text or numbers, as the params read them.
        for name in ("n_values", "p_values", "c_values"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) and (grid is not None or name == "n_values"):
                raise BipcoverError(f"{name} must be a list or tuple")
            if grid is not None and name != "n_values":
                object.__setattr__(self, name, tuple(map(as_fraction, grid)))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.trials < 1:
            raise BipcoverError("trials must be at least 1")
        if self.threads < 1:
            raise BipcoverError("threads must be at least 1")
        if self.source not in SOURCES:
            raise BipcoverError(f"unknown source {self.source!r}")
        if self.algorithm not in ALGORITHMS:
            raise BipcoverError(f"unknown algorithm {self.algorithm!r}")
        if (self.p_values is None) == (self.c_values is None):
            raise BipcoverError("exactly one of p_values / c_values required")
        for p in self.p_values or ():
            if not 0 < p <= 1:
                raise BipcoverError(f"p value {p} outside (0, 1]")
        for n in self.n_values:
            if not isinstance(n, int):
                raise BipcoverError(f"n value {n!r} is not an integer")
            if n < 1:
                raise BipcoverError(f"n value {n} is below 1")
            for c, p in zip(self.c_values or (), self.p_grid(n)):
                if not 0 < p <= 1:
                    raise BipcoverError(f"c value {c} at n = {n} gives p = {p}, outside (0, 1]")
        if self.algorithm == "partition3":  # what every trial's params would reject
            PartitionParams(delta=self.delta)

    def p_grid(self, n: int) -> list[Fraction]:
        if self.p_values is not None:
            return list(self.p_values)
        out = []
        for c in self.c_values:
            p = float(c) * math.sqrt(math.log(n) / n)
            out.append(min(Fraction(1), Fraction(p).limit_denominator(10 ** 9)))
        return out


@dataclass
class SweepRecord:
    n: int
    p: Fraction
    seed: int
    source: str
    algorithm: str
    trees: int
    uncovered: int
    valid: bool
    case: str
    runtime_ms: int
    error: str = ""
    audit_ok: bool | None = None  # in-memory only; the CSV schema is fixed

    def csv_row(self) -> str:
        return (f"{self.n},{self.p.numerator},{self.p.denominator},{self.seed},"
                f"{self.source},{self.algorithm},{self.trees},{self.uncovered},"
                f"{str(self.valid).lower()},{self.case},{self.runtime_ms}")


@dataclass
class TrialOutcome:
    """One construction's output with its validation and audit."""

    output: TreeCover | MonoPartition | ExactResult
    report: ValidationReport
    audit: AuditReport | None
    case: str  # cover case, partition branch, or "exact"
    trees: int  # trees, parts, or components
    uncovered: int = 0


def run_construction(g: BipartiteGraph, colouring: TwoColouring,
                     params: CoverParams | PartitionParams | None) -> TrialOutcome:
    """Construct, validate and audit: ``almost_cover`` for CoverParams,
    ``partition3`` for PartitionParams, ``tc_exact`` (checked against its
    own witness, not audited) for None."""
    if isinstance(params, CoverParams):
        cover, state = almost_cover(g, colouring, params)
        return TrialOutcome(cover, validate_cover(g, colouring, cover),
                            audit_state(g, colouring, state), state.case.value,
                            len(cover.trees), len(cover.uncovered))
    if isinstance(params, PartitionParams):
        partition, state = partition3(g, colouring, params)
        return TrialOutcome(partition, validate_partition(g, colouring, partition),
                            audit_partition_state(g, colouring, state), state.branch,
                            len(partition.parts))
    result = tc_exact(g, colouring)
    report = ValidationReport()
    if not _tc_witness_ok(g, colouring, result):
        report.add("witness is not a cover by monochromatic components")
    return TrialOutcome(result, report, None, "exact", result.value)


def _trial(config: SweepConfig, job: tuple[int, int, Fraction, int]) -> SweepRecord:
    n, p_index, p, trial = job
    seed = combine(config.base_seed, TAG_SWEEP, n, p_index, trial)
    start = time.perf_counter()
    try:
        if config.algorithm == "partition3":
            g = sample_mindeg_subgraph(n, Fraction(13, 16) + config.delta, seed)
        else:
            g = sample_bipartite(ModelParams(n, n, p), seed)
        if config.source == "uniform":
            colouring = sample_colouring(g, Fraction(1, 2), seed)
        elif config.source == "lower3":
            colouring, _ = colour_lower3(g)
        else:
            colouring, _ = colour_lower4(g)
        # Params come after the colouring: a failing colouring is the
        # error a trial records, even when its params are invalid too.
        params = None
        if config.algorithm == "almost_cover":
            params = CoverParams(p=p, retry_limit=config.retry_limit, seed=seed)
        elif config.algorithm == "partition3":
            retry = max(config.retry_limit, PartitionParams.retry_limit)
            params = PartitionParams(delta=config.delta, seed=seed, retry_limit=retry)
        run = run_construction(g, colouring, params)
        fields = dict(trees=run.trees, uncovered=run.uncovered, valid=run.report.ok,
                      case=run.case,
                      audit_ok=None if run.audit is None else run.audit.all_satisfied)
    except BipcoverError as exc:
        fields = dict(trees=0, uncovered=0, valid=False, case="error",
                      error=type(exc).__name__)
    return SweepRecord(n, p, seed, config.source, config.algorithm,
                       runtime_ms=int((time.perf_counter() - start) * 1000), **fields)


def _tc_witness_ok(g, colouring, result) -> bool:
    """The witness is ``value`` monochromatic components that cover V(G)."""
    if len(result.witness) != result.value:
        return False
    covered: set = set()
    for colour, vertices in result.witness:
        if vertices not in monochromatic_components(g, colouring, colour):
            return False
        covered |= vertices
    return covered == set(g.vertices())


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """All trials of the grid, in deterministic (n, p index, trial) order."""
    jobs = [(n, p_index, p, trial)
            for n in config.n_values
            for p_index, p in enumerate(config.p_grid(n))
            for trial in range(config.trials)]
    trial = functools.partial(_trial, config)
    if config.threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(trial, jobs, chunksize=8))
    return list(map(trial, jobs))


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [RECORD_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line that is not blank once its
    ``#`` comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_records(text: str) -> list[SweepRecord]:
    """The records of a CSV that ``records_to_csv`` wrote."""
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != RECORD_HEADER:
        raise BipcoverError("not a sweep records CSV")
    records = []
    for lineno, line in lines[1:]:
        try:
            (n, p_num, p_den, seed, source, algorithm, trees, uncovered,
             valid, case, runtime_ms) = line.split(",")
            record = SweepRecord(
                n=int(n), p=Fraction(int(p_num), int(p_den)), seed=int(seed),
                source=source, algorithm=algorithm, trees=int(trees),
                uncovered=int(uncovered), valid=valid == "true", case=case,
                runtime_ms=int(runtime_ms),
                # Only a caught BipcoverError writes case "error"; its class is not kept.
                error="BipcoverError" if case == "error" else "")
            if (not 0 < record.p <= 1 or valid not in ("true", "false")
                    or source not in SOURCES or algorithm not in ALGORITHMS
                    or case not in CASES or record.n < 1
                    or min(record.trees, record.uncovered, record.runtime_ms) < 0):
                raise ValueError("a value that records_to_csv never writes")
            records.append(record)
        except (ValueError, ZeroDivisionError) as exc:
            raise BipcoverError(f"records line {lineno}: malformed row") from exc
    return records


def summarise(records: list[SweepRecord]) -> str:
    """Aggregate per (n, p, source, algorithm) cell; byte-stable output.

    ``within_bound_rate`` is the fraction of valid almost_cover trials
    with at most 200/p uncovered vertices (1.0 for other algorithms'
    valid trials).
    """
    if not records:
        raise BipcoverError("no records to summarise")
    cells: dict[tuple, list[SweepRecord]] = {}
    for r in records:
        cells.setdefault((r.n, r.p, r.source, r.algorithm), []).append(r)
    lines = [SUMMARY_HEADER]
    for key in sorted(cells):
        n, p, source, algorithm = key
        rs = cells[key]
        trials = len(rs)
        valid = sum(1 for r in rs if r.valid)
        errors = sum(1 for r in rs if r.error)
        mean_trees = sum(r.trees for r in rs) / trials
        mean_unc = sum(r.uncovered for r in rs) / trials
        max_unc = max(r.uncovered for r in rs)
        bound = 200 / p
        within = sum(1 for r in rs
                     if r.valid and (r.algorithm != "almost_cover"
                                     or Fraction(r.uncovered) <= bound))
        audited = [r for r in rs if r.audit_ok is not None]
        audit_rate = (f"{sum(1 for r in audited if r.audit_ok) / len(audited):.6f}"
                      if audited else "")
        lines.append(
            f"{n},{p.numerator},{p.denominator},{source},{algorithm},{trials},"
            f"{valid / trials:.6f},{errors / trials:.6f},{mean_trees:.6f},"
            f"{mean_unc:.6f},{max_unc},{within / trials:.6f},{audit_rate}")
    return "\n".join(lines) + "\n"


def plot_script(summary_path: str) -> str:
    """A generic gnuplot script over the summary CSV (no images rendered here)."""
    return f"""# gnuplot script for a bipcover sweep summary
set datafile separator ','
set key autotitle columnhead
set xlabel 'edge probability p'
set ylabel 'rate'
set yrange [0:1.05]
set grid
plot '{summary_path}' using ($2/$3):7 with linespoints title 'valid rate', \\
     '' using ($2/$3):12 with linespoints title 'within-bound rate'
"""


def parse_config_file(text: str) -> dict:
    """Flat ``key = value`` config format mirroring the CLI flags."""
    out: dict = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise BipcoverError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _listed(read: Callable) -> Callable:
    """A reader for a comma list of ``read`` values."""
    return lambda value: tuple(map(read, str(value).split(",")))


# How each SweepConfig field is read from a config file value or a CLI
# flag; both the file keys and the ``sweep`` flags come from this table.
SETTINGS: dict[str, Callable] = {
    "n_values": _listed(int),
    "trials": int,
    "base_seed": int,
    "source": str,
    "algorithm": str,
    "p_values": _listed(as_fraction),
    "c_values": _listed(as_fraction),
    "delta": as_fraction,
    "retry_limit": int,
    "threads": int,
}


def config_from_mapping(mapping: dict) -> SweepConfig:
    """A SweepConfig from setting name -> text; a blank value keeps the default."""
    kwargs: dict = {}
    for key, value in mapping.items():
        if key not in SETTINGS:
            raise BipcoverError(f"unknown sweep setting {key!r}")
        if not str(value).strip():
            continue
        try:
            kwargs[key] = SETTINGS[key](value)
        except ValueError as exc:
            raise BipcoverError(f"sweep setting {key}: cannot read {value!r}") from exc
    if "n_values" not in kwargs:
        raise BipcoverError("sweep setting n_values is required")
    if kwargs.get("retry_limit", 1) < 1:  # SweepConfig allows 0: every trial then errs
        raise BipcoverError("retry limit must be at least 1")
    return SweepConfig(**kwargs)
