"""Byte-identity of deterministic outputs, pinned by SHA-256.

The digests were taken before the bit rows moved onto the numpy
bit-matrix kernel.  A change that alters any of these bytes changes what
a fixed seed produces: that is a behaviour change, to be stated, not a
digest to refresh.
"""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

from bipcover import SweepConfig, exhaustive_knn_check, records_to_csv, run_sweep, summarise
from bipcover import (RED, BipartiteGraph, Colour, CoverCase, CoverParams,
                      PartitionParams, TwoColouring, Vertex, almost_cover,
                      audit_partition_state, audit_state, classify_case,
                      colour_lower3, partition3, sample_bipartite,
                      sample_colouring, sample_mindeg_subgraph)
from bipcover.cli import main
from bipcover.errors import BipcoverError
from bipcover.formats import write_cover, write_graph, write_partition
from bipcover.models import ModelParams
from test_cover import hand_instance_split_roots, hand_instance_third_tree

SWEEP_DIGESTS = {
    ("uniform", "almost_cover"):
        "4bfac83a092f78d76595229e4d5e79b48e2024e959f7bee3a6fcc37a71addef0",
    ("lower3", "almost_cover"):
        "a3ca1f98ec16b7f61636b9d85a03d2e249aac3ee25798d08bfc70700efdf0406",
    ("uniform", "partition3"):
        "8c35b20e3a7a04f3e24f4eaf073df21951f413d0f10975adfb4364e98555b85c",
    ("lower3", "partition3"):
        "93edb9cc854d6811d2023fa8194cedb7e214483778421803733444f5851038b5",
}
CHECK_DIGEST = "e31e1a33c40677a1efa2e07d57d7c5500c3dc923591563e348ff748f562e12ef"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def strip_runtime(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def sweep_output(source: str, algorithm: str) -> str:
    config = SweepConfig(n_values=(200,), trials=3, base_seed=20250808,
                         source=source, algorithm=algorithm,
                         c_values=(Fraction(3), Fraction(5)))
    records = run_sweep(config)
    return strip_runtime(records_to_csv(records)) + "\n" + summarise(records)


def check_output(tmp_path, capsys) -> str:
    graph = tmp_path / "g.txt"
    main(["sample", "--n1", "80", "--n2", "80", "--p", "1/4", "--seed", "7",
          "--out", str(graph)])
    capsys.readouterr()
    code = main(["check", str(graph), "--p", "1/4", "--epsilon", "0.2"])
    return f"{code}\n{capsys.readouterr().out}"


def test_sweep_outputs_pinned():
    got = {key: sha256(sweep_output(*key)) for key in SWEEP_DIGESTS}
    assert got == SWEEP_DIGESTS


def test_check_output_pinned(tmp_path, capsys):
    assert sha256(check_output(tmp_path, capsys)) == CHECK_DIGEST


# ---------------------------------------------------------------------------
# Construction state digests
#
# The sweep digests above see only record columns.  These hash what the
# constructions decided (every state field, including preferences in
# insertion order), the cover/partition files, the audits, and each
# failure's class, step and message, over a seeded grid that reaches
# every case and branch at desk scale.  Taken before the construction
# skeleton of almost_cover and partition3 was shared.

STATE_DIGESTS = {
    "almost_cover":
        "1cacc42a6be2b64c8c9b9d636484dc794994d0f5d5186d49897d763d65274b07",
    "partition3":
        "ff03f938afb9c7b2667acd425c9a0406eb739a5e0aa41463c5fb152c33848bb3",
}


def canon(value):
    """JSON-ready form of a state field: sets sorted, dicts in insertion order."""
    if isinstance(value, Colour):
        return value.token
    if isinstance(value, CoverCase):
        return value.value
    if isinstance(value, Vertex):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return [str(v) for v in sorted(value)]
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in value.items()]
    return value


def state_record(state) -> dict:
    return {f.name: canon(getattr(state, f.name)) for f in dataclasses.fields(state)}


def failure_record(exc: BipcoverError) -> dict:
    return {"error": type(exc).__name__, "step": getattr(exc, "step", None),
            "message": str(exc)}


def threshold_p(n: int, c: int) -> Fraction:
    p = Fraction(c * math.sqrt(math.log(n) / n)).limit_denominator(10 ** 9)
    return min(Fraction(1), p)


def cover_instances():
    """(label, graph, colouring or error, p, seed) for the almost_cover grid."""
    for n in (12, 20, 40, 80, 200):
        for c in (1, 3, 5):
            p = threshold_p(n, c)
            for seed in range(6):
                g = sample_bipartite(ModelParams(n, n, p), seed)
                yield f"G({n},{c},{seed}) uniform", g, \
                    sample_colouring(g, Fraction(1, 2), seed), p, seed
                try:
                    lower3, _ = colour_lower3(g)
                except BipcoverError as exc:
                    yield f"G({n},{c},{seed}) lower3", g, exc, p, seed
                    continue
                yield f"G({n},{c},{seed}) lower3", g, lower3, p, seed
                yield f"G({n},{c},{seed}) lower3-swapped", g, lower3.swapped(), p, seed
    for name, (g, col) in (("split-roots", hand_instance_split_roots()),
                           ("third-tree", hand_instance_third_tree())):
        for seed in (3, 5, 11):
            yield f"{name} {seed}", g, col, Fraction(1, 2), seed
            yield f"{name} {seed} swapped", g, col.swapped(), Fraction(1, 2), seed
    empty = BipartiteGraph.from_edges(3, 3, [])
    yield "empty", empty, TwoColouring.monochromatic(empty, RED), Fraction(1, 2), 0


def cover_grid_text() -> str:
    lines = []
    for label, g, col, p, seed in cover_instances():
        if isinstance(col, BipcoverError):
            lines.append(json.dumps([label, failure_record(col)]))
            continue
        for retry_limit in (1, 16):
            params = CoverParams(p=p, retry_limit=retry_limit, seed=seed)
            try:
                cover, state = almost_cover(g, col, params)
            except BipcoverError as exc:
                record = failure_record(exc)
            else:
                record = {"state": state_record(state), "cover": write_cover(cover, g),
                          "audit": audit_state(g, col, state).as_dict(),
                          "case": classify_case(g, col, state).value}
            lines.append(json.dumps([label, retry_limit, record], sort_keys=True))
    return "\n".join(lines)


def complete_with_red_rows(n: int, red_rows: int):
    g = BipartiteGraph.complete(n, n)
    full = (1 << n) - 1
    return g, TwoColouring.from_red_rows(g, [full if i < red_rows else 0 for i in range(n)])


def minority_relink_instance():
    n = 64
    full = (1 << n) - 1
    red_rows = [full] + [((1 << 38) - 1) & ~1] * 37 + [full & ~1] * 26
    g = BipartiteGraph.complete(n, n)
    return g, TwoColouring.from_red_rows(g, red_rows)


def partition_instances():
    """(label, graph, colouring or error, delta, seed) for the partition3 grid."""
    for n in (32, 64, 120, 200):
        for delta in (Fraction(1, 20), Fraction(1, 10)):
            for seed in range(6):
                g = sample_mindeg_subgraph(n, Fraction(13, 16) + delta, seed)
                cell = f"M({n},{delta},{seed})"
                yield f"{cell} uniform", g, sample_colouring(g, Fraction(1, 2), seed), delta, seed
                yield f"{cell} red-1/8", g, sample_colouring(g, Fraction(1, 8), seed), delta, seed
                try:
                    lower3, _ = colour_lower3(g)
                except BipcoverError as exc:
                    yield f"{cell} lower3", g, exc, delta, seed
                    continue
                yield f"{cell} lower3", g, lower3, delta, seed
    for n, red_rows in ((32, 5), (64, 10), (64, 20)):
        g, col = complete_with_red_rows(n, red_rows)
        for seed in range(3):
            yield f"K({n}) red rows {red_rows} seed {seed}", g, col, Fraction(1, 20), seed
    g, col = minority_relink_instance()
    for seed, delta in ((0, Fraction(1, 20)), (1, Fraction(1, 20)),
                        (2, Fraction(1, 20)), (41, Fraction(1, 10))):
        yield f"minority-relink {delta} {seed}", g, col, delta, seed


def partition_grid_text() -> str:
    lines = []
    for label, g, col, delta, seed in partition_instances():
        if isinstance(col, BipcoverError):
            lines.append(json.dumps([label, failure_record(col)]))
            continue
        for retry_limit in (1, 32):
            params = PartitionParams(delta=delta, retry_limit=retry_limit, seed=seed)
            try:
                partition, state = partition3(g, col, params)
            except BipcoverError as exc:
                record = failure_record(exc)
            else:
                audit = audit_partition_state(g, col, state)
                record = {"state": state_record(state),
                          "partition": write_partition(partition, g),
                          "audit": audit.as_dict()}
            lines.append(json.dumps([label, retry_limit, record], sort_keys=True))
    return "\n".join(lines)


def test_cover_states_pinned():
    assert sha256(cover_grid_text()) == STATE_DIGESTS["almost_cover"]


def test_partition_states_pinned():
    assert sha256(partition_grid_text()) == STATE_DIGESTS["partition3"]


# ---------------------------------------------------------------------------
# Trial runner digests
#
# What `bipcover cover` and `bipcover partition` write (the cover or
# partition file, the --audit JSON line, the exit code), and the records
# of sweeps whose trials end in errors: exact_tc grids, lower4 grids, and
# retry_limit=0 grids.  The error class a trial records depends on the
# order host -> colouring -> params -> construction, so the retry_limit=0
# text lists each record's error class as well.  Taken before sweep and
# CLI shared one construct -> validate -> audit runner.

RUNNER_DIGESTS = {
    "cli": "f641577e8d7e1c812f1a7d82d16a96c4baee2431497914faa1ec9d857501a6e5",
    "exact_tc": "274d188bee02b529eb8f47adaa879c90412fd214f043563e7eedbef0f601756b",
    "lower4": "618ff6c0c3e26d6e10b5612894196bf27aba599336dca2496374da4ef403e7c3",
    "retry_limit_0": "dae4b6cb07d0af7cfc4b761694266b18fb5ba63f9b0cf4176f2c145f6ef17af3",
}


def cli_runs_text(tmp_path) -> str:
    g = sample_bipartite(ModelParams(60, 60, Fraction(1, 2)), 5)
    h = sample_mindeg_subgraph(80, Fraction(13, 16) + Fraction(1, 20), 3)
    inputs = {"cover-uniform": (g, sample_colouring(g, Fraction(1, 2), 6)),
              "cover-lower3": (g, colour_lower3(g)[0]),
              "partition-uniform": (h, sample_colouring(h, Fraction(1, 2), 4)),
              "partition-lower3": (h, colour_lower3(h)[0])}
    for name, (graph, col) in inputs.items():
        (tmp_path / f"{name}.txt").write_text(write_graph(graph, col))
    runs = [["cover", "cover-uniform", "--p", "1/2", "--seed", "2"],
            ["cover", "cover-lower3", "--p", "1/2", "--seed", "2"],
            ["cover", "cover-lower3", "--p", "1/2", "--seed", "2", "--retry-limit", "1"],
            ["partition", "partition-uniform", "--delta", "0.05", "--seed", "1"],
            ["partition", "partition-lower3", "--delta", "0.05", "--seed", "1"],
            ["partition", "cover-uniform", "--delta", "0.05", "--seed", "1"]]
    lines = []
    for k, (command, name, *flags) in enumerate(runs):
        out, audit = tmp_path / f"{k}.out", tmp_path / f"{k}.jsonl"
        code = main([command, str(tmp_path / f"{name}.txt"), *flags,
                     "--out", str(out), "--audit", str(audit)])
        lines.append(json.dumps([command, name, flags, code,
                                 out.read_text() if out.exists() else None,
                                 audit.read_text() if audit.exists() else None]))
    return "\n".join(lines)


def error_sweep_text(sources, algorithms, **overrides) -> str:
    parts = []
    for source in sources:
        for algorithm in algorithms:
            config = dict(n_values=(8, 12), trials=3, base_seed=20250808, source=source,
                          algorithm=algorithm, p_values=(Fraction(1, 2), Fraction(4, 5)))
            config.update(overrides)
            records = run_sweep(SweepConfig(**config))
            parts += [strip_runtime(records_to_csv(records)),
                      ",".join(r.error for r in records), summarise(records)]
    return "\n".join(parts)


def test_cli_runs_pinned(tmp_path, capsys):
    assert sha256(cli_runs_text(tmp_path)) == RUNNER_DIGESTS["cli"]
    assert capsys.readouterr().err == ("bipcover: minimum degree 19 below "
                                       "required 51.75\n")


def test_error_sweeps_pinned():
    got = {"exact_tc": error_sweep_text(("uniform", "lower3", "lower4"), ("exact_tc",)),
           "lower4": error_sweep_text(
               ("lower4",), ("almost_cover", "partition3"), n_values=(32, 64),
               p_values=(Fraction(1, 10), Fraction(3, 10), Fraction(4, 5))),
           "retry_limit_0": error_sweep_text(
               ("uniform", "lower4"), ("almost_cover",), n_values=(32,), retry_limit=0,
               p_values=(Fraction(1, 10), Fraction(4, 5)))}
    assert {k: sha256(v) for k, v in got.items()} == \
        {k: RUNNER_DIGESTS[k] for k in got}


# ---------------------------------------------------------------------------
# Multi-block sampler digest
#
# The digests above use n <= 200, which spans at most two hash blocks of
# the slot sampler.  This one hashes the graph and red rows of two hosts
# at n = 1000, p = 5 sqrt(log n / n): a million slots each, in many
# blocks.  Taken before the slot hash ran in cache-sized blocks.

SAMPLER_DIGEST = "3bcf02c9514acf87ba47a79ffcc8eee5841ef7fccf612935fb3186398fb40e55"


def sampler_rows_text() -> str:
    n, p = 1000, threshold_p(1000, 5)
    lines = [str(p)]
    for seed in (1, 20250808):
        g = sample_bipartite(ModelParams(n, n, p), seed)
        col = sample_colouring(g, Fraction(1, 2), seed)
        lines += [f"{seed} {part} {i} {g.row(part, i):x} "
                  f"{col.coloured_row(part, i, RED):x}"
                  for part in (1, 2) for i in range(n)]
    return "\n".join(lines)


def test_multi_block_sampler_rows_pinned():
    assert sha256(sampler_rows_text()) == SAMPLER_DIGEST


# ---------------------------------------------------------------------------
# K_{n,n} exhaustive-check digests
#
# The whole report of ``exhaustive_knn_check``: histogram items in key
# order, every violating colouring code, max tc and the colouring count.
# Bound 1 makes every tc-2 colouring a violation: 5,502 codes for K_{4,4}.
# Taken while the check still solved every raw colouring on its own.

KNN_DIGESTS = {
    (4, 2, 1): "80e55b660f178edc61935aa472eb2179b5a7b68454a3f7297b387579a159d904",
    (3, 2, 1): "031f3ace7a03b9992a31273ce10225169f72a52e7e370d08a85f43c708761ca3",
}


def knn_report_text(n: int, r: int, bound: int) -> str:
    report = exhaustive_knn_check(n, r, bound)
    return json.dumps({"n": report.n, "r": report.r, "bound": report.bound,
                       "total_colourings": report.total_colourings,
                       "max_tc": report.max_tc,
                       "histogram": list(report.tc_histogram.items()),
                       "violations": report.violations})


def test_knn_reports_pinned():
    assert {key: sha256(knn_report_text(*key)) for key in KNN_DIGESTS} == KNN_DIGESTS
