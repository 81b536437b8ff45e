"""Command line front end.

Subcommands: sample, colour, adversary, cover, partition, exact, check,
sweep, summarise.  Probabilities are exact rationals: pass either
--p-num/--p-den or --p with a decimal string.  Output files default to
the directory in the BIPCOVER_OUTDIR environment variable (else the
current directory) when given as bare file names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import formats
from .adversary import colour_blowup_pair, colour_lower3, colour_lower4
from .cover import CoverParams
from .errors import BipcoverError
from .exact import exhaustive_knn_check, tc_exact, tp_exact
from .graph import TwoColouring
from .mindeg import PartitionParams
from .models import ModelParams, as_fraction, sample_bipartite, sample_colouring
from .properties import check_degrees, count_no_common_neighbour_pairs
from .sweep import (ALGORITHMS, SETTINGS, SOURCES, TrialOutcome, config_from_mapping,
                    parse_config_file, parse_records, plot_script, records_to_csv,
                    run_construction, run_sweep, summarise)


def _outpath(name: str | None) -> Path | None:
    if name is None or name == "-":
        return None
    path = Path(name)
    if not path.is_absolute() and path.parent == Path("."):
        base = os.environ.get("BIPCOVER_OUTDIR")
        if base:
            path = Path(base) / path
    return path


def _emit(text: str, out: Path | None, mode: str = "w") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, mode) as fh:
            fh.write(text)


def _read_text(path: str) -> str:
    """The text of an input file; one that cannot be read is a bipcover error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise BipcoverError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise BipcoverError(f"{path}: not {exc.encoding} text") from exc


def _read(path: str | None):
    if path is None:
        raise BipcoverError("this mode needs a graph file argument")
    return formats.parse_graph(_read_text(path))


def _two_colouring(colouring, purpose: str) -> TwoColouring:
    if colouring is None:
        raise BipcoverError(f"{purpose} needs a coloured graph")
    if not isinstance(colouring, TwoColouring):
        raise BipcoverError(f"{purpose} needs a red/blue colouring, "
                            f"not {colouring.num_colours} colours")
    return colouring


def _probability(args, num_attr: str, den_attr: str, plain_attr: str,
                 default=None) -> Fraction:
    num = getattr(args, num_attr, None)
    den = getattr(args, den_attr, None)
    plain = getattr(args, plain_attr, None)
    if num is not None or den is not None:
        if num is None or den is None:
            raise BipcoverError(f"--{num_attr.replace('_', '-')} and "
                                f"--{den_attr.replace('_', '-')} go together")
        return Fraction(num, den)
    if plain is not None:
        return as_fraction(plain)
    if default is not None:
        return as_fraction(default)
    raise BipcoverError("a probability is required (use --p or --p-num/--p-den)")


def _add_p_flags(parser, prefix: str = "p") -> None:
    parser.add_argument(f"--{prefix}-num", type=int, default=None)
    parser.add_argument(f"--{prefix}-den", type=int, default=None)
    parser.add_argument(f"--{prefix}", type=str, default=None,
                        help="decimal form, parsed exactly")


def _cmd_sample(args) -> int:
    p = _probability(args, "p_num", "p_den", "p")
    g = sample_bipartite(ModelParams(args.n1, args.n2, p), args.seed)
    comments = [f"seed {args.seed}", f"p {p.numerator}/{p.denominator}",
                f"model bipartite {args.n1} {args.n2}"]
    _emit(formats.write_graph(g, comments=comments), _outpath(args.out))
    return 0


def _cmd_colour(args) -> int:
    g, existing = _read(args.graph)
    if existing is not None:
        raise BipcoverError("input already carries a colouring")
    q = _probability(args, "red_num", "red_den", "red", default=Fraction(1, 2))
    colouring = sample_colouring(g, q, args.seed)
    comments = [f"seed {args.seed}", f"red-probability {q.numerator}/{q.denominator}"]
    _emit(formats.write_graph(g, colouring, comments=comments), _outpath(args.out))
    return 0


def _cmd_adversary(args) -> int:
    if args.mode == "blowup":
        if args.n is None:
            raise BipcoverError("blowup mode needs --n")
        g, colouring = colour_blowup_pair(args.n, args.r)
        comments = [f"construction blowup n={args.n} r={args.r}"]
        _emit(formats.write_graph(g, colouring, comments=comments), _outpath(args.out))
        return 0
    g, existing = _read(args.graph)
    if args.mode == "lower3":
        colouring, witness = colour_lower3(g)
        info = {"anchor_red": str(witness.anchor_red),
                "anchor_blue": str(witness.anchor_blue),
                "rest1": len(witness.rest1), "rest2": len(witness.rest2)}
    else:
        colouring, witness = colour_lower4(g)
        info = {"pair1": [str(v) for v in witness.pair1],
                "pair2": [str(v) for v in witness.pair2]}
    comments = [f"construction {args.mode}", f"witness {json.dumps(info)}"]
    _emit(formats.write_graph(g, colouring, comments=comments), _outpath(args.out))
    return 0


def _cmd_cover(args) -> int:
    g, colouring = _read(args.graph)
    colouring = _two_colouring(colouring, "cover")
    p = _probability(args, "p_num", "p_den", "p")
    params = CoverParams(p=p, epsilon=as_fraction(args.epsilon),
                         retry_limit=args.retry_limit, seed=args.seed)
    run = run_construction(g, colouring, params)
    return _finish(args, run, formats.write_cover(run.output, g, comments=[f"case {run.case}"]),
                   {"algorithm": "almost_cover", "n": g.n1, "p_num": p.numerator,
                    "p_den": p.denominator, "seed": args.seed, "case": run.case,
                    "trees": run.trees, "uncovered": run.uncovered})


def _cmd_partition(args) -> int:
    g, colouring = _read(args.graph)
    colouring = _two_colouring(colouring, "partition")
    params = PartitionParams(delta=as_fraction(args.delta),
                             subsample_p=(as_fraction(args.subsample_p)
                                          if args.subsample_p else None),
                             retry_limit=args.retry_limit, seed=args.seed)
    run = run_construction(g, colouring, params)
    return _finish(args, run,
                   formats.write_partition(run.output, g, comments=[f"branch {run.case}"]),
                   {"algorithm": "partition3", "n": g.n1, "seed": args.seed,
                    "branch": run.case, "parts": run.trees})


def _finish(args, run: TrialOutcome, text: str, record: dict) -> int:
    """Write the output and its --audit JSON line; exit 1 iff the validator objected."""
    _emit(text, _outpath(args.out))
    record.update(valid=run.report.ok, audit=run.audit.as_dict())
    _emit(json.dumps(record, sort_keys=True) + "\n", _outpath(args.audit), "a")
    return 0 if run.report.ok else 1


def _cmd_exact(args) -> int:
    if args.mode == "knn":
        if args.n is None:
            raise BipcoverError("knn mode needs --n")
        report = exhaustive_knn_check(args.n, args.r, args.bound, force=args.force)
        out = {
            "n": report.n, "r": report.r, "bound": report.bound,
            "total_colourings": report.total_colourings, "max_tc": report.max_tc,
            "histogram": {str(k): v for k, v in sorted(report.tc_histogram.items())},
            "violations": report.violations[:32],
            "violation_count": len(report.violations),
        }
        sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
        return 0 if not report.violations else 1
    g, colouring = _read(args.graph)
    if colouring is None:
        raise BipcoverError("exact solving needs a coloured graph")
    if args.mode == "tc":
        result = tc_exact(g, colouring)
        sets = result.witness
    else:
        result = tp_exact(g, colouring, allow_singletons=not args.no_singletons,
                          force=args.force)
        sets = result.witness.parts
    witness = [{"colour": int(c), "vertices": sorted(str(v) for v in vs)} for c, vs in sets]
    sys.stdout.write(json.dumps(
        {"mode": args.mode, "value": result.value,
         "nodes_explored": result.nodes_explored, "witness": witness},
        sort_keys=True) + "\n")
    return 0


def _cmd_check(args) -> int:
    g, _ = _read(args.graph)
    p = _probability(args, "p_num", "p_den", "p")
    eps = as_fraction(args.epsilon)
    deg_rep, codeg_rep = check_degrees(g, p, eps)
    pairs = count_no_common_neighbour_pairs(g)
    reports = [deg_rep.as_dict(), codeg_rep.as_dict()]
    out = {"reports": reports,
           "no_common_neighbour_pairs": {"part1": pairs[0], "part2": pairs[1]}}
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    violated = any(r["applicable"] and r["satisfied"] is False for r in reports)
    return 1 if violated else 0


def _cmd_sweep(args) -> int:
    mapping = parse_config_file(_read_text(args.config)) if args.config else {}
    mapping.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    config = config_from_mapping(mapping)
    records = run_sweep(config)
    _emit(records_to_csv(records), _outpath(args.out))
    return 0


def _cmd_summarise(args) -> int:
    records = parse_records(_read_text(args.records))
    _emit(summarise(records), _outpath(args.out))
    if args.plot_script:
        target = args.out if args.out and args.out != "-" else "summary.csv"
        _emit(plot_script(target), _outpath(args.plot_script))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipcover",
        description="Monochromatic tree covers of 2-coloured bipartite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="sample a random bipartite graph")
    sample.add_argument("--n1", type=int, required=True)
    sample.add_argument("--n2", type=int, required=True)
    _add_p_flags(sample)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", default=None)
    sample.set_defaults(func=_cmd_sample)

    colour = sub.add_parser("colour", help="randomly 2-colour a graph file")
    colour.add_argument("graph")
    _add_p_flags(colour, "red")
    colour.add_argument("--seed", type=int, default=0)
    colour.add_argument("--out", default=None)
    colour.set_defaults(func=_cmd_colour)

    adv = sub.add_parser("adversary", help="build a lower-bound colouring")
    adv.add_argument("--mode", choices=["lower3", "lower4", "blowup"], required=True)
    adv.add_argument("graph", nargs="?", help="graph file (lower3/lower4)")
    adv.add_argument("--n", type=int, help="blowup: total part size")
    adv.add_argument("--r", type=int, default=2, help="blowup: colour count")
    adv.add_argument("--out", default=None)
    adv.set_defaults(func=_cmd_adversary)

    cover = sub.add_parser("cover", help="cover all but O(1/p) vertices with <= 3 trees")
    cover.add_argument("graph")
    _add_p_flags(cover)
    cover.add_argument("--epsilon", default="0.1")
    cover.add_argument("--seed", type=int, default=0)
    cover.add_argument("--retry-limit", type=int, default=16)
    cover.add_argument("--out", default=None)
    cover.add_argument("--audit", default=None, help="JSON-lines audit sink")
    cover.set_defaults(func=_cmd_cover)

    part = sub.add_parser("partition", help="partition into <= 3 monochromatic parts")
    part.add_argument("graph")
    part.add_argument("--delta", default="0.05")
    part.add_argument("--subsample-p", default=None)
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--retry-limit", type=int, default=32)
    part.add_argument("--out", default=None)
    part.add_argument("--audit", default=None)
    part.set_defaults(func=_cmd_partition)

    exact = sub.add_parser("exact", help="exact cover/partition numbers")
    exact.add_argument("--mode", choices=["tc", "tp", "knn"], required=True)
    exact.add_argument("graph", nargs="?")
    exact.add_argument("--n", type=int, help="knn: part size")
    exact.add_argument("--r", type=int, default=2, help="knn: colours")
    exact.add_argument("--bound", type=int, default=2, help="knn: flag tc above this")
    exact.add_argument("--no-singletons", action="store_true",
                       help="tp: forbid single-vertex parts")
    exact.add_argument("--force", action="store_true",
                       help="override size guards (may be very slow)")
    exact.set_defaults(func=_cmd_exact)

    check = sub.add_parser("check", help="degree/codegree concentration report")
    check.add_argument("graph")
    _add_p_flags(check)
    check.add_argument("--epsilon", default="0.1")
    check.set_defaults(func=_cmd_check)

    sweep = sub.add_parser("sweep", help="run a seeded trial grid")
    sweep.add_argument("--config", default=None, help="key = value config file")
    choices = {"source": SOURCES, "algorithm": ALGORITHMS}
    for key in SETTINGS:  # values are read, and unreadable ones reported, by the sweep
        sweep.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           choices=choices.get(key))
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    summ = sub.add_parser("summarise", help="aggregate a sweep records CSV")
    summ.add_argument("records")
    summ.add_argument("--out", default=None)
    summ.add_argument("--plot-script", dest="plot_script", default=None,
                      help="also write a gnuplot script over the summary")
    summ.set_defaults(func=_cmd_summarise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BipcoverError as exc:
        sys.stderr.write(f"bipcover: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
