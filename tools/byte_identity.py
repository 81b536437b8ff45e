"""Byte identity: write the deterministic outputs of this checkout to OUTDIR.

For fixed seeds, these outputs must not change from one commit to the next
unless a change says why (ROADMAP's invariant):

- sweep records without ``runtime_ms``, and their summaries, for
  ``almost_cover`` and ``partition3`` from each of the three colouring
  sources, on a small seeded grid at the default settings;
- ``cover`` and ``partition`` files with their ``--audit`` lines, for
  seeded graph files under a random and an adversarial colouring;
- ``bipcover check`` on three files: 60 x 60, which fits in one block of
  the codegree kernel, and 150 x 150 at p = 1/2 (three blocks, codegree
  violations) and p = 1/20 (an isolated vertex, pairs with no common
  neighbour, exit 1); and ``exact --mode tc`` on a small file under both
  colourings;
- ``exact --mode knn`` with an explicit ``--bound``, for (n, r) = (3, 2)
  and (2, 3).

Every command's exit status goes to ``exit_status.txt``.  Run it from two
checkouts and compare:

    python tools/byte_identity.py /tmp/before    # in the old checkout
    python tools/byte_identity.py /tmp/after     # in the new one
    diff -r /tmp/before /tmp/after               # empty when nothing moved

Stdlib and the package only; it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bipcover.cli import main as cli_main  # noqa: E402
from bipcover.formats import write_graph  # noqa: E402
from bipcover.models import sample_mindeg_subgraph  # noqa: E402
from bipcover.sweep import SweepConfig, records_to_csv, run_sweep, summarise  # noqa: E402


def sweeps(out: Path) -> None:
    """Records (``runtime_ms`` cut) and summaries per algorithm and source."""
    for algorithm in ("almost_cover", "partition3"):
        for source in ("uniform", "lower3", "lower4"):
            config = SweepConfig(n_values=(60, 200), c_values=("1/2", 1, 3), trials=3,
                                 base_seed=7, source=source, algorithm=algorithm)
            records = run_sweep(config)
            rows = records_to_csv(records).splitlines()
            name = f"sweep-{algorithm}-{source}"
            (out / f"{name}.records.csv").write_text(
                "".join(row.rsplit(",", 1)[0] + "\n" for row in rows))
            (out / f"{name}.summary.csv").write_text(summarise(records))


def commands(out: Path) -> None:
    """The CLI outputs, each command's stdout in ``<name>.out``."""
    status = []

    def run(name: str, *argv: str) -> None:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = cli_main(list(argv))
        (out / f"{name}.out").write_text(buffer.getvalue())
        status.append(f"{name} {code}\n")

    def path(name: str) -> str:
        return str(out / name)

    run("sample-sparse", "sample", "--n1", "60", "--n2", "60", "--p", "0.5",
        "--seed", "11", "--out", path("sparse.txt"))
    # A host of minimum degree (13/16 + 1/20) n for partition; no command samples one.
    dense = sample_mindeg_subgraph(80, Fraction(13, 16) + Fraction(1, 20), 12)
    (out / "dense.txt").write_text(write_graph(dense))
    for host in ("sparse", "dense"):
        run(f"colour-{host}", "colour", path(f"{host}.txt"), "--seed", "13",
            "--out", path(f"{host}-uniform.txt"))
        run(f"lower3-{host}", "adversary", "--mode", "lower3", path(f"{host}.txt"),
            "--out", path(f"{host}-lower3.txt"))
    for colouring in ("uniform", "lower3"):
        run(f"cover-{colouring}", "cover", path(f"sparse-{colouring}.txt"), "--p", "0.5",
            "--seed", "14", "--out", path(f"cover-{colouring}.txt"),
            "--audit", path("audit.jsonl"))
        run(f"partition-{colouring}", "partition", path(f"dense-{colouring}.txt"),
            "--seed", "15", "--out", path(f"partition-{colouring}.txt"),
            "--audit", path("audit.jsonl"))
    run("check", "check", path("sparse.txt"), "--p", "0.5", "--epsilon", "0.2")
    for p, seed in (("0.5", "19"), ("0.05", "18")):  # seed 18 leaves vertex 1:82 isolated
        run(f"sample-{p}", "sample", "--n1", "150", "--n2", "150", "--p", p,
            "--seed", seed, "--out", path(f"check-{p}.txt"))
        run(f"check-{p}", "check", path(f"check-{p}.txt"), "--p", p, "--epsilon", "0.2")
    run("sample-tiny", "sample", "--n1", "5", "--n2", "6", "--p", "0.6",
        "--seed", "16", "--out", path("tiny.txt"))
    run("colour-tiny", "colour", path("tiny.txt"), "--seed", "17",
        "--out", path("tiny-uniform.txt"))
    run("lower3-tiny", "adversary", "--mode", "lower3", path("tiny.txt"),
        "--out", path("tiny-lower3.txt"))
    for colouring in ("uniform", "lower3"):
        run(f"exact-tc-{colouring}", "exact", "--mode", "tc", path(f"tiny-{colouring}.txt"))
    run("knn-3-2", "exact", "--mode", "knn", "--n", "3", "--r", "2", "--bound", "2")
    run("knn-2-3", "exact", "--mode", "knn", "--n", "2", "--r", "3", "--bound", "4")
    (out / "exit_status.txt").write_text("".join(status))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python tools/byte_identity.py OUTDIR\n")
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty\n")  # the audit file is appended to
        return 2
    out.mkdir(parents=True, exist_ok=True)
    sweeps(out)
    commands(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
