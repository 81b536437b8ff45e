"""End-to-end runs of every CLI subcommand."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bipcover
from bipcover import colour_lower3, sample_bipartite, sample_colouring, sample_mindeg_subgraph
from bipcover.cli import main
from bipcover.formats import parse_cover, parse_graph, parse_partition, write_graph
from bipcover.models import ModelParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(capsys, "sample", "--n1", "6", "--n2", "6",
                     "--p", "0.5", "--seed", "3", "--out", str(out))
    assert code == 0
    g, col = parse_graph(out.read_text())
    assert g.n1 == 6 and col is None
    assert "# seed 3" in out.read_text()


def test_sample_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "sample", "--n1", "8", "--n2", "8", "--p-num", "1",
        "--p-den", "3", "--seed", "11", "--out", str(a))
    run(capsys, "sample", "--n1", "8", "--n2", "8", "--p-num", "1",
        "--p-den", "3", "--seed", "11", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_colour_then_cover_then_exact(tmp_path, capsys):
    g = tmp_path / "g.txt"
    gc = tmp_path / "gc.txt"
    cov = tmp_path / "cover.txt"
    audit = tmp_path / "audit.jsonl"
    run(capsys, "sample", "--n1", "30", "--n2", "30", "--p", "0.5",
        "--seed", "2", "--out", str(g))
    code, _, _ = run(capsys, "colour", str(g), "--seed", "4", "--out", str(gc))
    assert code == 0
    _, colouring = parse_graph(gc.read_text())
    assert colouring is not None

    code, _, _ = run(capsys, "cover", str(gc), "--p", "0.5", "--seed", "1",
                     "--out", str(cov), "--audit", str(audit))
    assert code == 0
    cover = parse_cover(cov.read_text())
    assert len(cover.trees) <= 3
    record = json.loads(audit.read_text().splitlines()[0])
    assert record["valid"] is True
    assert record["algorithm"] == "almost_cover"

    code, out, _ = run(capsys, "exact", "--mode", "tc", str(gc))
    assert code == 0
    assert json.loads(out)["value"] >= 1


def test_adversary_lower3_and_partition(tmp_path, capsys):
    g = tmp_path / "g.txt"
    gc = tmp_path / "adv.txt"
    part = tmp_path / "part.txt"
    # a dense-enough min degree instance via sample + colour is not
    # guaranteed to meet partition3's precondition, so build it complete
    run(capsys, "sample", "--n1", "64", "--n2", "64", "--p", "1",
        "--seed", "1", "--out", str(g))
    code, _, _ = run(capsys, "adversary", "--mode", "lower3", str(g), "--out", str(gc))
    assert code != 0  # complete graphs admit no lower3 anchors
    run(capsys, "sample", "--n1", "24", "--n2", "24", "--p", "0.5",
        "--seed", "1", "--out", str(g))
    code, _, _ = run(capsys, "adversary", "--mode", "lower3", str(g), "--out", str(gc))
    assert code == 0
    assert "# construction lower3" in gc.read_text()


def test_partition_subcommand(tmp_path, capsys):
    # complete graph with a heavily skewed colouring partitions easily
    g = tmp_path / "g.txt"
    gc = tmp_path / "gc.txt"
    part = tmp_path / "part.txt"
    run(capsys, "sample", "--n1", "32", "--n2", "32", "--p", "1",
        "--seed", "1", "--out", str(g))
    run(capsys, "colour", str(g), "--red", "0.02", "--seed", "2", "--out", str(gc))
    code, out, _ = run(capsys, "partition", str(gc), "--delta", "0.05",
                       "--seed", "3", "--out", str(part))
    assert code == 0
    partition = parse_partition(part.read_text())
    assert 1 <= len(partition.parts) <= 3
    record = json.loads(out)
    assert record["valid"] is True


def test_exact_knn(capsys):
    code, out, _ = run(capsys, "exact", "--mode", "knn", "--n", "2", "--r", "2",
                       "--bound", "2")
    assert code == 0
    data = json.loads(out)
    assert data["max_tc"] == 2
    assert data["total_colourings"] == 16


def test_exact_tp_guard_message(tmp_path, capsys):
    g = tmp_path / "g.txt"
    gc = tmp_path / "gc.txt"
    run(capsys, "sample", "--n1", "12", "--n2", "12", "--p", "0.5",
        "--seed", "1", "--out", str(g))
    run(capsys, "colour", str(g), "--seed", "1", "--out", str(gc))
    code, _, err = run(capsys, "exact", "--mode", "tp", str(gc))
    assert code == 2
    assert "guard" in err


def test_check_subcommand(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run(capsys, "sample", "--n1", "20", "--n2", "20", "--p", "1",
        "--seed", "1", "--out", str(g))
    code, out, _ = run(capsys, "check", str(g), "--p", "1", "--epsilon", "0.1")
    assert code == 0
    data = json.loads(out)
    assert data["no_common_neighbour_pairs"] == {"part1": 0, "part2": 0}

    empty = tmp_path / "empty.txt"
    run(capsys, "sample", "--n1", "20", "--n2", "20", "--p", "0",
        "--seed", "1", "--out", str(empty))
    code, out, _ = run(capsys, "check", str(empty), "--p", "0.5",
                       "--epsilon", "0.1")
    assert code == 1  # every vertex violates the degree band


def test_sweep_and_summarise(tmp_path, capsys):
    records = tmp_path / "records.csv"
    summary = tmp_path / "summary.csv"
    plot = tmp_path / "plot.gp"
    code, _, _ = run(capsys, "sweep", "--n-values", "16", "--p-values", "1/2",
                     "--trials", "3", "--base-seed", "7", "--out", str(records))
    assert code == 0
    lines = records.read_text().splitlines()
    assert len(lines) == 4
    code, _, _ = run(capsys, "summarise", str(records), "--out", str(summary),
                     "--plot-script", str(plot))
    assert code == 0
    assert summary.read_text().count("\n") == 2
    assert "gnuplot" in plot.read_text()


def test_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_values = 12\np_values = 1/2\ntrials = 2\nbase_seed = 1\n")
    records = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(records))
    assert code == 0
    assert len(records.read_text().splitlines()) == 3


def test_sweep_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n-values = 12\np_values = 1/2\ntrials = 2\nbase_seed =\n")
    records = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--trials", "3",
                     "--out", str(records))
    assert code == 0
    assert len(records.read_text().splitlines()) == 4
    cfg.write_text("n_values = 12\np_values = 1/2\ntrials =\n")
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(records))
    assert code == 0
    assert len(records.read_text().splitlines()) == 2  # blank trials: the default 1


def _fails_cleanly(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("bipcover: ") and err.count("\n") == 1
    return err


def test_unreadable_sweep_settings_fail_cleanly(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_values = 12\np_values = 1/2\ntrails = 5\n")
    assert "'trails'" in _fails_cleanly(capsys, "sweep", "--config", str(cfg))
    cfg.write_text("n_values = 12\np_values = 1/2\ntrials = two\n")
    assert "trials: cannot read 'two'" in _fails_cleanly(capsys, "sweep", "--config", str(cfg))
    assert "n_values: cannot read 'x'" in _fails_cleanly(
        capsys, "sweep", "--n-values", "x", "--p-values", "1/2")
    assert "trials: cannot read 'abc'" in _fails_cleanly(
        capsys, "sweep", "--n-values", "12", "--p-values", "1/2", "--trials", "abc")


def test_unreadable_probability_fails_cleanly(tmp_path, capsys):
    for p in ("abc", "1/0"):
        err = _fails_cleanly(capsys, "sample", "--n1", "4", "--n2", "4", "--p", p,
                             "--out", str(tmp_path / "g.txt"))
        assert repr(p) in err


def test_malformed_records_fail_cleanly(tmp_path, capsys):
    from bipcover.sweep import RECORD_HEADER
    records = tmp_path / "r.csv"
    records.write_text(f"{RECORD_HEADER}\n12,1,2,5,uniform\n")
    assert "records line 2" in _fails_cleanly(capsys, "summarise", str(records))


@pytest.mark.parametrize("p_num, p_den", ((0, 1), (3, 2), (-1, 2)))
def test_summarise_rejects_p_outside_the_unit_interval(tmp_path, capsys, p_num, p_den):
    from bipcover.sweep import RECORD_HEADER
    records = tmp_path / "r.csv"
    records.write_text(f"{RECORD_HEADER}\n1,{p_num},{p_den},5,uniform,almost_cover,0,0,"
                       "false,error,0\n")
    err = _fails_cleanly(capsys, "summarise", str(records))
    assert err == "bipcover: records line 2: malformed row\n"


def test_summarise_rejects_a_row_sweep_never_writes(tmp_path, capsys):
    # Unknown source, algorithm and case, negative counts and runtime.
    from bipcover.sweep import RECORD_HEADER
    records = tmp_path / "r.csv"
    records.write_text(f"{RECORD_HEADER}\n12,1,2,5,bogus,nope,-3,-7,true,whatever,-1\n")
    err = _fails_cleanly(capsys, "summarise", str(records))
    assert err == "bipcover: records line 2: malformed row\n"


@pytest.mark.parametrize("command, flags", (("summarise", []), ("sweep", ["--config"]),
                                           ("check", ["--p", "0.5"]),
                                           ("cover", ["--p", "0.5"])),
                         ids=("summarise", "sweep-config", "check", "cover"))
def test_missing_input_file_fails_cleanly(tmp_path, capsys, command, flags):
    # The path goes last: after --config, and after the graph commands' --p.
    missing = tmp_path / "missing.txt"
    err = _fails_cleanly(capsys, command, *flags, str(missing))
    assert err == f"bipcover: {missing}: No such file or directory\n"


@pytest.mark.parametrize("command, flags", (("summarise", []), ("sweep", ["--config"]),
                                           ("check", ["--p", "0.5"]),
                                           ("cover", ["--p", "0.5"])),
                         ids=("summarise", "sweep-config", "check", "cover"))
def test_undecodable_input_file_fails_cleanly(tmp_path, capsys, command, flags):
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80\x81")
    err = _fails_cleanly(capsys, command, *flags, str(binary))
    assert re.fullmatch(rf"bipcover: {re.escape(str(binary))}: not [\w-]+ text\n", err)


@pytest.mark.parametrize("grid, message", (
    (["--n-values", "1", "--c-values", "5"], "c value 5 at n = 1 gives p = 0,"),
    (["--n-values", "12", "--c-values", "0"], "c value 0 at n = 12 gives p = 0,"),
    (["--n-values", "12", "--c-values", "-1"], "c value -1 at n = 12 gives p = -"),
    (["--n-values", "0", "--c-values", "1"], "n value 0 is below 1"),
    (["--n-values", "0", "--p-values", "1/2"], "n value 0 is below 1"),
), ids=("c-at-n1", "c-zero", "c-negative", "n0-c", "n0-p"))
def test_sweep_grid_out_of_range_fails_cleanly(tmp_path, capsys, grid, message):
    out = tmp_path / "records.csv"
    assert message in _fails_cleanly(capsys, "sweep", *grid, "--out", str(out))
    assert not out.exists()


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIPCOVER_OUTDIR", str(tmp_path / "outputs"))
    code, _, _ = run(capsys, "sample", "--n1", "4", "--n2", "4", "--p", "0.5",
                     "--seed", "1", "--out", "g.txt")
    assert code == 0
    assert (tmp_path / "outputs" / "g.txt").exists()


def test_missing_mode_arguments_fail_cleanly(capsys):
    code, _, err = run(capsys, "exact", "--mode", "knn")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "adversary", "--mode", "blowup")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "adversary", "--mode", "lower3")
    assert code == 2 and "graph file" in err


def test_multicolour_input_rejected_where_two_needed(tmp_path, capsys):
    from bipcover.adversary import colour_blowup_pair
    from bipcover.formats import write_graph
    g, col = colour_blowup_pair(12, 3)
    f = tmp_path / "r3.txt"
    f.write_text(write_graph(g, col))
    code, _, err = run(capsys, "cover", str(f), "--p", "0.5")
    assert code == 2 and "red/blue" in err
    code, _, err = run(capsys, "partition", str(f))
    assert code == 2 and "red/blue" in err
    code, out, _ = run(capsys, "exact", "--mode", "tc", str(f))
    assert code == 0
    assert json.loads(out)["value"] == 6  # 2r components for the r=3 blow-up


def test_blowup_mode(tmp_path, capsys):
    out = tmp_path / "blowup.txt"
    code, _, _ = run(capsys, "adversary", "--mode", "blowup", "--n", "8",
                     "--r", "2", "--out", str(out))
    assert code == 0
    g, col = parse_graph(out.read_text())
    assert g.min_degree() == 4
    assert col is not None


def test_check_rejects_unbounded_colour_index(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("bipartite 3 3\n0 0 R\n1 1 99999999999999999999\n")
    code, out, err = run(capsys, "check", str(path), "--p", "0.5")
    assert code == 2 and out == ""
    assert err == "bipcover: colour index 99999999999999999999 out of range 0..8\n"


def test_cover_and_partition_unchanged_under_python_O(tmp_path, capsys):
    # Asserts are stripped under -O; no output may depend on them.
    g = sample_bipartite(ModelParams(40, 40, Fraction(1, 2)), 3)
    h = sample_mindeg_subgraph(64, Fraction(13, 16) + Fraction(1, 20), 2)
    (tmp_path / "c.txt").write_text(write_graph(g, colour_lower3(g)[0]))
    (tmp_path / "p.txt").write_text(write_graph(h, sample_colouring(h, Fraction(1, 2), 5)))
    runs = [["cover", "c.txt", "--p", "1/2", "--seed", "1", "--audit", "audit.jsonl"],
            ["partition", "p.txt", "--delta", "0.05", "--seed", "1"]]
    src = str(Path(bipcover.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in runs:
        results = []
        for optimised in (False, True):
            outdir = tmp_path / f"{argv[0]}-{optimised}"
            argv_here = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
            argv_here = [str(outdir / a) if a.endswith(".jsonl") else a for a in argv_here]
            argv_here += ["--out", str(outdir / "out.txt")]
            if optimised:
                proc = subprocess.run([sys.executable, "-O", "-m", "bipcover.cli", *argv_here],
                                      env=env, capture_output=True, text=True)
                code, out = proc.returncode, proc.stdout
            else:
                code = main(argv_here)
                out = capsys.readouterr().out
            files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
            results.append((code, out, files))
        assert results[0] == results[1]
        code, out, files = results[0]
        assert code == 0 and "out.txt" in files
        assert json.loads(files.get("audit.jsonl", out))["valid"] is True


def test_cover_stdout_same_under_python_O(tmp_path):
    # The same cover, to stdout, from two interpreters: plain and -O.
    g = sample_bipartite(ModelParams(40, 40, Fraction(1, 2)), 5)
    graph = tmp_path / "g.txt"
    graph.write_text(write_graph(g, colour_lower3(g)[0]))
    src = str(Path(bipcover.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run([sys.executable, *flags, "-m", "bipcover.cli", "cover", str(graph),
                            "--p", "1/2", "--seed", "2"], env=env, capture_output=True)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(b"# case ")


@pytest.mark.parametrize("argv, message", [
    (["cover", "{bare}", "--p", "0.5"], "cover needs a coloured graph"),
    (["exact", "--mode", "tc", "{bare}"], "exact solving needs a coloured graph"),
    (["colour", "{coloured}"], "input already carries a colouring"),
    (["sample", "--n1", "2", "--n2", "2", "--p-num", "1"], "--p-num and --p-den go together"),
    (["check", "{bare}", "--p-den", "2"], "--p-num and --p-den go together"),
    (["sample", "--n1", "2", "--n2", "2"],
     "a probability is required (use --p or --p-num/--p-den)"),
], ids=("cover-bare", "exact-bare", "colour-coloured", "p-num-alone", "p-den-alone",
        "no-probability"))
def test_input_checks_fail_cleanly(tmp_path, capsys, argv, message):
    bare, coloured = tmp_path / "bare.txt", tmp_path / "coloured.txt"
    bare.write_text("bipartite 2 2\n0 0\n1 1\n")
    coloured.write_text("bipartite 2 2\n0 0 R\n1 1 B\n")
    code, out, err = run(capsys, *(a.format(bare=bare, coloured=coloured) for a in argv))
    assert (code, out, err) == (2, "", f"bipcover: {message}\n")


def test_exact_tp_writes_its_partition_witness(tmp_path, capsys):
    # Without singletons, 1:1 needs its blue edge, so 2:1 leaves the red path.
    g = tmp_path / "g.txt"
    g.write_text("bipartite 2 2\n0 0 R\n0 1 R\n1 1 B\n")
    code, out, _ = run(capsys, "exact", "--mode", "tp", str(g), "--no-singletons")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2
    assert sorted(data["witness"], key=lambda w: w["colour"]) == [
        {"colour": 0, "vertices": ["1:0", "2:0"]}, {"colour": 1, "vertices": ["1:1", "2:1"]}]


def test_adversary_lower4_writes_its_witness(tmp_path, capsys):
    # Two part-1 vertices with disjoint neighbourhoods, and two part-2
    # vertices outside both, with disjoint neighbourhoods of their own.
    g = tmp_path / "g.txt"
    g.write_text("bipartite 4 4\n0 0\n1 1\n2 2\n3 3\n")
    code, out, _ = run(capsys, "adversary", "--mode", "lower4", str(g))
    assert code == 0
    witness = json.loads(next(line for line in out.splitlines()
                              if line.startswith("# witness "))[len("# witness "):])
    assert witness == {"pair1": ["1:0", "1:1"], "pair2": ["2:2", "2:3"]}
    _, colouring = parse_graph(out)
    assert colouring is not None
