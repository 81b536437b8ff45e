"""Sweep harness: determinism, aggregation, config parsing."""

from fractions import Fraction

import pytest

from bipcover import SweepConfig, records_to_csv, run_sweep, summarise
from bipcover.errors import BipcoverError
from bipcover.exact import ExactResult, tc_exact
from bipcover.models import ModelParams, sample_bipartite, sample_colouring
from bipcover.sweep import (RECORD_HEADER, SETTINGS, SUMMARY_HEADER, _tc_witness_ok,
                            config_from_mapping, parse_config_file, parse_records)


def small_config(**overrides):
    base = dict(n_values=(24,), trials=3, base_seed=5, source="uniform",
                algorithm="almost_cover", p_values=(Fraction(2, 5),))
    base.update(overrides)
    return SweepConfig(**base)


def strip_runtime(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_smoke_single_trial():
    config = small_config(n_values=(100,), trials=1)
    records = run_sweep(config)
    assert len(records) == 1
    record = records[0]
    assert record.valid
    assert record.trees <= 3
    assert record.case in ("spanning", "third_tree", "leaf_attach")
    assert record.audit_ok is not None


def test_summary_carries_audit_rate():
    records = run_sweep(small_config(trials=4))
    text = summarise(records)
    header, row = text.splitlines()
    assert header.endswith(",audit_rate")
    rate = row.split(",")[-1]
    assert rate == "" or 0.0 <= float(rate) <= 1.0


def test_records_are_deterministic_modulo_runtime():
    config = small_config()
    first = records_to_csv(run_sweep(config))
    second = records_to_csv(run_sweep(config))
    assert strip_runtime(first) == strip_runtime(second)
    assert first.splitlines()[0] == RECORD_HEADER


def test_summary_is_byte_identical():
    config = small_config(trials=4)
    a = summarise(run_sweep(config))
    b = summarise(run_sweep(config))
    assert a == b
    assert a.splitlines()[0] == SUMMARY_HEADER


def test_grid_covers_all_cells():
    config = small_config(n_values=(12, 16), trials=2,
                          p_values=(Fraction(1, 4), Fraction(1, 2)))
    records = run_sweep(config)
    assert len(records) == 2 * 2 * 2
    cells = {(r.n, r.p) for r in records}
    assert len(cells) == 4


def test_aggregation_rates():
    config = small_config(trials=5)
    records = run_sweep(config)
    # flip two records to invalid to exercise the rate arithmetic
    records[0].valid = False
    records[1].valid = False
    text = summarise(records)
    row = text.splitlines()[1].split(",")
    assert row[6] == f"{3 / 5:.6f}"  # valid_rate


def test_partition_algorithm_sweep():
    config = small_config(algorithm="partition3", n_values=(64,), trials=3,
                          p_values=(Fraction(1, 2),))
    records = run_sweep(config)
    assert all(r.valid or r.error for r in records)
    valid = [r for r in records if r.valid]
    assert valid, "uniform colourings at n=64 should mostly partition"
    assert all(r.trees <= 3 for r in valid)


def test_exact_tc_sweep():
    config = small_config(algorithm="exact_tc", n_values=(8,), trials=2,
                          p_values=(Fraction(1, 2),), source="lower3")
    records = run_sweep(config)
    for r in records:
        if not r.error:
            assert r.trees >= 3  # exact tc of a lower3 colouring


def test_exact_tc_records_check_the_witness():
    config = small_config(algorithm="exact_tc", n_values=(8,), trials=4,
                          p_values=(Fraction(1, 2),))
    assert all(r.valid for r in run_sweep(config) if not r.error)

    g = sample_bipartite(ModelParams(6, 6, Fraction(1, 2)), 3)
    col = sample_colouring(g, Fraction(1, 2), 3)
    result = tc_exact(g, col)
    assert result.value >= 2 and _tc_witness_ok(g, col, result)
    (colour, comp), *rest = result.witness
    shrunk = comp - {min(comp)}
    broken = (
        rest,                                   # fewer sets than the value
        [(colour, comp)] * result.value,        # components, but not V(G)
        [(colour, shrunk)] + rest,              # not a component
    )
    for witness in broken:
        assert not _tc_witness_ok(g, col, ExactResult(result.value, witness, 0))


def test_lower4_source_records_errors_without_aborting():
    # lower4 is infeasible on dense instances; the sweep must finish
    config = small_config(source="lower4", p_values=(Fraction(9, 10),), trials=3)
    records = run_sweep(config)
    assert len(records) == 3
    assert all(r.error == "ConstructionInfeasibleError" for r in records)


def test_c_values_resolve_per_n():
    config = small_config(p_values=None, c_values=(Fraction(5),), n_values=(1000,))
    grid = config.p_grid(1000)
    assert len(grid) == 1
    assert Fraction(2, 5) < grid[0] < Fraction(1, 2)  # about 0.4156
    # below the usable range the grid clamps at 1
    assert config.p_grid(10) == [Fraction(1)]


def test_threads_match_serial():
    config = small_config(trials=4)
    serial = records_to_csv(run_sweep(config))
    parallel = records_to_csv(run_sweep(small_config(trials=4, threads=2)))
    assert strip_runtime(serial) == strip_runtime(parallel)


def test_lower4_feasibility_grows_with_n():
    # below the threshold scaling (c = 1/4), the construction finds its
    # disjoint-neighbourhood pairs more easily as n grows
    rates = {}
    for n in (200, 800):
        config = small_config(n_values=(n,), trials=20, source="lower4",
                              p_values=None, c_values=(Fraction(1, 4),))
        records = run_sweep(config)
        rates[n] = sum(1 for r in records if not r.error) / len(records)
    assert rates[800] >= rates[200]
    assert rates[800] >= 0.9


def test_lower3_bound_rate_improves_with_c():
    # tightly above the threshold the uncovered bound holds essentially
    # always; slightly lower c must not do better
    n = 1000
    rates = {}
    for c in (3, 6):
        config = small_config(n_values=(n,), trials=10, source="lower3",
                              p_values=None, c_values=(Fraction(c),))
        records = run_sweep(config)
        p = records[0].p
        rates[c] = sum(1 for r in records
                       if r.valid and Fraction(r.uncovered) <= 200 / p) / len(records)
    assert rates[6] >= 0.9
    assert rates[6] >= rates[3] - Fraction(1, 10)


def test_config_file_round_trip():
    text = """
    # comment
    n_values = 12, 24
    trials = 2
    base_seed = 9
    algorithm = almost_cover
    source = uniform
    p_values = 1/4, 0.5
    """
    mapping = parse_config_file(text)
    config = config_from_mapping(mapping)
    assert config.n_values == (12, 24)
    assert config.trials == 2
    assert config.p_values == (Fraction(1, 4), Fraction(1, 2))


def test_settings_declared_once():
    from dataclasses import fields

    from bipcover.cli import build_parser
    assert set(SETTINGS) == {f.name for f in fields(SweepConfig)}
    flags = set(vars(build_parser().parse_args(["sweep"])))
    assert flags - {"command", "func", "config", "out"} == set(SETTINGS)


def test_config_from_mapping_rejects_what_it_cannot_read():
    with pytest.raises(BipcoverError, match="unknown sweep setting 'trails'"):
        config_from_mapping({"n_values": "12", "p_values": "1/2", "trails": "5"})
    with pytest.raises(BipcoverError, match="sweep setting trials: cannot read 'two'"):
        config_from_mapping({"n_values": "12", "p_values": "1/2", "trials": "two"})
    with pytest.raises(BipcoverError, match="sweep setting p_values: cannot read '1/0'"):
        config_from_mapping({"n_values": "12", "p_values": "1/0"})
    with pytest.raises(BipcoverError, match="n_values is required"):
        config_from_mapping({"p_values": "1/2"})
    config = config_from_mapping({"n_values": "12", "p_values": "1/2", "trials": " ",
                                  "delta": ""})
    assert config == SweepConfig(n_values=(12,), p_values=(Fraction(1, 2),))


def test_config_validation():
    with pytest.raises(BipcoverError):
        SweepConfig(n_values=(10,), trials=0, p_values=(Fraction(1, 2),))
    with pytest.raises(BipcoverError):
        SweepConfig(n_values=(10,), trials=1, p_values=(Fraction(3, 2),))
    with pytest.raises(BipcoverError):
        SweepConfig(n_values=(10,), trials=1)  # neither p nor c
    with pytest.raises(BipcoverError):
        SweepConfig(n_values=(10,), trials=1, p_values=(Fraction(1, 2),),
                    c_values=(Fraction(1),))
    with pytest.raises(BipcoverError):
        summarise([])


def test_records_csv_round_trip():
    records = run_sweep(small_config(trials=2)) + run_sweep(
        small_config(trials=1, source="lower4", n_values=(12,))) + run_sweep(
        small_config(trials=6, source="lower4", n_values=(32,),
                     p_values=(Fraction(1, 10), Fraction(4, 5))))
    assert any(r.error for r in records) and not all(r.error for r in records)
    text = records_to_csv(records)
    back = parse_records(text)
    assert records_to_csv(back) == text
    assert [(r.n, r.p, r.seed, r.valid, r.case, bool(r.error)) for r in back] == \
        [(r.n, r.p, r.seed, r.valid, r.case, bool(r.error)) for r in records]
    # Every summary column but audit_rate survives the CSV; audits are
    # not in its fixed schema, so there audit_rate is blank.
    def columns(summary):
        return [line.split(",")[:-1] for line in summary.splitlines()]
    assert columns(summarise(back)) == columns(summarise(records))
    assert all(line.endswith(",") for line in summarise(back).splitlines()[1:])
    with pytest.raises(BipcoverError, match="not a sweep records CSV"):
        parse_records("n,p\n1,2\n")
    with pytest.raises(BipcoverError, match="not a sweep records CSV"):
        parse_records("\n")


def test_parse_records_names_a_malformed_line():
    row = "12,1,2,5,uniform,almost_cover,3,0,true,spanning,4"
    assert len(parse_records(f"{RECORD_HEADER}\n{row}\n")) == 1
    for bad in ("12,1,2,5,uniform", row.replace(",3,", ",x,"), row.replace(",2,", ",0,")):
        with pytest.raises(BipcoverError, match="records line 4: malformed row"):
            parse_records(f"{RECORD_HEADER}\n{row}\n\n{bad}\n")


def test_parse_records_rejects_a_valid_flag_it_never_writes():
    row = "12,1,2,5,uniform,almost_cover,3,0,true,spanning,4"
    for flag in ("maybe", "True", ""):
        with pytest.raises(BipcoverError, match="records line 3: malformed row"):
            parse_records(f"{RECORD_HEADER}\n{row}\n{row.replace('true', flag)}\n")


@pytest.mark.parametrize("field, value", [
    (4, "bogus"), (5, "nope"), (9, "whatever"), (9, "Spanning"), (0, "0"), (0, "-12"),
    (6, "-3"), (7, "-7"), (10, "-1"),
], ids=("source", "algorithm", "case", "case-capitalised", "n-zero", "n-negative",
        "trees", "uncovered", "runtime"))
def test_parse_records_rejects_values_records_to_csv_never_writes(field, value):
    row = "12,1,2,5,uniform,almost_cover,3,0,true,spanning,4".split(",")
    row[field] = value
    with pytest.raises(BipcoverError, match="records line 2: malformed row"):
        parse_records(f"{RECORD_HEADER}\n{','.join(row)}\n")


def test_parse_records_accepts_every_case_a_trial_writes():
    # The cover cases, the partition3 branches, tc_exact's "exact" and "error".
    cases = ("spanning", "third_tree", "leaf_attach", "one-colour", "two-parts", "relink",
             "exact", "error")
    rows = [f"12,1,2,5,uniform,almost_cover,0,0,false,{case},0" for case in cases]
    assert [r.case for r in parse_records("\n".join([RECORD_HEADER, *rows]) + "\n")] == \
        list(cases)


def test_run_construction_reports_a_bad_tc_witness(monkeypatch):
    import bipcover.sweep as sweep
    g = sample_bipartite(ModelParams(6, 6, Fraction(1, 2)), 3)
    col = sample_colouring(g, Fraction(1, 2), 3)
    assert sweep.run_construction(g, col, None).report.ok
    result = tc_exact(g, col)
    monkeypatch.setattr(sweep, "tc_exact",
                        lambda g, col: ExactResult(result.value, result.witness[1:], 0))
    outcome = sweep.run_construction(g, col, None)
    assert outcome.report.violations == ["witness is not a cover by monochromatic components"]
    assert (outcome.case, outcome.trees) == ("exact", result.value)


@pytest.mark.parametrize("call, message", [
    (lambda: small_config(source="blocks"), "unknown source 'blocks'"),
    (lambda: small_config(algorithm="tp_exact"), "unknown algorithm 'tp_exact'"),
    (lambda: parse_config_file("trials = 2\nn_values 12\n"),
     "config line 2: expected 'key = value'"),
    (lambda: small_config(algorithm="partition3", delta=Fraction(1, 5)),
     "delta must be in (0, 3/16)"),
    (lambda: config_from_mapping({"n_values": "12", "p_values": "1/2", "retry_limit": "0"}),
     "retry limit must be at least 1"),
    (lambda: small_config(threads=-3), "threads must be at least 1"),
    (lambda: small_config(n_values=(24, 6.0)), "n value 6.0 is not an integer"),
    (lambda: small_config(p_values=("half",)), "cannot interpret 'half' as an exact fraction"),
    (lambda: small_config(p_values=None, c_values=(None,)),
     "cannot interpret None as an exact fraction"),
    (lambda: small_config(delta="1/0"), "cannot interpret '1/0' as an exact fraction"),
    (lambda: small_config(p_values=("3/2",)), "p value 3/2 outside (0, 1]"),
], ids=("unknown-source", "unknown-algorithm", "config-line-without-equals",
        "partition3-delta", "mapped-retry-limit", "threads-below-one", "n-not-integer",
        "p-value-unreadable", "c-value-unreadable", "delta-unreadable", "p-value-text"))
def test_sweep_input_checks(call, message):
    with pytest.raises(BipcoverError) as exc:
        call()
    assert str(exc.value) == message


def test_sweep_config_reads_text_grid_values():
    # Text reads as the exact fraction it spells, as ModelParams reads its p.
    assert small_config(p_values=["2/5"]) == small_config()
    assert small_config(p_values=None, c_values=("5",)).c_values == (Fraction(5),)
    text = small_config(algorithm="partition3", n_values=(64,), trials=1, delta="1/20")
    assert text.delta == Fraction(1, 20)
    strip = [[(r.csv_row().rsplit(",", 1)[0], r.audit_ok) for r in run_sweep(config)]
             for config in (text, small_config(algorithm="partition3", n_values=(64,),
                                               trials=1, delta=Fraction(1, 20)))]
    assert strip[0] == strip[1]
