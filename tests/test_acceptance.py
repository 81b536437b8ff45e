"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every statistical check here is deterministic because all randomness is
counter-based on fixed seeds; the asserted rates were chosen by the
acceptance contract, not tuned to the implementation.
"""

import math
from fractions import Fraction

from bipcover import (CoverParams, ModelParams,
                      PartitionParams, SweepConfig, almost_cover,
                      colour_blowup_pair, colour_lower3, colour_lower4,
                      count_no_common_neighbour_pairs, exhaustive_knn_check,
                      lower4_witness_valid, partition3, records_to_csv,
                      run_sweep, sample_bipartite, sample_colouring,
                      sample_mindeg_subgraph, summarise, tc_exact, tp_exact,
                      validate_cover, validate_partition)
from bipcover.errors import BipcoverError, ConstructionInfeasibleError
from bipcover.rng import combine, hash_at
from conftest import naive_tp

DELTA = Fraction(1, 20)
BASE_SEED = 20250808


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def rational_p(value: float) -> Fraction:
    return Fraction(value).limit_denominator(10 ** 9)


# ---------------------------------------------------------------------------
# criterion 1: validity on 10,000 mixed trials


COVER_SIZES = [8, 12, 16, 24, 32, 48, 64, 64, 96, 128, 128, 192, 256, 384, 512, 1000]
COVER_WEIGHT = [0.12, 0.12, 0.12, 0.12, 0.11, 0.11, 0.05, 0.05,
                0.045, 0.045, 0.03, 0.03, 0.02, 0.02, 0.01, 0.01]
PARTITION_SIZES = [8, 12, 16, 24, 32, 48, 64, 64, 96, 128, 192, 256, 320, 400]
PARTITION_WEIGHT = [0.14, 0.14, 0.13, 0.12, 0.11, 0.10, 0.05, 0.05,
                    0.04, 0.04, 0.03, 0.02, 0.02, 0.01]


def _pick(values, weights, u: float):
    acc = 0.0
    for v, w in zip(values, weights):
        acc += w
        if u < acc:
            return v
    return values[-1]


def _cover_trial(trial: int) -> bool:
    seed = combine(BASE_SEED, 1, trial)
    u = hash_at(seed, 0) / 2 ** 64
    n = _pick(COVER_SIZES, COVER_WEIGHT, u)
    p_choice = hash_at(seed, 1) % 6
    if p_choice < 3:
        p = (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5))[p_choice]
    else:
        c = (1.0, 3.0, 5.0)[p_choice - 3]
        p = min(Fraction(1), rational_p(c * math.sqrt(math.log(n) / n)))
    g = sample_bipartite(ModelParams(n, n, p), seed)
    source = hash_at(seed, 2) % 5
    try:
        if source == 0:
            colouring, _ = colour_lower3(g)
        elif source == 1:
            colouring, _ = colour_lower4(g)
        else:
            q = (Fraction(1, 2), Fraction(1, 10), Fraction(9, 10))[source - 2]
            colouring = sample_colouring(g, q, seed)
    except ConstructionInfeasibleError:
        return True  # structured error, nothing to validate
    try:
        cover, _ = almost_cover(g, colouring, CoverParams(p=p, seed=seed))
    except BipcoverError:
        return True
    return len(cover.trees) <= 3 and validate_cover(g, colouring, cover).ok


def _partition_trial(trial: int) -> bool:
    seed = combine(BASE_SEED, 2, trial)
    u = hash_at(seed, 0) / 2 ** 64
    n = _pick(PARTITION_SIZES, PARTITION_WEIGHT, u)
    g = sample_mindeg_subgraph(n, Fraction(13, 16) + DELTA, seed)
    source = hash_at(seed, 1) % 4
    try:
        if source == 0:
            colouring, _ = colour_lower3(g)
        else:
            q = (Fraction(1, 2), Fraction(1, 20), Fraction(19, 20))[source - 1]
            colouring = sample_colouring(g, q, seed)
    except ConstructionInfeasibleError:
        return True
    try:
        partition, _ = partition3(g, colouring, PartitionParams(delta=DELTA, seed=seed))
    except BipcoverError:
        return True  # structured failure is allowed; invalid output is not
    return len(partition.parts) <= 3 and validate_partition(g, colouring, partition).ok


def test_criterion_01_validity_always():
    violations = 0
    for trial in range(6000):
        if not _cover_trial(trial):
            violations += 1
    for trial in range(4000):
        if not _partition_trial(trial):
            violations += 1
    announce(1, "validity-always", violations == 0,
             f"10000 mixed trials, {violations} validator violations")


# ---------------------------------------------------------------------------
# criterion 2 (and 10): threshold-regime sweep at n = 1000


def _criterion2_configs():
    c = (Fraction(5),)
    yield SweepConfig(n_values=(1000,), trials=50, base_seed=BASE_SEED,
                      source="uniform", algorithm="almost_cover", c_values=c)
    yield SweepConfig(n_values=(1000,), trials=50, base_seed=BASE_SEED,
                      source="lower3", algorithm="almost_cover", c_values=c)


def _run_criterion2():
    records = []
    for config in _criterion2_configs():
        records.extend(run_sweep(config))
    return records


def test_criterion_02_threshold_regime():
    records = _run_criterion2()
    assert len(records) == 100
    p = records[0].p
    bound = 200 / p
    good = sum(1 for r in records
               if r.valid and r.trees <= 3 and Fraction(r.uncovered) <= bound)
    announce(2, "threshold-cover-rate", good >= 95,
             f"{good}/100 trials with <=3 trees and uncovered <= {float(bound):.0f}")


def test_criterion_10_sweep_determinism():
    first = [records_to_csv(run_sweep(c)) for c in _criterion2_configs()]
    second = [records_to_csv(run_sweep(c)) for c in _criterion2_configs()]

    def strip_runtime(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.splitlines())

    records_match = all(strip_runtime(a) == strip_runtime(b)
                        for a, b in zip(first, second))
    summaries = [summarise(_parse(a)) for a in first]
    summaries2 = [summarise(_parse(b)) for b in second]
    summary_match = summaries == summaries2
    announce(10, "sweep-determinism", records_match and summary_match,
             "byte-identical summaries and records (runtime column excluded)")


def _parse(csv_text):
    from bipcover.sweep import parse_records
    return parse_records(csv_text)


# ---------------------------------------------------------------------------
# criterion 3: lower-3 construction vs the exact oracle


def test_criterion_03_lower3_oracle():
    successes = 0
    certified = 0
    for seed in range(50):
        g = sample_bipartite(ModelParams(20, 20, Fraction(1, 2)), seed)
        try:
            colouring, _ = colour_lower3(g)
        except ConstructionInfeasibleError:
            continue
        successes += 1
        if tc_exact(g, colouring).value >= 3:
            certified += 1
    announce(3, "lower3-oracle", successes == 50 and certified == successes,
             f"{successes}/50 constructions, {certified} certified tc >= 3")


# ---------------------------------------------------------------------------
# criterion 4: lower-4 construction vs the exact oracle


def test_criterion_04_lower4_oracle():
    p = rational_p(0.3 * math.sqrt(math.log(200) / 200))
    attempts = 0
    validated = 0
    certified = 0
    for seed in range(50):
        g = sample_bipartite(ModelParams(200, 200, p), seed)
        attempts += 1
        try:
            colouring, witness = colour_lower4(g)
        except ConstructionInfeasibleError:
            continue
        if not lower4_witness_valid(g, witness):
            continue
        validated += 1
        if tc_exact(g, colouring).value >= 4:
            certified += 1
    ok = validated > 0 and certified == validated
    announce(4, "lower4-oracle", ok,
             f"witness validated on {validated}/{attempts} seeds, "
             f"all {certified} certified tc >= 4")


# ---------------------------------------------------------------------------
# criterion 5: minimum-degree partition at n = 400


def test_criterion_05_partition_desk_scale():
    valid = 0
    for seed in range(100):
        g = sample_mindeg_subgraph(400, Fraction(13, 16) + DELTA, seed)
        colouring = sample_colouring(g, Fraction(1, 2), seed)
        partition, _ = partition3(
            g, colouring, PartitionParams(delta=DELTA, retry_limit=32, seed=seed))
        if len(partition.parts) <= 3 and validate_partition(g, colouring, partition).ok:
            valid += 1
    announce(5, "mindeg-partition", valid == 100,
             f"{valid}/100 valid <=3-part partitions")


# ---------------------------------------------------------------------------
# criterion 6: the two-halves blow-up needs exactly four components


def test_criterion_06_blowup_exact_value():
    g, colouring = colour_blowup_pair(8, 2)
    value = tc_exact(g, colouring).value
    announce(6, "blowup-exact", value == 4, f"tc = {value}, expected 4")


# ---------------------------------------------------------------------------
# criterion 7: exhaustive check over all 2-colourings of K_{3,3} and K_{4,4}


def test_criterion_07_exhaustive_complete():
    r3 = exhaustive_knn_check(3, 2, 2)
    r4 = exhaustive_knn_check(4, 2, 2)
    ok = (r3.total_colourings == 512 and r3.max_tc == 2 and not r3.violations
          and r4.total_colourings == 65536 and r4.max_tc == 2 and not r4.violations)
    announce(7, "exhaustive-knn", ok,
             f"max tc {r3.max_tc} over 512 and {r4.max_tc} over 65536 colourings")


# ---------------------------------------------------------------------------
# criterion 8: partition solver vs naive enumeration, cover <= partition


def test_criterion_08_oracle_equivalence():
    agreements = 0
    order_ok = 0
    for seed in range(200):
        g = sample_bipartite(ModelParams(4, 4, Fraction(1, 2)), seed)
        colouring = sample_colouring(g, Fraction(1, 2), seed)
        tp = tp_exact(g, colouring)
        if tp.value == naive_tp(g, colouring):
            agreements += 1
        if tc_exact(g, colouring).value <= tp.value:
            order_ok += 1
    announce(8, "oracle-equivalence", agreements == 200 and order_ok == 200,
             f"{agreements}/200 naive agreements, {order_ok}/200 with tc <= tp")


# ---------------------------------------------------------------------------
# criterion 9: disjoint-neighbourhood pair count first moment


def test_criterion_09_first_moment():
    n = 200
    p = rational_p(0.3 * math.sqrt(math.log(n) / n))
    counts = []
    for seed in range(50):
        g = sample_bipartite(ModelParams(n, n, p), seed)
        c1, c2 = count_no_common_neighbour_pairs(g)
        counts.extend([c1, c2])
    mean = sum(counts) / len(counts)
    expected = math.comb(n, 2) * (1 - float(p) ** 2) ** n
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (len(counts) - 1))
    ok = abs(mean - expected) <= 3 * sd
    announce(9, "pair-count-first-moment", ok,
             f"mean {mean:.0f} vs expected {expected:.0f}, sd {sd:.0f}")
