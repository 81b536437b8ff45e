"""The minimum-degree 3-partition: branches, audits, failure modes."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipcover import (BLUE, RED, BipartiteGraph, PartitionParams, Vertex,
                      TwoColouring, audit_partition_state, colour_lower3,
                      partition3, sample_colouring, sample_mindeg_subgraph,
                      validate_partition)
from bipcover.errors import (ConstructionInfeasibleError, InvalidArgumentError,
                             PartitionFailureError)
from conftest import naive_validate_partition

DELTA = Fraction(1, 20)
FRACTION = Fraction(13, 16) + DELTA


def mindeg_instance(n, seed, red_probability=Fraction(1, 2)):
    g = sample_mindeg_subgraph(n, FRACTION, seed)
    col = sample_colouring(g, red_probability, seed)
    return g, col


class TestOneColourBranch:
    def test_all_blue_complete(self):
        g = BipartiteGraph.complete(16, 16)
        col = TwoColouring.monochromatic(g, BLUE)
        partition, state = partition3(g, col, PartitionParams(delta=DELTA, seed=1))
        assert state.branch == "one-colour"
        assert len(partition.parts) == 1
        assert partition.parts[0][0] is BLUE
        assert validate_partition(g, col, partition).ok

    def test_uniform_colouring_takes_one_colour_branch(self):
        # near-balanced colourings leave both heavy sets empty, so one
        # colour's subgraph has min degree above n/4 and is connected
        g, col = mindeg_instance(128, 4)
        partition, state = partition3(g, col, PartitionParams(delta=DELTA, seed=4))
        assert state.branch == "one-colour"
        assert validate_partition(g, col, partition).ok
        assert naive_validate_partition(g, col, partition)


class TestPreconditions:
    def test_min_degree_checked(self):
        g = sample_mindeg_subgraph(32, Fraction(1, 2), 1)
        col = sample_colouring(g, Fraction(1, 2), 1)
        with pytest.raises(InvalidArgumentError, match="minimum degree"):
            partition3(g, col, PartitionParams(delta=DELTA))

    def test_unbalanced_rejected(self):
        g = BipartiteGraph.complete(4, 5)
        col = TwoColouring.monochromatic(g, RED)
        with pytest.raises(InvalidArgumentError):
            partition3(g, col, PartitionParams(delta=DELTA))

    def test_delta_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            PartitionParams(delta=Fraction(1, 4))


class TestDeepPath:
    def test_adversarial_colouring_three_parts(self):
        # anchored colourings make both heavy sets nonempty in opposite
        # parts, driving the full pipeline
        g = sample_mindeg_subgraph(400, FRACTION, 3)
        col, _ = colour_lower3(g)
        params = PartitionParams(delta=DELTA, seed=3)
        partition, state = partition3(g, col, params)
        assert state.branch in ("two-parts", "relink")
        assert len(partition.parts) <= 3
        assert validate_partition(g, col, partition).ok
        audit = audit_partition_state(g, col, state)
        assert audit.entry("base-edges").satisfied
        assert audit.entry("joker-count").satisfied
        assert audit.entry("sample-size").satisfied

    def test_deep_path_deterministic(self):
        g = sample_mindeg_subgraph(256, FRACTION, 8)
        col, _ = colour_lower3(g)
        params = PartitionParams(delta=DELTA, seed=21)
        p1, s1 = partition3(g, col, params)
        p2, s2 = partition3(g, col, params)
        assert p1 == p2
        assert s1.preference == s2.preference

    def test_every_vertex_tied_to_its_part_colour(self):
        g = sample_mindeg_subgraph(256, FRACTION, 5)
        col, _ = colour_lower3(g)
        partition, _ = partition3(g, col, PartitionParams(delta=DELTA, seed=5))
        for colour, part in partition.parts:
            for v in part:
                if len(part) == 1:
                    pytest.fail("construction should never emit singleton parts")
                row = col.coloured_row(v.part, v.index, colour)
                mask = 0
                for w in part:
                    if w.part != v.part:
                        mask |= 1 << w.index
                assert row & mask, f"{v} has no {colour.token} edge into its part"

    def test_small_complete_uniform_exhausts_sample_retries(self):
        # At n=64 the sample window pins |sample| to 2 vertices, and a
        # near-balanced colouring cannot give every joker a majority edge
        # into a fixed 2-subset, so the documented failure mode is retry
        # exhaustion (not an invalid partition).
        g = BipartiteGraph.complete(64, 64)
        col = sample_colouring(g, Fraction(1, 2), 3)
        with pytest.raises(PartitionFailureError) as err:
            partition3(g, col, PartitionParams(delta=DELTA, seed=3))
        assert err.value.step == "sample-retry"


class TestTwoPartsBranch:
    def complete_with_red_rows(self, n=64, red_rows=10):
        # first part-1 vertices all red, the rest all blue: heavy sets in
        # both colours and parts, no relink needed
        g = BipartiteGraph.complete(n, n)
        full = (1 << n) - 1
        red = [full if i < red_rows else 0 for i in range(n)]
        col = TwoColouring.from_red_rows(g, red)
        return g, col

    def test_two_parts_branch_on_complete_graph(self):
        g, col = self.complete_with_red_rows()
        params = PartitionParams(delta=DELTA, seed=2)
        partition, state = partition3(g, col, params)
        assert state.branch == "two-parts"
        assert len(partition.parts) == 2
        assert validate_partition(g, col, partition).ok

    def test_complete_graph_base_edges_are_full(self):
        # on a complete host every base pair is joined: e(bases) = |x|*|y|
        g, col = self.complete_with_red_rows()
        params = PartitionParams(delta=DELTA, seed=2)
        _, state = partition3(g, col, params)
        audit = audit_partition_state(g, col, state)
        assert audit.entry("base-edges").measured \
            == len(state.base_red) * len(state.base_blue)
        assert audit.entry("base-edges").satisfied


class TestRelinkWithMinorityBigClass:
    def test_minority_preference_class_absorbs_leftovers(self):
        # One full red row (the red root), 37 rows red only towards the
        # red base, 26 rows red everywhere but the blue root.  Majority
        # between the bases is red, yet 26 of the 63 bulk vertices prefer
        # blue, just clearing the 0.4n bar, and every leftover vertex has
        # only red edges into that blue class: the relink branch fires
        # around second root 1:38 with the minority colour as big class.
        n = 64
        full = (1 << n) - 1
        bits_1_37 = ((1 << 38) - 1) & ~1
        bits_1_63 = full & ~1
        red_rows = [full] + [bits_1_37] * 37 + [bits_1_63] * 26
        g = BipartiteGraph.complete(n, n)
        col = TwoColouring.from_red_rows(g, red_rows)
        part, state = partition3(g, col,
                                 PartitionParams(delta=DELTA, seed=4))
        assert state.branch == "relink"
        assert state.majority is RED
        assert len(state.bulk_blue) == 26  # the big class, minority colour
        assert state.second_root == Vertex(1, 38)
        assert len(state.relink) == 15
        assert validate_partition(g, col, part).ok
        assert naive_validate_partition(g, col, part)


class TestAuditNotApplicable:
    def test_one_colour_branch_audit(self):
        g = BipartiteGraph.complete(8, 8)
        col = TwoColouring.monochromatic(g, RED)
        params = PartitionParams(delta=DELTA, seed=0)
        _, state = partition3(g, col, params)
        audit = audit_partition_state(g, col, state)
        assert all(e.satisfied is None for e in audit.entries)


def test_monte_carlo_validity_small():
    ok = 0
    for seed in range(25):
        g, col = mindeg_instance(64, seed)
        try:
            partition, _ = partition3(g, col, PartitionParams(delta=DELTA, seed=seed))
        except PartitionFailureError:
            continue
        assert validate_partition(g, col, partition).ok
        ok += 1
    # uniform colourings at this scale overwhelmingly take the easy branch
    assert ok >= 20


@pytest.mark.parametrize("delta", [DELTA, Fraction(1, 48)])
def test_heavy_sets_follow_the_exact_threshold(delta):
    # (9/16 + 3*delta/4) * 64 is 38.4 for delta = 1/20 and 37 for 1/48.
    n = 64
    threshold = (Fraction(9, 16) + 3 * delta / 4) * n
    checked = 0
    for seed in range(6):
        g, col = mindeg_instance(n, seed, Fraction(2, 3))
        try:
            _, state = partition3(g, col, PartitionParams(delta=delta, seed=seed))
        except PartitionFailureError:
            continue
        for colour, heavy in ((RED, state.heavy_red), (BLUE, state.heavy_blue)):
            assert heavy == {v for v in g.vertices()
                             if col.coloured_row(v.part, v.index, colour).bit_count() >= threshold}
        checked += 1
    assert checked


def test_relink_degree_can_fire():
    # The floor in the relink size leaves 1:47 one relink vertex short of 2*delta*n = 19.2.
    g = sample_mindeg_subgraph(64, Fraction(13, 16) + Fraction(3, 20), 28508)
    col = colour_lower3(g)[0].swapped()
    with pytest.raises(PartitionFailureError,
                       match="^relink-degree: vertex 1:47 sees only 19 relink vertices$"):
        partition3(g, col, PartitionParams(delta=Fraction(3, 20), seed=28508))


LIVE_STEPS = {"opposite-roots", "base-edges", "sample-retry", "joker-retry",
              "relink-degree", "relink-retry", "connectivity"}


@settings(deadline=None, max_examples=150)
@given(st.integers(25, 100),
       st.sampled_from((Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(3, 20))),
       st.sampled_from(("mindeg", "complete")), st.sampled_from(("uniform", "blocks", "lower3")),
       st.booleans(), st.integers(0, 100), st.integers(0, 2 ** 16))
def test_returned_states_meet_the_implied_bounds(n, delta, host, source, swap, red_rows, seed):
    # The bounds partition3 no longer re-checks, each implied by the
    # minimum degree and an earlier step; only the live steps may fail.
    g = (sample_mindeg_subgraph(n, Fraction(13, 16) + delta, seed) if host == "mindeg"
         else BipartiteGraph.complete(n, n))
    if source == "uniform":
        col = sample_colouring(g, Fraction(1, 2), seed)
    elif source == "blocks":
        col = TwoColouring.from_red_rows(g, [g.row(1, i) if i < red_rows else 0
                                             for i in range(n)])
    else:
        try:
            col = colour_lower3(g)[0]
        except ConstructionInfeasibleError:
            assume(False)
    if swap:
        col = col.swapped()
    try:
        partition, state = partition3(g, col, PartitionParams(delta=delta, seed=seed))
    except PartitionFailureError as err:
        assert err.step in LIVE_STEPS
        return
    assert len(partition.parts) <= 3
    assert validate_partition(g, col, partition).ok
    if state.branch == "one-colour":
        colour = partition.parts[0][0]
        assert all(c is colour for c, _ in partition.parts)
        assert all(4 * col.coloured_row(v.part, v.index, colour).bit_count() > n
                   for v in g.vertices())
        return
    base_size = int((Fraction(9, 16) + delta / 2) * n)
    assert len(state.base_red) == len(state.base_blue) == base_size
    audit = audit_partition_state(g, col, state)
    assert audit.entry("majority-base-edges").satisfied
    assert 16 * len(state.jokers) > 3 * n
    jokers = sum(1 << v.index for v in state.jokers)
    assert all((g.row(w.part, w.index) & jokers).bit_count() >= delta * n for w in state.bulk)
    big_classes = [c for c in (state.bulk_red, state.bulk_blue) if len(c) >= Fraction(2, 5) * n]
    assert big_classes
    for big in big_classes:
        mask = sum(1 << v.index for v in big)
        assert all((g.row(u.part, u.index) & mask).bit_count() > (Fraction(3, 16) + delta) * n
                   for u in state.rest)
    if state.branch == "relink":
        assert len(state.relink) == int((Fraction(3, 16) + delta) * n)


def joker_instance(fill_seed=0):
    """K_{64,64} whose bulk vertices keep few matching jokers at delta = 17/100.

    Row 0 is red on columns 1-45 (red root 1:0, base columns 1-41) and
    column 0 is blue (blue root 2:0, base rows 1-41).  In the bases' block,
    rows 1-21 are red and rows 22-41 blue: red is the majority, 861 to 820,
    and rows 1-21 are the jokers.  Columns 42-63 are red on a random 10 or
    11 of the jokers, so each sees about ten jokers of its colour.  Every
    other slot is random.
    """
    n, rnd = 64, random.Random(fill_seed)
    red = [[rnd.random() < 0.5 for _ in range(n)] for _ in range(n)]
    red[0][1:46] = [True] * 45
    for i in range(n):
        red[i][0] = False
        if 1 <= i <= 41:
            red[i][1:42] = [i <= 21] * 41
    for j in range(42, n):
        chosen = set(rnd.sample(range(1, 22), rnd.choice((10, 11))))
        for i in range(1, 22):
            red[i][j] = i in chosen
    g = BipartiteGraph.complete(n, n)
    return g, TwoColouring.from_red_rows(
        g, [sum(1 << j for j in range(n) if red[i][j]) for i in range(n)])


def test_joker_retry_can_fire():
    g, col = joker_instance()
    with pytest.raises(PartitionFailureError, match="^joker-retry: some bulk vertex kept "
                       "fewer than 1.4 matching jokers in 1 draws$"):
        partition3(g, col, PartitionParams(delta=Fraction(17, 100), retry_limit=1, seed=6))


@st.composite
def partition_inputs(draw):
    """(graph, colouring, params): the hosts and colourings of
    test_returned_states_meet_the_implied_bounds, or the joker instance
    at a larger retry limit."""
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.integers(0, 3)) == 0:
        g, col = joker_instance(draw(st.integers(0, 3)))
        return g, col, PartitionParams(delta=Fraction(17, 100), seed=seed,
                                       retry_limit=draw(st.sampled_from((2, 4, 32))))
    n = draw(st.integers(25, 100))
    delta = draw(st.sampled_from((Fraction(1, 100), Fraction(1, 20), Fraction(1, 10),
                                  Fraction(3, 20))))
    g = (sample_mindeg_subgraph(n, Fraction(13, 16) + delta, seed)
         if draw(st.booleans()) else BipartiteGraph.complete(n, n))
    source = draw(st.sampled_from(("uniform", "blocks", "lower3")))
    if source == "uniform":
        col = sample_colouring(g, Fraction(1, 2), seed)
    elif source == "blocks":
        red_rows = draw(st.integers(0, 100))
        col = TwoColouring.from_red_rows(g, [g.row(1, i) if i < red_rows else 0
                                             for i in range(n)])
    else:
        try:
            col = colour_lower3(g)[0]
        except ConstructionInfeasibleError:
            assume(False)
    return g, (col.swapped() if draw(st.booleans()) else col), PartitionParams(delta, seed=seed)


@settings(deadline=None, max_examples=200)
@given(partition_inputs())
def test_preference_classes_split_into_the_promised_parts(inputs):
    # Each preference class is connected by the matchings that passed, and
    # a relink adds one other-colour component: per colour, 1 + 1 parts on
    # two-parts and 1 + (1 or 2) on relink, the other colour being the
    # second root's.
    g, col, params = inputs
    try:
        partition, state = partition3(g, col, params)
    except PartitionFailureError as err:
        assert err.step in LIVE_STEPS - {"connectivity"}
        return
    counts = Counter(colour for colour, _ in partition.parts)
    if state.branch == "two-parts":
        assert counts == {RED: 1, BLUE: 1}
    elif state.branch == "relink":
        other = state.preference[state.second_root]
        assert counts[other.other] == 1 and counts[other] in (1, 2)


@pytest.mark.parametrize("kwargs, message", [
    (dict(delta=Fraction(3, 16)), "delta must be in (0, 3/16)"),
    (dict(delta=DELTA, retry_limit=0), "retry limit must be at least 1"),
], ids=("delta-too-large", "no-retries"))
def test_partition_params_checked(kwargs, message):
    with pytest.raises(InvalidArgumentError) as exc:
        PartitionParams(**kwargs)
    assert str(exc.value) == message
