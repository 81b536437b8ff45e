"""Graph files: round trips and rejection of malformed input."""

import io
import tracemalloc
from fractions import Fraction

import pytest

from bipcover import (BLUE, RED, BipartiteGraph, RColouring, TwoColouring,
                      sample_bipartite, sample_colouring)
from bipcover.adversary import colour_blowup_pair
from bipcover.errors import FormatError
from bipcover.formats import parse_graph, write_graph
from bipcover.models import ModelParams
from conftest import matching_graph


def test_graph_round_trip_uncoloured():
    g = sample_bipartite(ModelParams(5, 7, Fraction(1, 2)), 3)
    text = write_graph(g, comments=["sample test"])
    g2, col = parse_graph(text)
    assert col is None
    assert g2 == g


def test_graph_round_trip_coloured():
    g, col = matching_graph()
    text = write_graph(g, col)
    g2, col2 = parse_graph(text)
    assert g2 == g
    assert isinstance(col2, TwoColouring)
    assert col2 == col


def test_round_trip_is_byte_stable():
    g = sample_bipartite(ModelParams(6, 6, Fraction(1, 3)), 9)
    col = sample_colouring(g, Fraction(1, 2), 9)
    text = write_graph(g, col)
    g2, col2 = parse_graph(text)
    assert write_graph(g2, col2) == text


def test_r_colouring_round_trip():
    g, col = colour_blowup_pair(12, 3)
    assert isinstance(col, RColouring)
    text = write_graph(g, col)
    g2, col2 = parse_graph(text)
    assert g2 == g
    assert isinstance(col2, RColouring)
    assert all(col2.colour_of(i, j) == col.colour_of(i, j) for i, j in g.edges())


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(1, 6))
def test_round_trip_random_instances(seed, n1, n2):
    g = sample_bipartite(ModelParams(n1, n2, Fraction(1, 2)), seed)
    col = sample_colouring(g, Fraction(1, 3), seed)
    g2, col2 = parse_graph(write_graph(g, col))
    assert g2 == g
    if g.edge_count:
        assert col2 == col
    else:
        assert col2 is None  # an edgeless file cannot carry a colouring


ROUND_TRIP_WIDTHS = (1, 7, 8, 9, 63, 64, 65)


def layers(colouring):
    return [colouring.layer_rows(c) for c in range(colouring.num_colours)]


@st.composite
def graph_files(draw):
    """(graph, colouring or None) on two different widths from
    ROUND_TRIP_WIDTHS: edgeless, complete or random, and bare, red/blue
    or 3-coloured."""
    n1, n2 = draw(st.lists(st.sampled_from(ROUND_TRIP_WIDTHS), min_size=2, max_size=2,
                           unique=True))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from(("edgeless", "complete", "random")))
    if density == "edgeless":
        g = BipartiteGraph.from_edges(n1, n2, [])
    elif density == "complete":
        g = BipartiteGraph.complete(n1, n2)
    else:
        g = BipartiteGraph.from_rows(n1, n2, [rng.getrandbits(n2) for _ in range(n1)])
    kind = draw(st.sampled_from(("bare", "two", "three")))
    edges = list(g.edges())
    if kind == "bare" or not edges:
        return g, None
    if kind == "two":
        return g, TwoColouring.from_edge_map(g, {e: rng.choice((RED, BLUE)) for e in edges})
    colours = {e: rng.randrange(3) for e in edges}
    colours[edges[0]] = 2  # a file whose highest index is 1 reads back as red/blue
    return g, RColouring.from_edge_map(g, 3, colours)


@settings(deadline=None, max_examples=60)
@given(graph_files())
def test_graph_file_round_trip(instance):
    g, col = instance
    text = write_graph(g, col, comments=["round trip", "widths"])
    for source in (text, io.StringIO(text)):
        g2, col2 = parse_graph(source)
        assert g2 == g
        if col is None:
            assert col2 is None
        else:
            assert type(col2) is type(col) and layers(col2) == layers(col)
        assert write_graph(g2, col2, comments=["round trip", "widths"]) == text
    # Tabs between fields and trailing comments change nothing.
    spaced = "\n".join(line.replace(" ", "\t") + " # note" if line[:1].isdigit() else line
                       for line in text.splitlines())
    assert parse_graph(spaced)[0] == g
    if isinstance(col, TwoColouring):
        # Integer colour tokens 0/1 read back as the same red/blue colouring.
        numbered = text.replace(" R\n", " 0\n").replace(" B\n", " 1\n")
        g3, col3 = parse_graph(io.StringIO(numbered))
        assert isinstance(col3, TwoColouring) and col3 == col
        assert parse_graph(spaced)[1] == col


def test_comments_and_blanks_ignored():
    text = "# hello\n\nbipartite 2 2\n0 0 R  # trailing\n\n1 1 B\n"
    g, col = parse_graph(text)
    assert g.edge_count == 2
    assert col.colour_of(0, 0) is RED


def test_duplicate_edge_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        parse_graph("bipartite 2 2\n0 0 R\n0 0 B\n")


def test_out_of_range_rejected():
    with pytest.raises(FormatError, match="out of range"):
        parse_graph("bipartite 2 2\n0 5 R\n")


def test_mixed_coloured_and_bare_rejected():
    with pytest.raises(FormatError, match="mix"):
        parse_graph("bipartite 2 2\n0 0 R\n1 1\n")


def test_missing_header_rejected():
    with pytest.raises(FormatError):
        parse_graph("0 0 R\n")


def test_bad_colour_token_rejected():
    with pytest.raises(FormatError, match="colour token"):
        parse_graph("bipartite 2 2\n0 0 purple\n")


# Messages pinned from the per-line parser: every malformed file must keep
# raising the same text, naming the first bad line in file order, and
# within that line the first failed check (field count, integer
# endpoints, range, duplicate, colour token).
GOLDEN_ERRORS = [
    ("wrong-keyword", "graph 2 2\n0 0 R\n",
     "line 1: expected 'bipartite <n1> <n2>'"),
    ("header-too-short", "bipartite 2\n", "line 1: expected 'bipartite <n1> <n2>'"),
    ("header-too-long", "bipartite 2 2 2\n", "line 1: expected 'bipartite <n1> <n2>'"),
    ("header-not-integer", "bipartite two 2\n", "line 1: part sizes must be integers"),
    ("header-zero", "bipartite 0 2\n", "line 1: part sizes must be positive"),
    ("header-negative", "bipartite 2 -3\n", "line 1: part sizes must be positive"),
    ("edge-before-header", "0 0 R\nbipartite 2 2\n",
     "line 1: expected 'bipartite <n1> <n2>'"),
    ("empty-file", "", "missing 'bipartite <n1> <n2>' header"),
    ("comment-only-file", "# just a comment\n\n   \t\n",
     "missing 'bipartite <n1> <n2>' header"),
    ("too-many-fields", "bipartite 2 2\n0 0 R x\n", "line 2: expected '<i> <j> [colour]'"),
    ("too-few-fields", "bipartite 2 2\n0 0 R\n1\n", "line 3: expected '<i> <j> [colour]'"),
    ("endpoint-not-integer", "bipartite 2 2\na 0 R\n", "line 2: endpoints must be integers"),
    ("endpoint-float", "bipartite 2 2\n0 1.0\n", "line 2: endpoints must be integers"),
    ("out-of-range", "bipartite 2 2\n0 5 R\n", "line 2: edge (0,5) out of range"),
    ("part1-at-size", "bipartite 2 3\n0 0\n2 0\n", "line 3: edge (2,0) out of range"),
    ("negative-index", "bipartite 2 2\n-1 0 R\n", "line 2: edge (-1,0) out of range"),
    ("huge-index", "bipartite 2 2\n99999999999999999999 0 R\n",
     "line 2: edge (99999999999999999999,0) out of range"),
    ("duplicate", "bipartite 2 2\n0 0 R\n0 0 B\n", "line 3: duplicate edge (0,0)"),
    ("duplicate-via-int-syntax", "bipartite 2 2\n+1 0 R\n1 0 B\n",
     "line 3: duplicate edge (1,0)"),
    ("duplicate-bare", "bipartite 2 2\n0 0\n1 1 R\n0 0\n", "line 4: duplicate edge (0,0)"),
    ("colour-purple", "bipartite 2 2\n0 0 purple\n", "bad colour token 'purple'"),
    ("colour-minus-one", "bipartite 2 2\n0 0 R\n1 1 -1\n", "negative colour index -1"),
    ("colour-huge-negative", "bipartite 2 2\n0 0 -99999999999999999999\n",
     "negative colour index -99999999999999999999"),
    ("colour-index-then-word", "bipartite 2 2\n0 0 2\n0 1 x\n", "bad colour token 'x'"),
    ("mix", "bipartite 2 2\n0 0 R\n1 1\n", "mix of coloured and uncoloured edge lines"),
    ("first-bad-line-wins-colour-before-count",
     "bipartite 2 2\n0 0 purple\n0 1 R x\n", "bad colour token 'purple'"),
    ("first-bad-line-wins-count-before-colour",
     "bipartite 2 2\n0 1 R x\n0 0 purple\n", "line 2: expected '<i> <j> [colour]'"),
    ("first-bad-line-wins-range-before-int",
     "bipartite 2 2\n0 5 R\nx 0 Q\n", "line 2: edge (0,5) out of range"),
    ("first-bad-line-wins-dup-before-count",
     "bipartite 2 2\n1 1 R\n0 0 R\n1 1 B\n0 a\n", "line 4: duplicate edge (1,1)"),
    ("mix-waits-for-later-errors", "bipartite 2 2\n0 0 R\n1 1\n0 0 B\n",
     "line 4: duplicate edge (0,0)"),
    ("count-before-int-in-line", "bipartite 2 2\na b c d\n",
     "line 2: expected '<i> <j> [colour]'"),
    ("range-before-dup-in-line", "bipartite 2 2\n0 0 R\n0 9 R\n",
     "line 3: edge (0,9) out of range"),
    ("dup-before-colour-in-line", "bipartite 2 2\n0 0 R\n0 0 Q\n",
     "line 3: duplicate edge (0,0)"),
    ("lines-shifted-by-blanks-comments-crlf",
     "\n# c\nbipartite 2 2\r\n\r\n0 0 R # note\r\n0 0 B\r\n",
     "line 6: duplicate edge (0,0)"),
    ("lines-split-by-form-feed", "bipartite 2 2\f0 0 R\f0 9 R\n",
     "line 3: edge (0,9) out of range"),
    ("tabs", "bipartite\t2\t2\n0\t0\tR\n#\n0\t7\tB\n", "line 4: edge (0,7) out of range"),
    # A colour index must be below n1*n2, the number of edge slots; 0 and 1
    # (red and blue) always pass.
    ("colour-index-at-slot-count", "bipartite 2 2\n0 0 4\n", "colour index 4 out of range 0..3"),
    ("colour-index-bound-is-n1-times-n2", "bipartite 2 3\n0 0 5\n1 2 6\n",
     "colour index 6 out of range 0..5"),
    ("colour-index-plus-sign", "bipartite 2 2\n0 0 +4\n", "colour index 4 out of range 0..3"),
    ("colour-index-huge", "bipartite 2 2\n0 0 R\n1 1 99999999999999999999\n",
     "colour index 99999999999999999999 out of range 0..3"),
    ("colour-index-one-slot", "bipartite 1 1\n0 0 2\n", "colour index 2 out of range 0..1"),
    ("first-bad-line-wins-index-before-word", "bipartite 2 2\n0 0 7\n0 1 x\n",
     "colour index 7 out of range 0..3"),
    ("first-bad-line-wins-word-before-index", "bipartite 2 2\n0 0 x\n0 1 7\n",
     "bad colour token 'x'"),
    ("first-bad-line-wins-negative-before-index", "bipartite 2 2\n0 0 -1\n0 1 7\n",
     "negative colour index -1"),
    ("first-bad-line-wins-index-before-negative", "bipartite 2 2\n0 0 7\n0 1 -1\n",
     "colour index 7 out of range 0..3"),
    ("first-bad-line-wins-count-before-index", "bipartite 2 2\n0 0\n0 1 R x\n0 0 9\n",
     "line 3: expected '<i> <j> [colour]'"),
    ("dup-before-index-in-line", "bipartite 2 2\n0 0 1\n0 0 9\n",
     "line 3: duplicate edge (0,0)"),
    ("mix-waits-for-index", "bipartite 2 2\n0 0\n1 1 9\n", "colour index 9 out of range 0..3"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in GOLDEN_ERRORS],
                         ids=[case[0] for case in GOLDEN_ERRORS])
def test_parse_graph_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def test_colour_index_below_slot_count_is_accepted():
    g, col = parse_graph("bipartite 2 2\n0 0 3\n1 1 0\n")
    assert isinstance(col, RColouring) and not isinstance(col, TwoColouring)
    assert col.num_colours == 4
    assert col.colour_of(0, 0) == 3 and col.colour_of(1, 1) == 0
    # The unused colours share one empty layer.
    assert col.layer_rows(1) == ((0, 0), (0, 0))
    assert col.layer_rows(1) is col.layer_rows(2)
    assert write_graph(g, col) == "bipartite 2 2\n0 0 3\n1 1 0\n"


def test_blue_index_on_a_single_slot():
    g, col = parse_graph("bipartite 1 1\n0 0 1\n")
    assert isinstance(col, TwoColouring) and col.colour_of(0, 0) is BLUE


def test_write_graph_cost_follows_colours_in_use():
    # Colour indices 0 and n1*n2 - 1 only: 14,400 colours, two in use.
    text = "bipartite 120 120\n" + "".join(
        f"{a} {a * 7 % 120} {14399 if a % 2 else 0}\n" for a in range(120))
    g, col = parse_graph(text)
    assert col.num_colours == 14400
    tracemalloc.start()
    try:
        written = write_graph(g, col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == text
    assert write_graph(*parse_graph(written)) == text
    assert peak < 8 * 2 ** 20


def test_write_graph_without_edges_on_many_colours():
    g = BipartiteGraph.from_edges(2, 3, [])
    col = RColouring(g, [((0, 0), (0, 0, 0))] * 3)
    assert write_graph(g, col) == "bipartite 2 3\n"
