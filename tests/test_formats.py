"""Text formats: round trips and rejection of malformed input."""

from fractions import Fraction

import pytest

from bipcover import (BLUE, RED, RColouring, TwoColouring, sample_bipartite,
                      sample_colouring)
from bipcover.adversary import colour_blowup_pair
from bipcover.errors import FormatError
from bipcover.formats import (parse_cover, parse_graph, parse_partition,
                              write_cover, write_graph, write_partition)
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


def test_cover_round_trip():
    from bipcover import TreeCover, spanning_tree_of, Vertex
    g, col = matching_graph()
    tree = spanning_tree_of(g, col, RED, [Vertex(1, 0), Vertex(2, 0)])
    cover = TreeCover((tree,), frozenset(set(g.vertices()) - tree.vertices))
    text = write_cover(cover, g)
    back = parse_cover(text)
    assert back.uncovered == cover.uncovered
    assert len(back.trees) == 1
    assert back.trees[0].vertices == tree.vertices
    assert back.trees[0].colour is RED


def test_partition_round_trip():
    from bipcover import MonoPartition, Vertex
    g, col = matching_graph()
    partition = MonoPartition((
        (RED, frozenset([Vertex(1, 0), Vertex(2, 0)])),
        (BLUE, frozenset([Vertex(1, 1), Vertex(2, 1)])),
        (BLUE, frozenset([Vertex(1, 2), Vertex(2, 2)])),
    ))
    back = parse_partition(write_partition(partition, g))
    assert set(back.parts) == set(partition.parts)


def test_cover_rejects_unterminated_tree():
    with pytest.raises(FormatError, match="unterminated|not ended"):
        parse_cover("cover 2 2\ntree R\nvertices 1:0\n")


@pytest.mark.parametrize("line", ["tree", "tree Q", "tree r", "tree 0", "tree R B"])
def test_cover_rejects_bad_tree_line(line):
    with pytest.raises(FormatError, match="line 2"):
        parse_cover(f"cover 2 2\n{line}\nvertices 1:0\nend\nuncovered 1:1 2:0 2:1\n")


@pytest.mark.parametrize("token", ["Q", "b", "1"])
def test_partition_rejects_colour_other_than_r_or_b(token):
    with pytest.raises(FormatError, match="line 2"):
        parse_partition(f"partition 1 1\npart {token} 1:0 2:0\n")
