"""Properties of the edge codec: bit-set <-> vector <-> edge list <-> adjacency.

Sizes run from N = 1 (no vertex pairs) to N = 60 (1770 pairs, not a multiple
of 8), and the explicit examples pin the empty graph, the complete graph and
the top bit alone.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphpop.graphs import (
    LabelledGraph,
    bits_to_vector,
    from_adjacency,
    n_pairs,
    pair_positions,
    vector_to_bits,
)
from graphpop.metrics import hamming
from graphpop.models import _space_distance_table


@st.composite
def graph_bits(draw, max_vertices=60, count=1):
    n = draw(st.integers(1, max_vertices))
    top = (1 << n_pairs(n)) - 1
    return (n, *(draw(st.integers(0, top)) for _ in range(count)))


def full(n):
    return (1 << n_pairs(n)) - 1


def top_bit(n):
    return 1 << (n_pairs(n) - 1)


@settings(deadline=None)
@given(graph_bits())
@example((1, 0))
@example((5, top_bit(5)))
@example((60, full(60)))
@example((60, top_bit(60)))
def test_bits_vector_edges_adjacency_round_trips(case):
    n, bits = case
    g = LabelledGraph(n, bits)
    vec = bits_to_vector(bits, n_pairs(n))
    assert vec.dtype == np.uint8
    assert vec.tolist() == [(bits >> p) & 1 for p in range(n_pairs(n))]
    assert np.array_equal(g.to_vector(), vec)
    assert vector_to_bits(vec) == bits
    with pytest.raises(ValueError):
        bits_to_vector(bits | (1 << n_pairs(n)), n_pairs(n))
    assert LabelledGraph.from_vector(n, vec) == g
    assert LabelledGraph.from_edges(n, g.edges()) == g
    adj = g.to_adjacency()
    assert adj.dtype == np.int64 and adj.shape == (n, n)
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    assert int(adj.sum()) == 2 * g.n_edges
    assert from_adjacency(adj) == g


@settings(deadline=None)
@given(graph_bits())
@example((1, 0))
@example((60, top_bit(60)))
def test_edges_are_python_ints_in_row_major_order(case):
    n, bits = case
    edges = LabelledGraph(n, bits).edges()
    expected = [
        (i, j)
        for p, (i, j) in enumerate(combinations(range(n), 2))
        if (bits >> p) & 1
    ]
    assert edges == expected
    assert all(type(i) is int and type(j) is int for i, j in edges)


@settings(deadline=None)
@given(graph_bits(count=2))
@example((1, 0, 0))
@example((60, 0, full(60)))
def test_hamming_is_xor_popcount_and_vector_mismatch_count(case):
    n, a, b = case
    g, h = LabelledGraph(n, a), LabelledGraph(n, b)
    mismatches = int(np.count_nonzero(g.to_vector() != h.to_vector()))
    assert hamming(g, h) == (a ^ b).bit_count() == mismatches


@settings(deadline=None)
@given(graph_bits(max_vertices=5, count=2))
def test_hamming_space_table_is_pairwise_popcount(case):
    n, a, b = case
    size = 1 << n_pairs(n)
    table = _space_distance_table(n, "hamming", 1.0)
    assert table.shape == (size, size)
    assert not table.flags.writeable
    assert table[a].tolist() == [float((a ^ y).bit_count()) for y in range(size)]
    assert table[a, b] == table[b, a]


def test_pair_positions_match_pair_order_and_are_read_only():
    for n in (1, 2, 5, 13):
        ii, jj = pair_positions(n)
        assert list(zip(ii.tolist(), jj.tolist())) == list(combinations(range(n), 2))
        assert not ii.flags.writeable and not jj.flags.writeable
