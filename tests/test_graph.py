from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

import onedisk as od


def test_k22_construction():
    g = od.new_bipartite(2, 2, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert od.edge_count(g) == 4
    assert list(g.x_vertices) == [0, 1] and list(g.y_vertices) == [2, 3]


def test_k33_has_nine_edges():
    g = od.new_bipartite(3, 3, [(i, j) for i in range(3) for j in range(3, 6)])
    assert od.edge_count(g) == 9


def test_empty_edge_set():
    g = od.new_bipartite(2, 2, [])
    assert od.edge_count(g) == 0


def test_same_part_edge_rejected():
    with pytest.raises(od.SamePartEdge):
        od.new_bipartite(2, 2, [(0, 1)])
    with pytest.raises(od.SamePartEdge):
        od.new_bipartite(2, 2, [(2, 3)])
    with pytest.raises(od.SamePartEdge):
        od.new_bipartite(2, 2, [(1, 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(od.DuplicateEdge):
        od.new_bipartite(2, 2, [(0, 2), (2, 0)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(od.VertexOutOfRange):
        od.new_bipartite(2, 2, [(0, 4)])
    with pytest.raises(od.VertexOutOfRange):
        od.new_bipartite(2, 2, [(-1, 2)])


@pytest.mark.parametrize("edges, error", [
    ([(0, 1)], od.SamePartEdge),
    ([(0, 2), (2, 0)], od.DuplicateEdge),
    ([(0, 4)], od.VertexOutOfRange),
    ([(0, 2.5)], od.VertexOutOfRange),
    ([(True, 2)], od.VertexOutOfRange),
])
def test_direct_construction_is_checked(edges, error):
    with pytest.raises(error):
        od.BipartiteGraph(2, 2, edges)
    with pytest.raises(error):
        dataclasses.replace(od.new_bipartite(2, 2, []), edges=edges)


@pytest.mark.parametrize("bad", [(0, 2, 3), (0,), 5, None], ids=repr)
def test_edge_that_is_not_a_pair_is_named(bad):
    # The good edge before it is passed over; the bad one is named.
    with pytest.raises(od.GraphError) as info:
        od.new_bipartite(2, 2, [(1, 3), bad])
    assert str(info.value) == f"edge {bad!r} is not a pair of vertex ids"
    # A fault in an earlier edge is named first.
    with pytest.raises(od.VertexOutOfRange):
        od.new_bipartite(2, 2, [(0, 9), bad])


def test_empty_part_rejected():
    with pytest.raises(od.GraphError):
        od.new_bipartite(0, 3, [])


@pytest.mark.parametrize("x_count, y_count", [(2.0, 2), (2, True), ("2", 2)], ids=repr)
def test_part_sizes_must_be_ints(x_count, y_count):
    with pytest.raises(od.GraphError):
        od.BipartiteGraph(x_count, y_count, ((0, 2),))
    with pytest.raises(od.GraphError):
        dataclasses.replace(od.new_bipartite(2, 2, []), x_count=x_count, y_count=y_count)


def test_edge_normalization_and_equality():
    a = od.new_bipartite(2, 3, [(3, 0), (1, 4), (0, 2)])
    b = od.new_bipartite(2, 3, [(0, 2), (0, 3), (4, 1)])
    assert a == b == od.BipartiteGraph(2, 3, [(4, 1), (0, 2), (3, 0)])
    assert all(u < 2 <= v for u, v in a.edges)


@given(
    x=st.integers(1, 4),
    y=st.integers(1, 4),
    picks=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))),
    seed=st.randoms(use_true_random=False),
)
def test_construction_invariants(x, y, picks, seed):
    pairs = sorted((i, x + j) for i, j in picks if i < x and j < y)
    shuffled = list(pairs)
    seed.shuffle(shuffled)
    g = od.new_bipartite(x, y, shuffled)
    assert od.edge_count(g) == len(pairs)
    for u, v in g.edges:
        assert u in g.x_vertices and v in g.y_vertices
    assert g == od.new_bipartite(x, y, pairs)
