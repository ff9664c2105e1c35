from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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
    ([(0, 2), (0, 2), (0, 9)], od.VertexOutOfRange),
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


@pytest.mark.parametrize("edges", [5, None, 2.5], ids=repr)
def test_edges_that_are_not_iterable_are_named(edges):
    with pytest.raises(od.GraphError) as info:
        od.new_bipartite(2, 2, edges)
    assert str(info.value) == f"edges must be iterable, got {type(edges).__name__}"


def test_edge_given_as_an_iterator_is_read_once():
    g = od.new_bipartite(2, 2, [iter((2, 0)), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert od.new_bipartite(2, 2, (iter(e) for e in [(3, 1), (0, 2)])) == g
    # A repeat given as an iterator is named by its pair; one given as a
    # tuple or list, as it was given.
    with pytest.raises(od.DuplicateEdge) as info:
        od.new_bipartite(2, 2, [(0, 2), iter((2, 0))])
    assert str(info.value) == "edge (0, 2) given twice"
    with pytest.raises(od.DuplicateEdge) as info:
        od.new_bipartite(2, 2, [iter((0, 2)), [2, 0]])
    assert str(info.value) == "edge (2, 0) given twice"


def _first_edge_fault(x, y, edges):
    """The reference rule: the first bad edge in input order, then the
    first repeat, as (error class, message), or None for a good list."""
    total = x + y
    for e in edges:
        if not (type(e) is tuple and len(e) == 2):
            return od.GraphError, f"edge {e!r} is not a pair of vertex ids"
        u, v = e
        if type(u) is not int or type(v) is not int:
            return od.VertexOutOfRange, f"edge ({u!r}, {v!r}) has an endpoint that is not an int"
        if not (0 <= u < total and 0 <= v < total):
            return od.VertexOutOfRange, f"edge ({u}, {v}) leaves the id range 0..{total - 1}"
        if (u < x) == (v < x):
            return od.SamePartEdge, f"edge ({u}, {v}) does not join the two parts"
    seen = set()
    for u, v in edges:
        if {u, v} in seen:
            return od.DuplicateEdge, f"edge ({u}, {v}) given twice"
        seen.add(frozenset((u, v)))
    return None


@st.composite
def _edge_lists_with_faults(draw):
    """Parts (x, y) and a list of distinct edges in random orientation,
    with 0-2 faults of random kinds inserted at random positions."""
    x, y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    total = x + y
    pairs = draw(st.lists(st.tuples(st.integers(0, x - 1), st.integers(x, total - 1)),
                          unique=True, max_size=6))
    edges = [draw(st.sampled_from([(u, v), (v, u)])) for u, v in pairs]
    good = list(edges)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["not_pair", "float", "bool", "range", "same_part", "repeat"]))
        u, v = draw(st.integers(0, x - 1)), draw(st.integers(x, total - 1))
        bad = {
            "not_pair": draw(st.sampled_from([(u, v, v), (u,), u, None])),
            "float": (u, float(v)),
            "bool": (True, v),
            "range": draw(st.sampled_from([(u, total), (-1, v), (total + 3, u)])),
            "same_part": draw(st.sampled_from([(u, u), (v, v), (0, x - 1), (x, total - 1)])),
            "repeat": draw(st.sampled_from(good))[::-1] if good else (u, v),
        }[kind]
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return x, y, edges


@settings(max_examples=300, deadline=None)
@given(case=_edge_lists_with_faults())
def test_edge_faults_follow_the_one_rule(case):
    x, y, edges = case
    expected = _first_edge_fault(x, y, edges)
    if expected is None:
        g = od.new_bipartite(x, y, edges)
        assert g.edges == tuple(sorted(tuple(sorted(e)) for e in edges))
        return
    with pytest.raises(od.GraphError) as info:
        od.new_bipartite(x, y, edges)
    assert (type(info.value), str(info.value)) == expected
