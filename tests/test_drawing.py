from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import onedisk as od
from onedisk.documents import graph_to_document
from onedisk.drawing import Drawing, FaceWalk, _normalize_crossings, rotation_faces

from conftest import (
    _count_traces,
    k22,
    k33,
    no_disk_k33_drawing,
    planar_k22_drawing,
    reference_faces,
)


# ---------------------------------------------------------------------------
# Face walks and the generic tracer
# ---------------------------------------------------------------------------


def test_face_walk_cyclic_equality():
    a = FaceWalk(((0, 1), (1, 2), (2, 0)))
    b = FaceWalk(((1, 2), (2, 0), (0, 1)))
    c = FaceWalk(((0, 2), (2, 1), (1, 0)))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.nodes == (0, 1, 2)
    assert 2 in a.nodes and 3 not in a.nodes


def _lexmin_rotation(steps):
    """The reference definition: the lexicographically least rotation."""
    if not steps:
        return steps
    return min(steps[i:] + steps[:i] for i in range(len(steps)))


_walks = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), unique=True, max_size=12)


@settings(max_examples=200, deadline=None)
@given(a=_walks, other=_walks, shift=st.integers(0, 11), data=st.data())
def test_face_walk_canonical_matches_lexicographic_min(a, other, shift, data):
    a = tuple(a)
    wa = FaceWalk(a)
    assert wa.canonical() == _lexmin_rotation(a)
    k = shift % len(a) if a else 0
    rotated = FaceWalk(a[k:] + a[:k])
    assert rotated == wa and hash(rotated) == hash(wa)
    # a permutation of the same steps is equal exactly when it is a rotation
    for b in (tuple(data.draw(st.permutations(a))), tuple(other)):
        wb = FaceWalk(b)
        assert (wa == wb) == (_lexmin_rotation(a) == _lexmin_rotation(b))
        if wa == wb:
            assert hash(wa) == hash(wb)
        if len(a) != len(b):
            assert wa != wb and wb != wa


def test_tracer_on_triangle():
    rotation = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    faces = rotation_faces(rotation)
    assert len(faces) == 2
    assert sorted(len(f) for f in faces) == [3, 3]


def test_tracer_rejects_asymmetric_rotation():
    with pytest.raises(ValueError):
        rotation_faces({0: (1,), 1: ()})


@pytest.mark.parametrize(
    "rotation",
    [
        {0: (1, 1), 1: (0,)},  # repeated neighbor
        {0: (1, 2), 1: (0,), 2: ()},  # segment (0, 2) has no reverse side
    ],
)
def test_tracer_raises_incomplete_rotation(rotation):
    with pytest.raises(od.IncompleteRotation) as err:
        rotation_faces(rotation)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("rotation, message", [
    ({0: 5, 1: (0,)}, "rotation at node 0 is of type int, not a tuple or list"),
    ({0: {1}, 1: (0,)}, "rotation at node 0 is of type set, not a tuple or list"),
    ({0: (1,), 1: (0,), "a": ()}, "rotation node 'a' is not an int"),
    ({0: (2,), 2: (0,), True: ()}, "rotation node True is not an int"),
    ({0: (1.0,), 1: (0,)}, "rotation at node 0 lists (1.0,), expected int ids"),
    ({0: (1,), 1: (False,)}, "rotation at node 1 lists (False,), expected int ids"),
    ([(0, (1,)), (1, (0,))], "rotation must be a mapping, got list"),
    (None, "rotation must be a mapping, got NoneType"),
], ids=["int", "set", "str_node", "bool_node", "float_id", "bool_id", "list", "none"])
def test_tracer_applies_the_drawing_type_rule(rotation, message):
    with pytest.raises(od.IncompleteRotation) as info:
        rotation_faces(rotation)
    assert str(info.value) == message


def test_tracer_k5_rotation_never_planar():
    # Any rotation system of K5 misses Euler's count F = 2 - 5 + 10 = 7.
    rotation = {v: tuple(u for u in range(5) if u != v) for v in range(5)}
    faces = rotation_faces(rotation)
    assert sum(len(f) for f in faces) == 20
    assert len(faces) != 7


def test_face_partition_property_on_drawing():
    _, d = od.construct_extremal(4, 6)
    faces = od.trace_faces(d)
    steps = [s for f in faces for s in f.steps]
    assert len(steps) == len(set(steps)) == 2 * d.segment_count


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracer_partition_and_genus_parity(data):
    n = data.draw(st.integers(2, 6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(possible), min_size=n - 1))
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rotation = {}
    for v in range(n):
        order = list(adj[v])
        data.draw(st.randoms(use_true_random=False)).shuffle(order)
        rotation[v] = tuple(order)
    faces = rotation_faces(rotation)
    steps = [s for f in faces for s in f.steps]
    assert len(steps) == len(set(steps)) == 2 * len(edges)
    # A connected rotation system embeds in an orientable surface, so
    # V - E + F is an even number at most 2.
    if _connected(adj):
        euler = n - len(edges) + len(faces)
        assert euler <= 2 and euler % 2 == 0


def test_tracer_matches_reference_on_construct_grid():
    count = 0
    for x in range(2, 13):
        for strategy in ("fan", "zigzag", "seed:0", "seed:1"):
            for t in range(4):
                y = 2 + t if x == 2 else 3 * (x - 2) + t
                _, d = od.construct_extremal(x, y, strategy)
                for drawing in (d, od.double(d).drawing_star):
                    expected = reference_faces(drawing.rotation)
                    assert [f.steps for f in od.trace_faces(drawing)] == expected
                    assert [f.steps for f in rotation_faces(drawing.rotation)] == expected
                    count += 1
    assert count == 11 * 4 * 4 * 2


@st.composite
def _rotation_systems(draw):
    """A rotation system on nodes 0..n-1 with random cyclic orders, maybe
    disconnected or of higher genus, and sometimes broken: a neighbour
    repeated, dropped, or pointing at a node with no rotation."""
    n = draw(st.integers(1, 7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(possible))) if possible else set()
    adj = {v: [] for v in range(n)}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    rng = draw(st.randoms(use_true_random=False))
    for order in adj.values():
        rng.shuffle(order)
    v = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(["none", "none", "repeat", "drop", "stranger"]))
    if defect == "repeat" and adj[v]:
        adj[v].insert(draw(st.integers(0, len(adj[v]))), adj[v][0])
    elif defect == "drop" and adj[v]:
        adj[v].pop(draw(st.integers(0, len(adj[v]) - 1)))
    elif defect == "stranger":
        adj[v].append(n)
    return {v: tuple(order) for v, order in adj.items()}


@settings(max_examples=300, deadline=None)
@given(rotation=_rotation_systems())
def test_tracer_matches_reference_on_random_rotations(rotation):
    try:
        expected = reference_faces(rotation)
    except od.IncompleteRotation as err:
        with pytest.raises(od.IncompleteRotation) as info:
            rotation_faces(rotation)
        assert str(info.value) == str(err)
        return
    assert [f.steps for f in rotation_faces(rotation)] == expected


def _connected(adj):
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


# ---------------------------------------------------------------------------
# build_drawing validation
# ---------------------------------------------------------------------------


def test_planar_k22_two_faces():
    d = planar_k22_drawing()
    faces = od.trace_faces(d)
    assert len(faces) == 2
    assert all(len(f) == 4 for f in faces)


def test_b3_k33_drawing_face_count():
    _, d = od.construct_extremal(3, 3)
    assert d.node_count == 9
    assert d.segment_count == 15
    assert len(od.trace_faces(d)) == 8


def test_adjacent_edges_may_not_cross():
    g = k22()
    rotation = {0: (2, 3), 1: (3, 2), 2: (0, 1), 3: (0, 1)}
    with pytest.raises(od.AdjacentEdgesCross):
        od.build_drawing(g, [((0, 2), (0, 3))], rotation)


def test_edge_crossed_twice_rejected():
    g = k33()
    with pytest.raises(od.EdgeCrossedTwice):
        od.build_drawing(g, [((0, 3), (1, 4)), ((0, 3), (2, 5))], {})


def test_incomplete_rotation_rejected():
    g = k22()
    with pytest.raises(od.IncompleteRotation):
        od.build_drawing(g, [], {0: (2, 3), 1: (3, 2), 2: (0, 1)})
    with pytest.raises(od.IncompleteRotation):
        od.build_drawing(g, [], {0: (2, 3), 1: (3, 2), 2: (0, 1), 3: (0, 0)})


@pytest.mark.parametrize("value", [5, {2, 3}, range(2, 4)], ids=["int", "set", "range"])
def test_rotation_value_that_is_no_sequence_is_incomplete_rotation(value):
    rotation = {0: value, 1: (3, 2), 2: (0, 1), 3: (0, 1)}
    with pytest.raises(od.IncompleteRotation) as info:
        od.build_drawing(k22(), [], rotation)
    assert str(info.value) == (
        f"rotation at node 0 is of type {type(value).__name__}, not a tuple or list"
    )
    # A fault of the node keys is named first.
    del rotation[3]
    with pytest.raises(od.IncompleteRotation, match="rotation nodes mismatch"):
        od.build_drawing(k22(), [], rotation)


def _bool_key_and_missing_node(rotation):
    # True == 1, so the key set alone would not tell True from node 1.
    rotation[True] = rotation.pop(1)
    del rotation[5]
    return "rotation node True is not an int"


def _missing_node_and_wrong_neighbour(rotation):
    del rotation[5]
    rotation[6] = (2,) + rotation[6][1:]
    return "rotation nodes mismatch planarization (1 missing, first [5]; 0 extra, first [])"


def _wrong_neighbour(rotation):
    rotation[6] = (2,) + rotation[6][1:]
    return ("rotation at node 6 lists (2, 1, 3, 4), expected a cyclic order of "
            "[0, 1, 3, 4]")


def _float_neighbour(rotation):
    # Worded as the tracer words it: the id's type is the fault.
    rotation[6] = (0.0,) + rotation[6][1:]
    return "rotation at node 6 lists (0.0, 1, 3, 4), expected int ids"


@pytest.mark.parametrize("corrupt", [
    _bool_key_and_missing_node, _missing_node_and_wrong_neighbour, _wrong_neighbour,
    _float_neighbour,
], ids=lambda f: f.__name__)
def test_rotation_fault_named_first_of_its_kind(corrupt):
    # The K3,3 drawing with one crossing; dummy 6 neighbours 0, 1, 3 and 4.
    rotation = dict(no_disk_k33_drawing().rotation)
    message = corrupt(rotation)
    with pytest.raises(od.IncompleteRotation) as info:
        od.build_drawing(k33(), [((0, 3), (1, 4))], rotation)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, error, message", [
    ("graph", None, od.DrawingError, "graph must be a BipartiteGraph, got NoneType"),
    ("crossings", 5, od.DrawingError, "crossings must be iterable, got int"),
    ("rotation", [(0, (4, 5, 6))], od.IncompleteRotation, "rotation must be a mapping, got list"),
    ("rotation", None, od.IncompleteRotation, "rotation must be a mapping, got NoneType"),
], ids=["graph_none", "crossings_int", "rotation_list", "rotation_none"])
def test_argument_of_the_wrong_kind_is_named(field, value, error, message):
    args = {"graph": k33(), "crossings": [((0, 3), (1, 4))],
            "rotation": dict(no_disk_k33_drawing().rotation), field: value}
    with pytest.raises(od.DrawingError) as info:
        od.build_drawing(**args)
    assert (type(info.value), str(info.value)) == (error, message)


def test_bad_crossing_is_named_in_input_order():
    # Crossing 0's missing edge comes before crossing 1's float endpoints.
    with pytest.raises(od.DrawingError) as info:
        od.build_drawing(k33(), [((0, 3), (9, 9)), ((0.0, 4.0), (1, 3))], {})
    assert str(info.value) == "crossing 0 references missing edge (9, 9)"


@pytest.mark.parametrize("crossing", [
    iter,
    lambda c: (c.edge_b[::-1], iter(c.edge_a)),
    lambda c: (x for x in (iter(c.edge_a), c.edge_b)),
], ids=["iterator_crossing", "iterator_edge", "generator_of_iterators"])
def test_crossing_given_as_an_iterator_is_read_once(crossing):
    _, d = od.construct_extremal(5, 9)
    given = (crossing(c) for c in d.crossings)
    assert od.build_drawing(d.graph, given, dict(d.rotation)) == d


def _first_crossing_fault(edge_set, crossings):
    """The reference rule: the first bad crossing in input order, then
    the first repeated edge, as (error class, message), or None."""
    normal = []
    for i, c in enumerate(crossings):
        if not (type(c) is tuple and len(c) == 2
                and all(type(e) is tuple and len(e) == 2 for e in c)):
            return (od.DrawingError,
                    f"crossing {i} is not a pair of edges, each a pair of ids: {c!r}")
        if any(type(u) is not int for e in c for u in e):
            return od.DrawingError, f"crossing {i} has a non-int endpoint: {c}"
        ea, eb = sorted(tuple(sorted(e)) for e in c)
        for e in (ea, eb):
            if e not in edge_set:
                return od.DrawingError, f"crossing {i} references missing edge {e}"
        if set(ea) & set(eb):
            return od.AdjacentEdgesCross, f"edges {ea} and {eb} share an endpoint"
        normal += [ea, eb]
    for j, e in enumerate(normal):
        if e in normal[:j]:
            return od.EdgeCrossedTwice, f"edge {e} appears in more than one crossing"
    return None


_FIXED = od.construct_extremal(4, 6)[1].graph


@st.composite
def _crossing_lists_with_faults(draw):
    """Edge-disjoint crossings of _FIXED's graph, each edge and crossing in
    random order, with 0-2 faults of random kinds at random positions."""
    edges = _FIXED.edges
    free = st.sampled_from([(e, f) for e in edges for f in edges if not set(e) & set(f)])
    crossings, used = [], set()
    for e, f in draw(st.lists(free, max_size=5)):
        if not {e, f} & used:
            used |= {e, f}
            e, f = (draw(st.sampled_from([g, g[::-1]])) for g in (e, f))
            crossings.append(draw(st.sampled_from([(e, f), (f, e)])))
    good = list(crossings)
    for _ in range(draw(st.integers(0, 2))):
        e, f = draw(free)
        kind = draw(st.sampled_from(
            ["bare_edge", "one_edge", "three_ids", "float", "bool", "missing", "adjacent",
             "repeat"]))
        if kind == "bare_edge":
            bad = e
        elif kind == "one_edge":
            bad = (e,)
        elif kind == "three_ids":
            bad = (e + f[:1], f)
        elif kind == "float":
            bad = (tuple(map(float, e)), f)
        elif kind == "bool":
            bad = ((True, draw(st.sampled_from([v for u, v in edges if u == 1]))), f)
        elif kind == "missing":
            bad = (e, draw(st.sampled_from([(0, 1), (e[0], _FIXED.vertex_count)])))
        elif kind == "adjacent":
            bad = (e, draw(st.sampled_from([g for g in edges if g != e and set(g) & set(e)])))
        else:
            crossed = draw(st.sampled_from(good))[0] if good else e
            bad = (crossed, draw(st.sampled_from([g for g in edges if not set(g) & set(crossed)])))
        crossings.insert(draw(st.integers(0, len(crossings))), bad)
    return crossings


@settings(max_examples=300, deadline=None)
@given(crossings=_crossing_lists_with_faults())
def test_crossing_faults_follow_the_one_rule(crossings):
    expected = _first_crossing_fault(set(_FIXED.edges), crossings)
    if expected is None:
        normal = tuple(od.Crossing(*sorted(tuple(sorted(e)) for e in c)) for c in crossings)
        assert _normalize_crossings(_FIXED, crossings) == normal
        # Past the crossings, the empty rotation is the first fault.
        with pytest.raises(od.IncompleteRotation):
            od.build_drawing(_FIXED, crossings, {})
        return
    with pytest.raises(od.DrawingError) as info:
        od.build_drawing(_FIXED, crossings, {})
    assert (type(info.value), str(info.value)) == expected


def test_disconnected_planarization_rejected():
    g = od.new_bipartite(2, 2, [(0, 2), (1, 3)])
    rotation = {0: (2,), 2: (0,), 1: (3,), 3: (1,)}
    with pytest.raises(od.DisconnectedPlanarization, match=r"2 node\(s\) unreachable"):
        od.build_drawing(g, [], rotation)


def test_non_alternating_dummy_rejected():
    g = k33()
    base = no_disk_k33_drawing()
    bad_rotation = dict(base.rotation)
    a1, b1, a2, b2 = bad_rotation[6]
    bad_rotation[6] = (a1, a2, b1, b2)
    with pytest.raises(od.NonAlternatingDummy):
        od.build_drawing(g, [((0, 3), (1, 4))], bad_rotation)


def test_nonplanar_rotation_rejected_at_build_and_trace():
    g = od.new_bipartite(2, 3, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    twisted = {0: (2, 3, 4), 1: (2, 3, 4), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    with pytest.raises(od.NotPlanarEmbedding):
        od.build_drawing(g, [], twisted)
    with pytest.raises(od.NotPlanarEmbedding):
        Drawing(g, (), {k: tuple(v) for k, v in twisted.items()})


def _drawing_document(g, crossings, rotation) -> dict:
    """The document of these fields, written without checking them."""
    index = {e: i for i, e in enumerate(g.edges)}
    return {
        "schema": "onedisk-drawing/1",
        "graph": graph_to_document(g),
        "crossings": [[index[a], index[b]] for a, b in crossings],
        "rotation": {str(v): list(order) for v, order in rotation.items()},
        "one_disk_face": None,
    }


def _short_rotation_and_unalternated_dummy():
    # The first dummy stops alternating and the last loses a neighbour:
    # the short rotation is reported, though its node comes later.
    _, d = od.construct_extremal(3, 3)
    first, last = d.graph.vertex_count, d.node_count - 1
    c = d.crossings[0]
    rotation = {**d.rotation, first: c.edge_a + c.edge_b, last: d.rotation[last][1:]}
    return d.graph, d.crossings, rotation


def _disconnected_with_genus_one_component():
    # K2,3 on X {0, 1} and Y {3, 4, 5} with both X rotations alike (genus
    # 1, one face), plus the edge 2-6 (one face): V - E + F = 7 - 7 + 2
    # meets Euler's formula, so only connectivity rejects it.
    g = od.new_bipartite(3, 4, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 6)])
    rotation = {0: (3, 4, 5), 1: (3, 4, 5), 2: (6,), 3: (0, 1), 4: (0, 1), 5: (0, 1),
                6: (2,)}
    return g, (), rotation


@pytest.mark.parametrize("defects, error", [
    (_short_rotation_and_unalternated_dummy, od.IncompleteRotation),
    (_disconnected_with_genus_one_component, od.DisconnectedPlanarization),
], ids=["short_rotation_first", "disconnection_before_genus"])
def test_first_of_two_defects_is_reported(defects, error, tmp_path):
    g, crossings, rotation = defects()
    with pytest.raises(od.DrawingError) as info:
        od.build_drawing(g, crossings, rotation)
    assert type(info.value) is error
    path = tmp_path / "d.json"
    path.write_text(json.dumps(_drawing_document(g, crossings, rotation)), encoding="utf-8")
    with pytest.raises(od.ValidationError) as loaded:
        od.load_drawing(path)
    assert type(loaded.value.__cause__) is error
    assert str(loaded.value) == f"{error.__name__}: {info.value}"


def test_faces_traced_once_per_validated_drawing(tmp_path, monkeypatch):
    _, d = od.construct_extremal(5, 9)
    calls = _count_traces(monkeypatch)
    path = tmp_path / "d.json"
    od.save_drawing(d, path)
    assert len(calls) == 0
    loaded = od.load_drawing(path)
    assert len(calls) == 1
    assert od.find_one_disk_face(loaded) is not None
    assert od.verification_failure(loaded) is None
    assert len(calls) == 1


def test_stored_faces_leave_equality_and_copies_alone(monkeypatch):
    _, d = od.construct_extremal(4, 6)
    calls = _count_traces(monkeypatch)
    bare = Drawing(d.graph, d.crossings, d.rotation)
    assert len(calls) == 1
    assert bare == d and repr(bare) == repr(d)
    faces = od.trace_faces(d)
    faces.clear()
    assert len(od.trace_faces(d)) == 2 - d.node_count + d.segment_count
    assert od.trace_faces(bare) == od.trace_faces(d)
    assert len(calls) == 1
    replaced = dataclasses.replace(d, rotation=dict(d.rotation))
    assert len(calls) == 2
    assert replaced == d and od.trace_faces(replaced) == od.trace_faces(d)
    assert len(calls) == 2


def test_rotations_are_normalized():
    g = k22()
    d = od.build_drawing(g, [], {0: (3, 2), 1: (3, 2), 2: (1, 0), 3: (0, 1)})
    assert all(rot[0] == min(rot) for rot in d.rotation.values())


def test_built_rotation_is_read_only():
    # Mutating it in place would leave the stored faces stale.
    _, d = od.construct_extremal(4, 6)
    with pytest.raises(TypeError):
        d.rotation[0] = tuple(reversed(d.rotation[0]))
    with pytest.raises(TypeError):
        del d.rotation[0]
    assert od.verification_failure(d) is None


def test_pickle_and_deepcopy_remake_checked_drawings():
    _, d = od.construct_extremal(4, 6)
    for original in (d, od.double(d).drawing_star):
        for copied in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert copied == original
            assert od.trace_faces(copied) == od.trace_faces(original)
            with pytest.raises(TypeError):
                copied.rotation[0] = ()


# ---------------------------------------------------------------------------
# Checked when made: direct construction, dataclasses.replace
# ---------------------------------------------------------------------------


def test_verify_accepts_planar_drawing():
    rotation = {0: (2, 3), 1: (3, 2), 2: (0, 1), 3: (0, 1)}
    d = Drawing(k22(), [], rotation)
    assert d == planar_k22_drawing()
    assert od.verification_failure(d) is None


def test_verify_accepts_construction_output():
    _, d = od.construct_extremal(4, 6)
    assert od.verification_failure(d) is None


@pytest.mark.parametrize("reverse_edge", [True, False])
def test_verify_rejects_crossing_out_of_normal_form(reverse_edge):
    # A crossing out of normal form is put into it when the Drawing is made.
    _, d = od.construct_extremal(3, 3)
    c = d.crossings[0]
    if reverse_edge:
        bad = c._replace(edge_a=c.edge_a[::-1])
    else:
        bad = c._replace(edge_a=c.edge_b, edge_b=c.edge_a)
    tampered = dataclasses.replace(d, crossings=(bad,) + d.crossings[1:])
    assert tampered.crossings[0] == c
    assert tampered == d


def test_verify_rejects_mutated_rotation():
    _, d = od.construct_extremal(3, 3)
    rotation = dict(d.rotation)
    rotation[0] = tuple(reversed(rotation[0]))
    # reversing one vertex alone flips chirality locally and breaks Euler
    with pytest.raises(od.NotPlanarEmbedding):
        dataclasses.replace(d, rotation=rotation)


def _drop_neighbor(d, rng):
    v = rng.choice([v for v, order in d.rotation.items() if len(order) >= 2])
    return {"rotation": {**d.rotation, v: d.rotation[v][1:]}}


def _drop_node(d, rng):
    v = rng.randrange(d.node_count)
    return {"rotation": {u: order for u, order in d.rotation.items() if u != v}}


def _stranger(d, rng, v):
    """A node that v's rotation does not list."""
    return rng.choice([u for u in range(d.node_count) if u != v and u not in d.rotation[v]])


def _misdirect_neighbor(d, rng):
    v = rng.randrange(d.node_count)
    order = list(d.rotation[v])
    order[rng.randrange(len(order))] = _stranger(d, rng, v)
    return {"rotation": {**d.rotation, v: tuple(order)}}


def _add_neighbor(d, rng):
    v = rng.randrange(d.node_count)
    return {"rotation": {**d.rotation, v: d.rotation[v] + (_stranger(d, rng, v),)}}


def _float_node(d, rng):
    # 2.0 == 2 and hashes alike, so only a type check tells them apart.
    rotation = dict(d.rotation)
    v = rng.randrange(d.node_count)
    rotation[float(v)] = rotation.pop(v)
    return {"rotation": rotation}


def _float_neighbor(d, rng):
    v = rng.randrange(d.node_count)
    order = list(d.rotation[v])
    i = rng.randrange(len(order))
    order[i] = float(order[i])
    return {"rotation": {**d.rotation, v: tuple(order)}}


def _cross_adjacent(d, rng):
    e = rng.choice(d.graph.edges)
    f = rng.choice([f for f in d.graph.edges if f != e and set(f) & set(e)])
    return {"crossings": d.crossings + ((e, f),)}


def _unalternate(d, rng):
    i = rng.randrange(len(d.crossings))
    c = d.crossings[i]
    return {"rotation": {**d.rotation, d.graph.vertex_count + i: c.edge_a + c.edge_b}}


def _cross_twice(d, rng):
    e = rng.choice(d.crossings).edge_b
    f = rng.choice([f for f in d.graph.edges if not set(f) & set(e)])
    return {"crossings": d.crossings + ((e, f),)}


def _cross_missing_edge(d, rng):
    # Two X vertices are never joined.
    e = rng.choice([e for e in d.graph.edges if not set(e) & {0, 1}])
    return {"crossings": d.crossings + (((0, 1), e),)}


def _cross_missing_second_edge(d, rng):
    # No vertex has the id vertex_count, so only the second edge is missing.
    e = rng.choice(d.graph.edges)
    return {"crossings": d.crossings + ((e, (e[0], d.graph.vertex_count)),)}


def _cross_non_pair(d, rng):
    e, f = rng.choice(d.crossings)
    return {"crossings": d.crossings + ((e + f[:1], f),)}


def _cross_bare_edge(d, rng):
    # An edge given where a crossing belongs.
    return {"crossings": d.crossings + (rng.choice(d.graph.edges),)}


def _cross_one_edge(d, rng):
    return {"crossings": d.crossings + ((rng.choice(d.graph.edges),),)}


def _float_crossing(d, rng):
    # (0.0, 3.0) == (0, 3), so the edge lookup alone lets floats through.
    i = rng.randrange(len(d.crossings))
    ea, eb = d.crossings[i]
    bad = (tuple(map(float, ea)), eb)
    return {"crossings": d.crossings[:i] + (bad,) + d.crossings[i + 1:]}


def _bool_crossing(d, rng):
    # True == 1: the graph's edge (1, v) crossed as (True, v).
    i, c = rng.choice([(i, c) for i, c in enumerate(d.crossings) if 1 in c.edge_a + c.edge_b])
    ea, eb = (tuple(True if u == 1 else u for u in e) for e in c)
    return {"crossings": d.crossings[:i] + ((ea, eb),) + d.crossings[i + 1:]}


@pytest.mark.parametrize("corrupt, error", [
    (_drop_neighbor, od.IncompleteRotation),
    (_drop_node, od.IncompleteRotation),
    (_misdirect_neighbor, od.IncompleteRotation),
    (_add_neighbor, od.IncompleteRotation),
    (_float_node, od.IncompleteRotation),
    (_float_neighbor, od.IncompleteRotation),
    (_cross_adjacent, od.AdjacentEdgesCross),
    (_unalternate, od.NonAlternatingDummy),
    (_cross_twice, od.EdgeCrossedTwice),
    (_cross_missing_edge, od.DrawingError),
    (_cross_missing_second_edge, od.DrawingError),
    (_cross_non_pair, od.DrawingError),
    (_cross_bare_edge, od.DrawingError),
    (_cross_one_edge, od.DrawingError),
    (_float_crossing, od.DrawingError),
    (_bool_crossing, od.DrawingError),
], ids=lambda p: getattr(p, "__name__", None))
def test_single_field_corruption_raises_its_invariant(corrupt, error):
    rng = random.Random(corrupt.__name__)
    for x in range(3, 9):
        for t in (0, 2):
            for strategy in ("fan", "zigzag", "seed:7"):
                _, d = od.construct_extremal(x, 3 * (x - 2) + t, strategy)
                for drawing in (d, od.double(d).drawing_star):
                    with pytest.raises(od.DrawingError) as info:
                        dataclasses.replace(drawing, **corrupt(drawing, rng))
                    assert type(info.value) is error, (x, t, strategy, info.value)


def test_dummy_alternation_property():
    for x, y in [(3, 3), (4, 6), (5, 9)]:
        _, d = od.construct_extremal(x, y)
        for dummy, c in enumerate(d.crossings, d.graph.vertex_count):
            order = d.rotation[dummy]
            slots = {i for i, v in enumerate(order) if v in c.edge_a}
            assert slots in ({0, 2}, {1, 3})


def test_crossing_budget_property():
    for x, y in [(3, 3), (6, 12)]:
        _, d = od.construct_extremal(x, y)
        crossed = [e for c in d.crossings for e in (c.edge_a, c.edge_b)]
        assert len(crossed) == len(set(crossed))


# ---------------------------------------------------------------------------
# find_one_disk_face
# ---------------------------------------------------------------------------


def test_disk_face_on_planar_k22():
    d = planar_k22_drawing()
    walk = od.find_one_disk_face(d)
    assert walk is not None
    assert set(walk.nodes) >= {0, 1}


def test_disk_face_on_extremal_5_9():
    _, d = od.construct_extremal(5, 9)
    walk = od.find_one_disk_face(d)
    assert walk is not None
    assert set(walk.nodes) >= set(range(5))


def test_disk_face_absent_on_enclosing_drawing():
    d = no_disk_k33_drawing()
    assert od.find_one_disk_face(d) is None


def test_disk_face_found_on_every_construction():
    for x in range(3, 8):
        _, d = od.construct_extremal(x, 3 * (x - 2))
        assert od.find_one_disk_face(d) is not None
    for y in range(2, 8):
        _, d = od.construct_extremal(2, y)
        assert od.find_one_disk_face(d) is not None


def test_crossing_count():
    assert od.crossing_count(planar_k22_drawing()) == 0
    _, d = od.construct_extremal(3, 3)
    assert od.crossing_count(d) == 3
    for x in range(3, 8):
        _, d = od.construct_extremal(x, 3 * (x - 2))
        assert od.crossing_count(d) == 3 * (x - 2)
