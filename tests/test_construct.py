from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import onedisk as od
from onedisk import construct as construct_mod
from onedisk.construct import DrawingBuilder, insert_b3, maximal_outerplanar
from onedisk.drawing import rotation_faces

from conftest import no_disk_k33_drawing, planar_k22_drawing
from test_golden import STRATEGIES


def _degree(g: od.BipartiteGraph, v: int) -> int:
    return sum(1 for e in g.edges if v in e)


# ---------------------------------------------------------------------------
# Maximal outerplanar scaffolds
# ---------------------------------------------------------------------------


def test_skeleton_k3_is_triangle():
    s = maximal_outerplanar(3)
    assert len(s.edges) == 3
    assert len(s.triangles) == 1
    assert len(s.outer_face) == 3


def test_skeleton_k5_fan():
    s = maximal_outerplanar(5, "fan")
    assert len(s.edges) == 7
    assert len(s.triangles) == 3
    assert set(s.edges) >= {(0, 2), (0, 3)}


def test_skeleton_k4_counts_all_strategies():
    for strategy in ("fan", "zigzag", "seed:1"):
        s = maximal_outerplanar(4, strategy)
        assert len(s.edges) == 5
        assert len(s.triangles) == 2


def test_skeleton_counts_strategy_independent():
    for k in range(3, 10):
        for strategy in ("fan", "zigzag", "seed:0", "seed:99"):
            s = maximal_outerplanar(k, strategy)
            assert len(s.edges) == 2 * k - 3
            assert len(s.triangles) == k - 2
            assert all(len(t) == 3 for t in s.triangles)
            assert s.outer_face.visits_all(range(k))


def test_skeleton_zigzag_differs_from_fan():
    fan = maximal_outerplanar(6, "fan")
    zig = maximal_outerplanar(6, "zigzag")
    assert set(fan.edges) != set(zig.edges)


def test_seeded_skeleton_deterministic():
    a = maximal_outerplanar(8, "seed:42")
    b = maximal_outerplanar(8, "seed:42")
    assert a.edges == b.edges


_strategies = st.one_of(
    st.sampled_from(["fan", "zigzag"]),
    st.integers(0, 10**6).map(lambda n: f"seed:{n}"),
)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(3, 60), strategy=_strategies)
def test_skeleton_rotation_is_polygon_order(k, strategy):
    s = maximal_outerplanar(k, strategy)
    for v, order in s.rotation.items():
        expected = sorted(order, key=lambda w: (w - v) % k)
        i = order.index(expected[0])
        assert order[i:] + order[:i] == tuple(expected), (v, order)


def test_skeleton_rotation_starts_past_the_half_turn():
    # For even k the chord 0 -> k/2 points exactly at angle pi, the last
    # bearing of the range (-pi, pi]; the rotation starts after it.
    order = maximal_outerplanar(26, "fan").rotation[0]
    assert order[0] == 14 and order[-1] == 13


@pytest.mark.parametrize("strategy", ["spiral", "seed:", "seed:x", "fan:1", ""])
def test_unknown_strategy(strategy):
    with pytest.raises(ValueError):
        maximal_outerplanar(5, strategy)


@pytest.mark.parametrize("spelled, canonical", [
    (" Fan ", "fan"), ("ZIGZAG", "zigzag"), ("Seed:7", "seed:7"),
])
def test_strategy_spelling_is_normalized(spelled, canonical):
    assert maximal_outerplanar(9, spelled) == maximal_outerplanar(9, canonical)


# ---------------------------------------------------------------------------
# Gadget insertion
# ---------------------------------------------------------------------------


def test_insert_b3_fragment_counts_and_euler():
    s = maximal_outerplanar(3)
    builder = DrawingBuilder(s, 3)
    insert_b3(builder, s.triangles[0])
    # The fragment without the scaffold: 6 original nodes + 3 dummies,
    # 9 edges, 3 crossings -> 9 + 2 * 3 = 15 segments, so Euler needs 8 faces.
    rotation = builder.derive_rotation()
    assert sorted(rotation) == list(range(9))
    assert sum(len(order) for order in rotation.values()) == 2 * 15
    faces = rotation_faces(rotation)
    assert len(faces) == 2 - 9 + 15 == 8
    g, d = builder.finish()
    assert g.y_count == 3
    assert od.edge_count(g) == 9
    assert od.crossing_count(d) == 3


def test_insert_b3_all_triangles_k5():
    s = maximal_outerplanar(5, "fan")
    builder = DrawingBuilder(s, 9)
    for tri in s.triangles:
        insert_b3(builder, tri)
    g, d = builder.finish()
    assert g.y_count == 9
    assert od.edge_count(g) == 27
    assert od.crossing_count(d) == 9


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("x", range(3, 13))
def test_wedge_keys_reverse_distinct_scaffold_face_sides(x, t, strategy):
    # Each wedge fills the angle that a scaffold face's step (p, c) enters
    # at c, and is keyed (c, p): a gadget's by a step of its own triangle,
    # the nested pair's by steps of the outer face.  A key written twice
    # would shrink the key count.
    s = maximal_outerplanar(x, strategy)
    builder = DrawingBuilder(s, 3 * (x - 2) + t)
    for tri in s.triangles:
        before = set(builder.wedges)
        insert_b3(builder, tri)
        added = set(builder.wedges) - before
        assert {(p, c) for c, p in added} <= set(tri.steps), (tri, added)
    if t:
        before = set(builder.wedges)
        construct_mod._attach_nested_pair(builder, t)
        added = set(builder.wedges) - before
        assert {(p, c) for c, p in added} <= set(s.outer_face.steps), added
    assert len(builder.wedges) == 3 * (x - 2) + 2 * (t > 0)
    builder.finish()


# ---------------------------------------------------------------------------
# construct_extremal
# ---------------------------------------------------------------------------


def test_extremal_3_3_is_k33():
    g, d = od.construct_extremal(3, 3)
    assert od.edge_count(g) == 9
    assert od.crossing_count(d) == 3
    assert g.edges == tuple((i, j) for i in range(3) for j in range(3, 6))


def test_extremal_4_6():
    g, d = od.construct_extremal(4, 6)
    assert od.edge_count(g) == 18


def test_extremal_4_8_with_pendant_pair():
    g, d = od.construct_extremal(4, 8)
    assert od.edge_count(g) == 22
    degree_two = [v for v in g.y_vertices if _degree(g, v) == 2]
    assert len(degree_two) == 2
    for v in degree_two:
        assert {u for u, w in g.edges if w == v} == {0, 1}


def test_extremal_2_5_nested():
    g, d = od.construct_extremal(2, 5)
    assert od.edge_count(g) == 10
    assert od.crossing_count(d) == 0
    assert all(_degree(g, v) == 2 for v in g.y_vertices)


def test_extremal_edge_identity_across_regimes():
    cases = [(2, 2), (2, 9), (3, 3), (3, 7), (4, 6), (4, 11), (5, 9), (6, 12), (7, 20)]
    for x, y in cases:
        g, d = od.construct_extremal(x, y)
        assert od.edge_count(g) == 2 * (x + y) + x - 6, (x, y)
        assert od.find_one_disk_face(d) is not None


def test_extremal_gadget_degree_profile():
    for x, y in [(3, 3), (4, 6), (4, 9), (5, 12)]:
        g, _ = od.construct_extremal(x, y)
        degree_three = sum(1 for v in g.y_vertices if _degree(g, v) == 3)
        degree_two = sum(1 for v in g.y_vertices if _degree(g, v) == 2)
        assert degree_three == 3 * (x - 2)
        assert degree_two == y - 3 * (x - 2)


def test_extremal_deterministic():
    a = od.construct_extremal(5, 9)
    b = od.construct_extremal(5, 9)
    assert a == b


# sha256 of the documents save_drawing writes for construct_extremal(x,
# 3(x - 2) + 1, strategy) with x in (26, 52) and strategies fan, zigzag,
# seed:7, each followed by its double: larger scaffolds than the golden
# grid of test_golden.py, whose x stops at 12.
BEYOND_GRID_SHA256 = "02d660edc3410d352b60ae952486fdd29cf08bc55bbaa9fb4b1b36d8ecdc1bb2"


def test_extremal_documents_beyond_grid_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "d.json"
    for x in (26, 52):
        for strategy in ("fan", "zigzag", "seed:7"):
            _, d = od.construct_extremal(x, 3 * (x - 2) + 1, strategy)
            for drawing in (d, od.double(d).drawing_star):
                od.save_drawing(drawing, path)
                digest.update(path.read_bytes())
    assert digest.hexdigest() == BEYOND_GRID_SHA256


def test_uncovered_regime():
    with pytest.raises(od.UncoveredRegime):
        od.construct_extremal(4, 4)
    with pytest.raises(od.UncoveredRegime):
        od.construct_extremal(5, 8)


@pytest.mark.parametrize("x, y", [(2, 5), (4, 4), (1, 5), (2.0, 5)])
def test_extremal_parses_the_strategy_first(x, y):
    # Before any range or regime check, and also at x = 2, where the
    # two-column family has no triangulation to choose.
    with pytest.raises(ValueError, match="unknown triangulation strategy"):
        od.construct_extremal(x, y, "spiral")


def test_extremal_domain_errors():
    with pytest.raises(ValueError):
        od.construct_extremal(1, 5)
    with pytest.raises(ValueError):
        od.construct_extremal(4, 3)


@pytest.mark.parametrize("x, y", [(2.0, 5), (3.5, 9), (3, 9.0), ("3", 9), (True, 5)])
def test_extremal_rejects_part_sizes_that_are_not_ints(x, y):
    with pytest.raises(ValueError, match="must be ints"):
        od.construct_extremal(x, y)


# ---------------------------------------------------------------------------
# Doubling
# ---------------------------------------------------------------------------


def test_double_planar_k22():
    result = od.double(planar_k22_drawing())
    assert result.graph_star.vertex_count == 6
    assert od.edge_count(result.graph_star) == 8
    assert od.crossing_count(result.drawing_star) == 0


def test_double_extremal_3_3():
    g, d = od.construct_extremal(3, 3)
    result = od.double(d)
    assert result.graph_star.vertex_count == 9
    assert od.edge_count(result.graph_star) == 18
    assert od.edge_count(result.graph_star) == od.huang_max_edges(3, 6)


def test_double_identities_on_grid():
    for x in range(3, 9):
        y = 3 * (x - 2)
        g, d = od.construct_extremal(x, y)
        result = od.double(d)
        assert result.graph_star.vertex_count == x + 2 * y
        assert od.edge_count(result.graph_star) == 2 * od.edge_count(g)
        assert od.edge_count(result.graph_star) == 6 * x + 4 * y - 12


def test_double_preserves_bipartiteness_and_parts():
    g, d = od.construct_extremal(4, 6)
    result = od.double(d)
    star = result.graph_star
    assert star.x_count == 4 and star.y_count == 12
    for u, v in star.edges:
        assert u < 4 <= v


def test_double_requires_disk_face():
    with pytest.raises(od.NoOneDiskFace):
        od.double(no_disk_k33_drawing())


def test_double_mirror_preserves_alternation():
    _, d = od.construct_extremal(3, 3)
    result = od.double(d)
    dd = result.drawing_star
    for dummy, c in enumerate(dd.crossings, dd.graph.vertex_count):
        order = dd.rotation[dummy]
        slots = {i for i, v in enumerate(order) if v in c.edge_a}
        assert slots in ({0, 2}, {1, 3})


def _disk_gap_reference(cycle, v):
    """The per-vertex scan ``double`` used before: O(|cycle|) for each X vertex.

    It reads the face's steps (cycle[j], cycle[j + 1]) from j = 0 on and
    stops at the first that enters v.
    """
    n = len(cycle)
    for j in range(n):
        if cycle[(j + 1) % n] == v:
            return cycle[(j + 2) % n]
    raise od.NoOneDiskFace(f"X vertex {v} does not lie on the disk face")


def _reference_gaps(cycle, x_count):
    return {v: _disk_gap_reference(cycle, v) for v in range(x_count)}


@pytest.mark.parametrize("strategy", ["fan", "zigzag", "seed:7"])
@pytest.mark.parametrize("x", [26, 52, 100, 300])
def test_disk_gaps_match_per_vertex_scan(x, strategy, monkeypatch):
    _, d = od.construct_extremal(x, 3 * (x - 2), strategy)
    cycle = od.find_one_disk_face(d).nodes
    assert construct_mod._disk_gaps(cycle, x) == _reference_gaps(cycle, x)
    fast = od.double(d)
    monkeypatch.setattr(construct_mod, "_disk_gaps", _reference_gaps)
    assert od.double(d) == fast


def test_disk_gaps_take_the_first_of_repeated_visits(monkeypatch):
    # K2,2 plus a pendant Y vertex 4 at X vertex 0: the face holding the
    # pendant passes 0 twice, once on each side of edge (0, 4).
    g = od.new_bipartite(2, 3, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    d = od.build_drawing(g, [], {0: (2, 3, 4), 1: (3, 2), 2: (0, 1), 3: (0, 1), 4: (0,)})
    cycle = od.find_one_disk_face(d).nodes
    assert cycle.count(0) == 2
    assert construct_mod._disk_gaps(cycle, 2) == _reference_gaps(cycle, 2)
    fast = od.double(d)
    monkeypatch.setattr(construct_mod, "_disk_gaps", _reference_gaps)
    assert od.double(d) == fast
