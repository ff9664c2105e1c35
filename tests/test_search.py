from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
import types
from itertools import combinations, permutations

import pytest

import onedisk as od
from onedisk import search
from onedisk._planarity import plane_rotation
from onedisk.drawing import _normalize_crossings

from conftest import (
    SIZES_UP_TO_3_3,
    all_matchings,
    apex_planarization,
    connected_classes,
    k22,
    k33,
    reference_witness,
)

# sha256 of the documents save_drawing writes for the witnesses listed in
# test_search_witnesses_are_byte_identical, in that order.
WITNESS_SHA256 = "3c0877ebd8c3ceef2af69e8d8afc03fca8e219f6580349896bb37a30625b221b"


def _connected_graphs(x: int, y: int):
    """Every connected graph with parts (x, y), in edge-mask order."""
    full = [(i, x + j) for i in range(x) for j in range(y)]
    for mask in range(1, 1 << len(full)):
        g = od.new_bipartite(x, y, [e for k, e in enumerate(full) if mask >> k & 1])
        if search._is_connected(g):
            yield g


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        od.SearchLimits(time_budget=0)
    # NaN compares false with everything, and a NaN deadline never passes.
    with pytest.raises(ValueError):
        od.SearchLimits(time_budget=float("nan"))


def test_part_sizes_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        od.max_edges_one_disk(0, 3)


@pytest.mark.parametrize("x, y", [(2.0, 3), (2, 3.0), ("2", 3), (True, 3)])
def test_part_sizes_must_be_ints(x, y):
    # A plain ValueError before any class is built, not a GraphError or
    # TypeError from inside the search.
    with pytest.raises(ValueError, match="must be ints") as info:
        od.max_edges_one_disk(x, y)
    assert info.type is ValueError


def test_drawable_k22():
    witness = od.is_one_disk_drawable(k22())
    assert witness is not None
    assert od.crossing_count(witness) == 0
    assert od.find_one_disk_face(witness) is not None


def test_drawable_k33_needs_three_crossings():
    witness = od.is_one_disk_drawable(k33())
    assert witness is not None
    assert od.find_one_disk_face(witness) is not None
    # enumeration is fewest-crossings-first, so the witness count is the
    # minimum: no disk drawing of K3,3 with fewer crossings exists
    assert od.crossing_count(witness) == 3


def test_drawable_requires_connected_graph():
    g = od.new_bipartite(2, 2, [(0, 2)])
    with pytest.raises(ValueError):
        od.is_one_disk_drawable(g)


def test_drawable_budget_exceeded():
    limits = od.SearchLimits(time_budget=1e-9)
    with pytest.raises(od.BudgetExceeded):
        od.is_one_disk_drawable(k33(), limits)


def test_max_edges_2_2():
    out = od.max_edges_one_disk(2, 2)
    assert out.max_edges == 4 == od.one_disk_max_edges(2, 2)
    assert out.exhausted
    assert od.find_one_disk_face(out.witness) is not None
    assert od.edge_count(out.witness.graph) == 4


def test_max_edges_2_3():
    out = od.max_edges_one_disk(2, 3)
    assert out.max_edges == 6 == od.one_disk_max_edges(2, 3)
    assert out.exhausted
    assert od.edge_count(out.witness.graph) == 6


def test_max_edges_3_3():
    out = od.max_edges_one_disk(3, 3)
    assert out.max_edges == 9 == od.one_disk_max_edges(3, 3)
    assert out.exhausted
    assert od.find_one_disk_face(out.witness) is not None


@pytest.mark.parametrize("y, edges", [(4, 11), (5, 13)])
def test_max_edges_3_4_and_3_5(y, edges):
    out = od.max_edges_one_disk(3, y)
    assert out.max_edges == edges == od.one_disk_max_edges(3, y)
    assert od.edge_count(out.witness.graph) == edges
    assert od.find_one_disk_face(out.witness) is not None


def _k34() -> od.BipartiteGraph:
    return od.new_bipartite(3, 4, [(i, 3 + j) for i in range(3) for j in range(4)])


def test_k34_has_no_disk_drawing():
    # 3x + 2y - 6 = 11 < 12 edges: the search must exhaust every crossing set.
    assert od.is_one_disk_drawable(_k34()) is None


def _reference_first_witness(g: od.BipartiteGraph) -> od.Drawing | None:
    """The reference's witness on the first crossing set, by size and then
    lexicographically, that carries one; None when none does.  Sets of
    fewer than m - x - 2y + 2 crossings are skipped: the triangle-face
    bound of onedisk.search's module docstring excludes them without any
    planarity test."""
    smallest = max(0, len(g.edges) - g.x_count - 2 * g.y_count + 2)
    for matching in all_matchings(g.edges):
        if len(matching) < smallest:
            continue
        crossings = _normalize_crossings(
            g, [(g.edges[i], g.edges[j]) for i, j in matching])
        witness = reference_witness(g, crossings)
        if witness is not None:
            return witness
    return None


@pytest.mark.parametrize("x, y", [
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 3),
    pytest.param(3, 4, marks=pytest.mark.slow), (2, 6),
])
def test_search_agrees_with_rotation_product(x, y):
    # On every connected class the search and the reference rotation
    # product find a witness on the same crossing set.  K3,4 is the one
    # class here without a drawing; the reference cannot exhaust its
    # 11,896 crossing sets, so its "no" rests on the planarity test (see
    # test_networkx_rejects_every_apex_planarization_of_k34).
    for g in connected_classes(x, y):
        witness = od.is_one_disk_drawable(g)
        if witness is None:
            assert g.edges == _k34().edges
            continue
        reference = _reference_first_witness(g)
        assert reference is not None, g.edges
        assert reference.crossings == witness.crossings, g.edges


@pytest.mark.slow
def test_networkx_rejects_every_apex_planarization_of_k34():
    # The "no" above rests on the in-repo planarity test; networkx's own
    # test must reject every crossing set too, those below the counting
    # bound included.
    nx = pytest.importorskip("networkx")
    g = _k34()
    count = 0
    for matching in all_matchings(g.edges):
        adj = apex_planarization(g, matching)
        planar, _ = nx.check_planarity(nx.Graph([(v, u) for v in adj for u in adj[v]]))
        assert not planar, matching
        count += 1
    assert count == 11896


def test_matchings_are_crossings_in_normal_form():
    # The search embeds and draws the crossings that _crossing_sets yields
    # without normalizing them.
    for x, y in SIZES_UP_TO_3_3:
        for g in connected_classes(x, y):
            for crossings in search._crossing_sets(g, od.SearchLimits(), math.inf):
                assert all(type(c) is od.Crossing for c in crossings)
                assert crossings == _normalize_crossings(g, crossings)


def _passing(g: od.BipartiteGraph):
    """The crossing sets of ``g`` that pass the search's planarity filter,
    in enumeration order."""
    for matching in all_matchings(g.edges):
        if plane_rotation(apex_planarization(g, matching)) is not None:
            yield _normalize_crossings(
                g, [(g.edges[i], g.edges[j]) for i, j in matching])


def test_first_set_passing_the_filter_carries_the_witness():
    # The least passing crossing set yields a witness (module docstring of
    # onedisk.search), so the search draws the first set it finds planar.
    for x, y in SIZES_UP_TO_3_3:
        for g in connected_classes(x, y):
            witness = od.is_one_disk_drawable(g)
            assert witness is not None
            assert next(_passing(g)) == witness.crossings, g.edges


def test_counting_bound_skips_no_planar_set():
    # No crossing set below max(0, m - x - 2y + 2) has a planar apex
    # planarization, so starting the enumeration there loses nothing.
    for x, y in SIZES_UP_TO_3_3:
        for g in connected_classes(x, y):
            smallest = max(0, len(g.edges) - x - 2 * y + 2)
            assert min(len(c) for c in _passing(g)) >= smallest, g.edges


def _need(g: od.BipartiteGraph) -> int:
    """need of onedisk.search's module docstring: 2(m - x - 2y + 2)."""
    return 2 * (len(g.edges) - g.x_count - 2 * g.y_count + 2)


def _reference_free_diagonals(g: od.BipartiteGraph, matching) -> tuple[int, int]:
    """D(C) and D'(C) by their definitions in onedisk.search's module
    docstring: the diagonals, over all crossings, that are edges of g and
    are not crossed, counted once per crossing and then capped at two per
    edge."""
    crossed = {g.edges[k] for pair in matching for k in pair}
    uncrossed = set(g.edges) - crossed
    mult: dict = {}
    for i, j in matching:
        (xa, ya), (xb, yb) = g.edges[i], g.edges[j]
        for diagonal in ((xa, yb), (xb, ya)):
            if diagonal in uncrossed:
                mult[diagonal] = mult.get(diagonal, 0) + 1
    return sum(mult.values()), sum(min(2, k) for k in mult.values())


def _check_triangle_bound(sizes, embed) -> tuple[int, int, int]:
    """Check the triangle-face bound on every crossing set of every
    connected class of ``sizes``: a set with fewer than need free diagonal
    sides has no embedding, and an embedded set has
    need <= t <= D'(C) <= D(C), where t counts its triangular faces;
    need <= t is attained.  ``embed`` maps an apex planarization to a
    rotation system or None.  Returns the numbers of sets, of sets the
    bound skips and of planar sets."""
    total = skipped = planar = 0
    least_slack = math.inf
    for x, y in sizes:
        for g in connected_classes(x, y):
            need = _need(g)
            for matching in all_matchings(g.edges):
                total += 1
                free, sides = _reference_free_diagonals(g, matching)
                rotation = embed(apex_planarization(g, matching))
                if sides < need:
                    assert rotation is None, (g.edges, matching)
                    skipped += 1
                elif rotation is not None:
                    planar += 1
                    t = sum(len(face) == 3 for face in od.rotation_faces(rotation))
                    assert need <= t <= sides <= free, (g.edges, matching)
                    least_slack = min(least_slack, t - need)
    # Some embedding has exactly need triangles, so a smaller need would
    # fail here and a larger one above.
    assert least_slack == 0
    return total, skipped, planar


def test_triangle_face_bound_holds_on_every_crossing_set():
    assert _check_triangle_bound(SIZES_UP_TO_3_3, plane_rotation) == (847, 394, 240)


@pytest.mark.slow
def test_networkx_confirms_the_triangle_face_bound():
    # The same check with networkx's planarity test and embedding, on every
    # connected class up to (3, 4) and (2, 6).
    nx = pytest.importorskip("networkx")

    def embed(adj):
        planar, embedding = nx.check_planarity(
            nx.Graph([(v, u) for v in adj for u in adj[v]]))
        return {v: list(embedding.neighbors_cw_order(v)) for v in embedding} if planar else None

    sizes = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5),
             (3, 3), (3, 4), (2, 6)]
    assert _check_triangle_bound(sizes, embed) == (37371, 16770, 12718)


def test_crossing_sets_are_the_sets_with_enough_free_diagonal_sides():
    # The pruned walk lists exactly the crossing sets with D'(C) >= need,
    # in the order of the full listing: by size, then lexicographically.
    classes = listed = 0
    for x, y in [*SIZES_UP_TO_3_3, (2, 4), (2, 5)]:
        for g in connected_classes(x, y):
            need = _need(g)
            expected = [tuple(od.Crossing(g.edges[i], g.edges[j]) for i, j in matching)
                        for matching in _reference_matchings(g.edges)
                        if _reference_free_diagonals(g, matching)[1] >= need]
            found = list(search._crossing_sets(g, od.SearchLimits(), math.inf))
            assert found == expected, g.edges
            classes += 1
            listed += len(found)
    assert (classes, listed) == (37, 2040)


def test_k34_refutation_makes_312_planarity_calls(monkeypatch):
    # The bound lets 312 of K3,4's 11,896 crossing sets through to the
    # planarity test; the counting bound alone let 11,409 through.
    calls = []
    real = search.plane_rotation

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(search, "plane_rotation", counting)
    assert od.is_one_disk_drawable(_k34()) is None
    assert len(calls) == 312


@pytest.fixture
def planarity_calls(monkeypatch) -> list:
    """Every apex planarization the search passes to plane_rotation."""
    calls: list = []
    real = search.plane_rotation

    def counting(adj):
        calls.append(adj)
        return real(adj)

    monkeypatch.setattr(search, "plane_rotation", counting)
    return calls


@pytest.fixture
def clock_reads(monkeypatch) -> list:
    """Every read of the search's clock: one per deadline set, one per
    relabeling order and one per partial crossing set extended."""
    reads: list = []

    def counting():
        reads.append(None)
        return time.monotonic()

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=counting))
    return reads


def test_k34_walk_extends_2102_partial_sets(clock_reads):
    # Pins the strength of the prune: a looser cap 2(m - 2s + 1) lists the
    # same sets but extends 6,153 partial sets.
    assert od.is_one_disk_drawable(_k34()) is None
    assert len(clock_reads) == 1 + 2102


def test_k10_2_refutation_makes_no_planarity_call(planarity_calls, clock_reads):
    # K10,2 has need = 16.  The cap 2(20 - 2c) >= 16 allows c <= 6
    # crossings, which give at most 2c < 16 free diagonal sides, so the
    # prune drops every size before any set is listed.  K10,2 plus the apex
    # is K3,10, which has no 1-planar drawing (Czap and Hudak).
    g = od.new_bipartite(10, 2, [(i, 10 + j) for i in range(10) for j in range(2)])
    assert od.is_one_disk_drawable(g) is None
    assert planarity_calls == []
    # The one clock read sets the deadline; no partial set is extended.
    assert len(clock_reads) == 1


_MAX_EDGES_10_2_CHILD = """
import json, time
import onedisk as od
start = time.monotonic()
out = od.max_edges_one_disk(10, 2, od.SearchLimits(time_budget=15.0))
print(json.dumps({"max_edges": out.max_edges, "seconds": time.monotonic() - start}))
"""


def test_max_edges_10_2_within_budget():
    # The prune refutes levels 20 down to 15 with no planarity call, so
    # canonicalizing their classes takes most of the time; a fresh process
    # keeps other tests' load out of the budget.
    result = subprocess.run([sys.executable, "-c", _MAX_EDGES_10_2_CHILD],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["max_edges"] == 14
    assert report["seconds"] < 15.0


def test_max_edges_4_4(planarity_calls):
    # 12 edges, below the ceiling 3x + 2y - 6 = 14; the witness is the one
    # first reached in the search's order.  Capping each diagonal at its
    # two sides lets 5,399 crossing sets through to the planarity test;
    # the uncapped count D(C) let 5,963 through.
    out = od.max_edges_one_disk(4, 4)
    assert out.max_edges == 12
    assert out.witness.crossings == (((1, 4), (2, 5)), ((1, 6), (3, 5)), ((2, 6), (3, 4)))
    assert od.find_one_disk_face(out.witness) is not None
    assert len(planarity_calls) == 5399


_PRUNED_WALK_BUDGET_CHILD = """
import json, sys, time
import onedisk as od
limits = od.SearchLimits(time_budget=0.5)
start = time.monotonic()
try:
    eval(sys.argv[1])
    message = None
except od.BudgetExceeded as e:
    message = str(e)
print(json.dumps({"message": message, "seconds": time.monotonic() - start}))
"""


@pytest.mark.parametrize("call", [
    # The 18-edge level of (4, 6) spends its time in walks that the prune
    # cuts short.
    "od.max_edges_one_disk(4, 6, limits)",
    # K6,2 with eight more X vertices on one Y vertex: the walk lists no
    # crossing set for about 6 s, so a clock read only per listed set
    # would miss the deadline.
    "od.is_one_disk_drawable(od.new_bipartite(14, 2, [(i, 15) for i in range(14)]"
    " + [(i, 14) for i in range(8, 14)]), limits)",
], ids=["max_edges_4_6", "nothing_listed_14_2"])
def test_pruned_walk_honours_budget(call):
    result = subprocess.run([sys.executable, "-c", _PRUNED_WALK_BUDGET_CHILD, call],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["message"] is not None
    assert "while testing" in report["message"]
    assert report["seconds"] < 2.0


def test_max_edges_never_below_construction():
    for x, y in [(2, 2), (2, 3)]:
        g, _ = od.construct_extremal(x, y)
        out = od.max_edges_one_disk(x, y)
        assert out.max_edges >= od.edge_count(g)
        assert out.max_edges == od.edge_count(g)


def test_search_deterministic():
    a = od.max_edges_one_disk(2, 3)
    b = od.max_edges_one_disk(2, 3)
    assert a.max_edges == b.max_edges
    assert a.witness == b.witness


def test_max_edges_budget_exceeded():
    limits = od.SearchLimits(time_budget=1e-9)
    with pytest.raises(od.BudgetExceeded):
        od.max_edges_one_disk(3, 3, limits)


def test_canonicalization_honours_budget():
    # The first 44-edge candidate of (10, 10) has 10! orders of either
    # part, far more work than the budget; the deadline must cut into them.
    start = time.monotonic()
    with pytest.raises(od.BudgetExceeded, match="relabeling"):
        od.max_edges_one_disk(10, 10, od.SearchLimits(time_budget=0.5))
    assert time.monotonic() - start < 5.0


def test_canonical_edges_10_2_is_quick():
    # With x > y the 2! orders of the Y columns are tried, not the 10! row
    # orders that took about 19 s.
    full = tuple((i, 10 + j) for i in range(10) for j in range(2))
    start = time.monotonic()
    for edges in (full, full[3:], full[::3]):
        canon = search._canonical_edges(10, 2, edges, od.SearchLimits(), math.inf)
        assert len(canon) == len(edges)
    # full[::3]: three rows 00, three 01 and four 10; with the columns
    # swapped the rows sort to 00 x3, 01 x4, 10 x3, the lesser matrix.
    assert canon == ((3, 11), (4, 11), (5, 11), (6, 11), (7, 10), (8, 10), (9, 10))
    assert time.monotonic() - start < 1.0


def test_max_edges_2_10_is_quick():
    # Its one 20-edge candidate has 2 row orders; trying all 2! * 10!
    # relabelings would take about half a minute.
    start = time.monotonic()
    assert od.max_edges_one_disk(2, 10).max_edges == 20
    assert time.monotonic() - start < 1.0


def _reference_canonical_edges(x: int, y: int, chosen) -> tuple:
    """The definition: the least adjacency matrix, row by row, over all
    x! * y! part-preserving relabelings."""
    matrix = [[0] * y for _ in range(x)]
    for u, v in chosen:
        matrix[u][v - x] = 1
    best = min(tuple(tuple(matrix[r][c] for c in cols) for r in rows)
               for rows in permutations(range(x)) for cols in permutations(range(y)))
    return tuple((i, x + j) for i in range(x) for j in range(y) if best[i][j])


def test_canonical_edges_match_reference_definition():
    count = 0
    for x, y in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (4, 2),
                 (3, 2), (5, 2), (4, 3)]:
        full = [(i, x + j) for i in range(x) for j in range(y)]
        for mask in range(1 << len(full)):
            edges = tuple(e for k, e in enumerate(full) if mask >> k & 1)
            canon = search._canonical_edges(x, y, edges, od.SearchLimits(), math.inf)
            assert canon == _reference_canonical_edges(x, y, edges), edges
            count += 1
    assert count == 2 + 4 + 8 + 16 + 64 + 256 + 512 + 256 + 64 + 1024 + 4096


# The child reads its own peak RSS from VmHWM, which exec resets; its
# ru_maxrss would start at the peak of the pytest process that spawned it.
_K2_10_BUDGET_CHILD = """
import json, pathlib, time
import onedisk as od
g = od.new_bipartite(2, 10, [(i, 2 + j) for i in range(2) for j in range(10)])
start = time.monotonic()
witness = od.is_one_disk_drawable(g, od.SearchLimits(time_budget=0.2))
print(json.dumps({
    "crossings": len(witness.crossings),
    "disk_face": od.find_one_disk_face(witness) is not None,
    "seconds": time.monotonic() - start,
    "peak_rss_mb": next(int(line.split()[1]) for line in
                        pathlib.Path("/proc/self/status").read_text().splitlines()
                        if line.startswith("VmHWM:")) / 1024,
}))
"""


def test_k2_10_drawn_within_budget():
    # Each X vertex of K2,10 has 9! cyclic orders, so trying rotation
    # systems one by one cannot finish; the embedding is drawn directly.
    # A fresh process keeps the peak RSS of other tests out of the reading.
    result = subprocess.run([sys.executable, "-c", _K2_10_BUDGET_CHILD],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["crossings"] == 0
    assert report["disk_face"]
    assert report["seconds"] < 1.0
    assert report["peak_rss_mb"] < 150


def _reference_matchings(edges):
    """The definition: every set of pairwise disjoint independent edge pairs,
    filtered from all combinations of pairs, by size then lexicographically."""
    pairs = [(i, j) for i, j in combinations(range(len(edges)), 2)
             if not set(edges[i]) & set(edges[j])]
    yield ()
    for size in range(1, len(edges) // 2 + 1):
        for combo in combinations(pairs, size):
            used = [k for pair in combo for k in pair]
            if len(set(used)) == len(used):
                yield combo


def test_matchings_match_reference_definition():
    count = 0
    for x, y in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        for g in _connected_graphs(x, y):
            assert list(all_matchings(g.edges)) == list(_reference_matchings(g.edges))
            count += 1
    assert count == 1 + 1 + 1 + 5 + 19 + 205
    assert len(list(all_matchings(k33().edges))) == 370


def test_search_witnesses_are_byte_identical(tmp_path):
    # Pins witness choice and document output: the first witness of
    # is_one_disk_drawable on every connected graph with parts (2, 2),
    # (2, 3), (2, 4) and (3, 3), then the witnesses of max_edges_one_disk.
    digest = hashlib.sha256()
    path = tmp_path / "w.json"
    count = 0
    witnesses = (od.is_one_disk_drawable(g) for x, y in [(2, 2), (2, 3), (2, 4), (3, 3)]
                 for g in _connected_graphs(x, y))
    maxima = (od.max_edges_one_disk(x, y).witness
              for x, y in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3)])
    for witness in (*witnesses, *maxima):
        od.save_drawing(witness, path)
        digest.update(path.read_bytes())
        count += 1
    assert count == 299
    assert digest.hexdigest() == WITNESS_SHA256
