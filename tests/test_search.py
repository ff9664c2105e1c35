from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from itertools import combinations

import pytest

import onedisk as od
from onedisk import search

from conftest import k22, k33

# sha256 of the documents save_drawing writes for the witnesses listed in
# test_search_witnesses_are_byte_identical, in that order.
WITNESS_SHA256 = "240724e49ff5f9e7d565df1b459ed8f0de02d1c79c7a3895b78d75e0745ac9df"


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


@pytest.mark.slow
def test_max_edges_3_3():
    out = od.max_edges_one_disk(3, 3)
    assert out.max_edges == 9 == od.one_disk_max_edges(3, 3)
    assert out.exhausted
    assert od.find_one_disk_face(out.witness) is not None


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
    # The one 20-edge candidate of (2, 10) has 2! * 10! relabelings, about
    # 30 s of work; the deadline must cut into them.
    start = time.monotonic()
    with pytest.raises(od.BudgetExceeded):
        od.max_edges_one_disk(2, 10, od.SearchLimits(time_budget=0.5))
    assert time.monotonic() - start < 5.0


_K2_10_BUDGET_CHILD = """
import json, resource, time
import onedisk as od
g = od.new_bipartite(2, 10, [(i, 2 + j) for i in range(2) for j in range(10)])
start = time.monotonic()
try:
    od.is_one_disk_drawable(g, od.SearchLimits(time_budget=0.2))
    raised = False
except od.BudgetExceeded:
    raised = True
print(json.dumps({
    "raised": raised,
    "seconds": time.monotonic() - start,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def test_rotation_listing_honours_budget():
    # Each X vertex of K2,10 has 9! cyclic orders; listing them all takes
    # seconds and hundreds of MB, so the deadline must cut into the listing.
    # A fresh process keeps the peak RSS of other tests out of the reading.
    result = subprocess.run([sys.executable, "-c", _K2_10_BUDGET_CHILD],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["raised"]
    assert report["seconds"] < 1.0
    assert report["maxrss_mb"] < 150


def test_disk_face_disagreement_is_runtime_error(monkeypatch):
    # The search keeps a candidate only when its own walk meets a face
    # touching every X vertex; build_drawing's faces must agree.
    monkeypatch.setattr(search, "find_one_disk_face", lambda d: None)
    with pytest.raises(RuntimeError, match="does not trace"):
        od.is_one_disk_drawable(k22())


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
            assert list(search._matchings(g.edges)) == list(_reference_matchings(g.edges))
            count += 1
    assert count == 1 + 1 + 1 + 5 + 19 + 205
    assert len(list(search._matchings(k33().edges))) == 370


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
