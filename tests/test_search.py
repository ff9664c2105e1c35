from __future__ import annotations

import pytest

import onedisk as od

from conftest import k22, k33


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        od.SearchLimits(time_budget=0)
    with pytest.raises(ValueError):
        od.SearchLimits(max_crossings=-1)


def test_drawable_k22():
    witness = od.is_one_disk_drawable(k22())
    assert witness is not None
    assert od.crossing_count(witness) == 0
    assert od.verify_one_planar(witness)
    assert od.find_one_disk_face(witness) is not None


def test_drawable_k33_needs_three_crossings():
    witness = od.is_one_disk_drawable(k33())
    assert witness is not None
    assert od.verify_one_planar(witness)
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


def test_drawable_crossing_cap_gives_unknown_not_no():
    # K3,3 needs 3 crossings; capping at 1 must refuse to claim "no".
    limits = od.SearchLimits(max_crossings=1)
    with pytest.raises(od.BudgetExceeded):
        od.is_one_disk_drawable(k33(), limits)


def test_max_edges_2_2():
    out = od.max_edges_one_disk(2, 2)
    assert out.max_edges == 4 == od.one_disk_max_edges(2, 2)
    assert out.exhausted
    assert od.verify_one_planar(out.witness)
    assert od.find_one_disk_face(out.witness) is not None
    assert od.edge_count(out.witness.graph) == 4


def test_max_edges_2_3():
    out = od.max_edges_one_disk(2, 3)
    assert out.max_edges == 6 == od.one_disk_max_edges(2, 3)
    assert out.exhausted
    assert od.verify_one_planar(out.witness)


@pytest.mark.slow
def test_max_edges_3_3():
    out = od.max_edges_one_disk(3, 3)
    assert out.max_edges == 9 == od.one_disk_max_edges(3, 3)
    assert out.exhausted
    assert od.verify_one_planar(out.witness)
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


def test_found_without_witness_is_runtime_error(monkeypatch):
    from onedisk import search

    monkeypatch.setattr(search, "_decide_drawable", lambda *args: (search._FOUND, None))
    with pytest.raises(RuntimeError, match="without a witness"):
        od.max_edges_one_disk(2, 2)
