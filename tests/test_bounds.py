from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import onedisk as od
from onedisk.bounds import ceilings

from conftest import k33, no_disk_k33_drawing, planar_k22_drawing


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def test_one_disk_values():
    assert od.one_disk_max_edges(3, 3) == 9
    assert od.one_disk_max_edges(5, 9) == 27
    for y in range(2, 12):
        assert od.one_disk_max_edges(2, y) == 2 * y


def test_one_disk_matches_construction():
    for x, y in [(2, 4), (3, 3), (4, 6), (5, 9), (6, 15)]:
        g, _ = od.construct_extremal(x, y)
        assert od.one_disk_max_edges(x, y) == od.edge_count(g)


def test_one_disk_domain():
    with pytest.raises(od.OutOfDomain):
        od.one_disk_max_edges(1, 5)
    with pytest.raises(od.OutOfDomain):
        od.one_disk_max_edges(4, 3)


@pytest.mark.parametrize("formula, args", [
    (od.huang_max_edges, (3, 2)),
    (od.czap_max_edges, (1, 1)),
    (od.problem_target_edges, (1, 5)),
    # Part sizes and orders that are not ints.
    (od.one_disk_max_edges, (2.5, 3)),
    (od.one_disk_max_edges, (2, "3")),
    (od.huang_max_edges, (2, 3.0)),
    (od.czap_max_edges, (2, 3.0)),
    (od.karpov_max_edges, (4.5,)),
    (od.karpov_max_edges, (8.0,)),
    (od.classic_max_edges, ("planar", 3.5)),
    (od.classic_max_edges, ("one_planar", 8.0)),
    (od.problem_target_edges, (3, 2.5)),
    (od.problem_target_edges, (2.5, 3)),
], ids=lambda p: getattr(p, "__name__", None))
def test_formula_domains(formula, args):
    with pytest.raises(od.OutOfDomain):
        formula(*args)


@pytest.mark.parametrize("x, y", [(2.5, 4), (4, 6.0), (True, 3), (3, True), ("2", 3)])
def test_ceilings_of_part_sizes_that_are_not_ints_are_none(x, y):
    # True + 3 is the int 4, so the order ceilings test the parts too.
    assert set(ceilings(x, y).values()) == {None}


def test_huang_values():
    assert od.huang_max_edges(3, 3) == 12
    assert od.huang_max_edges(3, 6) == 18
    assert od.huang_max_edges(2, 2) == 4


def test_karpov_values():
    assert od.karpov_max_edges(8) == 16
    assert od.karpov_max_edges(6) == 9
    assert od.karpov_max_edges(7) == 12
    with pytest.raises(od.OutOfDomain):
        od.karpov_max_edges(3)


def test_czap_values():
    assert od.czap_max_edges(3, 3) == 14
    assert od.czap_max_edges(4, 10) == 36
    for y in range(2, 10):
        assert od.czap_max_edges(2, y) == 2 * y


def test_classic_values():
    assert od.classic_max_edges("planar", 4) == 6
    assert od.classic_max_edges("bipartite_planar", 4) == 4
    assert od.classic_max_edges("one_planar", 8) == 24
    with pytest.raises(od.OutOfDomain):
        od.classic_max_edges("planar", 2)
    with pytest.raises(od.OutOfDomain):
        od.classic_max_edges("torus", 8)


def test_problem_target_values():
    assert od.problem_target_edges(3, 3) == 9
    assert od.problem_target_edges(6, 12) == 32
    assert od.problem_target_edges(4, 6) == Fraction(50, 3)


def test_problem_target_comparison():
    # The proven ceiling equals the old target at x = 3 and exceeds it after.
    assert od.one_disk_max_edges(3, 5) == od.problem_target_edges(3, 5)
    for x in range(4, 40):
        assert od.one_disk_max_edges(x, x + 20) > od.problem_target_edges(x, x + 20)
    assert od.one_disk_max_edges(2, 7) < od.problem_target_edges(2, 7)


def test_one_disk_specializes_at_x3():
    for y in range(3, 101):
        assert od.one_disk_max_edges(3, y) == 2 * y + 3


def test_doubling_chain_identity():
    # Doubling a disk drawing lands exactly on the bipartite 1-planar
    # ceiling for parts (x, 2y): 2(3x + 2y - 6) = 2(x + 2y) + 4x - 12.
    for x in range(2, 30):
        for y in range(x, x + 30):
            assert 2 * od.one_disk_max_edges(x, y) == od.huang_max_edges(x, 2 * y)


@given(x=st.integers(2, 40), y=st.integers(2, 60))
def test_bounds_monotone(x, y):
    if x > y:
        x, y = y, x
    assert od.one_disk_max_edges(x, y + 1) >= od.one_disk_max_edges(x, y)
    assert od.huang_max_edges(x, y + 1) >= od.huang_max_edges(x, y)
    assert od.czap_max_edges(x, y + 1) >= od.czap_max_edges(x, y)
    if x + 1 <= y:
        assert od.one_disk_max_edges(x + 1, y) >= od.one_disk_max_edges(x, y)
        assert od.huang_max_edges(x + 1, y) >= od.huang_max_edges(x, y)
        assert od.czap_max_edges(x + 1, y) >= od.czap_max_edges(x, y)
    n = x + y
    if n >= 4:
        assert od.karpov_max_edges(n + 1) >= od.karpov_max_edges(n)
    for kind in ("planar", "bipartite_planar", "one_planar"):
        assert od.classic_max_edges(kind, n + 1) >= od.classic_max_edges(kind, n)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_check_extremal_4_6_tight():
    g, d = od.construct_extremal(4, 6)
    report = od.check(g, d)
    entry = report.entry("one_disk")
    assert entry.applicable and entry.tight and not entry.violated
    assert entry.limit == 18 and entry.actual == 18


def test_check_entry_names_a_ceiling():
    d = planar_k22_drawing()
    with pytest.raises(KeyError):
        od.check(d.graph, d).entry("nope")


def test_check_without_drawing():
    report = od.check(k33())
    assert not report.entry("one_disk").applicable
    assert not report.entry("huang").applicable
    assert not report.violations()


def test_check_drawing_without_disk_face():
    d = no_disk_k33_drawing()
    report = od.check(d.graph, d)
    assert not report.entry("one_disk").applicable
    assert report.entry("huang").applicable
    assert report.entry("one_planar").applicable


def test_check_doubled_drawing_huang_tight():
    _, d = od.construct_extremal(3, 3)
    result = od.double(d)
    report = od.check(result.graph_star, result.drawing_star)
    entry = report.entry("huang")
    assert entry.applicable and entry.tight
    assert not report.violations()


def test_check_planar_entries_need_zero_crossings():
    d = planar_k22_drawing()
    report = od.check(d.graph, d)
    assert report.entry("bipartite_planar").applicable
    assert report.entry("bipartite_planar").tight
    _, crossed = od.construct_extremal(3, 3)
    report = od.check(crossed.graph, crossed)
    assert not report.entry("planar").applicable
    assert not report.entry("bipartite_planar").applicable


def test_check_mismatched_drawing_contributes_nothing():
    g, _ = od.construct_extremal(4, 6)
    _, other = od.construct_extremal(3, 3)
    report = od.check(g, other)
    assert not report.entry("one_disk").applicable
    assert not report.entry("huang").applicable


def test_check_rechecks_drawing_not_from_build_drawing():
    # Every Drawing is checked when made, so check has nothing to re-check.
    g, d = od.construct_extremal(4, 6)
    assert od.check(g, od.Drawing(g, d.crossings, d.rotation)).entry("one_disk").applicable
    rotation = dict(d.rotation)
    rotation[0] = tuple(reversed(rotation[0]))
    with pytest.raises(od.NotPlanarEmbedding):
        od.Drawing(g, d.crossings, rotation)


def test_problem_target_never_applicable():
    g, d = od.construct_extremal(6, 12)
    report = od.check(g, d)
    entry = report.entry("problem_target")
    assert not entry.applicable and not entry.violated
    # the construction really does exceed the old target for x > 3
    assert entry.actual > entry.limit


def test_entry_invariants():
    g, d = od.construct_extremal(4, 6)
    for entry in od.check(g, d).entries:
        if entry.violated:
            assert entry.applicable
        if entry.tight:
            assert entry.actual == entry.limit


def test_ceilings_table_matches_report():
    for x, y in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 6), (5, 9)]:
        g = od.new_bipartite(x, y, [(0, x)])
        table = ceilings(x, y)
        report = od.check(g)
        assert list(table) == [e.name for e in report.entries]
        assert list(table.values()) == [e.limit for e in report.entries]
