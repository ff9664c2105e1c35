"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All comparisons are exact integer equalities; the
stated wall-clock limits are asserted where the criterion includes one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

import onedisk as od
from onedisk.cli import main as cli_main

from conftest import (
    FIXTURES,
    assert_no_violations,
    no_disk_k33_drawing,
    planar_k22_drawing,
)


@contextmanager
def _criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_extremal_equality_grid():
    with _criterion("1 extremal equality grid"):
        start = time.perf_counter()
        for x in range(3, 9):
            y = 3 * (x - 2)
            g, d = od.construct_extremal(x, y)
            assert od.find_one_disk_face(d) is not None, (x, y)
            assert od.edge_count(g) == 2 * (x + y) + x - 6, (x, y)
            assert od.crossing_count(d) == 3 * (x - 2), (x, y)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_t_augmentation():
    with _criterion("2 t-augmentation"):
        start = time.perf_counter()
        for t in range(1, 6):
            g, d = od.construct_extremal(4, 6 + t)
            assert od.edge_count(g) == 18 + 2 * t, t
            assert od.find_one_disk_face(d) is not None, t
        assert time.perf_counter() - start < 1.0


def test_criterion_3_two_column_family():
    with _criterion("3 x=2 family"):
        start = time.perf_counter()
        for y in range(2, 21):
            g, d = od.construct_extremal(2, y)
            assert od.edge_count(g) == 2 * y, y
            assert od.crossing_count(d) == 0, y
            assert od.find_one_disk_face(d) is not None, y
        assert time.perf_counter() - start < 1.0


def test_criterion_4_doubling_identities():
    with _criterion("4 doubling identities"):
        start = time.perf_counter()
        for x in range(3, 7):
            y = 3 * (x - 2)
            g, d = od.construct_extremal(x, y)
            result = od.double(d)
            assert result.graph_star.vertex_count == x + 2 * y, x
            assert od.edge_count(result.graph_star) == 2 * od.edge_count(g), x
            assert od.edge_count(result.graph_star) == od.huang_max_edges(x, 2 * y), x
        assert time.perf_counter() - start < 1.0


def test_criterion_5_x3_specialization():
    with _criterion("5 x=3 specialization equals 2y+3"):
        for y in range(3, 101):
            assert od.one_disk_max_edges(3, y) == 2 * y + 3, y


def test_criterion_6_bound_table_spot_checks():
    with _criterion("6 bound table spot checks"):
        assert od.karpov_max_edges(8) == 16
        assert od.karpov_max_edges(6) == 9
        assert od.karpov_max_edges(7) == 12
        for y in range(2, 30):
            assert od.czap_max_edges(2, y) == 2 * y, y
        assert od.classic_max_edges("one_planar", 8) == 24


@pytest.mark.slow
def test_criterion_7_oracle_corroboration():
    with _criterion("7 oracle corroboration"):
        start = time.perf_counter()
        for x, y, expected in [(2, 2, 4), (2, 3, 6), (3, 3, 9)]:
            out = od.max_edges_one_disk(x, y)
            assert out.exhausted, (x, y)
            assert out.max_edges == expected == od.one_disk_max_edges(x, y), (x, y)
            assert out.witness is not None
            assert od.find_one_disk_face(out.witness) is not None, (x, y)
            assert od.edge_count(out.witness.graph) == expected, (x, y)
        assert time.perf_counter() - start < 300.0


def test_criterion_8_global_regression():
    with _criterion("8 global bounds regression"):
        produced: list[tuple[od.BipartiteGraph, od.Drawing]] = []
        for x in range(3, 9):
            y = 3 * (x - 2)
            g, d = od.construct_extremal(x, y)
            produced.append((g, d))
            if x <= 6:
                result = od.double(d)
                produced.append((result.graph_star, result.drawing_star))
        for t in range(1, 6):
            produced.append(od.construct_extremal(4, 6 + t))
        for y in range(2, 21):
            produced.append(od.construct_extremal(2, y))
        for strategy in ("zigzag", "seed:11"):
            produced.append(od.construct_extremal(5, 9, strategy))
        for x, y in [(2, 2), (2, 3)]:
            out = od.max_edges_one_disk(x, y)
            produced.append((out.witness.graph, out.witness))
        fixture = od.load_drawing(FIXTURES / "extremal_4_6.drawing.json")
        produced.append((fixture.graph, fixture))
        hand_built = [planar_k22_drawing(), no_disk_k33_drawing()]
        produced.extend((d.graph, d) for d in hand_built)
        for g, d in produced:
            assert_no_violations(g, d)
            assert_no_violations(g, None)


def test_criterion_9_round_trip_and_pipeline(tmp_path):
    with _criterion("9 round-trip and CLI pipeline"):
        start = time.perf_counter()
        for i, (x, y) in enumerate([(2, 2), (2, 7), (3, 3), (4, 6), (5, 9)]):
            g, d = od.construct_extremal(x, y)
            gp, dp = tmp_path / f"g{i}.json", tmp_path / f"d{i}.json"
            od.save_graph(g, gp)
            od.save_drawing(d, dp)
            assert od.load_graph(gp) == g
            assert od.load_drawing(dp) == d

        g = tmp_path / "pipe.graph.json"
        d = tmp_path / "pipe.drawing.json"
        dg = tmp_path / "pipe.double.graph.json"
        dd = tmp_path / "pipe.double.drawing.json"
        assert cli_main(["construct", "--x", "4", "--y", "6",
                         "--out-graph", str(g), "--out-drawing", str(d)]) == 0
        assert cli_main(["verify", "--drawing", str(d)]) == 0
        assert cli_main(["bounds", "--graph", str(g), "--drawing", str(d)]) == 0
        assert cli_main(["double", "--drawing", str(d),
                         "--out-graph", str(dg), "--out-drawing", str(dd)]) == 0
        assert cli_main(["verify", "--drawing", str(dd)]) == 0
        assert time.perf_counter() - start < 1.0
