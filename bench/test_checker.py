"""Tests of the benchmark's independent checker and its corpus generator.

Run from the repository root:  python3 -m pytest -q bench/test_checker.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from onedisk import construct_extremal, double, documents, drawing  # noqa: E402

# Which checker problem each corruption kind of the corpus generator must raise.
EXPECTED = {
    "IncompleteRotation": "rotation-not-permutation",
    "AdjacentEdgesCross": "adjacent-edges-cross",
    "NonAlternatingDummy": "dummy-not-alternating",
    "EdgeCrossedTwice": "edge-crossed-twice",
    "ParseError": "json",
}

CASES = [(3, 0, "fan"), (5, 2, "zigzag"), (8, 1, "seed:11"), (12, 3, "fan")]


def _documents(x, t, strategy, seed=0):
    rng = random.Random(seed)
    _, d = construct_extremal(x, 3 * (x - 2) + t, strategy)
    original = workloads.relabel(documents.drawing_to_document(d), rng)
    doubled = workloads.relabel(documents.drawing_to_document(double(d).drawing_star), rng)
    return original, doubled


def _k23() -> dict:
    # K_{2,3} drawn without crossings: Y vertices 2, 3, 4 nested between 0 and 1.
    return {
        "schema": "onedisk-drawing/1",
        "graph": {"schema": "onedisk-graph/1", "x_count": 2, "y_count": 3,
                  "edges": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]},
        "crossings": [],
        "rotation": {"0": [2, 3, 4], "1": [4, 3, 2], "2": [0, 1], "3": [0, 1], "4": [0, 1]},
        "one_disk_face": 0,
    }


def test_hand_made_planar_drawing_passes():
    rep = checker.check_drawing(_k23(), expect_edges=6, expect_vertices=5)
    assert rep.ok, rep.problems
    assert len(rep.faces) == 3 and rep.one_disk


def test_swapped_rotation_breaks_euler():
    doc = _k23()
    doc["rotation"]["2"] = [0, 1]
    doc["rotation"]["0"] = [3, 2, 4]
    assert checker.check_drawing(doc).problems == ["euler"]


def test_disconnected_and_counts():
    doc = _k23()
    doc["graph"]["y_count"] = 4
    doc["rotation"]["5"] = []
    rep = checker.check_drawing(doc, expect_edges=7, expect_vertices=5)
    assert "edge-count" in rep.problems and "vertex-count" in rep.problems
    assert checker.check_drawing(doc).problems == ["disconnected"]


def test_bool_is_not_an_integer():
    doc = _k23()
    doc["graph"]["x_count"] = True
    assert checker.check_drawing(doc).problems == ["graph-fields"]


@pytest.mark.parametrize("x,t,strategy", CASES)
def test_extremal_documents_pass_with_paper_counts(x, t, strategy):
    original, doubled = _documents(x, t, strategy)
    y = 3 * (x - 2) + t
    m = checker.disk_bound(x, y)
    rep = checker.check_drawing(original, expect_edges=m, expect_vertices=x + y)
    assert rep.ok and rep.one_disk, rep.problems
    rep2 = checker.check_drawing(doubled, expect_edges=2 * m, expect_vertices=x + 2 * y)
    assert rep2.ok, rep2.problems


@pytest.mark.parametrize("x,t,strategy", CASES)
def test_relabelled_documents_load_in_onedisk(x, t, strategy, tmp_path):
    for doc in _documents(x, t, strategy, seed=5):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        d = documents.load_drawing(path)
        assert sorted(d.graph.edges) == checker.graph_edges(doc["graph"])


@pytest.mark.parametrize("kind", workloads.CORRUPTIONS)
@pytest.mark.parametrize("x,t,strategy", CASES)
def test_each_corruption_is_caught_by_checker_and_onedisk(kind, x, t, strategy, tmp_path):
    rng = random.Random(7)
    for doc in _documents(x, t, strategy, seed=3):
        before = json.dumps(doc)
        text = workloads.corrupt(doc, kind, rng)
        assert json.dumps(doc) == before, "corrupt changed the valid document"
        assert checker.check_drawing(doc).ok
        assert EXPECTED[kind] in checker.check_drawing_text(text).problems
        path = tmp_path / "bad.json"
        path.write_text(text)
        if kind == "ParseError":
            with pytest.raises(documents.ParseError):
                documents.load_drawing(path)
        else:
            with pytest.raises(documents.ValidationError) as info:
                documents.load_drawing(path)
            assert isinstance(info.value.__cause__, getattr(drawing, kind))


def test_wrong_disk_face_index_is_caught():
    original, _ = _documents(6, 0, "fan")
    rep = checker.check_drawing(original)
    original["one_disk_face"] = next(i for i in range(len(rep.faces)) if i not in rep.all_x_faces)
    assert checker.check_drawing(original).problems == ["disk-face-index"]


def test_altered_witness_is_rejected():
    from onedisk import max_edges_one_disk

    w = max_edges_one_disk(2, 3).witness
    doc = workloads.drawing_document(w)
    assert checker.check_drawing(doc, expect_edges=6).ok
    r = doc["rotation"]["0"]
    r[0], r[1] = r[1], r[0]
    assert not checker.check_drawing(doc, expect_edges=6).ok


def test_svg_figure_counts(tmp_path):
    from onedisk import export_svg

    _, d = construct_extremal(5, 9, "zigzag")
    path = tmp_path / "f.svg"
    export_svg(d, path)
    text = path.read_text()
    assert checker.check_svg(text, len(d.graph.edges), 5) == []
    first = text.index('<path class="edge"')
    cut = text[:first] + text[text.index("\n", first) + 1:]
    assert checker.check_svg(cut, len(d.graph.edges), 5) == ["svg-edge-paths"]
    assert checker.check_svg(text, len(d.graph.edges), 6) == ["svg-x-circles"]


def test_bounds_formulas_match_table():
    assert checker.ceilings(3, 3) == {"one_disk": 9, "huang": 12, "czap": 14, "karpov": 9,
                                      "planar": 12, "bipartite_planar": 8, "one_planar": 16}
