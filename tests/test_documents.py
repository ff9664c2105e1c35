from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import onedisk as od
from onedisk import documents

from conftest import FIXTURES, planar_k22_drawing


def test_graph_round_trip(tmp_path):
    g, _ = od.construct_extremal(4, 6)
    path = tmp_path / "g.json"
    od.save_graph(g, path)
    assert od.load_graph(path) == g


def test_drawing_round_trip(tmp_path):
    _, d = od.construct_extremal(3, 3)
    path = tmp_path / "d.json"
    od.save_drawing(d, path)
    assert od.load_drawing(path) == d


def test_drawing_round_trip_grid(tmp_path):
    for i, (x, y) in enumerate([(2, 2), (2, 6), (3, 4), (4, 6), (5, 9)]):
        _, d = od.construct_extremal(x, y)
        path = tmp_path / f"d{i}.json"
        od.save_drawing(d, path)
        assert od.load_drawing(path) == d


def test_save_is_canonical(tmp_path):
    _, d = od.construct_extremal(3, 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    od.save_drawing(d, p1)
    od.save_drawing(od.load_drawing(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_fixture_extremal_4_6():
    d = od.load_drawing(FIXTURES / "extremal_4_6.drawing.json")
    assert od.edge_count(d.graph) == 18
    assert od.crossing_count(d) == 6
    assert od.verify_one_planar(d)
    assert od.find_one_disk_face(d) is not None
    g = od.load_graph(FIXTURES / "extremal_4_6.graph.json")
    assert g == d.graph


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(documents.ParseError):
        od.load_drawing(path)
    with pytest.raises(documents.ParseError):
        od.load_graph(path)


def test_wrong_schema_is_parse_error(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "something-else/9"}), encoding="utf-8")
    with pytest.raises(documents.ParseError):
        od.load_graph(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(documents.ParseError):
        od.load_graph(tmp_path / "absent.json")


def test_repeated_crossing_edge_is_validation_error(tmp_path):
    _, d = od.construct_extremal(3, 3)
    doc = documents.drawing_to_document(d)
    doc["crossings"][1] = doc["crossings"][0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError) as info:
        od.load_drawing(path)
    assert "EdgeCrossedTwice" in str(info.value)


def test_same_part_edge_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "schema": documents.GRAPH_SCHEMA,
        "x_count": 2,
        "y_count": 2,
        "edges": [[0, 1]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError) as info:
        od.load_graph(path)
    assert "SamePartEdge" in str(info.value)


def test_bad_rotation_is_validation_error(tmp_path):
    d = planar_k22_drawing()
    doc = documents.drawing_to_document(d)
    doc["rotation"]["0"] = [2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError) as info:
        od.load_drawing(path)
    assert "IncompleteRotation" in str(info.value)


def test_wrong_disk_face_index_is_validation_error(tmp_path):
    d = planar_k22_drawing()
    doc = documents.drawing_to_document(d)
    doc["one_disk_face"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError):
        od.load_drawing(path)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(1, 4),
    y=st.integers(1, 4),
    picks=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))),
)
def test_graph_document_round_trip(x, y, picks):
    edges = [(i, x + j) for i, j in picks if i < x and j < y]
    g = od.new_bipartite(x, y, edges)
    assert documents.graph_from_document(documents.graph_to_document(g)) == g


def _graph_doc(**changes) -> dict:
    doc = documents.graph_to_document(od.construct_extremal(3, 3)[0])
    doc.update(changes)
    return doc


def test_bool_count_is_parse_error():
    with pytest.raises(documents.ParseError):
        documents.graph_from_document(_graph_doc(x_count=True))


def test_bool_edge_entry_is_parse_error():
    # [true, 2] would otherwise name the valid edge (1, 2) of K2,2
    doc = _graph_doc(x_count=2, y_count=2, edges=[[0, 2], [True, 2]])
    with pytest.raises(documents.ParseError):
        documents.graph_from_document(doc)


def test_bool_disk_face_is_parse_error():
    _, d = od.construct_extremal(4, 6)
    doc = documents.drawing_to_document(d)
    assert doc["one_disk_face"] is not None
    doc["one_disk_face"] = False
    with pytest.raises(documents.ParseError):
        documents.drawing_from_document(doc)


def test_bool_rotation_neighbor_is_parse_error():
    doc = documents.drawing_to_document(planar_k22_drawing())
    # node 1 would otherwise read as neighbour 1 of vertex 2
    doc["rotation"]["2"] = [0, True]
    with pytest.raises(documents.ParseError):
        documents.drawing_from_document(doc)


def test_bool_crossing_entry_is_parse_error():
    _, d = od.construct_extremal(3, 3)
    doc = documents.drawing_to_document(d)
    doc["crossings"][0] = [True, doc["crossings"][0][1]]
    with pytest.raises(documents.ParseError):
        documents.drawing_from_document(doc)
