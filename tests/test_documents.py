from __future__ import annotations

import hashlib
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

import onedisk as od
from onedisk import documents
from onedisk.cli import main

from conftest import FIXTURES, UNDECODABLE_FILES, huge_claim_document, planar_k22_drawing


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


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(3, 20),
    t=st.integers(0, 3),
    strategy=st.sampled_from(["fan", "zigzag"]) | st.integers(0, 999).map("seed:{}".format),
)
def test_drawing_round_trip_property(x, t, strategy, tmp_path_factory):
    _, d = od.construct_extremal(x, 3 * (x - 2) + t, strategy)
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    for drawing in (d, od.double(d).drawing_star):
        od.save_drawing(drawing, path)
        assert od.load_drawing(path) == drawing
    # Plain (edge, edge) pairs and Crossing values make equal drawings.
    assert od.Drawing(d.graph, [tuple(c) for c in d.crossings], dict(d.rotation)) == d


def test_crossings_index_edges_sorted_x_endpoint_first(tmp_path):
    # The loader resolves crossing indices against the graph's sorted edges,
    # not against the order the document lists them in.
    _, d = od.construct_extremal(4, 6)
    path = tmp_path / "d.json"
    od.save_drawing(d, path)
    doc = json.loads(path.read_text())
    doc["graph"]["edges"] = [[v, u] for u, v in reversed(doc["graph"]["edges"])]
    assert doc["crossings"] and doc["graph"]["edges"][0][0] >= 4
    path.write_text(json.dumps(doc))
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


@pytest.mark.parametrize("name", sorted(UNDECODABLE_FILES))
def test_undecodable_file_is_parse_error(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE_FILES[name])
    with pytest.raises(documents.ParseError):
        od.load_drawing(path)
    with pytest.raises(documents.ParseError):
        od.load_graph(path)


def test_wrong_schema_is_parse_error(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"schema": "something-else/9"}), encoding="utf-8")
    with pytest.raises(documents.ParseError):
        od.load_graph(path)


def test_graph_document_that_is_no_object_is_parse_error():
    with pytest.raises(documents.ParseError, match="graph document must be an object"):
        documents.graph_from_document([])


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


def test_huge_claimed_vertex_count_fails_fast(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge_claim_document()), encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(documents.ValidationError) as info:
        od.load_drawing(path)
    assert time.perf_counter() - start < 1.0
    assert isinstance(info.value.__cause__, od.IncompleteRotation)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("node, key", [
    (1, "01"), (1, "+1"), (1, " 1 "), (1, "\u0661"), (0, "-0"),
    (10, "1_0"), (10, "\u0661\u0660"),
])
def test_non_canonical_rotation_key_is_parse_error(node, key, tmp_path):
    # int() reads each of these keys as ``node``.
    _, d = od.construct_extremal(4, 6)
    doc = documents.drawing_to_document(d)
    doc["rotation"][key] = doc["rotation"].pop(str(node))
    with pytest.raises(documents.ParseError, match="rotation key"):
        documents.drawing_from_document(doc)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--drawing", str(path)]) == 2


@pytest.mark.parametrize("key", [None, (1,)])
def test_rotation_key_of_no_int_type_is_parse_error(key):
    # Only a document built in Python can have a key that is not a str.
    doc = documents.drawing_to_document(planar_k22_drawing())
    doc["rotation"][key] = doc["rotation"].pop("1")
    with pytest.raises(documents.ParseError) as info:
        documents.drawing_from_document(doc)
    assert str(info.value) == f"rotation key {key!r} is not an integer"


def test_padded_rotation_key_beside_its_node_is_parse_error():
    # "01" would otherwise silently replace the rotation at node 1.
    doc = documents.drawing_to_document(planar_k22_drawing())
    doc["rotation"]["01"] = doc["rotation"]["1"]
    with pytest.raises(documents.ParseError, match="rotation key"):
        documents.drawing_from_document(doc)


def test_wrong_disk_face_index_is_validation_error(tmp_path):
    d = planar_k22_drawing()
    doc = documents.drawing_to_document(d)
    doc["one_disk_face"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError):
        od.load_drawing(path)


def test_disk_face_missing_an_x_vertex_is_validation_error(tmp_path, capsys):
    _, d = od.construct_extremal(4, 6)
    doc = documents.drawing_to_document(d)
    doc["one_disk_face"] = next(i for i, face in enumerate(d._faces)
                                if not set(face) >= set(range(d.graph.x_count)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ValidationError, match="not incident to every X vertex"):
        od.load_drawing(path)
    assert main(["verify", "--drawing", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("invalid drawing: ") and "Traceback" not in err, (out, err)


def _set_crossing_index(value):
    def corrupt(doc):
        doc["crossings"][0][1] = value
        return doc
    return corrupt


def _rename_rotation_key(doc):
    doc["rotation"]["a"] = doc["rotation"].pop("0")
    return doc


def _drop_rotation(doc):
    del doc["rotation"]
    return doc


@pytest.mark.parametrize("corrupt, match", [
    (_set_crossing_index(999), "edge index 999 out of range"),
    (_set_crossing_index(-1), "edge index -1 out of range"),
    (_rename_rotation_key, "rotation key 'a'"),
    (_drop_rotation, "missing key 'rotation'"),
    (lambda doc: [], "must be an object"),
    (lambda doc: {**doc, "schema": "onedisk-drawing/9"}, "expected schema 'onedisk-drawing/1'"),
], ids=["crossing_999", "crossing_minus_1", "rotation_key_a", "no_rotation", "top_level_list",
        "wrong_schema"])
def test_malformed_drawing_document_is_parse_error(corrupt, match, tmp_path, capsys):
    _, d = od.construct_extremal(3, 3)
    doc = corrupt(documents.drawing_to_document(d))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(documents.ParseError, match=match):
        documents.drawing_from_document(doc)
    with pytest.raises(documents.ParseError, match=match):
        od.load_drawing(path)
    assert main(["verify", "--drawing", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


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


# ---------------------------------------------------------------------------
# The document writer
# ---------------------------------------------------------------------------


# Rotation keys of 0..30 sort as strings, so "10" lands before "9".
_keys = st.text(max_size=4) | st.integers(0, 30).map(str)
_scalars = st.none() | st.integers(-10**12, 10**12) | st.text(max_size=8)
_values = st.recursive(
    _scalars | st.lists(st.integers(-10**6, 10**6), max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_keys, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(value=_values)
def test_writer_matches_json_dumps(value):
    assert documents._encode(value) == json.dumps(value, indent=2, sort_keys=True)


# Lists of int lists of one length, as edges and crossings are, take the
# writer's one-join path; other shapes mix in to take the general one.
_int_rows = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-10**12, 10**12), min_size=k, max_size=k),
                       max_size=6))


@settings(max_examples=150, deadline=None)
@given(rows=_int_rows, other=_values)
def test_writer_matches_json_dumps_on_int_rows(rows, other):
    for value in (rows, {"edges": rows, "other": other}, rows + [other]):
        assert documents._encode(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_edge_cases():
    value = {
        "9": [], "10": {}, "name": "gr\u00e4ph \u2192 \"x\"\n", "none": None,
        "nested": [[], [-1, 0, 2], [{}], [3, "3"], ["a", None]],
    }
    assert documents._encode(value) == json.dumps(value, indent=2, sort_keys=True)
    assert list(json.loads(documents._encode(value))) == sorted(value)


@pytest.mark.parametrize("value", [1.5, True, [0, False], (1, 2), {1: 2}, {"a": object()}])
def test_writer_rejects_values_documents_never_hold(value):
    with pytest.raises(TypeError):
        documents._encode(value)


# sha256 of every graph document save_graph writes on the construct grid of
# tests/test_golden.py: each construction's graph, then its double's; 792
# documents, computed with json.dumps(doc, indent=2, sort_keys=True).
GRAPH_GOLDEN_SHA256 = "3e31241df0b2cca797786869f70792b2ead6ce121fbc84bde7d33bfa8104d9a9"


def test_construct_grid_graph_documents_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    path = tmp_path / "g.json"
    count = 0
    for x in range(2, 13):
        for strategy in ("fan", "zigzag", "seed:0", "seed:1", "seed:2", "seed:3"):
            for t in range(6):
                y = 2 + t if x == 2 else 3 * (x - 2) + t
                g, d = od.construct_extremal(x, y, strategy)
                for graph in (g, od.double(d).graph_star):
                    od.save_graph(graph, path)
                    digest.update(path.read_bytes())
                    count += 1
    assert count == 792
    assert digest.hexdigest() == GRAPH_GOLDEN_SHA256
