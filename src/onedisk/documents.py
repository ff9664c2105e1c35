"""JSON documents for graphs and drawings.

Graph document keys:
    schema    "onedisk-graph/1"
    x_count   int
    y_count   int
    edges     list of [x_vertex, y_vertex]

Drawing document keys:
    schema         "onedisk-drawing/1"
    graph          embedded graph document
    crossings      list of [edge_index, edge_index] into the graph's edges
                   sorted X endpoint first, as they are saved; the
                   order the document lists graph.edges in is ignored
    rotation       {"node_id": [neighbor ids...]} over all planarization
                   nodes; the dummy of crossings[i] is vertex_count + i.
                   A key is written as ``str(node)``: "7", never "07",
                   " 7", "7_0" or non-ASCII digits, which ``int`` also
                   reads as 7; any other key is a ParseError.
    one_disk_face  index of a face incident to all X vertices in face
                   tracing order, or null

Integer fields take JSON integers only: ``true`` and ``false`` are
rejected with ParseError, though Python counts bool as int.

Loading always re-runs full drawing validation; a well-formed file whose
content breaks an invariant raises ValidationError, never a half-built
object.  Malformed files raise ParseError, undecodable ones included.

Saved files are byte-identical to ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a final newline, in UTF-8: two-space indent, one
list item or object member per line, ``", "`` never used (items end in
``","``, members are ``"key": value``), ``[]`` and ``{}`` for empty
containers, keys sorted as strings (so rotation key ``"10"`` precedes
``"9"``), and strings escaped to ASCII.  :func:`_encode` writes that
layout with ``str.join``, since json's C encoder is used only without
an indent.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .drawing import Drawing, DrawingError, build_drawing, disk_face_index
from .graph import BipartiteGraph, GraphError, new_bipartite

GRAPH_SCHEMA = "onedisk-graph/1"
DRAWING_SCHEMA = "onedisk-drawing/1"


class ParseError(ValueError):
    """Malformed document text or schema."""


class ValidationError(ValueError):
    """Well-formed document describing an invalid graph or drawing."""


def graph_to_document(g: BipartiteGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "x_count": g.x_count,
        "y_count": g.y_count,
        "edges": [list(e) for e in g.edges],
    }


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise ParseError(f"missing key {key!r}")
    value = doc[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise ParseError(f"key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _is_int_pair(item) -> bool:
    return (isinstance(item, list) and len(item) == 2
            and type(item[0]) is int and type(item[1]) is int)


def graph_from_document(doc: dict) -> BipartiteGraph:
    if not isinstance(doc, dict):
        raise ParseError("graph document must be an object")
    if doc.get("schema") != GRAPH_SCHEMA:
        raise ParseError(f"expected schema {GRAPH_SCHEMA!r}, got {doc.get('schema')!r}")
    x_count = _require(doc, "x_count", int)
    y_count = _require(doc, "y_count", int)
    raw_edges = _require(doc, "edges", list)
    for item in raw_edges:
        if not _is_int_pair(item):
            raise ParseError(f"edge entry {item!r} is not a pair of integers")
    try:
        return new_bipartite(x_count, y_count, raw_edges)
    except GraphError as err:
        raise ValidationError(f"{type(err).__name__}: {err}") from err


def drawing_to_document(d: Drawing) -> dict:
    edge_index = {e: i for i, e in enumerate(d.graph.edges)}
    disk_index = disk_face_index(d._faces, d.graph.x_count)
    return {
        "schema": DRAWING_SCHEMA,
        "graph": graph_to_document(d.graph),
        "crossings": [[edge_index[c.edge_a], edge_index[c.edge_b]] for c in d.crossings],
        "rotation": {str(v): list(nbrs) for v, nbrs in sorted(d.rotation.items())},
        "one_disk_face": disk_index,
    }


def drawing_from_document(doc: dict) -> Drawing:
    if not isinstance(doc, dict):
        raise ParseError("drawing document must be an object")
    if doc.get("schema") != DRAWING_SCHEMA:
        raise ParseError(f"expected schema {DRAWING_SCHEMA!r}, got {doc.get('schema')!r}")
    g = graph_from_document(_require(doc, "graph", dict))
    raw_crossings = _require(doc, "crossings", list)
    edges = g.edges
    for item in raw_crossings:
        if not _is_int_pair(item):
            raise ParseError(f"crossing entry {item!r} is not a pair of edge indices")
        for idx in item:
            if not 0 <= idx < len(edges):
                raise ParseError(f"crossing references edge index {idx} out of range")
    pairs = [(edges[i], edges[j]) for i, j in raw_crossings]
    raw_rotation = _require(doc, "rotation", dict)
    keys = list(raw_rotation)
    try:
        nodes = list(map(int, keys))
    except (TypeError, ValueError):
        nodes = None
    lists = raw_rotation.values()
    if not (nodes is not None and list(map(str, nodes)) == keys
            and {*map(type, lists)} <= {list}
            and {*map(type, chain.from_iterable(lists))} <= {int}):
        for key, nbrs in raw_rotation.items():
            try:
                node = int(key)
            except (TypeError, ValueError):
                raise ParseError(f"rotation key {key!r} is not an integer") from None
            if str(node) != key:
                raise ParseError(f"rotation key {key!r} is not written as {str(node)!r}")
            if not (isinstance(nbrs, list) and {*map(type, nbrs)} <= {int}):
                raise ParseError(f"rotation at {key} is not a list of node ids")
    rotation = dict(zip(nodes, map(tuple, lists)))
    disk_index = doc.get("one_disk_face")
    if disk_index is not None and type(disk_index) is not int:
        raise ParseError("one_disk_face must be an integer or null")
    try:
        d = build_drawing(g, pairs, rotation)
    except (DrawingError, GraphError) as err:
        raise ValidationError(f"{type(err).__name__}: {err}") from err
    if disk_index is not None:
        faces = d._faces
        if not 0 <= disk_index < len(faces):
            raise ValidationError(f"one_disk_face index {disk_index} out of range")
        if not set(faces[disk_index]).issuperset(range(g.x_count)):
            raise ValidationError(
                f"face {disk_index} is not incident to every X vertex"
            )
    return d


def _encode(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for document values.

    ``indent`` is the indent of the line ``value`` starts on.  Takes
    what documents hold: dicts with str keys, lists, str, int and None;
    anything else raises TypeError.  A list of ints, and a list of int
    lists of one nonzero length (edges, crossings), is formatted in one
    join.
    """
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = {*map(type, value)}
        if kinds == {int}:
            body = sep.join(map(repr, value))
        elif (kinds == {list} and len(lengths := {*map(len, value)}) == 1
              and 0 not in lengths
              and {*map(type, ints := [*chain.from_iterable(value)])} == {int}):
            # %d writes an int as repr does; every item has the same slots.
            deeper = inner + "  "
            slots = (",\n" + deeper).join(["%d"] * lengths.pop())
            body = sep.join([f"[\n{deeper}{slots}\n{inner}]"] * len(value)) % tuple(ints)
        else:
            body = sep.join([_encode(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
            for k, v in sorted(value.items())
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    if value is None or isinstance(value, str) or type(value) is int:
        return json.dumps(value)
    raise TypeError(f"cannot write {type(value).__name__} into a document")


def _dump(doc: dict, path) -> None:
    Path(path).write_text(_encode(doc) + "\n", encoding="utf-8")


def _load(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ParseError(f"invalid JSON in {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ParseError(f"top level of {path} must be an object")
    return doc


def save_graph(g: BipartiteGraph, path) -> None:
    _dump(graph_to_document(g), path)


def load_graph(path) -> BipartiteGraph:
    return graph_from_document(_load(path))


def save_drawing(d: Drawing, path) -> None:
    _dump(drawing_to_document(d), path)


def load_drawing(path) -> Drawing:
    return drawing_from_document(_load(path))
