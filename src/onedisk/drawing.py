"""Combinatorial 1-planar drawings stored as planarizations.

A drawing of a bipartite graph is held without coordinates: the abstract
graph, a list of crossings (crossings[i] a pair of independent edges split
into segments at the degree-4 dummy node vertex_count + i), and a rotation
system giving every planarization node the counterclockwise cyclic order
of its incident segments.  Because each edge is crossed at most once and
crossing edges share no endpoint, the planarization is itself a simple
graph, so a rotation is simply a cyclic sequence of neighbor node ids.

The segment rule: an uncrossed edge (u, v) is the one segment (u, v),
and a crossed edge (u, v) whose crossing has dummy d is the two segments
(u, d) and (v, d).  In this module :func:`_segments` alone applies it,
reading the map from crossed edges to dummies that a Drawing builds
once; the structure check reads its list, and so do the planarization's
neighbour sets that name a rotation's fault and that the search embeds.

Faces are recovered by the standard successor walk: after arriving at v
along segment (u, v), leave along (v, w) where w follows u in the cyclic
order at v.  A connected rotation system describes a sphere drawing
exactly when the traced face count F satisfies V - E + F = 2; that check
is what separates a genuine plane drawing from a higher-genus rotation.

A Drawing is checked when it is made, however it is made, and keeps the
faces its Euler check traced: no unchecked Drawing exists, and no
drawing is traced twice.  It keeps each face as a node cycle, the tuple
(v0, ..., vk-1) of the face walk with steps (v0, v1), ..., (vk-1, v0).
Each node's successor map (u -> the neighbour after u in its cyclic
order) serves both the structure check, as the node's neighbour set,
and the tracer, which marks side (u, v) walked by popping u from v's
map; so tracing allocates one tuple per face and none per step.  A
FaceWalk, with its step tuples, is built only when one is asked for.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from types import MappingProxyType
from typing import NamedTuple

from .graph import BipartiteGraph, Edge, _iterate, reachable


class DrawingError(ValueError):
    """The supplied structure is not a valid 1-planar drawing."""


class EdgeCrossedTwice(DrawingError):
    """An edge appears in more than one crossing."""


class AdjacentEdgesCross(DrawingError):
    """A crossing pairs two edges that share an endpoint."""


class NonAlternatingDummy(DrawingError):
    """A dummy's rotation does not interleave the two crossing edges."""


class IncompleteRotation(DrawingError):
    """The rotation map misses a node or mismatches its incident segments."""


class DisconnectedPlanarization(DrawingError):
    """The planarization is not connected."""


class NotPlanarEmbedding(DrawingError):
    """Face tracing contradicts Euler's formula: the rotation has genus > 0."""


class NoOneDiskFace(DrawingError):
    """No face of the planarization is incident to every X vertex."""


# ---------------------------------------------------------------------------
# Face walks and the generic tracing engine
# ---------------------------------------------------------------------------

Step = tuple[int, int]


def _least_first(seq: tuple) -> tuple:
    """``seq`` rotated to start at its least item.

    With distinct items this is also the lexicographically least
    rotation, found in O(k) instead of by comparing all k rotations.
    """
    if seq and seq[0] != (least := min(seq)):
        k = seq.index(least)
        return seq[k:] + seq[:k]
    return seq


@dataclass(frozen=True, eq=False)
class FaceWalk:
    """One face of an embedding: a cyclic sequence of directed segments.

    Each step (u, v) is the side of segment {u, v} traversed from u to v.
    Equality and hashing are cyclic: rotations of the same step sequence
    compare equal, reversed walks do not.  The steps of a face walk are
    distinct, since every segment side lies on exactly one face.
    """

    steps: tuple[Step, ...]

    def canonical(self) -> tuple[Step, ...]:
        """The rotation starting at the least step."""
        return _least_first(self.steps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaceWalk):
            return NotImplemented
        if len(self.steps) != len(other.steps):
            return False
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def nodes(self) -> tuple[int, ...]:
        """Visited nodes in walk order (may repeat)."""
        return tuple(u for u, _ in self.steps)


def _face_walk(cycle: tuple[int, ...]) -> FaceWalk:
    """The walk whose nodes, in order, are ``cycle``."""
    return FaceWalk(tuple(zip(cycle, cycle[1:] + cycle[:1])))


def _successors(rotation: Mapping[int, Sequence[int]]) -> dict[int, dict[int, int]]:
    """Each node's successor map: succ[v][u] is the neighbour after u in
    the cyclic order at v.  Its keys are v's neighbours, fewer than
    len(rotation[v]) when the rotation repeats one."""
    return {v: dict(zip(nbrs, nbrs[1:] + nbrs[:1])) for v, nbrs in rotation.items()}


def _walk_faces(
    rotation: Mapping[int, Sequence[int]], succ: Mapping[int, dict[int, int]]
) -> list[tuple[int, ...]]:
    """Every face of a consistent rotation system as a node cycle.

    ``succ`` holds the rotation's successor maps; walking side (a, b)
    pops a from succ[b], so the maps end empty.  The rotation must be
    symmetric with no repeated neighbor.  Faces come in tracing order:
    by first side, the sides taken node by node in ascending order and,
    at each node, in rotation order.  This is the one face tracer.
    """
    faces: list[tuple[int, ...]] = []
    for v in sorted(rotation):
        for u in rotation[v]:
            at_u = succ[u]
            if v not in at_u:
                continue
            # The successor rule permutes the sides, so the walk comes back
            # to (v, u) having walked only sides not walked before.
            cycle = [v]
            a, b = u, at_u.pop(v)
            while a != v or b != u:
                cycle.append(a)
                a, b = b, succ[b].pop(a)
            faces.append(tuple(cycle))
    return faces


def rotation_faces(rotation: Mapping[int, Sequence[int]]) -> list[FaceWalk]:
    """Trace all face walks of the rotation system, graph type agnostic.

    Requires a mapping of int nodes, each with a tuple or list of int
    neighbors, and a symmetric adjacency (u in rotation[v] iff v in
    rotation[u]) with no repeated neighbors; raises IncompleteRotation
    otherwise, naming a type fault as :class:`Drawing` does.  Every
    directed segment side lands in exactly one returned walk.
    """
    if not _well_typed(rotation):
        raise _type_fault(rotation)
    succ = _successors(rotation)
    for v, nbrs in rotation.items():
        if len(succ[v]) != len(nbrs):
            raise IncompleteRotation(f"rotation at {v} repeats a neighbor")
    for v, nbrs in rotation.items():
        for u in nbrs:
            if u not in succ or v not in succ[u]:
                raise IncompleteRotation(f"segment ({v}, {u}) has no reverse side")
    return [_face_walk(cycle) for cycle in _walk_faces(rotation, succ)]


# ---------------------------------------------------------------------------
# Drawings
# ---------------------------------------------------------------------------


class Crossing(NamedTuple):
    """A pair of independent edges that cross once.

    A crossing names no node: in a Drawing the dummy of crossings[i] is
    graph.vertex_count + i.
    """

    edge_a: Edge
    edge_b: Edge


@dataclass(frozen=True)
class Drawing:
    """A connected 1-planar sphere drawing, checked when it is made.

    Planarization node ids: original vertices keep their graph ids, the
    dummy of crossings[i] is graph.vertex_count + i.  A crossing is a
    pair of edges, given as a Crossing or a plain (edge, edge) pair, and
    is stored as a Crossing in normal form, its edges sorted;
    ``crossed_edges()`` maps each crossed edge to the id of its dummy.
    Every rotation is stored read-only and starting at its smallest
    neighbor id, so structurally equal drawings compare equal.  Any
    violated invariant, including genus > 0 found by face tracing,
    raises a DrawingError subclass; so does a graph that is not a
    BipartiteGraph, crossings that are not iterable, or a rotation that
    is not a mapping.  ``_faces`` holds the traced faces as node cycles;
    it takes no part in equality or repr.
    """

    graph: BipartiteGraph
    crossings: tuple[Crossing, ...]
    rotation: Mapping[int, tuple[int, ...]]
    _faces: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, BipartiteGraph):
            raise DrawingError(f"graph must be a BipartiteGraph, got {type(self.graph).__name__}")
        crossings = _normalize_crossings(self.graph, self.crossings)
        succ = _validate_structure(self.graph, crossings, self.rotation)
        rotation = MappingProxyType(
            {v: _least_first(tuple(nbrs)) for v, nbrs in self.rotation.items()}
        )
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "rotation", rotation)
        faces = _walk_faces(rotation, succ)
        expected = 2 - self.node_count + self.segment_count
        if len(faces) != expected:
            raise NotPlanarEmbedding(
                f"face tracing found {len(faces)} faces, Euler's formula needs {expected}"
            )
        object.__setattr__(self, "_faces", tuple(faces))

    def __reduce__(self):
        # Copies and unpickled drawings are made, and so checked, afresh.
        return Drawing, (self.graph, self.crossings, dict(self.rotation))

    @property
    def node_count(self) -> int:
        return self.graph.vertex_count + len(self.crossings)

    @property
    def segment_count(self) -> int:
        return len(self.graph.edges) + 2 * len(self.crossings)

    def crossed_edges(self) -> dict[Edge, int]:
        """Each crossed edge mapped to the id of its crossing's dummy."""
        return _crossed(self.graph, self.crossings)


def _normalize_crossings(graph: BipartiteGraph, crossings) -> tuple[Crossing, ...]:
    """The crossings in normal form.

    The rule of both input lists, as for a graph's edges: the first bad
    item in input order, then the first repeat.  One walk reads each
    crossing once and raises at the first fault it meets: DrawingError
    for a crossing that is not a pair of edges, each a pair of ids, or
    that has an endpoint that is not an int (bools included), DrawingError
    for a missing edge, and AdjacentEdgesCross.  Repeats are decided after
    the walk, by :func:`_validate_structure`.
    """
    edge_set = set(graph.edges)
    out: list[Crossing] = []
    for i, c in enumerate(_iterate(crossings, "crossings", DrawingError)):
        try:
            (a0, a1), (b0, b1) = c
        except (TypeError, ValueError):
            raise DrawingError(
                f"crossing {i} is not a pair of edges, each a pair of ids: {c!r}"
            ) from None
        if not type(a0) is type(a1) is type(b0) is type(b1) is int:
            raise DrawingError(f"crossing {i} has a non-int endpoint: {c}")
        ea = (a0, a1) if a0 <= a1 else (a1, a0)
        eb = (b0, b1) if b0 <= b1 else (b1, b0)
        if eb < ea:
            ea, eb = eb, ea
        if ea not in edge_set:
            raise DrawingError(f"crossing {i} references missing edge {ea}")
        if eb not in edge_set:
            raise DrawingError(f"crossing {i} references missing edge {eb}")
        if ea[0] in eb or ea[1] in eb:
            raise AdjacentEdgesCross(f"edges {ea} and {eb} share an endpoint")
        out.append(Crossing(ea, eb))
    return tuple(out)


def _crossed(graph: BipartiteGraph, crossings: Sequence[Crossing]) -> dict[Edge, int]:
    """Each edge of normalized ``crossings`` mapped to its dummy id."""
    n = graph.vertex_count
    return {e: n + i for i, c in enumerate(crossings) for e in c}


def _segments(graph: BipartiteGraph, crossed: Mapping[Edge, int]) -> list[Edge]:
    """The planarization's segments as node pairs, by the segment rule of
    the module doc; ``crossed`` maps each crossed edge to its dummy."""
    segments = []
    for e in graph.edges:
        d = crossed.get(e)
        if d is None:
            segments.append(e)
        else:
            segments.append((e[0], d))
            segments.append((e[1], d))
    return segments


def _planarization_adjacency(
    graph: BipartiteGraph, crossings: Sequence[Crossing]
) -> dict[int, set[int]]:
    """Neighbor sets of the planarization of normalized ``crossings``."""
    adj = {v: set() for v in range(graph.vertex_count + len(crossings))}
    for u, v in _segments(graph, _crossed(graph, crossings)):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _validate_structure(
    graph: BipartiteGraph,
    crossings: Sequence[Crossing],
    rotation: Mapping[int, Sequence[int]],
) -> dict[int, dict[int, int]]:
    """Raise the first structural defect of normalized ``crossings`` and
    ``rotation``, if any; else return the rotation's successor maps.

    EdgeCrossedTwice comes first.  It is the second half of the rule both
    input lists follow, the first bad item in input order, then the first
    repeat; :func:`_normalize_crossings` has made the walk for bad items.
    It is decided by the size of the map from crossed edges to dummies,
    which is built once and gives the segment list.  Then one predicate
    decides the rotation: it is a mapping; its keys are the int nodes
    0..n-1, compared as sets only when the counts match, so a document
    that claims a huge n costs time and memory bounded by len(rotation);
    its values are tuples or lists, holding 2 * |segments| ints in all;
    and both sides of every segment are keys of the successor maps, which
    are built only after the rest passes.  That is exact: the maps' keys
    then hold at least every side and at most every listed entry, so no
    entry is a repeat or a stranger, and each node, dummies included,
    lists its planarization neighbours once.  Only when it fails is the
    fault named, by :func:`_rotation_fault`.
    """
    crossed = _crossed(graph, crossings)
    if len(crossed) != 2 * len(crossings):
        seen: set[Edge] = set()
        for e in chain.from_iterable(crossings):
            if e in seen:
                raise EdgeCrossedTwice(f"edge {e} appears in more than one crossing")
            seen.add(e)
    segments = _segments(graph, crossed)
    node_count = graph.vertex_count + len(crossings)
    if not (_well_typed(rotation)
            and len(rotation) == node_count and rotation.keys() == set(range(node_count))
            and sum(map(len, rotation.values())) == 2 * len(segments)
            and _sides_present(segments, succ := _successors(rotation))):
        raise _rotation_fault(graph, crossings, rotation)

    for dummy, c in enumerate(crossings, graph.vertex_count):
        order = rotation[dummy]
        a = c.edge_a
        if not (order[0] in a and order[2] in a or order[1] in a and order[3] in a):
            raise NonAlternatingDummy(
                f"dummy {dummy} rotation {order} does not alternate "
                f"{c.edge_a} with {c.edge_b}"
            )

    seen = reachable(succ, 0)
    if len(seen) != node_count:
        raise DisconnectedPlanarization(
            f"planarization has {node_count - len(seen)} node(s) unreachable from 0"
        )
    return succ


def _sides_present(segments: Sequence[Edge], succ: Mapping[int, dict[int, int]]) -> bool:
    """Whether both sides of every segment are in ``succ``, keyed by every node."""
    for u, v in segments:
        if v not in succ[u] or u not in succ[v]:
            return False
    return True


def _rotation_fault(
    graph: BipartiteGraph,
    crossings: Sequence[Crossing],
    rotation: Mapping[int, Sequence[int]],
) -> IncompleteRotation:
    """The error naming the first fault of a rotation that fails the check
    in :func:`_validate_structure`: a rotation that is not a mapping or a
    node that is not an int, then missing or extra nodes, then the first
    node, in ``rotation``'s order, whose rotation is not a tuple or list
    of int ids, or not a cyclic order of its planarization neighbours.
    :func:`_type_fault` words each type fault.  One of these must exist."""
    if not (isinstance(rotation, Mapping) and {*map(type, rotation)} <= {int}):
        return _type_fault(rotation)
    node_count = graph.vertex_count + len(crossings)
    nodes = range(node_count)
    if not (len(rotation) == node_count and rotation.keys() == set(nodes)):
        extra = sorted(v for v in rotation if v not in nodes)
        missing = list(islice((v for v in nodes if v not in rotation), 5))
        absent = node_count - (len(rotation) - len(extra))
        return IncompleteRotation(
            f"rotation nodes mismatch planarization ({absent} missing, "
            f"first {missing}; {len(extra)} extra, first {extra[:5]})"
        )
    adj = _planarization_adjacency(graph, crossings)
    for v, order in rotation.items():
        if type(order) not in (tuple, list) or not {*map(type, order)} <= {int}:
            # The nodes before v passed these checks, so this names v.
            return _type_fault(rotation)
        if len(set(order)) != len(order) or set(order) != adj[v]:
            return IncompleteRotation(
                f"rotation at node {v} lists {tuple(order)}, expected a cyclic "
                f"order of {sorted(adj[v])}"
            )
    raise AssertionError("the rotation matches the planarization")


def _well_typed(rotation: Mapping) -> bool:
    """Whether ``rotation`` is a mapping whose nodes are ints (bools
    excluded), each with a tuple or list of ints; :func:`_type_fault`
    names the first fault."""
    return (isinstance(rotation, Mapping) and {*map(type, rotation)} <= {int}
            and {*map(type, rotation.values())} <= {tuple, list}
            and {*map(type, chain.from_iterable(rotation.values()))} <= {int})


def _type_fault(rotation: Mapping) -> IncompleteRotation:
    """The error naming the first type fault of ``rotation``: a rotation
    that is not a mapping, then a node that is not an int, then the first
    node, in ``rotation``'s order, whose rotation is not a tuple or list,
    or lists an id that is not an int.  One of these must exist."""
    if not isinstance(rotation, Mapping):
        return IncompleteRotation(f"rotation must be a mapping, got {type(rotation).__name__}")
    if not {*map(type, rotation)} <= {int}:
        stray = next(v for v in rotation if type(v) is not int)
        return IncompleteRotation(f"rotation node {stray!r} is not an int")
    for v, order in rotation.items():
        if type(order) not in (tuple, list):
            return IncompleteRotation(
                f"rotation at node {v} is of type {type(order).__name__}, not a tuple or list"
            )
        if not {*map(type, order)} <= {int}:
            return IncompleteRotation(f"rotation at node {v} lists {tuple(order)}, expected int ids")
    raise AssertionError("the rotation's nodes and ids are ints")


def build_drawing(graph: BipartiteGraph, crossings, rotation) -> Drawing:
    """The checked drawing with these fields; see :class:`Drawing`."""
    return Drawing(graph, crossings, rotation)


def trace_faces(d: Drawing) -> list[FaceWalk]:
    """All face walks of the drawing, in tracing order, built from the
    faces traced when it was made."""
    return [_face_walk(cycle) for cycle in d._faces]


def verification_failure(d: Drawing) -> None:
    """Always None: a Drawing is checked when it is made, so every one
    passes 1-planar verification."""
    return None


def disk_face_index(faces: Sequence[tuple[int, ...]], x_count: int) -> int | None:
    """Index of the first face, given as node cycles, incident to X
    vertices 0..x_count-1, if any.

    A face with fewer than x_count steps visits fewer than x_count nodes,
    so it is skipped before its node set is built.
    """
    xs = range(x_count)
    for i, cycle in enumerate(faces):
        if len(cycle) >= x_count and set(cycle).issuperset(xs):
            return i
    return None


def find_one_disk_face(d: Drawing) -> FaceWalk | None:
    """First traced face incident to every X vertex, if one exists.

    A drawing can be redrawn with any chosen face as the unbounded one,
    so such a face is exactly what lets all X vertices sit on a circle
    with the rest of the drawing inside.
    """
    i = disk_face_index(d._faces, d.graph.x_count)
    return None if i is None else _face_walk(d._faces[i])


def crossing_count(d: Drawing) -> int:
    """|crossings|."""
    return len(d.crossings)
