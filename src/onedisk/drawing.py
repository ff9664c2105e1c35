"""Combinatorial 1-planar drawings stored as planarizations.

A drawing of a bipartite graph is held without coordinates: the abstract
graph, a list of crossings (crossings[i] a pair of independent edges split
into segments at the degree-4 dummy node vertex_count + i), and a rotation
system giving every planarization node the counterclockwise cyclic order
of its incident segments.  Because each edge is crossed at most once and
crossing edges share no endpoint, the planarization is itself a simple
graph, so a rotation is simply a cyclic sequence of neighbor node ids.

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

from dataclasses import dataclass, field
from itertools import chain, islice
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graph import BipartiteGraph, Edge, reachable


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

    def visits_all(self, nodes: Iterable[int]) -> bool:
        here = set(self.nodes)
        return all(v in here for v in nodes)


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

    Requires a symmetric adjacency (u in rotation[v] iff v in rotation[u])
    with no repeated neighbors; raises IncompleteRotation otherwise.
    Every directed segment side lands in exactly one returned walk.
    """
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
    raises a DrawingError subclass.  ``_faces`` holds the traced faces
    as node cycles; it takes no part in equality or repr.
    """

    graph: BipartiteGraph
    crossings: tuple[Crossing, ...]
    rotation: Mapping[int, tuple[int, ...]]
    _faces: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        crossings = _normalize_crossings(self.graph, self.crossings)
        succ = _validate_structure(self.graph, crossings, self.rotation)
        rotation = MappingProxyType(
            {v: _least_first(tuple(nbrs)) for v, nbrs in self.rotation.items()}
        )
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "rotation", rotation)
        faces = _checked_faces(rotation, succ, self.node_count, self.segment_count)
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
    """The crossings in normal form; raises DrawingError on an endpoint
    that is not an int (bools included), then on a missing edge, then
    AdjacentEdgesCross, then EdgeCrossedTwice."""
    crossings = [*crossings]
    ends = chain.from_iterable(chain.from_iterable(crossings))
    if not {*map(type, ends)} <= {int}:
        i, c = next((i, c) for i, c in enumerate(crossings)
                    if not {*map(type, chain.from_iterable(c))} <= {int})
        raise DrawingError(f"crossing {i} has a non-int endpoint: {c}")
    edge_set = set(graph.edges)
    out: list[Crossing] = []
    for i, (ea, eb) in enumerate(crossings):
        try:
            (a0, a1), (b0, b1) = ea, eb
        except ValueError:
            # An edge that is no pair: sorted as it is, it is missing below.
            ea, eb = sorted((tuple(sorted(ea)), tuple(sorted(eb))))
        else:
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
    if len({e for c in out for e in c}) != 2 * len(out):
        crossed: set[Edge] = set()
        for c in out:
            for e in c:
                if e in crossed:
                    raise EdgeCrossedTwice(f"edge {e} appears in more than one crossing")
                crossed.add(e)
    return tuple(out)


def _crossed(graph: BipartiteGraph, crossings: Sequence[Crossing]) -> dict[Edge, int]:
    """Each edge of normalized ``crossings`` mapped to its dummy id."""
    n = graph.vertex_count
    return {e: n + i for i, c in enumerate(crossings) for e in c}


def _planarization_adjacency(
    graph: BipartiteGraph, crossings: Sequence[Crossing]
) -> dict[int, set[int]]:
    """Neighbor sets of the planarization of normalized ``crossings``."""
    crossed = _crossed(graph, crossings)
    adj = {v: set() for v in range(graph.vertex_count + len(crossings))}
    for e in graph.edges:
        u, v = e
        if e in crossed:
            d = crossed[e]
            adj[u].add(d)
            adj[d].add(u)
            adj[v].add(d)
            adj[d].add(v)
        else:
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

    The maps' keys are the planarization's neighbour sets exactly when
    the rotations list as many sides as the segments have and every side
    of every segment is among them: the keys then hold at least every
    side and at most every listed entry, so no entry is a repeat or a
    stranger, and each dummy lists its four neighbours once.  Only when that fails is the planarization built, to name
    the first node at fault.
    """
    node_count = graph.vertex_count + len(crossings)
    _check_rotation_nodes(rotation, node_count)
    succ = _successors(rotation)
    exact = (sum(map(len, rotation.values())) == 2 * (len(graph.edges) + 2 * len(crossings))
             and {*map(type, chain.from_iterable(rotation.values()))} <= {int})
    if exact:
        crossed = _crossed(graph, crossings)
        for e in graph.edges:
            u, v = e
            d = crossed.get(e)
            if d is None:
                if v not in succ[u] or u not in succ[v]:
                    exact = False
                    break
            elif (d not in succ[u] or d not in succ[v]
                  or u not in succ[d] or v not in succ[d]):
                exact = False
                break
    if not exact:
        raise _rotation_mismatch(graph, crossings, rotation)

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


def _rotation_mismatch(
    graph: BipartiteGraph,
    crossings: Sequence[Crossing],
    rotation: Mapping[int, Sequence[int]],
) -> IncompleteRotation:
    """The error naming the first node, in ``rotation``'s order, whose
    rotation is not a cyclic order of its planarization neighbours' int
    ids; one such node must exist."""
    adj = _planarization_adjacency(graph, crossings)
    for v, order in rotation.items():
        if (not {*map(type, order)} <= {int}
                or len(set(order)) != len(order) or set(order) != adj[v]):
            return IncompleteRotation(
                f"rotation at node {v} lists {tuple(order)}, expected a cyclic "
                f"order of {sorted(adj[v])}"
            )
    raise AssertionError("the rotation matches the planarization")


def _check_rotation_nodes(rotation: Mapping[int, Sequence[int]], node_count: int) -> None:
    """Raise IncompleteRotation unless ``rotation`` is keyed by exactly the
    int nodes 0..node_count-1.

    Takes time and memory bounded by len(rotation), not by node_count,
    which a document may claim to be huge.
    """
    if not {*map(type, rotation)} <= {int}:
        stray = next(v for v in rotation if type(v) is not int)
        raise IncompleteRotation(f"rotation node {stray!r} is not an int")
    nodes = range(node_count)
    if len(rotation) == node_count and rotation.keys() == set(nodes):
        return
    extra = sorted(v for v in rotation if v not in nodes)
    missing = list(islice((v for v in nodes if v not in rotation), 5))
    absent = node_count - (len(rotation) - len(extra))
    raise IncompleteRotation(
        f"rotation nodes mismatch planarization ({absent} missing, "
        f"first {missing}; {len(extra)} extra, first {extra[:5]})"
    )


def _checked_faces(
    rotation: Mapping[int, Sequence[int]],
    succ: Mapping[int, dict[int, int]],
    node_count: int,
    segment_count: int,
) -> list[tuple[int, ...]]:
    """Trace the faces of the checked ``rotation`` as node cycles; raise
    NotPlanarEmbedding on genus > 0."""
    faces = _walk_faces(rotation, succ)
    expected = 2 - node_count + segment_count
    if len(faces) != expected:
        raise NotPlanarEmbedding(
            f"face tracing found {len(faces)} faces, Euler's formula needs {expected}"
        )
    return faces


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
