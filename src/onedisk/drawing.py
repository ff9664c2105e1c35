"""Combinatorial 1-planar drawings stored as planarizations.

A drawing of a bipartite graph is held without coordinates: the abstract
graph, a list of crossings (each one a degree-4 dummy node splitting two
independent edges into segments), and a rotation system assigning every
planarization node the counterclockwise cyclic order of its incident
segments.  Because each edge is crossed at most once and crossing edges
share no endpoint, the planarization is itself a simple graph, so a
rotation is simply a cyclic sequence of neighbor node ids.

Faces are recovered by the standard successor walk: after arriving at v
along segment (u, v), leave along (v, w) where w follows u in the cyclic
order at v.  A connected rotation system describes a sphere drawing
exactly when the traced face count F satisfies V - E + F = 2; that check
is what separates a genuine plane drawing from a higher-genus rotation.

Faces are traced once per validated drawing.  :func:`build_drawing`
traces them for its Euler check and keeps them on the Drawing, so
:func:`trace_faces`, :func:`find_one_disk_face` and every caller of
those (document save and load, doubling, the bounds report, SVG export)
reuse them.  A Drawing made any other way (``Drawing(...)`` directly, or
``dataclasses.replace``) carries no faces and is traced on each call.
:func:`verification_failure` always re-traces from the raw fields.

The same rule says which drawings count as verified: one that carries
build_drawing's faces has passed every check there, so :func:`is_verified`
accepts it without work.  Any other Drawing is re-checked from its raw
fields by :func:`verification_failure`.  build_drawing stores the
rotation as a read-only mapping, so its faces cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    if not seq:
        return seq
    k = seq.index(min(seq))
    return seq[k:] + seq[:k] if k else seq


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


def _successors(nbrs: Sequence[int]) -> dict[int, int]:
    """Map each neighbor to the one after it in the cyclic order ``nbrs``.
    The keys keep the order of ``nbrs``."""
    return {u: nbrs[(i + 1) % len(nbrs)] for i, u in enumerate(nbrs)}


def _walk_faces(succ, sides: Iterable[Step]) -> list[tuple[Step, ...]]:
    """The successor walk: each face, in the order ``sides`` first meets it.

    ``succ[v][u]`` is the neighbor after u in the cyclic order at v, and
    ``sides`` lists every directed segment side; nothing is checked.  Walks
    are tuples: lists held to the end of a long trace slow every gc pass.
    """
    faces: list[tuple[Step, ...]] = []
    visited: set[Step] = set()
    for step in sides:
        if step in visited:
            continue
        walk: list[Step] = []
        while step not in visited:
            visited.add(step)
            walk.append(step)
            a, b = step
            step = (b, succ[b][a])
        faces.append(tuple(walk))
    return faces


def rotation_faces(rotation: Mapping[int, Sequence[int]]) -> list[FaceWalk]:
    """Trace all face walks of the rotation system, graph type agnostic.

    Requires a symmetric adjacency (u in rotation[v] iff v in rotation[u])
    with no repeated neighbors; raises IncompleteRotation otherwise.
    Every directed segment side lands in exactly one returned walk.
    """
    succ: dict[int, dict[int, int]] = {}
    for v, nbrs in rotation.items():
        if len(set(nbrs)) != len(nbrs):
            raise IncompleteRotation(f"rotation at {v} repeats a neighbor")
        succ[v] = _successors(nbrs)
    for v, nbrs in rotation.items():
        for u in nbrs:
            if u not in succ or v not in succ[u]:
                raise IncompleteRotation(f"segment ({v}, {u}) has no reverse side")
    sides = [(v, u) for v in sorted(rotation) for u in rotation[v]]
    return [FaceWalk(walk) for walk in _walk_faces(succ, sides)]


# ---------------------------------------------------------------------------
# Drawings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """Two independent edges meeting transversally at a dummy node."""

    edge_a: Edge
    edge_b: Edge
    dummy: int


@dataclass(frozen=True)
class Drawing:
    """A validated 1-planar drawing; construct through :func:`build_drawing`.

    Planarization node ids: original vertices keep their graph ids, the
    dummy of crossings[i] is graph.vertex_count + i.  Treat instances as
    immutable; every operation here is pure.  build_drawing stores
    ``rotation`` as a read-only mapping.  ``_faces`` holds the faces
    build_drawing traced; it takes no part in equality or repr.
    """

    graph: BipartiteGraph
    crossings: tuple[Crossing, ...]
    rotation: Mapping[int, tuple[int, ...]]
    _faces: tuple[FaceWalk, ...] | None = field(
        init=False, compare=False, repr=False, default=None
    )

    @property
    def node_count(self) -> int:
        return self.graph.vertex_count + len(self.crossings)

    @property
    def segment_count(self) -> int:
        return len(self.graph.edges) + 2 * len(self.crossings)

    def crossed_edges(self) -> dict[Edge, Crossing]:
        return {e: c for c in self.crossings for e in (c.edge_a, c.edge_b)}


def _normalize_crossings(graph: BipartiteGraph, crossings) -> tuple[Crossing, ...]:
    edge_set = set(graph.edges)
    n = graph.vertex_count
    out: list[Crossing] = []
    for i, item in enumerate(crossings):
        if isinstance(item, Crossing):
            ea, eb, dummy = item.edge_a, item.edge_b, item.dummy
            if dummy != n + i:
                raise DrawingError(
                    f"crossing {i} carries dummy id {dummy}, expected {n + i}"
                )
        else:
            ea, eb = item
            dummy = n + i
        ea = tuple(sorted(ea))
        eb = tuple(sorted(eb))
        if eb < ea:
            ea, eb = eb, ea
        for e in (ea, eb):
            if e not in edge_set:
                raise DrawingError(f"crossing {i} references missing edge {e}")
        if set(ea) & set(eb):
            raise AdjacentEdgesCross(f"edges {ea} and {eb} share an endpoint")
        out.append(Crossing(ea, eb, dummy))
    return tuple(out)


def _planarization_adjacency(
    graph: BipartiteGraph, crossings: Sequence[Crossing]
) -> dict[int, set[int]]:
    crossed: dict[Edge, int] = {}
    for c in crossings:
        for e in (c.edge_a, c.edge_b):
            if e in crossed:
                raise EdgeCrossedTwice(f"edge {e} appears in more than one crossing")
            crossed[e] = c.dummy
    adj: dict[int, set[int]] = {v: set() for v in range(graph.vertex_count)}
    for c in crossings:
        adj[c.dummy] = set()
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
) -> None:
    """Raise the first structural defect found, if any."""
    adj = _planarization_adjacency(graph, crossings)

    missing = set(adj) - set(rotation)
    extra = set(rotation) - set(adj)
    if missing or extra:
        raise IncompleteRotation(
            f"rotation nodes mismatch planarization (missing {sorted(missing)}, "
            f"extra {sorted(extra)})"
        )
    for v, nbrs in rotation.items():
        if len(set(nbrs)) != len(nbrs) or set(nbrs) != adj[v]:
            raise IncompleteRotation(
                f"rotation at node {v} lists {tuple(nbrs)}, expected a cyclic "
                f"order of {sorted(adj[v])}"
            )

    for c in crossings:
        order = rotation[c.dummy]
        if len(order) != 4:
            raise NonAlternatingDummy(f"dummy {c.dummy} has degree {len(order)}")
        a_slots = {i for i, v in enumerate(order) if v in c.edge_a}
        if a_slots not in ({0, 2}, {1, 3}):
            raise NonAlternatingDummy(
                f"dummy {c.dummy} rotation {order} does not alternate "
                f"{c.edge_a} with {c.edge_b}"
            )

    start = next(iter(adj))
    seen = reachable(adj, start)
    if len(seen) != len(adj):
        raise DisconnectedPlanarization(
            f"planarization has {len(adj) - len(seen)} node(s) unreachable from {start}"
        )


def _checked_faces(
    rotation: Mapping[int, Sequence[int]], node_count: int, segment_count: int
) -> list[FaceWalk]:
    """Trace the faces of ``rotation``; raise NotPlanarEmbedding on genus > 0."""
    faces = rotation_faces(rotation)
    expected = 2 - node_count + segment_count
    if len(faces) != expected:
        raise NotPlanarEmbedding(
            f"face tracing found {len(faces)} faces, Euler's formula needs {expected}"
        )
    return faces


def build_drawing(graph: BipartiteGraph, crossings, rotation) -> Drawing:
    """Validate and assemble a Drawing.

    ``crossings`` may hold Crossing values or plain (edge, edge) pairs;
    dummies are numbered graph.vertex_count + index.  Every rotation is
    normalized to start at its smallest neighbor id, so structurally
    equal drawings compare equal, and the rotation map is read-only.
    Raises a DrawingError subclass on any violated invariant, including
    a genus check via face tracing.  The traced faces are kept on the
    result for :func:`trace_faces`.
    """
    cross = _normalize_crossings(graph, crossings)
    _validate_structure(graph, cross, rotation)
    norm = MappingProxyType({v: _least_first(tuple(nbrs)) for v, nbrs in rotation.items()})
    d = Drawing(graph, cross, norm)
    faces = _checked_faces(norm, d.node_count, d.segment_count)
    object.__setattr__(d, "_faces", tuple(faces))
    return d


def trace_faces(d: Drawing) -> list[FaceWalk]:
    """All face walks of the drawing; raises NotPlanarEmbedding on genus > 0.

    A drawing from build_drawing returns a copy of the faces traced
    there, in the same order; any other Drawing is traced afresh.
    """
    if d._faces is not None:
        return list(d._faces)
    return _checked_faces(d.rotation, d.node_count, d.segment_count)


def verification_failure(d: Drawing) -> str | None:
    """Reason the drawing fails 1-planar verification, or None if it passes.

    Re-runs build_drawing on the raw fields, so it also catches objects
    assembled outside build_drawing, and then requires each crossing to
    be in the normal form build_drawing gives it.  It ignores any faces
    stored on ``d``.
    """
    try:
        normal = build_drawing(d.graph, d.crossings, d.rotation).crossings
        for i, (c, norm) in enumerate(zip(d.crossings, normal)):
            if c != norm:
                raise DrawingError(f"crossing {i} is {c}, not in its normal form {norm}")
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    return None


def verify_one_planar(d: Drawing) -> bool:
    """True iff the drawing is a valid connected 1-planar sphere drawing."""
    return verification_failure(d) is None


def is_verified(d: Drawing) -> bool:
    """True iff the drawing counts as verified.

    A drawing that carries the faces build_drawing traced passed its
    checks there, the rule :func:`trace_faces` follows; any other is
    re-checked from its raw fields by :func:`verify_one_planar`.
    """
    return d._faces is not None or verify_one_planar(d)


def disk_face_index(faces: Sequence[FaceWalk], x_count: int) -> int | None:
    """Index of the first face incident to X vertices 0..x_count-1, if any.

    A face with fewer than x_count steps visits fewer than x_count nodes,
    so it is skipped before its node set is built.
    """
    xs = range(x_count)
    for i, walk in enumerate(faces):
        if len(walk) >= x_count and walk.visits_all(xs):
            return i
    return None


def find_one_disk_face(d: Drawing) -> FaceWalk | None:
    """First traced face incident to every X vertex, if one exists.

    A drawing can be redrawn with any chosen face as the unbounded one,
    so such a face is exactly what lets all X vertices sit on a circle
    with the rest of the drawing inside.
    """
    faces = trace_faces(d)
    i = disk_face_index(faces, d.graph.x_count)
    return None if i is None else faces[i]


def crossing_count(d: Drawing) -> int:
    """|crossings|."""
    return len(d.crossings)
