"""Simple bipartite graphs with an explicit two-part vertex labeling.

Vertex ids are dense integers: the X part occupies 0..x_count-1 and the
Y part occupies x_count..x_count+y_count-1.  Pinning the parts to fixed
id ranges keeps serialized files and test fixtures canonical without a
separate labeling table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, NoReturn

Edge = tuple[int, int]


class GraphError(ValueError):
    """Construction rejected: the input is not a simple bipartite graph."""


class SamePartEdge(GraphError):
    """An edge has both endpoints in the same part."""


class DuplicateEdge(GraphError):
    """The same unordered vertex pair was supplied more than once."""


class VertexOutOfRange(GraphError):
    """An edge endpoint is not a valid vertex id: not an int, or out of range."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable simple graph in which every edge joins an X and a Y vertex.

    Checked when it is made: a part size that is not a positive int, an
    edge that is not a pair, a loop, a duplicate edge, an edge inside one
    part or an endpoint that is not an int in range raises a GraphError
    (a bool is not an int here).  ``edges`` may give each pair in either
    order; it is stored sorted, X endpoint first, so equal edge sets
    compare equal.
    """

    x_count: int
    y_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        x_count, y_count = self.x_count, self.y_count
        if type(x_count) is not int or type(y_count) is not int:
            raise GraphError(f"part sizes must be ints, got {x_count!r} and {y_count!r}")
        if x_count < 1 or y_count < 1:
            raise GraphError(f"both parts must be nonempty, got {x_count} and {y_count}")
        total = x_count + y_count
        edges = tuple(self.edges)
        # A good edge list passes these checks; only a bad one is walked
        # again, to name its first bad edge.
        try:
            typed = {*map(type, chain.from_iterable(edges))} <= {int}
            normalized = [(u, v) if u <= v else (v, u) for u, v in edges]
        except (TypeError, ValueError):  # an edge that is not a pair of ids
            typed = False
        if not typed:
            _raise_first_bad_edge(x_count, total, edges)
        for lo, hi in normalized:
            if not 0 <= lo < x_count <= hi < total:
                _raise_first_bad_edge(x_count, total, edges)
        if len(set(normalized)) != len(normalized):
            _raise_first_bad_edge(x_count, total, edges)
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def vertex_count(self) -> int:
        return self.x_count + self.y_count

    @property
    def x_vertices(self) -> range:
        return range(self.x_count)

    @property
    def y_vertices(self) -> range:
        return range(self.x_count, self.x_count + self.y_count)


def _raise_first_bad_edge(x_count: int, total: int, edges) -> NoReturn:
    """Raise the GraphError of the first edge that is not a pair, or has an
    endpoint that is not an int, is out of range, inside one part, or a
    repeat of an earlier edge."""
    seen: set[Edge] = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edge {e!r} is not a pair of vertex ids") from None
        if type(u) is not int or type(v) is not int:
            raise VertexOutOfRange(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if not (0 <= u < total and 0 <= v < total):
            raise VertexOutOfRange(f"edge ({u}, {v}) leaves the id range 0..{total - 1}")
        lo, hi = (u, v) if u <= v else (v, u)
        if lo >= x_count or hi < x_count:
            raise SamePartEdge(f"edge ({u}, {v}) does not join the two parts")
        if (lo, hi) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) given twice")
        seen.add((lo, hi))
    raise AssertionError("every edge is good")


def new_bipartite(x_count: int, y_count: int, edges) -> BipartiteGraph:
    """The checked graph with these parts and edges; see :class:`BipartiteGraph`."""
    return BipartiteGraph(x_count, y_count, edges)


def edge_count(g: BipartiteGraph) -> int:
    """|E(G)|."""
    return len(g.edges)


def reachable(adjacency: Mapping[int, Iterable[int]], start: int) -> set[int]:
    """Every node reachable from ``start`` in the adjacency map, start included."""
    seen = {start}
    frontier = {start}
    while frontier:
        found: set[int] = set()
        for v in frontier:
            found.update(adjacency[v])
        frontier = found - seen
        seen |= frontier
    return seen
