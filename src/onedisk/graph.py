"""Simple bipartite graphs with an explicit two-part vertex labeling.

Vertex ids are dense integers: the X part occupies 0..x_count-1 and the
Y part occupies x_count..x_count+y_count-1.  Pinning the parts to fixed
id ranges keeps serialized files and test fixtures canonical without a
separate labeling table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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

    Checked when it is made, and any fault raises a GraphError: a part
    size that is not a positive int, or ``edges`` that is not iterable.
    Then one walk reads each edge once, in input order, and names the
    first that is not a pair, has an endpoint that is not an int (a bool
    is not an int here) or out of range, or lies inside one part, a loop
    included.  Only after the walk are repeats decided, by size; the
    first edge that repeats an earlier one is named.  ``edges`` may give
    each pair in either order; it is stored sorted, X endpoint first, so
    equal edge sets compare equal.
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
        edges = tuple(_iterate(self.edges, "edges", GraphError))
        pairs: list[Edge] = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a pair of vertex ids") from None
            if not type(u) is type(v) is int:
                raise VertexOutOfRange(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
            lo, hi = (u, v) if u <= v else (v, u)
            if not 0 <= lo < x_count <= hi < total:
                if lo < 0 or hi >= total:
                    raise VertexOutOfRange(f"edge ({u}, {v}) leaves the id range 0..{total - 1}")
                raise SamePartEdge(f"edge ({u}, {v}) does not join the two parts")
            pairs.append((lo, hi))
        if len(set(pairs)) != len(pairs):
            raise _first_repeat(edges, pairs)
        pairs.sort()
        object.__setattr__(self, "edges", tuple(pairs))

    @property
    def vertex_count(self) -> int:
        return self.x_count + self.y_count

    @property
    def x_vertices(self) -> range:
        return range(self.x_count)

    @property
    def y_vertices(self) -> range:
        return range(self.x_count, self.x_count + self.y_count)


def _first_repeat(edges: Sequence, pairs: list[Edge]) -> DuplicateEdge:
    """The error naming the first of ``edges`` whose normalized pair, in
    ``pairs``, repeats an earlier one.  An edge given as a tuple or list
    is named as given; any other, which may be spent, by its pair."""
    seen: set[Edge] = set()
    # seen.add returns None, so a pair not seen before is added and passed.
    i = next(i for i, pair in enumerate(pairs) if pair in seen or seen.add(pair))
    u, v = edges[i] if type(edges[i]) in (tuple, list) else pairs[i]
    return DuplicateEdge(f"edge ({u}, {v}) given twice")


def _iterate(value, name: str, error: type[ValueError]) -> Iterator:
    """``iter(value)``; ``error``, naming argument ``name`` and its type,
    when ``value`` is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise error(f"{name} must be iterable, got {type(value).__name__}") from None


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
