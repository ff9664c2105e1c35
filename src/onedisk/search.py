"""Exhaustive oracle for tiny instances.

Decides, by brute force over crossing sets and rotation systems, whether
a small bipartite graph admits a 1-planar drawing with a face incident
to every X vertex, and computes the exact maximum edge count for small
part sizes.  The search is independent of the constructions: candidate
crossing sets are all matchings of pairwise independent edge pairs,
dummy rotations are the two alternating orders, original vertices try
every cyclic order, and a candidate survives only if face tracing
satisfies Euler's formula.  Whatever it finds is re-verified by
``build_drawing``, which checks the witness from scratch (structure,
alternation at every dummy, Euler's formula), before being returned.

Only connected candidate graphs are enumerated: an edge-maximal graph
drawable this way is connected, so disconnected candidates never set the
maximum.  Exhaustion is tracked honestly; when limits truncate the
search before a definite answer, BudgetExceeded is raised rather than
reporting a false "no".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .bounds import one_disk_max_edges
from .drawing import Drawing, build_drawing, find_one_disk_face
from .graph import BipartiteGraph, Edge, new_bipartite, reachable


class BudgetExceeded(RuntimeError):
    """Search limits ran out before the question was settled."""


@dataclass(frozen=True)
class SearchLimits:
    """Caps on the enumeration; all must be positive."""

    max_crossings: int = 8
    max_rotation_nodes: int = 16
    time_budget: float = 300.0

    def __post_init__(self) -> None:
        if self.max_crossings <= 0 or self.max_rotation_nodes <= 0 or self.time_budget <= 0:
            raise ValueError("all search limits must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a maximum-edge search; witness is re-verified evidence."""

    max_edges: int
    witness: Drawing | None
    exhausted: bool


_FOUND, _NO, _UNKNOWN = "found", "no", "unknown"


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _independent_pairs(edges: tuple[Edge, ...]) -> list[tuple[int, int]]:
    pairs = []
    for i, j in combinations(range(len(edges)), 2):
        if not set(edges[i]) & set(edges[j]):
            pairs.append((i, j))
    return pairs


def _matchings(pairs: list[tuple[int, int]], max_size: int):
    """All sets of pairwise edge-disjoint pairs, in (size, lex) order."""
    yield ()
    for size in range(1, max_size + 1):
        for combo in combinations(pairs, size):
            used: set[int] = set()
            ok = True
            for i, j in combo:
                if i in used or j in used:
                    ok = False
                    break
                used.update((i, j))
            if ok:
                yield combo


def _is_connected(g: BipartiteGraph) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(g.vertex_count)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return len(reachable(adj, 0)) == g.vertex_count


def _rotation_candidates(nbrs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct cyclic orders of the neighbor set, lexicographically."""
    if len(nbrs) <= 2:
        return [nbrs]
    first, rest = nbrs[0], nbrs[1:]
    return [(first,) + perm for perm in permutations(rest)]


def _dummy_candidates(edge_a: Edge, edge_b: Edge) -> list[tuple[int, int, int, int]]:
    a1, a2 = edge_a
    b1, b2 = edge_b
    return [(a1, b1, a2, b2), (a1, b2, a2, b1)]


# ---------------------------------------------------------------------------
# Drawability
# ---------------------------------------------------------------------------


def _decide_drawable(
    g: BipartiteGraph, limits: SearchLimits, deadline: float
) -> tuple[str, Drawing | None]:
    """Tri-state core: found / no / unknown, plus the verified witness."""
    edges = g.edges
    n = g.vertex_count
    xs = frozenset(range(g.x_count))
    pairs = _independent_pairs(edges)
    full_cap = len(edges) // 2 if pairs else 0
    cap = min(full_cap, limits.max_crossings, max(limits.max_rotation_nodes - n, 0))
    truncated = cap < full_cap

    for matching in _matchings(pairs, cap):
        if time.monotonic() > deadline:
            raise BudgetExceeded(
                f"time budget of {limits.time_budget}s exhausted while testing "
                f"{len(edges)}-edge graph"
            )
        c = len(matching)
        crossing_pairs = [(edges[i], edges[j]) for i, j in matching]
        crossed: dict[int, int] = {}
        for di, (i, j) in enumerate(matching):
            crossed[i] = n + di
            crossed[j] = n + di

        adj: dict[int, list[int]] = {v: [] for v in range(n + c)}
        for ei, (u, v) in enumerate(edges):
            if ei in crossed:
                dnode = crossed[ei]
                adj[u].append(dnode)
                adj[v].append(dnode)
                adj[dnode].append(u)
                adj[dnode].append(v)
            else:
                adj[u].append(v)
                adj[v].append(u)

        nodes = list(range(n + c))
        candidates: list[list[tuple[int, ...]]] = []
        for v in nodes:
            if v < n:
                candidates.append(_rotation_candidates(tuple(sorted(adj[v]))))
            else:
                ea, eb = crossing_pairs[v - n]
                candidates.append(_dummy_candidates(ea, eb))
        succ_options = [
            [(rot, {u: rot[(i + 1) % len(rot)] for i, u in enumerate(rot)}) for rot in cand]
            for cand in candidates
        ]

        dir_edges = [(v, u) for v in nodes for u in adj[v]]
        target_faces = 2 - (n + c) + len(dir_edges) // 2
        if target_faces < 1:
            continue

        tick = 0
        for assignment in product(*succ_options):
            tick += 1
            if tick % 4096 == 0 and time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"time budget of {limits.time_budget}s exhausted mid-enumeration"
                )
            succ = [choice[1] for choice in assignment]
            visited: set[tuple[int, int]] = set()
            faces: list[list[tuple[int, int]]] = []
            for e0 in dir_edges:
                if e0 in visited:
                    continue
                walk = []
                e = e0
                while e not in visited:
                    visited.add(e)
                    walk.append(e)
                    u, v = e
                    e = (v, succ[v][u])
                faces.append(walk)
            if len(faces) != target_faces:
                continue
            if not any(xs <= {u for u, _ in walk} for walk in faces):
                continue
            rotation = {v: assignment[v][0] for v in nodes}
            witness = build_drawing(g, crossing_pairs, rotation)
            if find_one_disk_face(witness) is not None:
                return _FOUND, witness
    return (_UNKNOWN, None) if truncated else (_NO, None)


def is_one_disk_drawable(
    g: BipartiteGraph, limits: SearchLimits | None = None
) -> Drawing | None:
    """Search for any 1-planar drawing of ``g`` with a face touching all X.

    Returns the first witness in the deterministic enumeration order
    (fewest crossings first, then lexicographic crossing sets and
    rotations), None if the exhaustive search proves none exists, and
    raises BudgetExceeded when limits cut the search short.
    """
    limits = limits or SearchLimits()
    if not _is_connected(g):
        raise ValueError("drawability search expects a connected graph")
    deadline = time.monotonic() + limits.time_budget
    status, witness = _decide_drawable(g, limits, deadline)
    if status == _FOUND:
        return witness
    if status == _NO:
        return None
    raise BudgetExceeded(
        f"crossing budget truncated the search for the {len(g.edges)}-edge graph"
    )


# ---------------------------------------------------------------------------
# Maximum edge count
# ---------------------------------------------------------------------------


def _canonical_edges(x: int, y: int, chosen: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """Least adjacency matrix over part-preserving relabelings."""
    matrix = [[0] * y for _ in range(x)]
    for u, v in chosen:
        matrix[u][v - x] = 1
    best: tuple[tuple[int, ...], ...] | None = None
    for rows in permutations(range(x)):
        for cols in permutations(range(y)):
            candidate = tuple(tuple(matrix[r][c] for c in cols) for r in rows)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise RuntimeError(f"no relabeling enumerated for parts ({x}, {y})")
    return tuple((i, x + j) for i in range(x) for j in range(y) if best[i][j])


def max_edges_one_disk(x: int, y: int, limits: SearchLimits | None = None) -> SearchOutcome:
    """Exact maximum edge count over graphs with parts (x, y) drawable with
    all of X on one face, found by descending exhaustive search.

    Candidate edge sets are enumerated up to part-preserving isomorphism
    and filtered to connected graphs.  The first level with a drawable
    candidate is the maximum; the proven ceiling caps the starting level
    and a witness above it would abort the run.  Raises BudgetExceeded
    when a level cannot be settled within limits.
    """
    limits = limits or SearchLimits()
    if x < 1 or y < 1:
        raise ValueError("part sizes must be positive")
    ceiling = one_disk_max_edges(x, y) if 2 <= x <= y else x * y
    start = min(x * y, ceiling)
    all_pairs = [(i, x + j) for i in range(x) for j in range(y)]
    deadline = time.monotonic() + limits.time_budget

    for m in range(start, 0, -1):
        seen: set[tuple[Edge, ...]] = set()
        unsettled = False
        for combo in combinations(all_pairs, m):
            if time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"time budget of {limits.time_budget}s exhausted at {m} edges"
                )
            canon = _canonical_edges(x, y, combo)
            if canon in seen:
                continue
            seen.add(canon)
            g = new_bipartite(x, y, canon)
            if not _is_connected(g):
                continue
            status, witness = _decide_drawable(g, limits, deadline)
            if status == _FOUND:
                if witness is None:
                    raise RuntimeError(f"drawable {m}-edge graph came without a witness")
                if m > ceiling:
                    raise RuntimeError(
                        f"witness with {m} edges exceeds the proven ceiling {ceiling}"
                    )
                return SearchOutcome(m, witness, exhausted=True)
            if status == _UNKNOWN:
                unsettled = True
        if unsettled:
            raise BudgetExceeded(
                f"limits truncated the search at the {m}-edge level"
            )
    return SearchOutcome(0, None, exhausted=True)
