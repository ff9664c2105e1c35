"""Closed-form edge-count ceilings and a report comparing a graph to them.

Every function returns the maximum edge count the named result permits.
``check`` evaluates a concrete graph, optionally with a verified drawing,
against all of them at once; a bound is marked applicable only when its
hypothesis is actually established by the supplied evidence (for example
the disk bound needs a drawing with a face incident to every X vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .drawing import Drawing, crossing_count, find_one_disk_face, is_verified
from .graph import BipartiteGraph


class OutOfDomain(ValueError):
    """Arguments outside the stated domain of a bound."""


def one_disk_max_edges(x: int, y: int) -> int:
    """Most edges of a bipartite graph drawable with all of X on one face:
    3x + 2y - 6, for 2 <= x <= y."""
    if not 2 <= x <= y:
        raise OutOfDomain(f"need 2 <= x <= y, got x={x}, y={y}")
    return 3 * x + 2 * y - 6


def huang_max_edges(x: int, y: int) -> int:
    """Bipartite 1-planar ceiling 2(x + y) + 4x - 12, for 2 <= x <= y."""
    if not 2 <= x <= y:
        raise OutOfDomain(f"need 2 <= x <= y, got x={x}, y={y}")
    return 2 * (x + y) + 4 * x - 12


def karpov_max_edges(n: int) -> int:
    """Bipartite 1-planar ceiling by order: 3n - 8 for even n != 6, else 3n - 9."""
    if n < 4:
        raise OutOfDomain(f"need n >= 4, got {n}")
    if n % 2 == 0 and n != 6:
        return 3 * n - 8
    return 3 * n - 9


def czap_max_edges(x: int, y: int) -> int:
    """Bipartite 1-planar ceiling 2(x + y) + 6x - 16, for 2 <= x <= y."""
    if not 2 <= x <= y:
        raise OutOfDomain(f"need 2 <= x <= y, got x={x}, y={y}")
    return 2 * (x + y) + 6 * x - 16


_CLASSIC = {
    "planar": (3, -6),
    "bipartite_planar": (2, -4),
    "one_planar": (4, -8),
}


def classic_max_edges(kind: str, n: int) -> int:
    """Classic ceilings by order: planar 3n-6, bipartite planar 2n-4,
    1-planar 4n-8; all for n >= 3."""
    if kind not in _CLASSIC:
        raise OutOfDomain(f"unknown kind {kind!r}; expected one of {sorted(_CLASSIC)}")
    if n < 3:
        raise OutOfDomain(f"need n >= 3, got {n}")
    a, b = _CLASSIC[kind]
    return a * n + b


def problem_target_edges(x: int, y: int) -> Fraction:
    """The conjectured disk-drawing target 2y + 5x/3 - 2, as an exact rational.

    Kept as a displayed reference value, not a proven ceiling: the
    extremal family built in this package exceeds it whenever x > 3.
    """
    if x < 2:
        raise OutOfDomain(f"need x >= 2, got {x}")
    return 2 * y + Fraction(5 * x, 3) - 2


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    name: str
    applicable: bool
    limit: int | Fraction | None
    actual: int
    tight: bool
    violated: bool


@dataclass(frozen=True)
class BoundsReport:
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.violated)


def _entry(name: str, applicable: bool, limit, actual: int) -> BoundEntry:
    if not applicable:
        return BoundEntry(name, False, limit, actual, False, False)
    return BoundEntry(name, True, limit, actual, actual == limit, actual > limit)


def ceilings(x: int, y: int) -> dict[str, int | Fraction | None]:
    """Every ceiling for parts (x, y) and order x + y, None outside its domain.

    The names are in report order.  ``problem_target`` is the conjectured
    target, listed for comparison; it is not a proven ceiling.
    """
    parts_ok = 2 <= x <= y
    n = x + y
    return {
        "one_disk": one_disk_max_edges(x, y) if parts_ok else None,
        "huang": huang_max_edges(x, y) if parts_ok else None,
        "czap": czap_max_edges(x, y) if parts_ok else None,
        "karpov": karpov_max_edges(n) if n >= 4 else None,
        "planar": classic_max_edges("planar", n) if n >= 3 else None,
        "bipartite_planar": classic_max_edges("bipartite_planar", n) if n >= 3 else None,
        "one_planar": classic_max_edges("one_planar", n) if n >= 3 else None,
        "problem_target": problem_target_edges(x, y) if x >= 2 else None,
    }


def check(g: BipartiteGraph, d: Drawing | None = None) -> BoundsReport:
    """Evaluate the graph against every ceiling whose hypothesis holds.

    A drawing contributes evidence only if it belongs to ``g`` and counts
    as verified by :func:`~onedisk.drawing.is_verified`: a drawing from
    ``build_drawing`` (so also one from ``load_drawing``, ``construct`` or
    ``double``) was checked when it was built and is trusted, and any other
    Drawing is re-checked from its raw fields.  The disk bound
    additionally needs a face incident to all of X, and the planar
    ceilings need zero crossings.  The target value is always reported
    but never marked applicable, since it is not a proven bound.  An
    applicable-and-violated disk entry would mean a bug in this package,
    not a counterexample.
    """
    m = len(g.edges)
    verified = d is not None and d.graph == g and is_verified(d)
    one_disk_ok = verified and find_one_disk_face(d) is not None
    planar_ok = verified and crossing_count(d) == 0
    evidence = {
        "one_disk": one_disk_ok,
        "huang": verified,
        "czap": verified,
        "karpov": verified,
        "planar": planar_ok,
        "bipartite_planar": planar_ok,
        "one_planar": verified,
        "problem_target": False,
    }
    table = ceilings(g.x_count, g.y_count)
    return BoundsReport(tuple(
        _entry(name, evidence[name] and limit is not None, limit, m)
        for name, limit in table.items()
    ))
