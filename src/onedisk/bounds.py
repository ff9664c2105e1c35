"""Closed-form edge-count ceilings and a report comparing a graph to them.

Every function returns the maximum edge count the named result permits
and raises OutOfDomain outside its domain, a part size or order that is
not an int included.  One table, ``_CEILINGS``, lists them in report
order with the evidence each needs.  ``ceilings`` evaluates its rows;
``check`` evaluates a concrete graph, optionally with a verified drawing,
against all of them at once; a bound is marked applicable only when its
hypothesis is actually established by the supplied evidence (for example
the disk bound needs a drawing with a face incident to every X vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .drawing import Drawing, crossing_count, find_one_disk_face
from .graph import BipartiteGraph


class OutOfDomain(ValueError):
    """Arguments outside the stated domain of a bound."""


def _ints(*values: object) -> None:
    """Raise OutOfDomain unless every value is an int (a bool is not one here)."""
    if not {*map(type, values)} <= {int}:
        raise OutOfDomain(f"need ints, got {', '.join(map(repr, values))}")


def _parts(x: int, y: int) -> None:
    """Raise OutOfDomain unless x and y are ints with 2 <= x <= y."""
    _ints(x, y)
    if not 2 <= x <= y:
        raise OutOfDomain(f"need 2 <= x <= y, got x={x}, y={y}")


def _order(x: int, y: int) -> int:
    """The order x + y of int parts x and y."""
    _ints(x, y)
    return x + y


def one_disk_max_edges(x: int, y: int) -> int:
    """Most edges of a bipartite graph drawable with all of X on one face:
    3x + 2y - 6, for 2 <= x <= y."""
    _parts(x, y)
    return 3 * x + 2 * y - 6


def huang_max_edges(x: int, y: int) -> int:
    """Bipartite 1-planar ceiling 2(x + y) + 4x - 12, for 2 <= x <= y."""
    _parts(x, y)
    return 2 * (x + y) + 4 * x - 12


def karpov_max_edges(n: int) -> int:
    """Bipartite 1-planar ceiling by order: 3n - 8 for even n != 6, else 3n - 9."""
    _ints(n)
    if n < 4:
        raise OutOfDomain(f"need n >= 4, got {n}")
    if n % 2 == 0 and n != 6:
        return 3 * n - 8
    return 3 * n - 9


def czap_max_edges(x: int, y: int) -> int:
    """Bipartite 1-planar ceiling 2(x + y) + 6x - 16, for 2 <= x <= y."""
    _parts(x, y)
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
    _ints(n)
    if n < 3:
        raise OutOfDomain(f"need n >= 3, got {n}")
    a, b = _CLASSIC[kind]
    return a * n + b


def problem_target_edges(x: int, y: int) -> Fraction:
    """The conjectured disk-drawing target 2y + 5x/3 - 2, as an exact rational.

    Kept as a displayed reference value, not a proven ceiling: the
    extremal family built in this package exceeds it whenever x > 3.
    """
    _ints(x, y)
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


# One row per ceiling, in report order: its name, its limit as a function
# of the parts (x, y), and the evidence ``check`` needs before it marks the
# limit applicable.  A limit raises OutOfDomain outside its domain.
_CEILINGS = (
    ("one_disk", one_disk_max_edges, "disk_face"),
    ("huang", huang_max_edges, "drawing"),
    ("czap", czap_max_edges, "drawing"),
    ("karpov", lambda x, y: karpov_max_edges(_order(x, y)), "drawing"),
    ("planar", lambda x, y: classic_max_edges("planar", _order(x, y)), "no_crossing"),
    ("bipartite_planar",
     lambda x, y: classic_max_edges("bipartite_planar", _order(x, y)), "no_crossing"),
    ("one_planar", lambda x, y: classic_max_edges("one_planar", _order(x, y)), "drawing"),
    ("problem_target", problem_target_edges, "conjecture"),
)


def ceilings(x: int, y: int) -> dict[str, int | Fraction | None]:
    """Every ceiling for parts (x, y) and order x + y, None outside its domain.

    The names are in report order.  ``problem_target`` is the conjectured
    target, listed for comparison; it is not a proven ceiling.
    """
    table = {}
    for name, limit, _ in _CEILINGS:
        try:
            table[name] = limit(x, y)
        except OutOfDomain:
            table[name] = None
    return table


def check(g: BipartiteGraph, d: Drawing | None = None) -> BoundsReport:
    """Evaluate the graph against every ceiling whose hypothesis holds.

    A drawing contributes evidence if it belongs to ``g``; it was checked
    when it was made.  The disk bound additionally needs a face incident
    to all of X, and the planar ceilings need zero crossings.  The target
    value is always reported but never marked applicable, since it is not
    a proven bound.  An applicable-and-violated disk entry would mean a
    bug in this package, not a counterexample.
    """
    drawn = d is not None and d.graph == g
    evidence = {
        "drawing": drawn,
        "disk_face": drawn and find_one_disk_face(d) is not None,
        "no_crossing": drawn and crossing_count(d) == 0,
        "conjecture": False,
    }
    m = len(g.edges)
    limits = ceilings(g.x_count, g.y_count).values()
    entries = []
    for (name, _, needs), limit in zip(_CEILINGS, limits):
        ok = evidence[needs] and limit is not None
        entries.append(BoundEntry(name, ok, limit, m, ok and m == limit, ok and m > limit))
    return BoundsReport(tuple(entries))
