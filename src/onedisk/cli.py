"""Command-line surface tying the toolkit together.

Subcommands map one-to-one onto library operations:

    construct --x N --y M [--strategy fan|zigzag|seed:S]
              --out-graph P --out-drawing P [--svg P]
    verify    --drawing P
    bounds    --x N --y M | --graph P [--drawing P]   (not both forms)
    double    --drawing P --out-graph P --out-drawing P
    search    --x N --y M [--budget SECONDS] [--out-witness P]

Every subcommand accepts --json for machine-readable output; ``_emit``
prints every result, as JSON or as text lines followed by one line per
file written.  Exit codes: 0 success, 1 verification or construction
failure, 2 usage or parse error (including an output file that cannot be
written), 3 search budget exceeded.  ``_EXIT_CODES`` is the one place
that decides the code of an error a subcommand raises.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import bounds as bounds_mod
from . import documents
from .construct import construct_extremal, double, _chords
from .drawing import crossing_count, find_one_disk_face
from .graph import edge_count
from .search import BudgetExceeded, SearchLimits, max_edges_one_disk
from .svg import export_svg


def _strategy(text: str) -> str:
    try:
        _chords(3, text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected fan, zigzag or seed:<int>, got {text!r}") from None
    return text


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


# The label of the text line naming each file a payload says was written.
_WRITTEN = {"graph_path": "graph", "drawing_path": "drawing",
            "svg_path": "figure", "witness_path": "witness"}


def _emit(args, payload: dict, lines: list[str]) -> None:
    """Print the payload as JSON with --json; else the text lines, then one
    line per file written."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return
    written = [f"{label:<8} -> {payload[key]}" for key, label in _WRITTEN.items()
               if payload.get(key)]
    print("\n".join(lines + written))


def _counts(d) -> dict:
    """The edge and crossing counts of a drawing, as payload fields."""
    return {"edges": edge_count(d.graph), "crossings": crossing_count(d)}


def _fraction_str(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value)) if value is not None else "n/a"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    g, d = construct_extremal(args.x, args.y, args.strategy)
    documents.save_graph(g, args.out_graph)
    documents.save_drawing(d, args.out_drawing)
    if args.svg:
        export_svg(d, args.svg)
    payload = {
        "x": g.x_count,
        "y": g.y_count,
        **_counts(d),
        "graph_path": args.out_graph,
        "drawing_path": args.out_drawing,
        "svg_path": args.svg or None,
    }
    _emit(args, payload, [
        f"constructed parts ({g.x_count}, {g.y_count}): "
        f"{payload['edges']} edges, {payload['crossings']} crossings",
    ])
    return 0


def _cmd_verify(args) -> int:
    try:
        d = documents.load_drawing(args.drawing)
    except documents.ValidationError as err:
        _emit(args, {"one_planar": False, "one_disk": False, "crossings": None,
                     "edges": None, "reason": str(err)}, [f"invalid drawing: {err}"])
        return 1
    # load_drawing validated d through build_drawing: it is 1-planar.
    payload = {
        "one_planar": True,
        "one_disk": find_one_disk_face(d) is not None,
        **_counts(d),
        "reason": None,
    }
    _emit(args, payload, [
        "1-planar:  yes",
        f"1-disk:    {'yes' if payload['one_disk'] else 'no'}",
        f"edges:     {payload['edges']}",
        f"crossings: {payload['crossings']}",
    ])
    return 0


def _cmd_bounds(args) -> int:
    sizes = args.x is not None or args.y is not None
    if (args.graph and sizes) or (args.drawing and not args.graph):
        print("bounds: give --x and --y, or --graph [--drawing], not both", file=sys.stderr)
        return 2
    if args.graph:
        g = documents.load_graph(args.graph)
        d = documents.load_drawing(args.drawing) if args.drawing else None
        report = bounds_mod.check(g, d)
        entries = [
            {**asdict(e), "limit": None if e.limit is None else _fraction_str(e.limit)}
            for e in report.entries
        ]
        _emit(args, {"entries": entries}, [
            f"{e['name']:>17}: limit {e['limit'] or 'n/a':>5}  actual {e['actual']:>3}"
            f"  {'applicable' if e['applicable'] else 'inapplicable'}"
            f"{'  TIGHT' if e['tight'] else ''}{'  VIOLATED' if e['violated'] else ''}"
            for e in entries
        ])
        return 1 if report.violations() else 0
    if args.x is None or args.y is None:
        print("bounds: provide --x and --y, or --graph", file=sys.stderr)
        return 2
    ceilings = bounds_mod.ceilings(args.x, args.y)
    table = {name: _fraction_str(limit) if isinstance(limit, Fraction) else limit
             for name, limit in ceilings.items()}
    _emit(args, {"x": args.x, "y": args.y, "n": args.x + args.y, "bounds": table},
          [f"{name:>17}: {_fraction_str(limit)}" for name, limit in ceilings.items()])
    return 0


def _cmd_double(args) -> int:
    result = double(documents.load_drawing(args.drawing))
    documents.save_graph(result.graph_star, args.out_graph)
    documents.save_drawing(result.drawing_star, args.out_drawing)
    payload = {
        "vertices": result.graph_star.vertex_count,
        **_counts(result.drawing_star),
        "graph_path": args.out_graph,
        "drawing_path": args.out_drawing,
    }
    _emit(args, payload, [
        f"doubled: {payload['vertices']} vertices, "
        f"{payload['edges']} edges, {payload['crossings']} crossings",
    ])
    return 0


def _cmd_search(args) -> int:
    outcome = max_edges_one_disk(args.x, args.y, SearchLimits(time_budget=args.budget))
    witness = outcome.witness
    witness_path = args.out_witness if witness is not None else None
    if witness_path:
        documents.save_drawing(witness, witness_path)
    payload = {
        "x": args.x,
        "y": args.y,
        "max_edges": outcome.max_edges,
        "candidates": "connected",
        "witness_path": witness_path or None,
        "witness_crossings": crossing_count(witness) if witness is not None else None,
    }
    _emit(args, payload, [
        f"maximum edges for parts ({args.x}, {args.y}): {outcome.max_edges}"
        " (exhaustive; connected candidates only)",
    ])
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves the parser unchanged, so one instance serves every
    ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="onedisk",
        description="construct, verify, bound, and search 1-planar disk drawings "
        "of bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an extremal graph and drawing")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--strategy", type=_strategy, default="fan",
                   help="fan, zigzag, or seed:<int>")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-drawing", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a drawing file")
    p.add_argument("--drawing", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print edge ceilings or a bounds report")
    p.add_argument("--x", type=_positive_int, default=None)
    p.add_argument("--y", type=_positive_int, default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--drawing", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("double", help="mirror-glue a drawing along its disk face")
    p.add_argument("--drawing", required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-drawing", required=True)
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("search", help="exhaustive maximum edge count for tiny parts")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--y", type=_positive_int, required=True)
    p.add_argument("--budget", type=_positive_float, default=300.0)
    p.add_argument("--out-witness", default=None)
    p.set_defaults(func=_cmd_search)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


# The exit code of each error a subcommand may raise; the first match wins,
# and a ParseError is a ValueError.
_EXIT_CODES = ((documents.ParseError, 2), (OSError, 2), (BudgetExceeded, 3),
               (ValueError, 1))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
