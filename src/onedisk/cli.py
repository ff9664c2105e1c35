"""Command-line surface tying the toolkit together.

Subcommands map one-to-one onto library operations:

    construct --x N --y M [--strategy fan|zigzag|seed:S]
              --out-graph P --out-drawing P [--svg P]
    verify    --drawing P
    bounds    --x N --y M | --graph P [--drawing P]   (not both forms)
    double    --drawing P --out-graph P --out-drawing P
    search    --x N --y M [--budget SECONDS] [--out-witness P]

Every subcommand accepts --json for machine-readable output.  Exit
codes: 0 success, 1 verification or construction failure, 2 usage or
parse error (including an output file that cannot be written), 3 search
budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import documents
from .construct import construct_extremal, double, _parse_strategy
from .drawing import crossing_count, find_one_disk_face
from .graph import edge_count
from .search import BudgetExceeded, SearchLimits, max_edges_one_disk
from .svg import export_svg


def _strategy(text: str) -> str:
    _parse_strategy(text)
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


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


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
        "edges": edge_count(g),
        "crossings": crossing_count(d),
        "graph_path": str(args.out_graph),
        "drawing_path": str(args.out_drawing),
        "svg_path": str(args.svg) if args.svg else None,
    }
    _emit(args, payload, [
        f"constructed parts ({g.x_count}, {g.y_count}): "
        f"{edge_count(g)} edges, {crossing_count(d)} crossings",
        f"graph    -> {args.out_graph}",
        f"drawing  -> {args.out_drawing}",
    ] + ([f"figure   -> {args.svg}"] if args.svg else []))
    return 0


def _cmd_verify(args) -> int:
    try:
        d = documents.load_drawing(args.drawing)
    except documents.ValidationError as err:
        _emit(args, {"one_planar": False, "one_disk": False, "crossings": None,
                     "edges": None, "reason": str(err)},
              [f"invalid drawing: {err}"])
        return 1
    # load_drawing validated d through build_drawing: it is 1-planar.
    disk = find_one_disk_face(d)
    payload = {
        "one_planar": True,
        "one_disk": disk is not None,
        "crossings": crossing_count(d),
        "edges": edge_count(d.graph),
        "reason": None,
    }
    _emit(args, payload, [
        "1-planar:  yes",
        f"1-disk:    {'yes' if disk is not None else 'no'}",
        f"edges:     {edge_count(d.graph)}",
        f"crossings: {crossing_count(d)}",
    ])
    return 0


def _bounds_table(x: int, y: int) -> dict:
    return {
        name: _fraction_str(limit) if isinstance(limit, Fraction) else limit
        for name, limit in bounds_mod.ceilings(x, y).items()
    }


def _cmd_bounds(args) -> int:
    sizes = args.x is not None or args.y is not None
    if (args.graph and sizes) or (args.drawing and not args.graph):
        print("bounds: give --x and --y, or --graph [--drawing], not both", file=sys.stderr)
        return 2
    if args.graph:
        g = documents.load_graph(args.graph)
        d = documents.load_drawing(args.drawing) if args.drawing else None
        report = bounds_mod.check(g, d)
        payload = {
            "entries": [
                {
                    "name": e.name,
                    "applicable": e.applicable,
                    "limit": _fraction_str(e.limit) if e.limit is not None else None,
                    "actual": e.actual,
                    "tight": e.tight,
                    "violated": e.violated,
                }
                for e in report.entries
            ]
        }
        lines = [
            f"{e.name:>17}: limit {_fraction_str(e.limit) if e.limit is not None else 'n/a':>5}"
            f"  actual {e.actual:>3}"
            f"  {'applicable' if e.applicable else 'inapplicable'}"
            f"{'  TIGHT' if e.tight else ''}{'  VIOLATED' if e.violated else ''}"
            for e in report.entries
        ]
        _emit(args, payload, lines)
        return 1 if report.violations() else 0
    if args.x is None or args.y is None:
        print("bounds: provide --x and --y, or --graph", file=sys.stderr)
        return 2
    table = _bounds_table(args.x, args.y)
    payload = {"x": args.x, "y": args.y, "n": args.x + args.y, "bounds": table}
    lines = [f"{name:>17}: {value if value is not None else 'n/a'}"
             for name, value in table.items()]
    _emit(args, payload, lines)
    return 0


def _cmd_double(args) -> int:
    d = documents.load_drawing(args.drawing)
    result = double(d)
    documents.save_graph(result.graph_star, args.out_graph)
    documents.save_drawing(result.drawing_star, args.out_drawing)
    payload = {
        "vertices": result.graph_star.vertex_count,
        "edges": edge_count(result.graph_star),
        "crossings": crossing_count(result.drawing_star),
        "graph_path": str(args.out_graph),
        "drawing_path": str(args.out_drawing),
    }
    _emit(args, payload, [
        f"doubled: {result.graph_star.vertex_count} vertices, "
        f"{edge_count(result.graph_star)} edges, "
        f"{crossing_count(result.drawing_star)} crossings",
        f"graph    -> {args.out_graph}",
        f"drawing  -> {args.out_drawing}",
    ])
    return 0


def _cmd_search(args) -> int:
    limits = SearchLimits(time_budget=args.budget)
    outcome = max_edges_one_disk(args.x, args.y, limits)
    witness_path = None
    if outcome.witness is not None and args.out_witness:
        documents.save_drawing(outcome.witness, args.out_witness)
        witness_path = str(args.out_witness)
    payload = {
        "x": args.x,
        "y": args.y,
        "max_edges": outcome.max_edges,
        "candidates": "connected",
        "witness_path": witness_path,
        "witness_crossings": (
            crossing_count(outcome.witness) if outcome.witness is not None else None
        ),
    }
    lines = [
        f"maximum edges for parts ({args.x}, {args.y}): {outcome.max_edges}"
        " (exhaustive; connected candidates only)",
    ]
    if witness_path:
        lines.append(f"witness  -> {witness_path}")
    _emit(args, payload, lines)
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a drawing file")
    p.add_argument("--drawing", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print edge ceilings or a bounds report")
    p.add_argument("--x", type=_positive_int, default=None)
    p.add_argument("--y", type=_positive_int, default=None)
    p.add_argument("--graph", default=None)
    p.add_argument("--drawing", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("double", help="mirror-glue a drawing along its disk face")
    p.add_argument("--drawing", required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-drawing", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("search", help="exhaustive maximum edge count for tiny parts")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--y", type=_positive_int, required=True)
    p.add_argument("--budget", type=_positive_float, default=300.0)
    p.add_argument("--out-witness", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        return args.func(args)
    except (documents.ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
