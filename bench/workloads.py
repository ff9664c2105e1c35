"""The benchmark's workloads: inputs made from a seed, timed calls, checks.

A workload hands out passes.  ``prepare(p)`` makes the inputs of pass p
(untimed) and returns its operations in a fixed order; every pass has the
same operations on fresh inputs, so that no operation sees an input it
has already seen in the process.  Each operation is a call into onedisk's
public functions, timed by the runner, and a check that compares the
result with the independent checker or with a property the method must
have.  A check returns the list of problems it found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checker

import onedisk.bounds as od_bounds
import onedisk.cli as od_cli
import onedisk.construct as od_construct
import onedisk.documents as od_documents
import onedisk.drawing as od_drawing
import onedisk.graph as od_graph
import onedisk.search as od_search
import onedisk.svg as od_svg


@dataclass
class Op:
    """One timed call; ``check(result, error)`` returns problems, empty if right."""

    kind: str
    size: int
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], list]
    group: tuple = ()


# ---------------------------------------------------------------------------
# Documents made by the benchmark itself
# ---------------------------------------------------------------------------


def drawing_document(d) -> dict:
    """A drawing document built from a Drawing's fields, without onedisk's writer."""
    edges = sorted(d.graph.edges)
    index = {e: i for i, e in enumerate(edges)}
    return {
        "schema": checker.DRAWING_SCHEMA,
        "graph": {"schema": checker.GRAPH_SCHEMA, "x_count": d.graph.x_count,
                  "y_count": d.graph.y_count, "edges": [list(e) for e in edges]},
        "crossings": [[index[c.edge_a], index[c.edge_b]] for c in d.crossings],
        "rotation": {str(v): list(r) for v, r in d.rotation.items()},
        "one_disk_face": None,
    }


def relabel(doc: dict, rng: random.Random) -> dict:
    """Apply a random part-preserving relabelling and a random crossing order.

    The relabelled document is valid exactly when the original is; its
    ``one_disk_face`` index is recomputed with the checker's face tracer,
    since face order follows node ids.  The full check of the document
    runs later, in the operation's untimed check.
    """
    g = doc["graph"]
    x, y = g["x_count"], g["y_count"]
    n = x + y
    old_edges = [tuple(e) for e in g["edges"]]
    xs, ys = list(range(x)), list(range(x, n))
    rng.shuffle(xs)
    rng.shuffle(ys)
    order = list(range(len(doc["crossings"])))
    rng.shuffle(order)
    node = {v: xs[v] for v in range(x)}
    node.update({v: ys[v - x] for v in range(x, n)})
    for new_i, old_i in enumerate(order):
        node[n + old_i] = n + new_i

    def edge(e):
        return tuple(sorted((node[e[0]], node[e[1]])))

    edges = sorted(edge(e) for e in old_edges)
    index = {e: i for i, e in enumerate(edges)}
    crossings = []
    for old_i in order:
        a, b = doc["crossings"][old_i]
        crossings.append([index[edge(old_edges[a])], index[edge(old_edges[b])]])
    rotation = {}
    for v, nbrs in doc["rotation"].items():
        r = [node[u] for u in nbrs]
        k = r.index(min(r))
        rotation[node[int(v)]] = r[k:] + r[:k]
    out = {
        "schema": doc["schema"],
        "graph": {"schema": g["schema"], "x_count": x, "y_count": y,
                  "edges": [list(e) for e in edges]},
        "crossings": crossings,
        "rotation": {str(v): rotation[v] for v in sorted(rotation)},
        "one_disk_face": None,
    }
    if doc.get("one_disk_face") is not None:
        out["one_disk_face"] = checker.all_x_faces(checker.trace(rotation), x)[0]
    return out


# The five corruption kinds; each names the DrawingError subclass (or
# ParseError) that loading the corrupted text must raise.
CORRUPTIONS = ("IncompleteRotation", "AdjacentEdgesCross", "NonAlternatingDummy",
               "EdgeCrossedTwice", "ParseError")


def corrupt(doc: dict, kind: str, rng: random.Random) -> str:
    """Document text with a defect of the given kind.

    The defect is placed so that onedisk's loader meets it before any
    other: the added crossings come last, and the rotation defects leave
    the crossing list intact.  ``doc`` itself is left unchanged: a changed
    field gets a new value in a shallow copy.
    """
    doc = dict(doc)
    edges = [tuple(e) for e in doc["graph"]["edges"]]
    n = doc["graph"]["x_count"] + doc["graph"]["y_count"]
    if kind == "IncompleteRotation":
        key = rng.choice([k for k, r in doc["rotation"].items() if len(r) >= 2])
        order = doc["rotation"][key]
        i = rng.randrange(len(order))
        doc["rotation"] = {**doc["rotation"], key: order[:i] + order[i + 1:]}
    elif kind == "AdjacentEdgesCross":
        at: dict[int, list[int]] = {}
        for k, e in enumerate(edges):
            for v in e:
                at.setdefault(v, []).append(k)
        i, j = rng.sample(at[rng.choice([v for v in sorted(at) if len(at[v]) >= 2])], 2)
        doc["crossings"] = doc["crossings"] + [[i, j]]
    elif kind == "NonAlternatingDummy":
        c = rng.randrange(len(doc["crossings"]))
        a = edges[doc["crossings"][c][0]]
        order = doc["rotation"][str(n + c)]
        doc["rotation"] = {**doc["rotation"],
                           str(n + c): [u for u in order if u in a] + [u for u in order if u not in a]}
    elif kind == "EdgeCrossedTwice":
        i = rng.choice(doc["crossings"])[0]
        j = rng.choice([k for k, e in enumerate(edges) if not set(e) & set(edges[i])])
        doc["crossings"] = doc["crossings"] + [[i, j]]
    elif kind == "ParseError":
        text = json.dumps(doc, sort_keys=True)
        return text[: len(text) // 2]
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")
    return json.dumps(doc, sort_keys=True)


def bounds_problems(entries, x: int, y: int, edges: int, crossings: int,
                    one_disk: bool) -> list:
    """Compare a bounds report (as name -> fields) with the published formulas."""
    limits = checker.ceilings(x, y)
    n = x + y
    applicable = {
        "one_disk": one_disk and 2 <= x <= y,
        "huang": 2 <= x <= y,
        "czap": 2 <= x <= y,
        "karpov": n >= 4,
        "planar": crossings == 0 and n >= 3,
        "bipartite_planar": crossings == 0 and n >= 3,
        "one_planar": n >= 3,
        "problem_target": False,
    }
    problems = []
    if sorted(entries) != sorted(applicable):
        return [f"bounds entries {sorted(entries)}"]
    for name, fields in entries.items():
        limit = fields["limit"]
        if name != "problem_target" and limit != limits[name]:
            problems.append(f"bounds {name} limit {limit} != {limits[name]}")
        if fields["applicable"] != applicable[name] or fields["actual"] != edges:
            problems.append(f"bounds {name} applicable/actual {fields}")
        if fields["applicable"] and fields["tight"] != (edges == limit):
            problems.append(f"bounds {name} tight flag {fields}")
        if fields["violated"]:
            problems.append(f"bounds {name} violated")
    return problems


# ---------------------------------------------------------------------------
# pipeline: the CLI, construct -> verify -> double -> verify -> bounds
# ---------------------------------------------------------------------------


class Pipeline:
    """The main user path, run in-process through ``onedisk.cli.main``.

    Each pass runs the five subcommands for every rung x of the ladder and
    every strategy kind, with y = 3(x-2) + t, so every pass does the same
    mix of work.  The offset t is drawn per (rung, strategy) from a seeded
    permutation, so no pass repeats an input, and ``seed:<k>`` takes a
    fresh k from the workload seed in every pass.
    """

    LADDER = (25, 50, 100, 150)
    STRATEGIES = ("fan", "zigzag", "seed")
    max_passes = 8
    fresh_process = False

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"pipeline:{seed}")
        self.workdir = workdir
        self.offsets = {(x, s): rng.sample(range(self.max_passes), self.max_passes)
                        for x in self.LADDER for s in self.STRATEGIES}
        self.seed_k = [rng.randrange(1, 10**6) for _ in range(self.max_passes)]

    def prepare(self, p: int) -> list:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        ops = []
        for x in self.LADDER:
            for s in self.STRATEGIES:
                strategy = f"seed:{self.seed_k[p] + x}" if s == "seed" else s
                ops += self._chain(x, 3 * (x - 2) + self.offsets[(x, s)][p], strategy)
        return ops

    def _chain(self, x: int, y: int, strategy: str) -> list:
        stem = self.workdir / f"x{x}-y{y}-{strategy.replace(':', '')}"
        g1, d1 = f"{stem}.graph.json", f"{stem}.drawing.json"
        g2, d2 = f"{stem}.double.graph.json", f"{stem}.double.drawing.json"
        m = checker.disk_bound(x, y)
        state: dict = {}

        def run(argv):
            def call():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = od_cli.main(argv + ["--json"])
                return code, out.getvalue()
            return call

        def payload(result, error):
            if error is not None:
                raise AssertionError(f"raised {type(error).__name__}: {error}")
            code, text = result
            if code != 0:
                raise AssertionError(f"exit code {code}")
            return json.loads(text)

        def files(gpath, dpath, edges, vertices):
            gdoc = json.loads(Path(gpath).read_text())
            ddoc = json.loads(Path(dpath).read_text())
            rep = checker.check_drawing(ddoc, expect_edges=edges, expect_vertices=vertices)
            problems = [f"checker: {p}" for p in rep.problems]
            problems += [f"graph file: {p}" for p in checker.check_graph(gdoc).problems]
            if not problems and checker.graph_edges(gdoc) != checker.graph_edges(ddoc["graph"]):
                problems.append("graph file and drawing disagree on edges")
            return rep, problems, ddoc

        def check_construct(result, error):
            out = payload(result, error)
            rep, problems, ddoc = files(g1, d1, m, x + y)
            if not rep.one_disk or ddoc["one_disk_face"] is None:
                problems.append("constructed drawing has no recorded all-X face")
            if out["edges"] != m or out["crossings"] != rep.crossings:
                problems.append(f"construct payload {out}")
            state["rep"] = rep
            return problems

        def check_verify(result, error):
            out = payload(result, error)
            rep = state["rep"]
            want = {"one_planar": True, "one_disk": True, "reason": None,
                    "edges": m, "crossings": rep.crossings}
            return [] if all(out[k] == v for k, v in want.items()) else [f"verify payload {out}"]

        def check_double(result, error):
            out = payload(result, error)
            rep, problems, _ = files(g2, d2, 2 * m, x + 2 * y)
            if rep.crossings != 2 * state["rep"].crossings:
                problems.append("doubled crossing count")
            if (out["vertices"], out["edges"], out["crossings"]) != (x + 2 * y, 2 * m, rep.crossings):
                problems.append(f"double payload {out}")
            state["rep2"] = rep
            return problems

        def check_verify2(result, error):
            out = payload(result, error)
            rep = state["rep2"]
            want = {"one_planar": True, "one_disk": rep.one_disk, "reason": None,
                    "edges": 2 * m, "crossings": rep.crossings}
            return [] if all(out[k] == v for k, v in want.items()) else [f"verify payload {out}"]

        def check_bounds(result, error):
            out = payload(result, error)
            rep = state["rep2"]
            entries = {e["name"]: e for e in out["entries"]}
            for e in entries.values():
                if e["limit"] is not None and e["name"] != "problem_target":
                    e["limit"] = int(e["limit"])
            state.clear()
            return bounds_problems(entries, x, 2 * y, 2 * m, rep.crossings, rep.one_disk)

        group = (x,)
        return [
            Op("construct", m, run(["construct", "--x", str(x), "--y", str(y), "--strategy",
                                    strategy, "--out-graph", g1, "--out-drawing", d1]),
               check_construct, group),
            Op("verify", m, run(["verify", "--drawing", d1]), check_verify, group),
            Op("double", m, run(["double", "--drawing", d1, "--out-graph", g2,
                                 "--out-drawing", d2]), check_double, group),
            Op("verify2", 2 * m, run(["verify", "--drawing", d2]), check_verify2, group),
            Op("bounds", 2 * m, run(["bounds", "--graph", g2, "--drawing", d2]),
               check_bounds, group),
        ]


# ---------------------------------------------------------------------------
# corpus: load and verify valid documents, reject corrupted ones
# ---------------------------------------------------------------------------


class Corpus:
    """The read-and-reject path on a few hundred small documents per pass.

    Valid documents: extremal drawings for every size in SIZES and every
    strategy kind, with a seeded offset t, plus their doubles, each given a
    seeded part-preserving relabelling.  Every valid document also yields
    one corrupted copy of each kind in CORRUPTIONS, which follow it in the
    pass: the median operation is a corrupted load, and interleaved with
    the valid ones these are timed over the whole pass, as ``run_s`` is,
    rather than over its last fraction.  Construction and document
    writing happen here, in set-up, never in a timed call.
    """

    SIZES = (3, 4, 6, 8, 12, 16, 24, 32, 40)
    STRATEGIES = ("fan", "zigzag", "seed")
    SVG_MAX_X = 12
    max_passes = 64
    fresh_process = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seen: set[bytes] = set()

    def _fresh(self, doc: dict, rng: random.Random) -> tuple[dict, str]:
        while True:
            out = relabel(doc, rng)
            text = json.dumps(out, sort_keys=True)
            digest = hashlib.blake2b(text.encode()).digest()
            if digest not in self.seen:
                self.seen.add(digest)
                return out, text

    def prepare(self, p: int) -> list:
        rng = random.Random(f"corpus:{self.seed}:{p}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        ops = []
        for x in self.SIZES:
            for s in self.STRATEGIES:
                t = rng.randrange(4)
                strategy = f"seed:{rng.randrange(1, 10**6)}" if s == "seed" else s
                y = 3 * (x - 2) + t
                _, d = od_construct.construct_extremal(x, y, strategy)
                docs = (od_documents.drawing_to_document(d),
                        od_documents.drawing_to_document(od_construct.double(d).drawing_star))
                for doubled, raw in enumerate(docs):
                    doc, text = self._fresh(raw, rng)
                    stem = self.workdir / f"{len(ops):03d}-x{x}-{s}{'-double' if doubled else ''}"
                    path = Path(f"{stem}.json")
                    path.write_text(text + "\n")
                    svg_path = f"{stem}.svg" if not doubled and x <= self.SVG_MAX_X else None
                    counts = (2 * checker.disk_bound(x, y), x + 2 * y) if doubled else \
                        (checker.disk_bound(x, y), x + y)
                    ops.append(self._valid_op(path, doc, svg_path, counts))
                    for kind in CORRUPTIONS:
                        bad = Path(f"{stem}.{kind}.json")
                        bad.write_text(corrupt(doc, kind, rng))
                        ops.append(self._corrupt_op(bad, kind, doc))
        return ops

    @staticmethod
    def _valid_op(path: Path, doc: dict, svg_path: str | None, counts: tuple) -> Op:
        """Load, verify, find the disk face, bound and draw one valid document.

        ``counts`` is the (edges, vertices) the construction promises:
        3x+2y-6 on x+y vertices, or twice that on x+2y after doubling.
        """
        g = doc["graph"]
        x, y, m = g["x_count"], g["y_count"], len(g["edges"])

        def call():
            d = od_documents.load_drawing(path)
            reason = od_drawing.verification_failure(d)
            face = od_drawing.find_one_disk_face(d)
            report = od_bounds.check(d.graph, d)
            if svg_path is not None:
                od_svg.export_svg(d, svg_path)
            return d, reason, face, report

        def check(result, error):
            if error is not None:
                return [f"raised {type(error).__name__}: {error}"]
            d, reason, face, report = result
            rep = checker.check_drawing(doc, expect_edges=counts[0], expect_vertices=counts[1])
            problems = [f"checker: {p}" for p in rep.problems]
            if (d.graph.x_count, d.graph.y_count) != (x, y) or \
                    sorted(d.graph.edges) != checker.graph_edges(g):
                problems.append("loaded graph differs from the document")
            if reason is not None:
                problems.append(f"verification_failure: {reason}")
            if (face is None) == rep.one_disk:
                problems.append("find_one_disk_face disagrees with the checker")
            elif face is not None and not checker.is_face(rep, face.steps):
                problems.append("find_one_disk_face returned a walk that is not a face")
            entries = {e.name: {"limit": e.limit, "applicable": e.applicable, "actual": e.actual,
                                "tight": e.tight, "violated": e.violated}
                       for e in report.entries}
            problems += bounds_problems(entries, x, y, m, rep.crossings, rep.one_disk)
            if svg_path is not None:
                problems += checker.check_svg(Path(svg_path).read_text(), m, x)
            return problems

        return Op("valid", m, call, check)

    @staticmethod
    def _corrupt_op(path: Path, kind: str, doc: dict) -> Op:
        def call():
            return od_documents.load_drawing(path)

        def check(result, error):
            if kind == "ParseError":
                ok = isinstance(error, od_documents.ParseError)
            else:
                ok = (isinstance(error, od_documents.ValidationError)
                      and isinstance(error.__cause__, getattr(od_drawing, kind)))
            if ok:
                return []
            got = "no error" if error is None else f"{type(error).__name__}: {error}"
            return [f"{path.name}: expected {kind}, got {got}"]

        return Op(f"reject-{kind}", len(doc["graph"]["edges"]), call, check)


# ---------------------------------------------------------------------------
# search: the exhaustive oracle
# ---------------------------------------------------------------------------


def _connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


class Search:
    """The exhaustive oracle on the part sizes where the bound is attained.

    ``max_edges_one_disk`` settles every size in MAXIMA.  ``is_one_disk_drawable``
    then runs on SAMPLE_EACH seeded connected spanning subgraphs per level
    in LEVELS, each with a seeded part-preserving relabelling.  Every
    sampled graph lies below the maximum and inside a maximal drawable
    class (any graph on these parts with that few edges does), so each
    must be drawable.

    The oracle takes only part sizes, so a second pass in one process would
    repeat inputs: every pass runs in a fresh process (``fresh_process``).
    (3, 4) is left out of MAXIMA: its one call takes 19-42 s on a 2-vCPU VM,
    so a 30-second run could hold one unrepeated sample of it, and ten such
    runs spread by 29% between their quartiles.
    """

    MAXIMA = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3))
    # (x, y, edges) levels with at least twice SAMPLE_EACH distinct graphs.
    # (3, 4, 10) is left out: some of its graphs take 2-8 s each and others
    # milliseconds, so the pass time would follow the sample drawn.
    LEVELS = ((2, 4, 5), (2, 4, 6), (2, 5, 6), (2, 5, 7), (2, 5, 8),
              (2, 6, 7), (2, 6, 8), (2, 6, 9), (2, 6, 10),
              (3, 3, 5), (3, 3, 6), (3, 3, 7),
              (3, 4, 6), (3, 4, 7), (3, 4, 8), (3, 4, 9))
    SAMPLE_EACH = 12
    max_passes = 64
    fresh_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        # Far above any operation's running time: the budget is never reached.
        self.limits = od_search.SearchLimits(time_budget=3600.0)

    def prepare(self, p: int) -> list:
        rng = random.Random(f"search:{self.seed}:{p}")
        ops = [self._max_op(x, y) for x, y in self.MAXIMA]
        for x, y, m in self.LEVELS:
            full = [(i, x + j) for i in range(x) for j in range(y)]
            seen: set[tuple] = set()
            while len(seen) < self.SAMPLE_EACH:
                edges = rng.sample(full, m)
                if not _connected(x + y, edges):
                    continue
                xs, ys = list(range(x)), list(range(x, x + y))
                rng.shuffle(xs)
                rng.shuffle(ys)
                edges = tuple(sorted((xs[u], ys[v - x]) for u, v in edges))
                if edges in seen:
                    continue
                seen.add(edges)
                ops.append(self._sample_op(od_graph.new_bipartite(x, y, edges)))
        return ops

    def _witness_problems(self, w, x: int, y: int, edges: int) -> list:
        rep = checker.check_drawing(drawing_document(w), expect_edges=edges,
                                    expect_vertices=x + y)
        problems = [f"witness checker: {p}" for p in rep.problems]
        if rep.ok and not rep.one_disk:
            problems.append("witness has no face touching every X vertex")
        return problems

    def _max_op(self, x: int, y: int) -> Op:
        bound = checker.disk_bound(x, y)

        def call():
            return od_search.max_edges_one_disk(x, y, self.limits)

        def check(outcome, error):
            if error is not None:
                return [f"raised {type(error).__name__}: {error}"]
            if outcome.max_edges != bound or not outcome.exhausted or outcome.witness is None:
                return [f"max_edges_one_disk({x}, {y}) = {outcome.max_edges}, expected {bound}"]
            return self._witness_problems(outcome.witness, x, y, bound)

        return Op("max_edges", bound, call, check)

    def _sample_op(self, g) -> Op:
        def call():
            return od_search.is_one_disk_drawable(g, self.limits)

        def check(witness, error):
            if error is not None:
                return [f"raised {type(error).__name__}: {error}"]
            if witness is None:
                return [f"no witness for drawable graph {g.edges}"]
            if witness.graph.edges != g.edges:
                return ["witness draws another graph"]
            return self._witness_problems(witness, g.x_count, g.y_count, len(g.edges))

        return Op("drawable", len(g.edges), call, check)


WORKLOADS = {"pipeline": Pipeline, "corpus": Corpus, "search": Search}
