"""onedisk benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pipeline|corpus|search --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; onedisk is imported from its
``src`` directory.  A run makes whole passes over the workload's
operations until another pass would overrun ``--seconds`` (at least one
pass), checks every output, and prints reference figures followed by one
JSON object as the last line of standard output.  Passes run one after
another on one thread; a workload whose inputs cannot be renewed within
a process (``fresh_process``) runs each pass in a new child process.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median over SETUP_PROBES fresh processes, run between the passes, of the
time from process start to the first timed call), ``run_s`` (the time of
one pass: the median latency of each timed call over the passes,
summed), ``op_p50_ms`` (the median of those per-call medians) and
``peak_rss_mb`` (peak resident memory of the processes that ran passes).
With ``--trace 1`` the run first makes an untraced run of the same
workload and seed in a child process, then traces its own passes and
prints the per-layer metrics of spans.LAYERS per pass, the search
counters, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is timed in this many fresh processes per run.
SETUP_PROBES = 11


def _import_onedisk() -> None:
    """Import onedisk from this checkout's src, or exit with status 1 and no result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import onedisk
    except ImportError as err:
        sys.exit(f"bench: cannot import onedisk from {src}: {err}")
    if not Path(onedisk.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: imported onedisk from {onedisk.__file__}, not from {src}")


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pipeline", "corpus", "search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: stop at the first timed call and print the clock")
    p.add_argument("--child-pass", type=int, default=None,
                   help="internal: run this one pass and print it as JSON")
    return p.parse_args(argv)


def _percentile(sorted_values, p: float) -> float:
    k = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((a - mx) ** 2 for a in xs)
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / den


def _command(args, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _timeout(args) -> float:
    """Seconds a child run, child pass or set-up probe may take."""
    return 2 * args.seconds + 120


def _last_json(cmd: list[str], timeout: float) -> dict:
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"bench: {' '.join(cmd[1:])} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, args, tracer=None):
        from workloads import WORKLOADS

        self.args = args
        self.tracer = tracer
        self.workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.workload = WORKLOADS[args.workload](args.seed, self.workdir)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.passes: list[dict] = []

    def run_pass(self, p: int, ops) -> None:
        clock = time.perf_counter
        tracer = self.tracer
        first_span = len(tracer.names) if tracer else 0
        latencies, records = [], []
        for op in ops:
            error = result = None
            if tracer:
                tracer.enabled = True
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # judged by the operation's check
                error = exc
            t1 = clock()
            if tracer:
                tracer.enabled = False
            try:
                problems = op.check(result, error)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.attempted += 1
            if problems:
                self.failed += 1
                if error is None:
                    self.correct = False
                print(f"pass {p} {op.kind} (size {op.size}): {'; '.join(problems)}",
                      file=sys.stderr)
            latencies.append(t1 - t0)
            records.append((op.group, op.size, t1 - t0))
        entry = {"run_s": math.fsum(latencies),
                 "latencies": latencies, "records": records}
        if tracer:
            layers = tracer.layer_totals(first_span)
            layers["trace.unaccounted_s"] = entry["run_s"] - layers["trace.top_self_s"]
            entry["layers"] = layers
        self.passes.append(entry)

    def child_pass(self, p: int) -> None:
        """Run pass p in a fresh process and take over its counts, timings and spans."""
        out = _last_json(_command(self.args, "--trace", str(self.args.trace),
                                  "--child-pass", str(p)), timeout=_timeout(self.args))
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.correct = self.correct and out["correct"]
        self.passes.append(out["pass"])
        if self.tracer:
            self.tracer.extend(out["spans"])

    def child_report(self) -> dict:
        report = {"attempted": self.attempted, "failed": self.failed, "correct": self.correct,
                  "pass": self.passes[0]}
        if self.tracer:
            t = self.tracer
            report["spans"] = [t.names, t.start, t.end, t.parent]
        return report

    def execute(self, setup: list | None = None) -> None:
        """Whole passes until another would overrun --seconds; at least one.

        With ``setup`` given, SETUP_PROBES set-up times are appended to it,
        measured between the passes in proportion to the pass time so far,
        so that set-up is timed over the same stretch as the passes.  Probe
        time does not count towards --seconds.
        """
        busy = 0.0
        walls: list[float] = []
        for p in range(self.workload.max_passes):
            if p and busy + statistics.median(walls) > self.args.seconds:
                break
            t = time.monotonic()
            if self.workload.fresh_process:
                self.child_pass(p)
            else:
                self.run_pass(p, self.workload.prepare(p))
            walls.append(time.monotonic() - t)
            busy += walls[-1]
            while setup is not None and len(setup) < SETUP_PROBES * busy / self.args.seconds:
                setup.append(_setup_time(self.args))
        while setup is not None and len(setup) < SETUP_PROBES:
            setup.append(_setup_time(self.args))

    def op_medians(self) -> list[float]:
        """Each operation's median latency over the passes.

        Every pass has the same operations in the same order, so position i
        is the same call on fresh inputs; taking medians per position drops
        a disturbance that hit one call in one pass.
        """
        return [statistics.median(slot) for slot in zip(*(p["latencies"] for p in self.passes))]

    def run_s(self) -> float:
        """Seconds for one pass: each operation's median latency, summed."""
        return math.fsum(self.op_medians())

    def op_p50_ms(self) -> float:
        """Median over the operations of a pass of each one's median latency."""
        return 1000.0 * statistics.median(self.op_medians())

    def reference_lines(self) -> list[str]:
        lat = sorted(t for p in self.passes for t in p["latencies"])
        n = len(lat)
        lines = [f"passes: {len(self.passes)}; run_s per pass: "
                 + ", ".join(f"{p['run_s']:.4f}" for p in self.passes)]
        if n >= 40:
            pct = math.floor(100.0 * (n - 10) / n)
            lines.append(f"op_tail_ms: p{pct} = {1000 * _percentile(lat, pct):.4f} ms "
                         f"over {n} operations")
        else:
            lines.append(f"op_tail_ms: none ({n} operations, fewer than 40)")
        rungs: dict = {}
        for p in self.passes:
            for group, size, dt in p["records"]:
                if group:
                    rung = rungs.setdefault(tuple(group), [[], []])
                    rung[0].append(size)
                    rung[1].append(dt)
        if len(rungs) >= 2:
            points = [(statistics.median(sizes), sum(times) / len(self.passes))
                      for sizes, times in sorted(rungs.values())]
            lines.append("growth slope (log time / log |E|, one pipeline per rung): "
                         f"{_slope(points):.3f} (target <= 1.2) over "
                         + ", ".join(f"|E|={s:g}: {t:.4f} s" for s, t in points))
        return lines


def _setup_probe(args) -> None:
    run = Run(args)
    try:
        run.workload.prepare(0)
        print(f"ready {time.monotonic():.9f}", flush=True)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


def _setup_time(args) -> float:
    """Seconds from starting a fresh process to its first timed call."""
    t0 = time.monotonic()
    done = subprocess.run(_command(args, "--setup-probe"), cwd=ROOT, capture_output=True,
                          text=True, timeout=_timeout(args))
    if done.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or of the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layer_unit(name: str) -> str:
    if name.endswith(("calls", "classes", "witnesses", "spans")):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def main(argv=None) -> int:
    args = _parse(argv)
    _import_onedisk()
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    tracer, setup = None, None
    if args.trace:
        if args.child_pass is None:
            untraced = _last_json(_command(args, "--seconds", str(args.seconds), "--trace", "0"),
                                  timeout=_timeout(args))["metrics"]["run_s"]["value"]
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    elif args.child_pass is None:
        setup = []

    run = Run(args, tracer)
    try:
        if args.child_pass is not None:
            run.run_pass(args.child_pass, run.workload.prepare(args.child_pass))
            print(json.dumps(run.child_report()))
            return 0
        run.execute(setup)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    for line in run.reference_lines():
        print(line)
    if tracer:
        span_cost = Tracer.span_cost()
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_path)
        layers = {}
        for key in run.passes[0]["layers"]:
            layers[key] = statistics.fmean(p["layers"][key] for p in run.passes)
        traced = run.run_s()
        layers["trace.run_s"] = traced
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.span_cost_s"] = layers["trace.spans"] * span_cost
        print(f"spans -> {spans_path.relative_to(ROOT)}")
        print(f"tracing overhead: traced run_s {traced:.4f} - untraced run_s {untraced:.4f}"
              f" = {traced - untraced:.4f} s; recording cost {layers['trace.span_cost_s']:.4f} s"
              f" ({layers['trace.spans']:.0f} spans x {1e6 * span_cost:.3f} us)")
        print(f"accounting per pass: top-level self time {layers['trace.top_self_s']:.4f} s,"
              f" timed calls not inside a span {layers['trace.unaccounted_s']:.4f} s")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run.run_s(), "unit": "s"},
            "op_p50_ms": {"value": run.op_p50_ms(), "unit": "ms"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
