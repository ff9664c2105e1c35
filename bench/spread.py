"""Run-to-run spread of the end-to-end metrics, and a check against the bounds.

    python3 bench/spread.py --runs 10 [--save FILE] [--compare FILE]

Runs bench/run.py for every workload of BENCHMARK.json once per seed
1 .. runs, one run at a time, each for the file's run_seconds, and prints
for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median.  A spread is marked "ok" below a
third of the metric's bound in BENCHMARK.json and "WIDE" above the bound;
a WIDE spread makes the exit status 1.  ``--compare`` reads an earlier
``--save`` file and checks that every median moved by at most its bound,
in either direction, and that the failed shares are equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--save", default=None)
    p.add_argument("--compare", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        entry = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            s = _summary([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            mark = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] > bound else "within")
            if mark == "WIDE":
                status = 1
            print(f"  {workload:>8} {name:>12}: median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {100 * s['spread']:.2f}% "
                  f"(bound {100 * bound:.0f}%) {mark}")
        print(f"  {workload:>8} failed share {entry['failed_share']}, correct {entry['correct']}")
        results[workload] = entry

    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=2) + "\n")
    if args.compare:
        before = json.loads(Path(args.compare).read_text())
        for workload, entry in results.items():
            if entry["failed_share"] != before[workload]["failed_share"]:
                print(f"  {workload}: failed share changed", flush=True)
                status = 1
            for name, bound in bounds.items():
                old = before[workload]["metrics"][name]["median"]
                new = entry["metrics"][name]["median"]
                change = new / old - 1
                verdict = "moved beyond bound" if abs(change) > bound else "ok"
                if abs(change) > bound:
                    status = 1
                print(f"  {workload:>8} {name:>12}: median {old:.4f} -> {new:.4f} "
                      f"({100 * change:+.2f}%, bound {100 * bound:.0f}%) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
