"""Assemble a benchmark record, BENCH_<n>.json, from `bench/run.py` result lines.

Runs every benchmark workload in two checkouts, `--runs` pairs each: pair k
runs the parent first when k is even and the change first when k is odd.
Keeps the last JSON line of each run and reports min, quartiles and median
of every end-to-end metric per side, and per workload and metric the
number of pairs the change won (a strictly better value, in the direction
`BENCHMARK.json` declares).  Then one `--trace 1` run of each traced
workload per side adds its per-layer metrics block.  Both checkouts must
hold `bench/` and `src/`:

    mkdir /tmp/parent && git archive <parent> | tar -x -C /tmp/parent
    python3 scripts/bench_record.py --parent /tmp/parent --change . \\
        --seed 1 --runs 3 --seconds 25 --trace measures-mix --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("f4sq-certify", "measures-mix", "simulate-mix")


def last_line(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(lines: list[dict]) -> dict:
    out = {"runs": len(lines), "failed": sum(line["failed"] for line in lines)}
    out["attempted"] = sum(line["attempted"] for line in lines)
    for name in lines[0]["metrics"]:
        values = [line["metrics"][name]["value"] for line in lines]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        out[name] = {"min": min(values), "q1": q1, "median": median, "q3": q3, "values": values}
    return out


def change_wins(parent: list[dict], change: list[dict], better: dict) -> dict:
    """Per metric, the pairs whose change run beat its parent run."""
    out = {}
    for name, sign in better.items():
        wins = sum(
            sign * (p["metrics"][name]["value"] - c["metrics"][name]["value"]) > 0
            for p, c in zip(parent, change)
        )
        out[name] = {"wins": wins, "pairs": len(parent)}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", nargs="*", default=["measures-mix"], choices=WORKLOADS)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    sides = {"parent": args.parent, "change": args.change}
    # +1: lower is better, -1: higher is better
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: 1 if m["better"] == "lower" else -1 for m in declared}
    lines = {side: {w: [] for w in WORKLOADS} for side in sides}
    for k in range(args.runs):
        for workload in WORKLOADS:
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                line = last_line(sides[side], workload, args.seed, args.seconds, 0)
                lines[side][workload].append(line)
                print(k, side, workload, json.dumps(line["metrics"]), flush=True)
    record = {
        "command": f"bench/run.py --seed {args.seed} --seconds {args.seconds}",
        "order": "pairs of runs, parent first in even pairs and change first in odd "
        "pairs, workloads in turn",
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy")},
        },
        "end_to_end": {
            side: {w: summary(runs) for w, runs in by_workload.items()}
            for side, by_workload in lines.items()
        },
        "change_wins": {
            w: change_wins(lines["parent"][w], lines["change"][w], better) for w in WORKLOADS
        },
        "traced": {
            side: {
                w: last_line(root, w, args.seed, args.seconds, 1)["metrics"] for w in args.trace
            }
            for side, root in sides.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
