"""advwb benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, one table

Workloads (see workloads.py for what each one runs and why):
  f4sq-certify   library calls certifying the depth-2 claims for f4
  measures-mix   `advwb measures` calls over builtins and random tables
  simulate-mix   `advwb simulate` calls, small and wide traces
  measures-7bit  probe: one random 7-bit table on the default path; not in
                 BENCHMARK.json, expected to fail at its deadline today

Load is closed-loop: one worker process (worker.py) receives one
operation at a time from a fixed, seeded list, and the next is sent when
the previous one has returned.  Set-up is timed in SETUP_REPEATS fresh
processes (imports, input generation, file writes; the median is
reported), and every pass over the list gets a fresh worker, so no
workload's heap slows or inflates another's.  Every operation's output is
checked; an exception, a wrong output or an operation past the
workload's deadline counts as failed, and a worker that passes the
deadline is terminated.

--trace 0 repeats passes until --seconds have elapsed (at least one) and
prints the end-to-end metrics: setup_s, run_s (median wall time of one
pass) and peak_rss_mb (the largest peak resident memory of any process
the run started: set-up processes and workers).  The line before the
result carries op_p50_ms (median operation time), op_tail_ms (the
highest percentile with at least 10 operations beyond it, with the
percentile used), failed_frac, per-operation medians and the
environment: nproc, Python, numpy and scipy versions, BLAS threads, seed.

--trace 1 runs one pass untraced and one traced and prints the per-layer
metrics from the traced pass's spans (see tracing.py), with
trace.overhead_frac = traced run_s / untraced run_s - 1.

Files go to .bench_work/ at the repository root.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")

SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # operations beyond the tail percentile
TAIL_MIN_PERCENTILE = 90.0  # below this a list is too short to have a tail

# What --trace 0 prints, by name and unit.  Every workload defines them.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# Printed on the line before the result and by the all-workloads table, but
# not in the result: f4sq-certify runs six stages, not a stream of
# operations, so it has no per-operation figures, and failed_frac is 0 on
# every workload the benchmark times.
DETAILS = (("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("failed_frac", "1"))


class BenchError(RuntimeError):
    pass


def timed_setup(name: str, seed: int, workdir: Path) -> tuple[float, list[dict]]:
    """Median set-up time over fresh processes, and the operation list."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        argv = [sys.executable, str(WORKER), "setup", name, str(seed), str(workdir)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, timeout=START_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up of {name} took over {START_TIMEOUT_S} s") from None
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up of {name} failed (exit code {proc.returncode})")
    ops = json.loads((workdir / "ops.json").read_text())
    return statistics.median(times), ops


class Worker:
    """One operation worker process, spoken to in JSON lines."""

    def __init__(self, span_path: Path | None):
        argv = [sys.executable, str(WORKER), "serve"]
        if span_path is not None:
            argv.append(str(span_path))
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self.request(None, START_TIMEOUT_S) != {"ready": True}:
            self.kill()
            raise BenchError("worker did not start")

    def request(self, msg: dict | None, timeout: float) -> dict | None:
        """Send msg (unless None) and wait for the reply; None past timeout.

        A worker that exits instead of replying yields {"status": "died"}.
        """
        if msg is not None:
            try:
                self.proc.stdin.write(json.dumps(msg) + "\n")
                self.proc.stdin.flush()
            except BrokenPipeError:
                return {"status": "died"}
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return None
        line = self.proc.stdout.readline()
        return json.loads(line) if line else {"status": "died"}

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        with contextlib.suppress(BrokenPipeError):  # a request left unsent
            self.proc.stdin.close()
        self.proc.stdout.close()

    def stop(self) -> dict:
        reply = self.request({"stop": True}, START_TIMEOUT_S)
        try:
            self.proc.wait(START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            reply = None
        if reply is None or "blas_threads" not in reply:
            self.kill()
            raise BenchError("worker did not stop cleanly")
        self.proc.stdin.close()
        self.proc.stdout.close()
        return reply


def _tag(op: dict) -> str:
    return op.get("tag") or op["stage"]


def run_pass(wl, ops: list[dict], span_dir: Path | None) -> dict:
    """One closed-loop pass over ops in a fresh worker."""
    span_paths: list[Path] = []

    def start_worker() -> Worker:
        if span_dir is None:
            return Worker(None)
        span_paths.append(span_dir / f"spans{len(span_paths)}.npz")
        return Worker(span_paths[-1])

    w = start_worker()
    try:
        op_s, failures = [], []
        wrong = deadline_failed = 0
        restart_s = 0.0
        begin = time.perf_counter()
        for op_id, op in enumerate(ops):
            label = _tag(op)
            sent = time.perf_counter()
            reply = w.request({"op_id": op_id, "op": op}, wl.deadline_s)
            if reply is None or reply["status"] == "died":
                op_s.append(time.perf_counter() - sent)
                if reply is None:
                    deadline_failed += 1
                    failures.append(
                        f"op {op_id} ({label}): past the {wl.deadline_s} s deadline"
                    )
                else:
                    wrong += 1
                    failures.append(f"op {op_id} ({label}): worker died")
                w.kill()
                if span_dir is not None:
                    span_paths.pop()  # the spans of a terminated worker are lost
                restarted = time.perf_counter()
                w = start_worker()
                restart_s += time.perf_counter() - restarted
                continue
            op_s.append(reply["seconds"])
            if reply["status"] == "error":
                problem = reply["out"].strip()[-300:]
            else:
                try:
                    problem = wl.check(op, reply["out"])
                except (KeyError, TypeError, ValueError) as exc:
                    problem = f"malformed output: {exc!r}"
            if problem is not None:
                wrong += 1
                failures.append(f"op {op_id} ({label}): {problem}")
        run_s = time.perf_counter() - begin - restart_s
        if span_dir is not None:  # the floor for compose sweeps, outside run_s
            w.request({"bare_sweep": True}, wl.deadline_s)
        stopped = w.stop()
    except BaseException:
        w.kill()
        raise
    return {
        "run_s": run_s,
        "op_s": op_s,
        "failures": failures,
        "wrong": wrong,
        "deadline_failed": deadline_failed,
        "blas_threads": stopped["blas_threads"],
        "span_paths": span_paths,
    }


def tail(op_s: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 operations beyond."""
    n = len(op_s)
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    return percentile, sorted(op_s)[n - TAIL_BEYOND - 1]


def environment(seed: int, blas_threads) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (result line, details) for one workload run."""
    if not (ROOT / "src" / "advwb").is_dir():
        raise BenchError(f"no advwb sources under {ROOT / 'src'}")
    wl = workloads.WORKLOADS[name]
    workdir = ROOT / ".bench_work" / name / f"seed{seed}"
    os.environ.pop("ADVWB_THREADS", None)  # workers run the simulator's default
    setup_s, ops = timed_setup(name, seed, workdir)

    if traced:
        passes = [run_pass(wl, ops, None), run_pass(wl, ops, workdir)]
        metrics = tracing.layer_metrics(passes[1]["span_paths"])
        metrics["measures.deadline_failed"] = passes[1]["deadline_failed"]
        metrics["trace.overhead_frac"] = passes[1]["run_s"] / passes[0]["run_s"] - 1
        units = dict(tracing.PER_LAYER)
    else:
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < seconds:
            passes.append(run_pass(wl, ops, None))
        # every process this one started has been waited for, so this is
        # the largest peak of any of them, terminated workers included
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(p["run_s"] for p in passes),
            "peak_rss_mb": rss_kb / 1024,
        }
        units = dict(END_TO_END)

    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    op_s = [t for p in passes for t in p["op_s"]]
    tails = [tail(p["op_s"]) for p in passes] if wl.op_metrics else [None]
    details = {
        "workload": name,
        "seconds": seconds,
        "trace": int(traced),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "deadline_s": wl.deadline_s,
        "setup_s": setup_s,
        "op_p50_ms": 1000 * statistics.median(op_s) if wl.op_metrics else None,
        "op_tail_ms": None if None in tails else 1000 * statistics.median(v for _, v in tails),
        "op_tail_percentile": None if None in tails else tails[0][0],
        "failed_frac": failed / attempted,
        "op_ms_by_tag": {
            tag: 1000 * statistics.median(
                t for p in passes for op, t in zip(ops, p["op_s"]) if _tag(op) == tag
            )
            for tag in sorted({_tag(op) for op in ops})
        },
        "failures": [f for p in passes for f in p["failures"]][:10],
        "env": environment(seed, passes[0]["blas_threads"]),
    }
    result = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**details, **result}, indent=1))
    return result, details


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; prints one row per workload."""
    rows = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            return 1
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        if traced:
            rows[name] = result
            print(f"{name}: {json.dumps(result)}")
            continue
        values = {k: m["value"] for k, m in result["metrics"].items()}
        values.update({k: details[k] for k, _ in DETAILS})
        rows[name] = values
        cells = [
            f"{k} = -" if values[k] is None else f"{k} = {values[k]:.4g} {unit}"
            for k, unit in END_TO_END + DETAILS
        ]
        pct = details["op_tail_percentile"]
        note = "" if pct is None else f" (tail at p{pct:.1f})"
        print(f"{name}: " + ", ".join(cells) + note)
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        choices=("all", *workloads.WORKLOADS),
        help="one workload, or all of them in turn (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result, details = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
