"""Traced memory of each f4sq-certify stage and of one wide simulate call,
and the process's resident memory.

    python3 scripts/stage_peaks.py [--seed N] [--untraced]

Runs the stages of the benchmark's f4sq-certify workload in one process,
in the workload's order and through `bench/workloads.run_stage`, after the
imports the benchmark worker makes.  The construct row builds the
composed scheme with both of its slice tables, so `verify` and `loads`
run on built tables.  Then come the steps of the first wide12 call of
the simulate-mix workload, as `advwb simulate` takes them: the scheme
file's cache key, `load_scheme`, `verify`, `loads`, `random_algorithm` and
`progress_trace`.  Both workloads' inputs are written by a set-up process
of their own, as the benchmark writes them.  Per row it prints what the
row keeps (traced bytes after it, its result dropped, less the bytes
before it) and its peak (the highest traced bytes during it, less the
bytes before it), in MiB, then VmHWM and VmRSS from /proc/self/status
after the row, in MB of 2^20 bytes, the unit of the benchmark's
peak_rss_mb.  tracemalloc's own bookkeeping adds to RSS; with --untraced
the rows run without it and only the /proc figures are printed.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import tempfile
import tracemalloc
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

MIB = 1 << 20
NAMES = ("f4sq-certify", "simulate-mix")


def status_mb(field: str) -> float:
    """A kB field of /proc/self/status, in MB of 2^20 bytes."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise KeyError(field)


def setup(name: str, seed: int, workdir: str) -> list[dict]:
    """A workload's operations, its inputs written into workdir."""
    return workloads.WORKLOADS[name].setup(seed, Path(workdir))


def rows(seed: int, workdir: str) -> list[tuple[str, Callable]]:
    """(name, call) per row: the f4sq-certify stages, then the steps of
    the first wide12 simulate call."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        f4sq, simulate = (pool.apply(setup, (name, seed, workdir)) for name in NAMES)
    from advwb import adversary, cli, qsim

    state: dict = {}
    out = [(op["stage"], lambda op=op: workloads.run_stage(op, state)) for op in f4sq]
    # simulate random --scheme S --queries Q --work W --seed X --json
    argv = next(op["argv"] for op in simulate if op["argv"][3].endswith("wide12.json"))
    opts = dict(zip(argv[2:-1:2], argv[3:-1:2]))
    path, work = Path(opts["--scheme"]), int(opts["--work"])
    queries, alg_seed = int(opts["--queries"]), int(opts["--seed"])

    def load():
        state["scheme"] = adversary.load_scheme(path)

    def draw():
        state["alg"] = qsim.random_algorithm(12, queries, work=work, seed=alg_seed)

    out += [
        ("scheme key", lambda: cli._scheme_file_key(path)),
        ("load_scheme", load),
        ("verify", lambda: adversary.verify(state["scheme"])),
        ("loads", lambda: adversary.loads(state["scheme"])),
        ("random_algorithm", draw),
        ("progress_trace", lambda: qsim.progress_trace(state["alg"], state["scheme"])),
    ]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the workloads' inputs")
    ap.add_argument("--untraced", action="store_true", help="/proc figures only")
    args = ap.parse_args()

    import advwb.cli  # noqa: F401  (the benchmark worker's imports)
    import scipy.optimize  # noqa: F401

    traced = not args.untraced
    blank = f"{'':>9} {'':>9}"
    print(f"{'stage':<16} {'kept MiB':>9} {'peak MiB':>9} {'VmHWM MB':>9} {'VmRSS MB':>9}")
    print(f"{'imports':<16} {blank} {status_mb('VmHWM'):9.1f} {status_mb('VmRSS'):9.1f}")
    with tempfile.TemporaryDirectory() as workdir:
        stages = rows(args.seed, workdir)
        if traced:
            tracemalloc.start()
        for name, call in stages:
            if name == "scheme key":
                print("first wide12 simulate call:")
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            top = tracemalloc.get_traced_memory()[1]
            del result
            kept = tracemalloc.get_traced_memory()[0] - start
            traced_mib = f"{kept / MIB:9.2f} {(top - start) / MIB:9.2f}" if traced else blank
            print(f"{name:<16} {traced_mib} {status_mb('VmHWM'):9.1f} {status_mb('VmRSS'):9.1f}")


if __name__ == "__main__":
    main()
