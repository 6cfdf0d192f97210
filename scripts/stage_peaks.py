"""Traced memory of each f4sq-certify stage, and the process's resident memory.

    python3 scripts/stage_peaks.py [--seed N] [--untraced]

Runs the stages of the benchmark's f4sq-certify workload in one process,
in the workload's order and through `bench/workloads.run_stage`, after the
imports the benchmark worker makes.  The slice-table builds that `verify`
(A side) and `loads` (B side) start on the composed scheme run as rows of
their own, just before those stages, so those rows show `verify` and
`loads` on built tables.  Per row it prints what the row keeps (traced
bytes after it, its result dropped, less the bytes before it) and its
peak (the highest traced bytes during it, less the bytes before it), in
MiB, then VmHWM and VmRSS from /proc/self/status after the row, in MB of
2^20 bytes, the unit of the benchmark's peak_rss_mb.  tracemalloc's own
bookkeeping adds to RSS; with --untraced the rows run without it and
only the /proc figures are printed.
"""

from __future__ import annotations

import argparse
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


def status_mb(field: str) -> float:
    """A kB field of /proc/self/status, in MB of 2^20 bytes."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise KeyError(field)


def rows(seed: int) -> list[tuple[str, Callable]]:
    """(name, call) per row: the workload's stages, table builds split out."""
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.WORKLOADS["f4sq-certify"].setup(seed, Path(workdir))
    state: dict = {}
    out = []
    for op in ops:
        side = {"verify": "a", "loads": "b"}.get(op["stage"])
        if side is not None:
            out.append((f"slice_table {side}", lambda s=side: state["composed"].slice_table(s)))
        out.append((op["stage"], lambda op=op: workloads.run_stage(op, state)))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the corollary sample")
    ap.add_argument("--untraced", action="store_true", help="/proc figures only")
    args = ap.parse_args()

    import advwb.cli  # noqa: F401  (the benchmark worker's imports)
    import scipy.optimize  # noqa: F401

    traced = not args.untraced
    blank = f"{'':>9} {'':>9}"
    print(f"{'stage':<14} {'kept MiB':>9} {'peak MiB':>9} {'VmHWM MB':>9} {'VmRSS MB':>9}")
    print(f"{'imports':<14} {blank} {status_mb('VmHWM'):9.1f} {status_mb('VmRSS'):9.1f}")
    if traced:
        tracemalloc.start()
    for name, call in rows(args.seed):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        top = tracemalloc.get_traced_memory()[1]
        del result
        kept = tracemalloc.get_traced_memory()[0] - start
        traced_mib = f"{kept / MIB:9.2f} {(top - start) / MIB:9.2f}" if traced else blank
        print(f"{name:<14} {traced_mib} {status_mb('VmHWM'):9.1f} {status_mb('VmRSS'):9.1f}")

if __name__ == "__main__":
    main()
