"""Processes started by the benchmark: set-up, and the operation worker.

    python3 bench/worker.py setup WORKLOAD SEED WORKDIR
    python3 bench/worker.py serve [SPAN_PATH]

Each starts from a fresh interpreter and pays the full import cost.  The
set-up process writes the inputs and WORKDIR/ops.json.  The worker reads
one JSON request per line on stdin and answers with one JSON line on
stdout; it times only the call into advwb.  Given a span path it installs
the Tracer first and writes the spans there when it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def import_program() -> None:
    """Everything an operation may need, so no operation pays an import."""
    import advwb.cli  # noqa: F401  (imports every advwb module)
    import scipy.optimize  # noqa: F401  (measures imports it on first LP)


def setup(workload: str, seed: int, workdir: Path) -> None:
    """Imports, input generation and file writes, as one process."""
    import_program()
    ops = workloads.WORKLOADS[workload].setup(seed, workdir)
    (workdir / "ops.json").write_text(json.dumps(ops))


def execute(op: dict, state: dict) -> tuple[float, object]:
    """Run one operation; returns its time and a plain summary of its output."""
    if op["kind"] == "cli":
        import advwb.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = advwb.cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            elapsed = time.perf_counter() - start
        return elapsed, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    start = time.perf_counter()
    result = workloads.run_stage(op, state)
    elapsed = time.perf_counter() - start
    return elapsed, workloads.summarize_stage(op, result)


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def serve(span_path: str | None) -> None:
    """Answer requests until {"stop": true}; then report and exit.

    A request {"op_id": i, "op": op} gets {"status": "ok"|"error",
    "seconds": t, "out": summary or traceback}; {"bare_sweep": true} sweeps
    the composed scheme, if any, without work per record; the stop reply
    carries the BLAS thread count.
    """
    # replies go to the original stdout; anything else printed goes to stderr
    reply_to = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(doc: dict) -> None:
        reply_to.write(json.dumps(doc) + "\n")
        reply_to.flush()

    import_program()
    tracer = None
    if span_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    state: dict = {}
    send({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("stop"):
            break
        if msg.get("bare_sweep"):
            if "composed" in state:
                tracer.bare_sweep(state["composed"])
            send({"status": "ok"})
            continue
        if tracer is not None:
            tracer.op_id = msg["op_id"]
        start = time.perf_counter()
        try:
            elapsed, summary = execute(msg["op"], state)
            send({"status": "ok", "seconds": elapsed, "out": summary})
        except Exception:  # any failure of the program is a failed operation
            elapsed = time.perf_counter() - start
            out = traceback.format_exc()
            send({"status": "error", "seconds": elapsed, "out": out})
    state.clear()
    if tracer is not None:
        tracer.dump(span_path)
    send({"blas_threads": _blas_threads()})


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    else:
        serve(sys.argv[2] if len(sys.argv) > 2 else None)
