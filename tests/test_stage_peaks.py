"""Traced memory of the f4-squared certification stages.

The stages of the benchmark's f4sq-certify workload run under tracemalloc,
as `scripts/stage_peaks.py` runs them: construction, which builds the
A- and B-side slice tables, `loads` on the built tables, the depth-2
matchings and the depth-2 iterated certificates.  They run in a fresh
interpreter, so that nothing an earlier test left loaded or cached
lowers a peak.  The balanced base is made before tracing starts.  Each
stage's peak of traced allocations above its start must stay within its
limit: the peak this test measured (numpy 2.4, Python 3.11) plus 25%.
So the peaks follow what a stage keeps, not what it builds on the way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import advwb

# measured peak above the start in a fresh interpreter, MiB
MEASURED = {
    "construct": 4.61,
    "loads": 3.45,
    "matchings": 5.36,
    "iterate": 5.70,
}
LIMITS = {stage: 1.25 * peak for stage, peak in MEASURED.items()}

SCRIPT = """
import json, tracemalloc
from advwb.adversary import balance, builtin_scheme, loads
from advwb.boolfn import f4
from advwb.compose import compose_scheme
from advwb.matchings import check_matchings
from advwb.measures import iterated_certificates


def traced(call):
    # call()'s result and its peak of traced allocations above its start, in MiB
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    return result, (tracemalloc.get_traced_memory()[1] - start) / (1 << 20)


base = balance(builtin_scheme("f4"))
peaks = {}
tracemalloc.start()
c, peaks["construct"] = traced(lambda: compose_scheme(base, base))
report, peaks["loads"] = traced(lambda: loads(c, keep_maps=False))
checks, peaks["matchings"] = traced(lambda: check_matchings(2))
iterated, peaks["iterate"] = traced(lambda: iterated_certificates(f4(), 2))
tracemalloc.stop()
results = [str(report.bound), [str(checks[s].bound) for s in (1, 2)]]
results += [iterated.verified, iterated.bs_lower]
print(json.dumps({"peaks": peaks, "results": results}))
"""


def test_f4_squared_stages_stay_within_their_peaks():
    src = str(Path(advwb.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["results"] == ["25/4", ["9/2", "9/2"], True, 9]
    over = {
        stage: round(peak, 2) for stage, peak in out["peaks"].items() if peak > LIMITS[stage]
    }
    assert not over, f"peaks above their limits (MiB): {over}"
