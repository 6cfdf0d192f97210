"""Traced memory of the f4-squared certification stages.

The stages of the benchmark's f4sq-certify workload run under tracemalloc,
as `scripts/stage_peaks.py` runs them: construction, which builds the
A- and B-side slice tables, `loads` on the built tables, the depth-2
matchings and the depth-2 iterated certificates.  The balanced base is
made before tracing starts.  Each stage's peak of traced allocations
above its start must stay within its limit: the peak this test measured
(numpy 2.4, Python 3.11) plus 25%.  So the peaks follow
what a stage keeps, not what it builds on the way.
"""

import tracemalloc

from advwb.adversary import balance, builtin_scheme, loads
from advwb.boolfn import f4
from advwb.compose import compose_scheme
from advwb.matchings import check_matchings
from advwb.measures import iterated_certificates
from advwb.weights import ExactWeight

MIB = 1 << 20
# measured peak above the start, MiB
MEASURED = {
    "construct": 4.65,
    "loads": 3.72,
    "matchings": 5.36,
    "iterate": 5.70,
}
LIMITS = {stage: 1.25 * peak for stage, peak in MEASURED.items()}


def _traced(call) -> tuple[object, float]:
    """call()'s result and its peak of traced allocations above its start, in MiB."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = call()
    return result, (tracemalloc.get_traced_memory()[1] - start) / MIB


def test_f4_squared_stages_stay_within_their_peaks():
    base = balance(builtin_scheme("f4"))
    peaks = {}
    tracemalloc.start()
    try:
        c, peaks["construct"] = _traced(lambda: compose_scheme(base, base))
        report, peaks["loads"] = _traced(lambda: loads(c, keep_maps=False))
        checks, peaks["matchings"] = _traced(lambda: check_matchings(2))
        iterated, peaks["iterate"] = _traced(lambda: iterated_certificates(f4(), 2))
    finally:
        tracemalloc.stop()
    assert report.bound == ExactWeight(25, 4)
    assert [checks[s].bound for s in (1, 2)] == [ExactWeight(9, 2)] * 2
    assert iterated.verified and iterated.bs_lower == 9
    over = {stage: round(peak, 2) for stage, peak in peaks.items() if peak > LIMITS[stage]}
    assert not over, f"peaks above their limits (MiB): {over}"
