"""Smoke test of `scripts/stage_peaks.py`, which drives the benchmark's
workloads by name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROWS = (
    "construct",
    "verify",
    "loads",
    "corollary",
    "matchings",
    "iterate",
    "scheme key",
    "load_scheme",
    "random_algorithm",
    "progress_trace",
)


def test_stage_peaks_prints_every_row():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--untraced"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # a row is its stage name padded to 16 characters, then VmHWM and VmRSS
    printed = {}
    for line in proc.stdout.splitlines():
        name, figures = line[:16].strip(), line[16:].split()
        if len(figures) == 2 and all(f.replace(".", "", 1).isdigit() for f in figures):
            printed[name] = figures
    missing = [row for row in ROWS if row not in printed]
    assert not missing, proc.stdout
