"""Pinned command-line outputs: stdout and exit code, byte for byte.

Each case's expected stdout is the file tests/golden/<name>.out.  A change
that moves any printed byte of these commands fails here; when the move is
intended, rewrite the files with `PYTHONPATH=src python tests/test_golden_cli.py`
and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from advwb.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    **{
        f"verify-scheme_{s}{suffix}": (["verify-scheme", s, *flags], 0)
        for s in ("f4", "nae3", "h6")
        for suffix, flags in (("", []), ("_json", ["--json"]))
    },
    "compose_g_2": (["compose", "--base", "g", "--depth", "2"], 0),
    "compose_g_2_json": (["compose", "--base", "g", "--depth", "2", "--json"], 0),
    "compose_h_3": (["compose", "--base", "h", "--depth", "3"], 0),
    "simulate_h_6": (
        ["simulate", "random", "--scheme", "h", "--queries", "6", "--work", "3"]
        + ["--seed", "11", "--count", "50"],
        0,
    ),
    "simulate_f_4": (
        ["simulate", "random", "--scheme", "f", "--queries", "4", "--seed", "5"]
        + ["--count", "20"],
        0,
    ),
    **{f"measures_{s}_json": (["measures", s, "--json"], 0) for s in ("f4", "nae3", "h6")},
    "measures_or12_json": (["measures", "or12", "--skip", "approx_deg", "--json"], 0),
    "measures_parity12": (["measures", "parity12", "--skip", "approx_deg"], 0),
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name):
    argv, want_code = CASES[name]
    code, out = run(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, (argv, want_code) in CASES.items():
        code, out = run(argv)
        if code != want_code:
            sys.exit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN / f"{name}.out").write_text(out)
