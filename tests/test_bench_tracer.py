"""The benchmark tracer still finds and wraps every function it names.

`bench/tracing.py` patches the layers by attribute name, so a rename under
`src/` would break traced benchmark runs.  This runs the tracer on a few
small commands in a fresh interpreter and reads its counters back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import advwb

BENCH = Path(__file__).resolve().parent.parent / "bench"

COMMANDS = [
    ["compose", "--base", "g", "--depth", "2"],
    ["verify-scheme", "h6"],
    ["measures", "f4", "--json"],
    ["simulate", "random", "--scheme", "f", "--json"],
    ["matchings", "--depth", "1"],
]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
import advwb.cli
codes = []
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(advwb.cli.main(argv))
tracer.dump(sys.argv[2])
print(json.dumps({"codes": codes, "metrics": layer_metrics([sys.argv[2]])}))
"""


def test_tracer_counts_a_few_commands(tmp_path):
    src = str(Path(advwb.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in bench/
    spans = tmp_path / "spans.npz"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), str(spans), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(COMMANDS)
    metrics = result["metrics"]
    assert metrics["cli.main.calls"] == len(COMMANDS)
    assert metrics["matchings.build.calls"] == 2
    # compose --base g --depth 2 also verifies its two 12-pair nae3 factors
    assert metrics["adversary.verify.pairs"] == 5000
    assert metrics["measures.approx.calls"] >= 1
    assert metrics["qsim.progress_trace.calls"] >= 1
