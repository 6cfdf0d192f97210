"""End-to-end command-line behavior, text and JSON."""

import errno
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import advwb
from advwb import adversary, cli, measures
from advwb.adversary import ExplicitScheme, builtin_scheme, save_scheme, unit_scheme
from advwb.boolfn import BooleanFunction, h6, nae3, or_n, parity, save_table
from advwb.cli import BASE_ALIASES, MAX_DEPTH, build_parser, fmt, main
from advwb.weights import ONE, ExactWeight


@pytest.fixture(autouse=True)
def no_checked_schemes():
    """Every test starts with no scheme checked by an earlier one."""
    cli._checked_schemes.clear()


def counting_calls(monkeypatch, name) -> list:
    """Replace adversary.<name> by a wrapper that records its first argument."""
    calls = []
    real = getattr(adversary, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(adversary, name, counting)
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(result, prefix):
    """Exit 2 with nothing on stdout and one line on stderr."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


def test_fmt():
    assert fmt(ExactWeight(5, 2)) == "5/2 (2.500000)"
    assert fmt(ExactWeight(1, 2, 39)) == "1/2*sqrt(39) (3.122499)"
    assert fmt(Fraction(1, 3)) == "1/3 (0.333333)"
    assert fmt(True) == "yes" and fmt(False) == "no"
    two_r2 = ExactWeight(2) - ExactWeight(1, 1, 2)
    assert fmt(two_r2) == "2 - sqrt(2) (0.585786)"
    assert fmt(two_r2.sqrt()) == "sqrt(2 - sqrt(2)) (0.765367)"
    assert fmt(7) == "7"


def test_base_aliases():
    assert BASE_ALIASES["f"] == "f4"
    assert BASE_ALIASES["g"] == "nae3"
    assert BASE_ALIASES["h"] == "h6"
    assert BASE_ALIASES["nae3"] == "nae3"


def test_measures_builtin(capsys):
    code, out, _ = run_cli(capsys, "measures", "f4")
    assert code == 0
    assert "deg = 2" in out
    assert "s = 2" in out
    assert "bs = 3" in out
    assert "d_depth = 3" in out
    assert "qe_lower = 1" in out


def test_measures_from_file(capsys, tmp_path):
    path = tmp_path / "h6.tbl"
    save_table(h6(), path)
    code, out, _ = run_cli(capsys, "measures", str(path))
    assert code == 0
    assert "deg = 3" in out
    assert "d_depth = 6" in out


def test_measures_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n01x1\n")
    code, _, err = run_cli(capsys, "measures", str(path))
    assert code == 2
    assert "parse error" in err and "line 2" in err and "pos 3" in err


def test_measures_unknown_function(capsys):
    code, _, err = run_cli(capsys, "measures", "mystery9")
    assert code == 2
    assert "cannot load function" in err


def test_measures_cap_exceeded(capsys):
    capped = {
        "approx_deg": "approximate degree",
        "bs": "block sensitivity",
        "cert": "certificate complexity",
        "D": "decision-tree depth",
    }
    for token, name in capped.items():
        skip = ",".join(sorted(set(capped) - {token}))
        code, out, err = run_cli(capsys, "measures", "or13", "--skip", skip)
        assert code == 1 and out == ""
        assert err == f"cap exceeded: {name} capped at arity 12 (use --skip)\n"


def test_measures_force_and_skip(capsys):
    code, out, _ = run_cli(capsys, "measures", "or9")
    assert code == 0
    assert "c0 = 9" in out and "c1 = 1" in out

    # the knob that lifted the certificate cap is gone
    result = run_cli(capsys, "measures", "or9", "--force")
    assert result == (2, "", "advwb: error: unrecognized arguments: --force\n")

    code, out, _ = run_cli(capsys, "measures", "or9", "--skip", "cert")
    assert code == 0
    assert "c0" not in out
    assert "d_depth = 9" in out


@pytest.mark.parametrize("n", [7, 8])
def test_measures_wide_random_table(capsys, tmp_path, n):
    """Approximate degree at 7 and 8 bits takes well under a second."""
    rng = random.Random(n)
    path = tmp_path / f"rand{n}.tbl"
    save_table(BooleanFunction(n, bytes(rng.randint(0, 1) for _ in range(1 << n))), path)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "measures", str(path), "--json")
    assert time.perf_counter() - start < 10
    doc = json.loads(out)
    assert code == 0
    assert doc["approx_deg"] <= doc["deg"] <= doc["d_depth"]


def test_measures_parity12_depth_is_fast(capsys):
    """Decision-tree depth at the 12-bit cap is one pass over 3^12 subcubes."""
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "measures", "parity12", "--skip", "approx_deg,cert")
    assert time.perf_counter() - start < 5
    assert code == 0 and "d_depth = 12" in out


def test_measures_uncertified_approx_degree(capsys, monkeypatch):
    monkeypatch.setattr(measures, "_certify_upper", lambda *args: None)
    monkeypatch.setattr(measures, "_certify_lower", lambda *args: False)
    code, out, err = run_cli(capsys, "measures", "or9", "--skip", "cert,bs,D")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("approximate degree not certified: degree 0 LP optimum")


def test_measures_bad_skip_and_eps(capsys):
    code, _, err = run_cli(capsys, "measures", "f4", "--skip", "frobnicate")
    assert code == 2 and "skip" in err
    code, _, err = run_cli(capsys, "measures", "f4", "--eps", "banana")
    assert code == 2 and "eps" in err


@pytest.mark.parametrize("eps", ["1/2", "2", "-1/3"])
def test_measures_eps_out_of_range(capsys, eps):
    result = run_cli(capsys, "measures", "f4", f"--eps={eps}")
    assert_usage_error(result, f"bad eps {eps!r}: must lie in [0, 1/2)")


def test_simulate_eps_out_of_range(capsys):
    result = run_cli(
        capsys, "simulate", "random", "--scheme", "h", "--queries", "2", "--eps", "2"
    )
    assert_usage_error(result, "bad eps 2.0: must lie in [0, 1/2)")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_count_below_one(capsys, count):
    result = run_cli(capsys, "simulate", "random", "--scheme", "g", "--count", count)
    assert_usage_error(result, f"bad count {count}: must be at least 1")


def test_verify_scheme_builtins(capsys):
    code, out, _ = run_cli(capsys, "verify-scheme", "f4")
    assert code == 0
    assert out.splitlines()[0] == "valid, bound = 5/2 (2.500000)"

    code, out, _ = run_cli(capsys, "verify-scheme", "h6")
    assert code == 0
    assert out.splitlines()[0] == "valid, bound = 1/2*sqrt(39) (3.122499)"
    assert "v_A = 1/6" in out
    assert "v_B = 8/13" in out


def test_verify_scheme_alias_and_json(capsys):
    code, out, _ = run_cli(capsys, "verify-scheme", "g", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["bound"] == "3/2*sqrt(2)"
    assert doc["v_max"] == "1/3*sqrt(2)"


def _mixed_or2_file(tmp_path) -> str:
    """A valid or2 scheme whose weights 1 and sqrt(2) meet in wt(0) = 1 + sqrt(2)."""
    root2 = ExactWeight(1, 1, 2)
    mixed = ExplicitScheme(
        or_n(2), [(0, 1, ONE, {2: (ONE, ONE)}), (0, 2, root2, {1: (root2, root2)})]
    )
    path = tmp_path / "or2.scheme.json"
    save_scheme(mixed, path)
    return str(path)


def test_verify_scheme_mixed_radicands_are_exact(capsys, tmp_path):
    path = _mixed_or2_file(tmp_path)
    code, out, _ = run_cli(capsys, "verify-scheme", path)
    assert code == 0 and "~" not in out
    assert out.splitlines() == [
        "valid, bound = sqrt(1 + 1/2*sqrt(2)) (1.306563)",
        "wt min = 1 (1.000000)",
        "wt max = 1 + sqrt(2) (2.414214)",
        "v min = 1 (1.000000)",
        "v max = sqrt(2) (1.414214)",
        "v_A = 2 - sqrt(2) (0.585786)",
        "v_B = 1 (1.000000)",
        "v_max = sqrt(2 - sqrt(2)) (0.765367)",
    ]
    code, out, _ = run_cli(capsys, "verify-scheme", path, "--json")
    assert code == 0 and "~" not in out
    assert json.loads(out) == {
        "valid": True,
        "bound": "sqrt(1 + 1/2*sqrt(2))",
        "wt_min": "1",
        "wt_max": "1 + sqrt(2)",
        "v_min": "1",
        "v_max_entry": "sqrt(2)",
        "v_A": "2 - sqrt(2)",
        "v_B": "1",
        "v_max": "sqrt(2 - sqrt(2))",
    }


def test_verify_scheme_large_prime_weight_finishes(tmp_path):
    # v_A * v_B is the prime 10^18 + 3, so v_max needs its squarefree part
    doc = {
        "arity": 3,
        "table": "01111110",
        "a": [0],
        "b": [1],
        "pairs": [{"x": 0, "y": 1, "w": "2", "wp": {"3": ["1000000000000000003", "4"]}}],
    }
    path = tmp_path / "prime.scheme.json"
    path.write_text(json.dumps(doc))
    src = str(Path(advwb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "advwb", "verify-scheme", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "v_max = sqrt(1000000000000000003) " in proc.stdout
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("command", ["verify-scheme", "simulate"])
def test_unfactorable_radicand_is_a_load_error(capsys, tmp_path, command):
    # v_A * v_B is the product of two 15-digit primes, past what trial
    # division can split, so v_max has no exact squarefree form
    doc = {
        "arity": 3,
        "table": "01111110",
        "a": [0],
        "b": [1],
        "pairs": [
            {"x": 0, "y": 1, "w": "2", "wp": {"3": ["30000000000018200000000002759", "4"]}}
        ],
    }
    path = tmp_path / "semiprime.scheme.json"
    path.write_text(json.dumps(doc))
    argv = ("verify-scheme", str(path))
    if command == "simulate":
        argv = ("simulate", "identity", "--scheme", str(path))
    start = time.monotonic()
    assert_usage_error(run_cli(capsys, *argv), "cannot load scheme: ")
    assert time.monotonic() - start < 1


def test_verify_scheme_rejects_invalid_file(capsys, tmp_path):
    bad = ExplicitScheme(nae3(), [(0, 1, ExactWeight(2), {3: (ONE, ONE)})])
    path = tmp_path / "bad.scheme.json"
    save_scheme(bad, path)
    code, out, _ = run_cli(capsys, "verify-scheme", str(path))
    assert code == 1
    assert "invalid" in out


def test_verify_scheme_missing(capsys):
    code, _, err = run_cli(capsys, "verify-scheme", "nope")
    assert code == 2
    assert "cannot load scheme" in err


@pytest.mark.parametrize("command", ["verify-scheme", "simulate"])
def test_scheme_name_too_long_to_look_up_is_a_load_error(capsys, command):
    name = "s" * 5000  # past the file-name limit, so the lookup itself fails
    argv = ("verify-scheme", name)
    if command == "simulate":
        argv = ("simulate", "identity", "--scheme", name)
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    result = run_cli(capsys, *argv)
    assert result == (2, "", f"cannot load scheme: {too_long}: {name!r}\n")


_NAE3 = {"arity": 3, "table": "01111110", "a": [0], "b": [1]}
_PAIR = {"x": 0, "y": 1, "w": "1", "wp": {"3": ["1", "1"]}}


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        "scheme",
        {**_NAE3, "pairs": [[0, 1]]},
        {**_NAE3, "pairs": [{"x": 0, "y": 1, "w": "1", "wp": [["1", "1"]]}]},
        {**_NAE3, "pairs": [{"x": 0, "y": 1, "w": "1", "wp": {"3": "1"}}]},
        {**_NAE3, "pairs": [{"x": 0, "y": 1, "w": "1", "wp": {"3": [1, 1]}}]},
        {**_NAE3, "pairs": [{"x": 0, "y": 1, "w": "1", "wp": {"3": ["1"]}}]},
        {**_NAE3, "a": 5, "pairs": [_PAIR]},
        {**_NAE3, "a": [[0]], "pairs": [_PAIR]},
        {**_NAE3, "b": 1, "pairs": [_PAIR]},
        {**_NAE3, "table": 5, "pairs": [_PAIR]},
        {"path": 5, "a": [0], "b": [1], "pairs": [_PAIR]},
        {**_NAE3, "pairs": 5},
        {**_NAE3, "pairs": [{**_PAIR, "x": [0]}]},
        {**_NAE3, "pairs": [{**_PAIR, "y": [1]}]},
        {**_NAE3, "pairs": [{**_PAIR, "w": 1}]},
        {**_NAE3, "arity": "3", "pairs": [_PAIR]},
        {**_NAE3, "arity": 3.0, "pairs": [_PAIR]},
        {"arity": True, "table": "01", "a": [0], "b": [1], "pairs": [
            {"x": 0, "y": 1, "w": "1", "wp": {"1": ["1", "1"]}}
        ]},
        {**_NAE3, "a": [False], "pairs": [_PAIR]},
        {**_NAE3, "pairs": [{**_PAIR, "x": False}]},
        {**_NAE3, "pairs": [{**_PAIR, "w": "1 - sqrt(2)"}]},
        {**_NAE3, "pairs": [{**_PAIR, "wp": {"3": ["1", "sqrt(2) - 3/2"]}}]},
        # a coordinate key must read str(i)
        {**_NAE3, "pairs": [{**_PAIR, "wp": {"03": ["1", "1"]}}]},
        {**_NAE3, "pairs": [{**_PAIR, "wp": {" 3": ["1", "1"]}}]},
        {**_NAE3, "pairs": [{**_PAIR, "wp": {"0_3": ["1", "1"]}}]},
        {**_NAE3, "pairs": [{**_PAIR, "wp": {"+3": ["1", "1"]}}]},
        # two spellings of one coordinate: the first one's weights were dropped
        {"arity": 2, "table": "0110", "a": [0], "b": [1], "pairs": [
            {"x": 0, "y": 1, "w": "1", "wp": {"02": ["0", "0"], "2": ["1", "1"]}}
        ]},
    ],
)
@pytest.mark.parametrize("command", ["verify-scheme", "simulate"])
def test_malformed_scheme_file_is_a_load_error(capsys, tmp_path, doc, command):
    path = tmp_path / "bad.scheme.json"
    path.write_text(json.dumps(doc))
    if command == "simulate":
        argv = ("simulate", "identity", "--scheme", str(path))
    else:
        argv = ("verify-scheme", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot load scheme: ")


def test_compose_depth2(capsys):
    code, out, _ = run_cli(capsys, "compose", "--base", "g", "--depth", "2")
    assert code == 0
    assert "pairs = 4896" in out
    assert "measured bound = 9/2 (4.500000)" in out
    assert "predicted bound = 9/2 (4.500000)" in out


def test_compose_depth1_uses_base(capsys):
    code, out, _ = run_cli(capsys, "compose", "--base", "f", "--depth", "1")
    assert code == 0
    assert "pairs = 32" in out
    assert "measured bound = 5/2 (2.500000)" in out


def test_compose_deep_predicts_only(capsys):
    code, out, _ = run_cli(capsys, "compose", "--base", "f", "--depth", "5")
    assert code == 0
    assert "materialization skipped" in out
    assert "predicted bound = 3125/32 (97.656250)" in out


def test_compose_deep_export_fails(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "compose", "--base", "f", "--depth", "5",
        "--export", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "cannot export" in err


def test_compose_export_round_trip(capsys, tmp_path):
    out_path = tmp_path / "gg.scheme.json"
    code, out, _ = run_cli(
        capsys,
        "compose", "--base", "g", "--depth", "2", "--export", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    code, out, _ = run_cli(capsys, "verify-scheme", str(out_path))
    assert code == 0
    assert "valid, bound = 9/2 (4.500000)" in out


@pytest.mark.parametrize("depth", ["800", "7000"])
def test_compose_depth_too_deep_to_print(capsys, depth):
    result = run_cli(capsys, "compose", "--base", "f", "--depth", depth)
    assert_usage_error(result, f"depth must be in 1..{MAX_DEPTH}")


def test_compose_deepest_depth_prints(capsys):
    code, out, _ = run_cli(capsys, "compose", "--base", "h", "--depth", str(MAX_DEPTH))
    assert code == 0
    assert "predicted bound = " in out


def test_compose_export_unwritable(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = run_cli(
        capsys,
        "compose", "--base", "g", "--depth", "2",
        "--export", str(blocker / "x.json"),
    )
    assert_usage_error(result, "cannot export: ")


def test_compose_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "compose", "--base", "q", "--depth", "2")
    assert code == 2 and "unknown base" in err
    code, _, err = run_cli(capsys, "compose", "--base", "f", "--depth", "0")
    assert code == 2 and "depth" in err


def test_matchings_depth1(capsys):
    code, out, _ = run_cli(capsys, "matchings", "--depth", "1")
    assert code == 0
    lines = out.splitlines()
    assert any(
        "set 1" in ln and "m = 3" in ln and "l = 1" in ln and "l' = 2" in ln
        for ln in lines
    )
    assert any(
        "set 2" in ln and "l = 2" in ln and "l' = 1" in ln for ln in lines
    )
    assert all("disjoint = yes" in ln for ln in lines if ln.startswith("set"))
    assert "3/2*sqrt(2) (2.121320)" in out


def test_matchings_export(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "matchings", "--depth", "1", "--export", str(tmp_path)
    )
    assert code == 0
    assert "exported 6 files" in out
    assert len(list(tmp_path.glob("set*_d1_matching*.txt"))) == 6


def test_matchings_export_unwritable(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = run_cli(
        capsys, "matchings", "--depth", "1", "--export", str(blocker / "x")
    )
    assert_usage_error(result, "cannot export: ")


def test_matchings_depth_overflow(capsys):
    code, _, err = run_cli(capsys, "matchings", "--depth", "3")
    assert code == 1
    assert "matchings failed" in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_matchings_depth_below_one(capsys, depth):
    result = run_cli(capsys, "matchings", "--depth", depth)
    assert_usage_error(result, "depth must be at least 1")


def test_simulate_identity(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "identity", "--scheme", "f4", "--queries", "2"
    )
    assert code == 0
    assert "identity: queries = 2" in out
    assert "drop bound: ok" in out


def test_simulate_random_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "random", "--scheme", "f4",
        "--count", "3", "--seed", "5", "--queries", "2",
    )
    assert code == 0
    for seed in (5, 6, 7):
        assert f"random[seed={seed}]" in out
    assert out.count("drop bound: ok") == 3


def test_simulate_count_holds_one_algorithm_at_a_time(capsys):
    # 65 unitaries of 63 x 63, about 4 MB per algorithm
    argv = ("simulate", "random", "--scheme", "h6", "--queries", "64", "--work", "9")
    run_cli(capsys, *argv)  # the scheme is checked once, before the measurement
    peaks = []
    for count in (1, 6):
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *argv, "--count", str(count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0 and out.count("drop bound: ok") == count
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("algorithm", ["random", "identity"])
def test_simulate_huge_work_is_refused_before_any_draw(capsys, algorithm):
    start = time.perf_counter()
    result = run_cli(capsys, "simulate", algorithm, "--scheme", "f", "--work", "1000")
    assert time.perf_counter() - start < 1.0
    assert_usage_error(result, "cannot build algorithm: dimension 5000 exceeds cap 64")


@pytest.mark.parametrize("algorithm", ["random", "identity"])
def test_simulate_huge_queries_are_refused_before_any_draw(capsys, algorithm):
    start = time.perf_counter()
    argv = ["simulate", algorithm, "--scheme", "f", "--queries", "1000000000"]
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert_usage_error(result, "cannot build algorithm: 1000000000 queries exceed the cap 1024")


def run_fresh_parser(capsys, monkeypatch, argv):
    """What main(argv) gave before it kept its parser: a new one per call."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", build_parser)
        return run_cli(capsys, *argv)


def test_main_reuses_its_parser_between_calls(capsys, monkeypatch):
    seeded = ["simulate", "random", "--scheme", "f", "--seed", "5", "--json"]
    calls = [
        seeded,
        seeded[:4] + ["--json"],  # no --seed: the default comes back
        ["measures", "f4", "--skip", "cert"],
        ["measures", "f4"],  # no --skip: the cert fields come back
        ["simulate", "random", "--scheme", "f", "--queries", "x"],  # rejected
        ["verify-scheme", "f4"],
    ]
    results = []
    for argv in calls:
        result = run_cli(capsys, *argv)
        assert result == run_fresh_parser(capsys, monkeypatch, argv)
        results.append(result)
    seeds = [json.loads(out)["algorithms"][0]["seed"] for _, out, _ in results[:2]]
    assert seeds == [5, 0]
    assert "c0 = " not in results[2][1] and "c0 = 3" in results[3][1]
    err = "advwb simulate: error: argument --queries: invalid int value: 'x'\n"
    assert results[4] == (2, "", err)
    assert results[5][0] == 0 and results[5][1].startswith("valid, bound = 5/2")


def test_simulate_balances_when_needed(capsys):
    code, out, _ = run_cli(capsys, "simulate", "identity", "--scheme", "h6")
    assert code == 0
    assert "note: scheme balanced before tracing" in out


@pytest.mark.parametrize(
    "scheme, want", [("f4", 1), ("h6", 2)], ids=["balanced", "balanced-first"]
)
@pytest.mark.parametrize("eps", [[], ["--eps", "0.3"]], ids=["", "eps"])
def test_simulate_calls_loads_once_per_scheme(capsys, monkeypatch, scheme, want, eps):
    # once on the scheme as given, once more on a scheme it had to balance;
    # never per trace, never inside qsim, and never again in the process
    from advwb import qsim

    calls = counting_calls(monkeypatch, "loads")
    verified = counting_calls(monkeypatch, "verify")
    assert not hasattr(qsim, "loads") and not hasattr(qsim, "adversary")
    argv = ["simulate", "random", "--scheme", scheme, "--count", "3", *eps]
    first = run_cli(capsys, *argv)
    code, out, _ = first
    assert code == (1 if eps else 0)
    assert out.count("drop bound: ok") == 3
    assert (len(calls), len(verified)) == (want, 1)
    assert run_cli(capsys, *argv) == first
    assert (len(calls), len(verified)) == (want, 1)


def test_scheme_file_rewritten_in_place_is_checked_again(capsys, tmp_path):
    path = tmp_path / "nae3.scheme.json"
    save_scheme(builtin_scheme("nae3"), path)
    assert run_cli(capsys, "verify-scheme", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["pairs"][0]["w"] = "3"  # w'*w' = 4 < w^2 = 9 at the pair's one coordinate
    path.write_text(json.dumps(doc))
    for argv in (["verify-scheme"], ["simulate", "identity", "--scheme"]):
        code, out, _ = run_cli(capsys, *argv, str(path))
        assert code == 1
        assert out.splitlines() == [
            "invalid: 1 violation(s)",
            "  [constraint] pair (0, 1), coordinate 3: w'*w' = 4 < w^2 = 9",
        ]


def test_scheme_file_that_failed_to_load_loads_once_fixed(capsys, tmp_path):
    path = tmp_path / "nae3.scheme.json"
    path.write_text("{")
    for _ in range(2):  # a failure is not kept: the same message each time
        assert_usage_error(run_cli(capsys, "verify-scheme", str(path)), "cannot load scheme: ")
    save_scheme(builtin_scheme("nae3"), path)
    code, out, _ = run_cli(capsys, "verify-scheme", str(path))
    assert code == 0 and out.startswith("valid, bound = 3/2*sqrt(2)")


def _reads_the_current_table(capsys, tmp_path, key: str) -> None:
    """A scheme file naming its table by `key`, the JSON text of "path", is
    checked against the table as it is now, not as it was first read."""
    path = tmp_path / "parity2.scheme.json"
    save_scheme(unit_scheme(parity(2), (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)]), path)
    doc = json.loads(path.read_text())
    del doc["table"]
    doc["path"] = "parity2.tbl"
    path.write_text(json.dumps(doc).replace('"path"', key))
    save_table(parity(2), tmp_path / "parity2.tbl")
    assert run_cli(capsys, "verify-scheme", str(path))[0] == 0
    save_table(or_n(2), tmp_path / "parity2.tbl")  # 3 is a 1-input of or2
    code, out, _ = run_cli(capsys, "verify-scheme", str(path))
    assert code == 1
    assert out.splitlines() == [
        "invalid: 1 violation(s)",
        "  [side] input 3: A-side input is not a 0-input",
    ]


def test_scheme_file_reads_the_current_table(capsys, tmp_path):
    _reads_the_current_table(capsys, tmp_path, '"path"')


def test_scheme_file_naming_its_table_by_an_escaped_key_reads_it(capsys, tmp_path):
    _reads_the_current_table(capsys, tmp_path, '"\\u0070ath"')


def test_scheme_file_without_a_path_key_is_parsed_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "parity2.scheme.json"
    save_scheme(unit_scheme(parity(2), (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)]), path)
    parsed = []
    real = json.loads

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    assert run_cli(capsys, "verify-scheme", str(path))[0] == 0
    assert len(parsed) == 1


def test_checked_scheme_files_are_keyed_by_digests(capsys, tmp_path):
    plain = tmp_path / "nae3.scheme.json"
    save_scheme(builtin_scheme("nae3"), plain)
    assert run_cli(capsys, "verify-scheme", str(plain))[0] == 0
    _reads_the_current_table(capsys, tmp_path, '"path"')
    assert run_cli(capsys, "verify-scheme", "f4")[0] == 0
    assert len(cli._checked_schemes) == 3
    for key in cli._checked_schemes:
        for part in key if isinstance(key, tuple) else (key,):
            assert not isinstance(part, (str, bytes)) or len(part) <= 64


def test_least_recently_used_scheme_file_is_checked_again(capsys, monkeypatch, tmp_path):
    doc = json.loads(Path(_mixed_or2_file(tmp_path)).read_text())
    paths = []
    for k in range(cli.CHECKED_SCHEME_CAP + 1):  # equal schemes, distinct texts
        paths.append(tmp_path / f"or2.{k}.json")
        paths[-1].write_text(json.dumps(doc, indent=k))
    verified = counting_calls(monkeypatch, "verify")
    outs = {run_cli(capsys, "verify-scheme", str(p)) for p in paths}
    assert len(outs) == 1 and len(verified) == len(paths)
    assert run_cli(capsys, "verify-scheme", str(paths[-1])) in outs
    assert len(verified) == len(paths)
    assert run_cli(capsys, "verify-scheme", str(paths[0])) in outs  # dropped
    assert len(verified) == len(paths) + 1


def test_compose_verifies_its_base(capsys, monkeypatch):
    verified = counting_calls(monkeypatch, "verify")
    code, out, _ = run_cli(capsys, "compose", "--base", "h", "--depth", "1")
    assert code == 0 and "measured bound = 1/2*sqrt(39)" in out
    base = builtin_scheme("h6")
    assert len(verified) == 2  # the base, then the balanced scheme it composes
    assert list(verified[0].sweep_pairs("a")) == list(base.sweep_pairs("a"))
    assert list(verified[1].sweep_pairs("a")) != list(base.sweep_pairs("a"))


def test_simulate_parity2_with_final_bound(capsys, tmp_path):
    f = parity(2)
    scheme = unit_scheme(f, (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)])
    path = tmp_path / "parity2.scheme.json"
    save_scheme(scheme, path)
    code, out, _ = run_cli(
        capsys,
        "simulate", "parity2", "--scheme", str(path), "--eps", "0.0",
    )
    assert code == 0
    assert "final bound at eps = 0.0: ok" in out
    assert "query lower bound: 1.000000" in out


def test_simulate_precondition_failure(capsys, tmp_path):
    f = parity(2)
    scheme = unit_scheme(f, (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)])
    path = tmp_path / "parity2.scheme.json"
    save_scheme(scheme, path)
    code, out, _ = run_cli(
        capsys,
        "simulate", "identity", "--scheme", str(path), "--eps", "0.1",
    )
    assert code == 1
    assert "precondition failed" in out


def test_simulate_rejects_invalid_scheme(capsys, tmp_path):
    # sides swapped: A = {1, 2} are 1-inputs of or2, B holds the 0-input 0
    bad = ExplicitScheme(
        or_n(2),
        [
            (1, 0, ONE, {2: (ONE, ONE)}),
            (1, 3, ONE, {1: (ONE, ONE)}),
            (2, 0, ONE, {1: (ONE, ONE)}),
            (2, 3, ONE, {2: (ONE, ONE)}),
        ],
    )
    path = tmp_path / "or2.scheme.json"
    save_scheme(bad, path)
    code, verified, _ = run_cli(capsys, "verify-scheme", str(path))
    assert code == 1
    assert verified.splitlines()[0] == "invalid: 3 violation(s)"
    code, out, _ = run_cli(capsys, "simulate", "random", "--scheme", str(path))
    assert code == 1
    assert out == verified
    assert "drop bound" not in out


def test_simulate_unbalanceable_scheme_is_an_error(capsys, tmp_path):
    # valid, with exact loads v_A = 2 - sqrt(2) and v_B = 1, but balancing
    # needs the square root of v_B / v_A = 1 + sqrt(2)/2, which no sum of
    # rational multiples of square roots equals
    path = _mixed_or2_file(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "identity", "--scheme", path)
    assert code == 2
    assert out == ""
    assert err == "cannot trace scheme: load ratio 1 + 1/2*sqrt(2) has no exact square root\n"


# the identity on the 4-dimensional space of n = 3, work = 1
_ID4 = [[int(r == c), 0] for r in range(4) for c in range(4)]


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        "algorithm",
        {"n": 1, "work": 1, "unitaries": 5},
        {"n": 1, "work": 1, "unitaries": [5]},
        {"n": 1, "work": 1, "unitaries": [[1, 0, 0, 1]]},
        {"n": 1, "work": 1, "unitaries": [[["1", 0], [0, 0], [0, 0], [1, 0]]]},
        {"n": float("inf"), "work": 1, "unitaries": []},
        {"n": 3.9, "work": 1, "unitaries": [_ID4]},
        {"n": "3", "work": 1, "unitaries": [_ID4]},
        {"n": 3, "work": 1.0, "unitaries": [_ID4]},
        {"n": 3, "work": True, "unitaries": [_ID4]},
    ],
)
def test_malformed_algorithm_file_is_a_load_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.algorithm.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(path), "--scheme", "g")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cannot build algorithm: ")


_ZEROS81 = [[0, 0]] * 81  # as many entries as a 9 x 9 unitary


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2, "work": -3, "unitaries": [_ZEROS81]}, "need work >= 1, got -3"),
        ({"n": 2, "work": -3, "unitaries": [[]]}, "need work >= 1, got -3"),
        ({"n": -2, "work": 3, "unitaries": [[]]}, "need n >= 1, got -2"),
        (
            {"n": 200_000_000_000, "work": 2, "unitaries": [[]]},
            "dimension 400000000002 exceeds cap 64",
        ),
    ],
    ids=["negative-work", "negative-work-empty", "negative-n", "huge-n"],
)
def test_algorithm_file_dimension_is_checked_before_its_entries(
    capsys, tmp_path, doc, message
):
    path = tmp_path / "bad.algorithm.json"
    path.write_text(json.dumps(doc))
    result = run_cli(capsys, "simulate", str(path), "--scheme", "g")
    assert result == (2, "", f"cannot build algorithm: {message}\n")


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "name, text, argv, message",
    [
        (
            "deep.scheme.json",
            '{"arity": 3, "table": "01111110", "a": [0], "b": [1], "pairs": '
            f'[{{"x": 0, "y": 1, "w": "1", "wp": {_DEEP}}}]}}',
            ["verify-scheme", "{}"],
            "cannot load scheme: a scheme file's JSON nests too deep\n",
        ),
        (
            "deep.algorithm.json",
            f'{{"n": 3, "work": 1, "unitaries": {_DEEP}}}',
            ["simulate", "{}", "--scheme", "f4"],
            "cannot build algorithm: malformed algorithm file {}: JSON nests too deep\n",
        ),
    ],
    ids=["scheme", "algorithm"],
)
def test_deeply_nested_json_gives_one_line(tmp_path, name, text, argv, message):
    path = tmp_path / name
    path.write_text(text)
    src = str(Path(advwb.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "advwb", *(a.format(path) for a in argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == message.format(path)


def test_huge_algorithm_entries_give_one_line_and_no_warning(tmp_path):
    # U^H U overflows to inf and nan; numpy's warnings would reach stderr
    huge = [[1e200 if r == c else 0, 0] for r in range(4) for c in range(4)]
    path = tmp_path / "huge.algorithm.json"
    path.write_text(json.dumps({"n": 3, "work": 1, "unitaries": [huge, huge]}))
    src = str(Path(advwb.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "advwb", "simulate", str(path), "--scheme", "g"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "cannot build algorithm: matrix 0 is not unitary (defect inf > 1e-09)\n"
    )


def test_simulate_arity_mismatch(capsys):
    code, _, err = run_cli(capsys, "simulate", "parity2", "--scheme", "f4")
    assert code == 1
    assert "does not match" in err


def test_simulate_missing_algorithm_file(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "/no/such/algorithm.json", "--scheme", "f4"
    )
    assert code == 2
    assert "cannot build algorithm" in err


def test_iterate_depth2(capsys):
    code, out, _ = run_cli(capsys, "iterate", "f4", "--depth", "2")
    assert code == 0
    assert "depth = 2" in out
    assert "sensitivity = 4" in out
    assert "block sensitivity >= 9" in out
    assert "decision tree depth <= 9" in out
    assert "tight = yes" in out
    assert "exhaustively verified = yes" in out
    assert "degree = 4" in out


def test_iterate_depth3_unverified(capsys):
    code, out, _ = run_cli(capsys, "iterate", "f4", "--depth", "3")
    assert code == 0
    assert "block sensitivity >= 27" in out
    assert "exhaustively verified = no" in out
    assert "degree" not in out


@pytest.mark.parametrize("depth", ["0", "30000"])
def test_iterate_depth_out_of_range(capsys, depth):
    result = run_cli(capsys, "iterate", "f4", "--depth", depth)
    assert_usage_error(result, f"depth must be in 1..{MAX_DEPTH}")


def test_iterate_deepest_depth_prints(capsys):
    code, out, _ = run_cli(capsys, "iterate", "f4", "--depth", str(MAX_DEPTH))
    assert code == 0 and "exhaustively verified = no" in out


def test_iterate_rejects_wrong_base(capsys):
    code, _, err = run_cli(capsys, "iterate", "parity3", "--depth", "2")
    assert code == 1
    assert "iterate failed" in err


def _write_failure_inputs(tmp_path) -> None:
    """The files that the cases of `test_failure_exit` name."""
    (tmp_path / "bad.tbl").write_text("2\n01x1\n")
    (tmp_path / "list.scheme.json").write_text("[1, 2]")
    (tmp_path / "notable.scheme.json").write_text(
        json.dumps({"path": "missing.tbl", "a": [0], "b": [1], "pairs": [_PAIR]})
    )
    (tmp_path / "semiprime.scheme.json").write_text(json.dumps({
        "arity": 3, "table": "01111110", "a": [0], "b": [1],
        "pairs": [
            {"x": 0, "y": 1, "w": "2", "wp": {"3": ["30000000000018200000000002759", "4"]}}
        ],
    }))
    # sides swapped: A = {1, 2} are 1-inputs of or2, B holds the 0-input 0
    swapped = ExplicitScheme(
        or_n(2),
        [
            (1, 0, ONE, {2: (ONE, ONE)}),
            (1, 3, ONE, {1: (ONE, ONE)}),
            (2, 0, ONE, {1: (ONE, ONE)}),
            (2, 3, ONE, {2: (ONE, ONE)}),
        ],
    )
    save_scheme(swapped, tmp_path / "swapped.scheme.json")
    _mixed_or2_file(tmp_path)  # or2.scheme.json: valid, cannot be balanced
    parity2 = unit_scheme(parity(2), (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)])
    save_scheme(parity2, tmp_path / "parity2.scheme.json")
    (tmp_path / "file").write_text("")
    (tmp_path / "list.algorithm.json").write_text("[1, 2]")
    twice_identity = [[2 * int(r == c), 0] for r in range(4) for c in range(4)]
    (tmp_path / "scaled.algorithm.json").write_text(
        json.dumps({"n": 3, "work": 1, "unitaries": [twice_identity]})
    )


_SWAPPED_INVALID = (
    "invalid: 3 violation(s)\n"
    "  [side] input 1: A-side input is not a 0-input\n"
    "  [side] input 2: A-side input is not a 0-input\n"
    "  [side] input 0: B-side input is not a 1-input\n"
)
_NO_SCHEME_NOPE = "cannot load scheme: unknown scheme 'nope'; choose from ('f4', 'nae3', 'h6')\n"
_NO_FUNCTION = "cannot load function: unknown builtin 'mystery9'\n"
_PARSE_ERROR = "parse error: line 2, pos 3: invalid character 'x'\n"
_BAD_SKIP = (
    "unknown skip tokens ['bogus']; "
    "choose from ('deg', 'approx_deg', 's', 'bs', 'cert', 'D')\n"
)


# Every failure exit of every subcommand, with its exact exit code, stdout
# and stderr; <tmp> stands for the directory `_write_failure_inputs` fills.
# Where one call breaks two rules, the case pins which check comes first.
# Two exits are left out because no input reaches them without replacing
# library code: "approximate degree not certified" (pinned with a patched
# certifier by test_measures_uncertified_approx_degree) and "composed
# scheme invalid" (compose only composes verified builtin bases, and their
# balanced compositions verify).
_FAILURES = {
    "measures-parse-error": ("measures <tmp>/bad.tbl", 2, "", _PARSE_ERROR),
    "measures-unknown-function": ("measures mystery9", 2, "", _NO_FUNCTION),
    "measures-load-before-skip": ("measures mystery9 --skip bogus", 2, "", _NO_FUNCTION),
    "measures-skip": ("measures f4 --skip bogus", 2, "", _BAD_SKIP),
    "measures-skip-before-eps": (
        "measures f4 --skip bogus --eps banana", 2, "", _BAD_SKIP
    ),
    "measures-eps": ("measures f4 --eps banana", 2, "", "bad eps 'banana'\n"),
    "measures-eps-range": (
        "measures f4 --eps 1/2", 2, "", "bad eps '1/2': must lie in [0, 1/2)\n"
    ),
    "measures-cap": (
        "measures or13 --skip approx_deg,bs,cert", 1, "",
        "cap exceeded: decision-tree depth capped at arity 12 (use --skip)\n",
    ),
    "verify-unknown": ("verify-scheme nope", 2, "", _NO_SCHEME_NOPE),
    "verify-directory": (
        "verify-scheme <tmp>", 2, "",
        "cannot load scheme: [Errno 21] Is a directory: '<tmp>'\n",
    ),
    "verify-missing-table": (
        "verify-scheme <tmp>/notable.scheme.json", 2, "",
        "cannot load scheme: [Errno 2] No such file or directory: '<tmp>/missing.tbl'\n",
    ),
    "verify-malformed": (
        "verify-scheme <tmp>/list.scheme.json", 2, "",
        "cannot load scheme: a scheme file must hold a JSON object\n",
    ),
    "verify-invalid": (
        "verify-scheme <tmp>/swapped.scheme.json", 1, _SWAPPED_INVALID, ""
    ),
    "verify-unfactorable": (
        "verify-scheme <tmp>/semiprime.scheme.json", 2, "",
        "cannot load scheme: cannot find the squarefree part of "
        "30000000000018200000000002759: its cofactor 30000000000018200000000002759 "
        "has no factor below 1000001 and may still hide a square\n",
    ),
    "compose-missing-depth": (
        "compose --base f", 2, "",
        "advwb compose: error: the following arguments are required: --depth\n",
    ),
    "compose-base-before-depth": (
        "compose --base q --depth 0", 2, "", "unknown base 'q'\n"
    ),
    "compose-depth": ("compose --base f --depth 0", 2, "", "depth must be in 1..512\n"),
    "compose-export-not-materialized": (
        "compose --base f --depth 3 --export <tmp>/x.json", 1, "",
        "cannot export: composition not materialized\n",
    ),
    "compose-export-unwritable": (
        "compose --base g --depth 2 --export <tmp>/file/x.json", 2, "",
        "cannot export: [Errno 20] Not a directory: '<tmp>/file/x.json'\n",
    ),
    "matchings-depth": ("matchings --depth 0", 2, "", "depth must be at least 1\n"),
    "matchings-too-deep": (
        "matchings --depth 3", 1, "",
        "matchings failed: depth 3 not materializable (supported: 1..2)\n",
    ),
    "matchings-export-unwritable": (
        "matchings --depth 1 --export <tmp>/file/x", 2, "",
        "cannot export: [Errno 20] Not a directory: '<tmp>/file/x'\n",
    ),
    "simulate-queries-not-int": (
        "simulate random --scheme f4 --queries x", 2, "",
        "advwb simulate: error: argument --queries: invalid int value: 'x'\n",
    ),
    "simulate-eps-before-count": (
        "simulate random --scheme nope --eps 2 --count 0", 2, "",
        "bad eps 2.0: must lie in [0, 1/2)\n",
    ),
    "simulate-count-before-scheme": (
        "simulate random --scheme nope --count 0", 2, "",
        "bad count 0: must be at least 1\n",
    ),
    "simulate-scheme-before-algorithm": (
        "simulate <tmp>/none.json --scheme nope", 2, "", _NO_SCHEME_NOPE
    ),
    "simulate-scheme-directory": (
        "simulate identity --scheme <tmp>", 2, "",
        "cannot load scheme: [Errno 21] Is a directory: '<tmp>'\n",
    ),
    "simulate-invalid-scheme": (
        "simulate random --scheme <tmp>/swapped.scheme.json", 1, _SWAPPED_INVALID, ""
    ),
    "simulate-unbalanceable": (
        "simulate identity --scheme <tmp>/or2.scheme.json", 2, "",
        "cannot trace scheme: load ratio 1 + 1/2*sqrt(2) has no exact square root\n",
    ),
    "simulate-missing-algorithm": (
        "simulate <tmp>/none.json --scheme f4", 2, "",
        "cannot build algorithm: [Errno 2] No such file or directory: '<tmp>/none.json'\n",
    ),
    "simulate-malformed-algorithm": (
        "simulate <tmp>/list.algorithm.json --scheme g", 2, "",
        "cannot build algorithm: malformed algorithm file "
        "<tmp>/list.algorithm.json: not a JSON object\n",
    ),
    "simulate-not-unitary": (
        "simulate <tmp>/scaled.algorithm.json --scheme g", 2, "",
        "cannot build algorithm: matrix 0 is not unitary (defect 3.000e+00 > 1e-09)\n",
    ),
    "simulate-dimension-cap": (
        "simulate random --scheme f4 --work 100", 2, "",
        "cannot build algorithm: dimension 500 exceeds cap 64\n",
    ),
    "simulate-arity": (
        "simulate parity2 --scheme f4", 1, "",
        "parity2: scheme arity 4 does not match algorithm n = 2\n",
    ),
    "simulate-precondition": (
        "simulate identity --scheme <tmp>/parity2.scheme.json --eps 0.1", 1,
        "identity: queries = 2, W = [4.000000, 4.000000, 4.000000]\n"
        "  drop bound: ok\n"
        "  precondition failed: algorithm exceeds error 0.1 on 2 inputs: "
        "x=1 err=1.000000, x=2 err=1.000000\n"
        "  query lower bound: 0.400000\n",
        "",
    ),
    "iterate-load-before-depth": ("iterate mystery9 --depth 0", 2, "", _NO_FUNCTION),
    "iterate-parse-error": ("iterate <tmp>/bad.tbl --depth 1", 2, "", _PARSE_ERROR),
    "iterate-depth": ("iterate f4 --depth 0", 2, "", "depth must be in 1..512\n"),
    "iterate-wrong-base": (
        "iterate parity3 --depth 2", 1, "",
        "iterate failed: iterated certificates need an arity-4 base\n",
    ),
}


@pytest.mark.parametrize("command, code, out, err", _FAILURES.values(), ids=_FAILURES)
def test_failure_exit(capsys, tmp_path, command, code, out, err):
    _write_failure_inputs(tmp_path)
    argv, out, err = (text.replace("<tmp>", str(tmp_path)) for text in (command, out, err))
    assert run_cli(capsys, *argv.split()) == (code, out, err)


def test_json_outputs_parse(capsys):
    code, out, _ = run_cli(capsys, "measures", "f4", "--json")
    assert code == 0 and json.loads(out)["deg"] == 2

    code, out, _ = run_cli(capsys, "compose", "--base", "g", "--depth", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["measured_bound"] == "9/2"

    code, out, _ = run_cli(capsys, "matchings", "--depth", "1", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["sets"]["1"]["l_prime"] == 2 and doc["sets"]["2"]["l"] == 2

    code, out, _ = run_cli(
        capsys, "simulate", "identity", "--scheme", "f4", "--json"
    )
    doc = json.loads(out)
    assert code == 0 and doc["algorithms"][0]["drop_bound_ok"] is True

    code, out, _ = run_cli(capsys, "iterate", "f4", "--depth", "1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["bs_lower"] == 3


def test_python_m_advwb():
    src = str(Path(advwb.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "advwb", "verify-scheme", "nae3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid, bound = 3/2*sqrt(2) (2.121320)\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-scheme", "f4"], 0),
        (["verify-scheme", "h6"], 0),
        (["simulate", "random", "--scheme", "f"], 0),
        # exit 1: the random algorithm errs past 0.3
        (["simulate", "random", "--scheme", "h", "--eps", "0.3"], 1),
    ],
)
def test_small_commands_leave_numpy_ma_unloaded(argv, code):
    # a bare np.unique imports numpy.ma, some 8 ms of every process
    src = str(Path(advwb.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    script = (
        "import sys\nfrom advwb.cli import main\n"
        f"code = main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} False"
