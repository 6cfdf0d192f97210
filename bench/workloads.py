"""Workload definitions: seeded inputs, operation lists and output checks.

`Workload.setup` runs in a fresh set-up process (see worker.py): it
generates the inputs from the seed, writes the files the program reads,
and returns the operation list.  Operations are plain dicts, executed by
`worker.execute` one at a time; `check` runs in the benchmark process on
each result and returns an error message, or None when the output is
correct.

Operations of kind "cli" call `advwb.cli.main(argv)` with the argv given;
operations of kind "stage" call the library directly (f4sq-certify).
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# ---- f4sq-certify ----------------------------------------------------------
#
# The one large exact sweep: compose the balanced f4 scheme with itself,
# verify and load all 1,310,720 pairs, check the weight corollary on a
# seeded sample of input slices, then the depth-2 matchings and iterated
# certificates.  compose, adversary and weights do almost all the work;
# the measures LPs and qsim are not involved.

COROLLARY_SAMPLE = 4096  # of the 65,536 input slices


def f4sq_ops(rng: random.Random, workdir: Path) -> list[dict]:
    sample = sorted(rng.sample(range(1 << 16), COROLLARY_SAMPLE))
    return [
        {"kind": "stage", "stage": "construct"},
        {"kind": "stage", "stage": "verify"},
        {"kind": "stage", "stage": "loads"},
        {"kind": "stage", "stage": "corollary", "xs": sample},
        {"kind": "stage", "stage": "matchings"},
        {"kind": "stage", "stage": "iterate"},
    ]


def run_stage(op: dict, state: dict):
    """Execute one f4sq-certify stage; returns the raw library result."""
    from advwb import adversary, boolfn, compose, matchings, measures

    stage = op["stage"]
    if stage == "construct":
        base = adversary.balance(adversary.builtin_scheme("f4"))
        state["composed"] = compose.compose_scheme(base, base)
        return state["composed"]
    composed = state.get("composed")
    if stage == "verify":
        return adversary.verify(composed)
    if stage == "loads":
        return adversary.loads(composed, keep_maps=False)
    if stage == "corollary":
        return [x for x in op["xs"] if not compose.check_corollary(composed, x)]
    if stage == "matchings":
        return matchings.check_matchings(2)
    if stage == "iterate":
        return measures.iterated_certificates(boolfn.f4(), 2)
    raise ValueError(f"unknown stage {stage!r}")


def summarize_stage(op: dict, result) -> dict:
    """Plain, exact-string summary of a stage result, sent back for checking."""
    stage = op["stage"]
    if stage == "construct":
        return {"pair_count": result.pair_count}
    if stage == "verify":
        return {"violations": [str(v) for v in result[:5]], "count": len(result)}
    if stage == "loads":
        return {
            k: str(getattr(result, k))
            for k in ("bound", "v_a", "v_b", "wt_min", "wt_max")
        }
    if stage == "corollary":
        return {"failed": result}
    if stage == "matchings":
        return {
            str(s): [c.m, c.m_prime, c.l, c.l_prime, str(c.bound), c.disjoint]
            for s, c in result.items()
        }
    if stage == "iterate":
        return {
            k: getattr(result, k)
            for k in ("s", "bs_lower", "depth_upper", "equal", "verified", "degree")
        }
    raise ValueError(f"unknown stage {stage!r}")


F4SQ_EXPECTED = {
    "construct": {"pair_count": 1310720},
    "verify": {"violations": [], "count": 0},
    # every wt equals (10/3)^5: the minimum and the maximum both do
    "loads": {
        "bound": "25/4",
        "v_a": "4/25",
        "v_b": "4/25",
        "wt_min": "100000/243",
        "wt_max": "100000/243",
    },
    "corollary": {"failed": []},
    "matchings": {"1": [9, 9, 1, 4, "9/2", True], "2": [9, 9, 4, 1, "9/2", True]},
    "iterate": {
        "s": 4,
        "bs_lower": 9,
        "depth_upper": 9,
        "equal": True,
        "verified": True,
        "degree": 4,
    },
}


def check_stage(op: dict, out) -> str | None:
    want = F4SQ_EXPECTED[op["stage"]]
    return None if out == want else f"{op['stage']}: got {out}, want {want}"


# ---- measures-mix ------------------------------------------------------------
#
# Seeded `advwb measures <table> --json` calls: the LP layer (exact Fraction
# simplex at 4-6 bits, HiGHS at 9-10 bits) and the combinatorial measures
# (decision-tree depth and block sensitivity dominate at 11 bits).  No
# scheme is built, so adversary, compose and qsim are bypassed.
#
# Left out to keep one run near 30 s:
# - parity6: 20 s on its own; the exact LP at arity 6 is exercised by h6,
#   or6 and and6.
# - random 6-bit tables: 17-25 s each, on the same exact LP path.
# - random 12-bit tables: 8-11 s each, on the same depth and block
#   sensitivity code as the 11-bit ones.
# - 12-bit approximate degree: one call runs for more than 150 s and would
#   swamp the run; it belongs here once the HiGHS path is certified and fast.

BUILTINS = (
    "f4", "nae3", "h6",
    "parity4", "parity5",
    "or4", "or5", "or6",
    "and4", "and5", "and6",
)  # fmt: skip

# (arity, tables per run, --skip tokens)
RANDOM_TABLES = (
    (4, 8, ""),
    (5, 3, ""),
    (9, 2, "cert"),
    (10, 1, "cert"),
    (11, 2, "approx_deg,cert"),
)

# Values at eps = 1/3.  f4, nae3 and h6 agree with the README and the
# acceptance tests; parity, or and and with their textbook values.
BUILTIN_EXPECTED = {
    "f4": dict(deg=2, approx_deg=2, s=2, bs=3, c0=3, c1=3, d_depth=3),
    "nae3": dict(deg=2, approx_deg=2, s=3, bs=3, c0=3, c1=2, d_depth=3),
    "h6": dict(deg=3, approx_deg=3, s=6, bs=6, c0=6, c1=6, d_depth=6),
}
for _n in (4, 5, 6):
    BUILTIN_EXPECTED[f"parity{_n}"] = dict(
        deg=_n, approx_deg=_n, s=_n, bs=_n, c0=_n, c1=_n, d_depth=_n
    )
    BUILTIN_EXPECTED[f"or{_n}"] = dict(
        deg=_n, approx_deg=2, s=_n, bs=_n, c0=_n, c1=1, d_depth=_n
    )
    BUILTIN_EXPECTED[f"and{_n}"] = dict(
        deg=_n, approx_deg=2, s=_n, bs=_n, c0=1, c1=_n, d_depth=_n
    )

# Past this an operation is terminated and counted as failed.  The slowest
# operation that completes at this commit, a random 6-bit table, takes
# about 25 s; a random 7-bit table on the default path needs more than 90 s.
MEASURES_DEADLINE_S = 60.0


def _write_table(rng: random.Random, n: int, path: Path) -> None:
    from advwb.boolfn import BooleanFunction, save_table

    bits = "".join(rng.choice("01") for _ in range(1 << n))
    save_table(BooleanFunction.from_bits(bits), path)


def measures_ops(rng: random.Random, workdir: Path) -> list[dict]:
    """Builtins, then tables by arity: a fixed order, so that peak memory
    does not depend on which operation happens to follow which."""
    ops = [
        {"kind": "cli", "tag": name, "argv": ["measures", name, "--json"]}
        for name in BUILTINS
    ]
    for n, count, skip in RANDOM_TABLES:
        for k in range(count):
            path = workdir / f"rand{n}_{k}.tbl"
            _write_table(rng, n, path)
            argv = ["measures", str(path), "--json"]
            if skip:
                argv += ["--skip", skip]
            ops.append({"kind": "cli", "tag": f"rand{n}", "argv": argv})
    return ops


def check_measures(op: dict, out) -> str | None:
    code, doc = out["code"], _json(out["stdout"])
    if code != 0 or doc is None:
        return f"{op['tag']}: exit {code}: {out['stderr'][-200:]}"
    want = BUILTIN_EXPECTED.get(op["tag"])
    if want is not None:
        got = {k: doc.get(k) for k in want}
        return None if got == want else f"{op['tag']}: got {got}, want {want}"
    # random tables: s <= bs <= max(C0, C1) <= D and approx <= deg <= D,
    # on the fields the call reports
    chain = [doc.get("s"), doc.get("bs")]
    if "c0" in doc:
        chain.append(max(doc["c0"], doc["c1"]))
    chain.append(doc.get("d_depth"))
    chains = [chain, [doc.get("approx_deg"), doc.get("deg"), doc.get("d_depth")]]
    for c in chains:
        vals = [v for v in c if v is not None]
        if vals != sorted(vals):
            return f"{op['tag']}: measures out of order: {doc}"
    return None


# ---- measures-7bit (probe; not part of the timed benchmark) -------------------
#
# One random 7-bit table per run on the default path.  At this commit its
# exact approximate-degree LP runs far past MEASURES_DEADLINE_S, so the
# operation is terminated and counted as failed on every run.  It is kept
# out of measures-mix because a benchmark workload must have no failing
# operations; it passes once approximate degree at 7-8 bits takes seconds.


def measures_7bit_ops(rng: random.Random, workdir: Path) -> list[dict]:
    path = workdir / "rand7.tbl"
    _write_table(rng, 7, path)
    return [{"kind": "cli", "tag": "rand7", "argv": ["measures", str(path), "--json"]}]


# ---- simulate-mix ------------------------------------------------------------
#
# Seeded `advwb simulate ... --json` calls, one trace each.  Small traces
# spend most of their time in adversary.loads on a tiny scheme; wide
# traces (unit schemes on 10-12 bits, near INPUT_CAP inputs and
# DIMENSION_CAP) in state evolution and scheme-file parsing.  The `loads`
# that f4sq-certify calls once on 1.3 M pairs is called thousands of times
# on about 100 pairs here, so a fixed cost per call shows.

# Small traces take about half of a pass, so a fixed cost added to each
# call moves run_s and not only the median operation.
SMALL_PER_SCHEME = 250  # random algorithms against each of f, g, h
PARITY2_TRACES = 8
WIDE_ARITIES = (10, 11, 12)
WIDE_PER_ARITY = 4  # at least 11 wide traces, so the tail percentile is one


def _write_wide_scheme(rng: random.Random, n: int, path: Path) -> None:
    """Unit scheme on one seeded perfect matching of a balanced function.

    Every input is in exactly one pair, so v_A = v_B = 1: balanced.
    """
    from advwb.adversary import save_scheme, unit_scheme
    from advwb.boolfn import BooleanFunction

    size = 1 << n
    order = list(range(size))
    rng.shuffle(order)
    ones = sorted(order[: size // 2])
    zeros = sorted(order[size // 2 :])
    partners = ones[:]
    rng.shuffle(partners)
    f = BooleanFunction.from_ones(n, ones)
    save_scheme(unit_scheme(f, zeros, ones, list(zip(zeros, partners))), path)


def simulate_ops(rng: random.Random, workdir: Path) -> list[dict]:
    from advwb.adversary import save_scheme, unit_scheme
    from advwb.boolfn import parity
    from advwb.qsim import DIMENSION_CAP

    parity_path = workdir / "parity2_unit.json"
    save_scheme(
        unit_scheme(parity(2), (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)]),
        parity_path,
    )
    ops = []
    for scheme in ("f", "g", "h"):
        for _ in range(SMALL_PER_SCHEME):
            queries, work = rng.randint(2, 8), rng.randint(2, 4)
            ops.append(_random_trace("small", scheme, queries, work, rng))
    for n in WIDE_ARITIES:
        path = workdir / f"wide{n}.json"
        _write_wide_scheme(rng, n, path)
        work = DIMENSION_CAP // (n + 1)
        for _ in range(WIDE_PER_ARITY):
            ops.append(_random_trace("wide", str(path), rng.randint(4, 8), work, rng))
    for _ in range(PARITY2_TRACES):
        argv = ["simulate", "parity2", "--scheme", str(parity_path), "--eps", "0"]
        ops.append({"kind": "cli", "tag": "parity2", "argv": argv + ["--json"]})
    rng.shuffle(ops)
    return ops


def _random_trace(tag, scheme, queries, work, rng) -> dict:
    seed = rng.randrange(1 << 30)
    argv = ["simulate", "random", "--scheme", scheme, "--queries", str(queries)]
    argv += ["--work", str(work), "--seed", str(seed), "--json"]
    return {"kind": "cli", "tag": tag, "argv": argv, "queries": queries, "seed": seed}


def check_simulate(op: dict, out) -> str | None:
    code, doc = out["code"], _json(out["stdout"])
    if code != 0 or doc is None:
        return f"{op['tag']}: exit {code}: {out['stderr'][-200:]}"
    (entry,) = doc["algorithms"]
    if entry["drop_bound_ok"] is not True:
        return f"{op['tag']}: drop bound violated: {entry}"
    if op["tag"] == "parity2":
        return None if entry.get("final_bound_ok") is True else f"parity2: {entry}"
    if entry["queries"] != op["queries"] or entry["seed"] != op["seed"]:
        return f"{op['tag']}: trace of another algorithm: {entry}"
    if len(entry["W"]) != op["queries"] + 1:
        return f"{op['tag']}: {len(entry['W'])} progress values for {op['queries']} queries"
    return None


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[random.Random, Path], list[dict]]
    check: Callable[[dict, object], str | None]
    deadline_s: float
    op_metrics: bool = True  # the operations form a stream worth percentiles

    def setup(self, seed: int, workdir: Path) -> list[dict]:
        """Write the inputs into workdir and return the operation list."""
        return self.make_ops(random.Random(f"{self.name}:{seed}"), workdir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("f4sq-certify", f4sq_ops, check_stage, 150.0, op_metrics=False),
        Workload("measures-mix", measures_ops, check_measures, MEASURES_DEADLINE_S),
        Workload("simulate-mix", simulate_ops, check_simulate, 60.0),
        Workload("measures-7bit", measures_7bit_ops, check_measures, MEASURES_DEADLINE_S),
    )
}

# The workloads the timed benchmark runs; measures-7bit is a probe.
BENCHMARK_WORKLOADS = ("f4sq-certify", "measures-mix", "simulate-mix")
