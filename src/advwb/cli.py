"""Command-line front end: deterministic text or JSON reports.

Exact quantities (sums of radicals, or sqrt(...) of one) print as exact
strings followed by a six-place decimal in parentheses; JSON output
carries the exact strings, and a leading ~ marks only simulator floats.
Exit codes: 0 success, 1 validation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, boolfn, compose, matchings, measures, qsim
from .weights import ExactWeight, Root

BASE_ALIASES = {
    "f": "f4",
    "g": "nae3",
    "h": "h6",
    "f4": "f4",
    "nae3": "nae3",
    "h6": "h6",
}

# Deepest --depth that compose and iterate accept.  Deeper predicted values
# outgrow what prints: (sqrt(39)/2)^d, the largest builtin bound, leaves
# the float range of its six-place decimal near d = 626, and past a few
# thousand the exact strings exceed Python's integer-to-string limit.
MAX_DEPTH = 512


def fmt(value) -> str:
    """Exact string plus parenthesized 6-place decimal."""
    if isinstance(value, (ExactWeight, Root, Fraction)):
        return f"{value} ({float(value):.6f})"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _emit(args, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _load_function(spec: str) -> boolfn.BooleanFunction:
    path = Path(spec)
    if path.exists():
        return boolfn.load_table(path)
    return boolfn.builtin(spec)


def _load_scheme(spec: str):
    path = Path(spec)
    if path.exists():
        return adversary.load_scheme(path)
    name = BASE_ALIASES.get(spec, spec)
    return adversary.builtin_scheme(name)


def _checked_scheme(spec: str):
    """The scheme named by spec and its loads, once verified; otherwise the
    exit code after the message: 2 when the scheme cannot be read or
    weighed exactly, 1 when it is invalid (each violation is printed)."""
    try:
        scheme = _load_scheme(spec)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load scheme: {exc}", file=sys.stderr)
        return 2
    violations = adversary.verify(scheme)
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        return 1
    try:
        return scheme, adversary.loads(scheme, keep_maps=False)
    except ValueError as exc:
        print(f"cannot load scheme: {exc}", file=sys.stderr)
        return 2


# ---- measures ----------------------------------------------------------


def cmd_measures(args) -> int:
    try:
        f = _load_function(args.fn)
    except boolfn.TableFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load function: {exc}", file=sys.stderr)
        return 2
    skip = tuple(t for t in (args.skip or "").split(",") if t)
    bad = set(skip) - set(measures.SKIPPABLE)
    if bad:
        print(
            f"unknown skip tokens {sorted(bad)}; choose from {measures.SKIPPABLE}",
            file=sys.stderr,
        )
        return 2
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        print(f"bad eps {args.eps!r}", file=sys.stderr)
        return 2
    if not 0 <= eps < Fraction(1, 2):
        print(f"bad eps {args.eps!r}: must lie in [0, 1/2)", file=sys.stderr)
        return 2
    try:
        rep = measures.compute_report(f, eps, skip=skip)
    except measures.CapExceeded as exc:
        print(f"cap exceeded: {exc} (use --skip)", file=sys.stderr)
        return 1
    except measures.CertificateError as exc:
        print(f"approximate degree not certified: {exc}", file=sys.stderr)
        return 1
    d = rep.as_dict()
    lines = [f"{k} = {v}" for k, v in d.items()]
    _emit(args, lines, d)
    return 0


# ---- verify-scheme -----------------------------------------------------


def cmd_verify_scheme(args) -> int:
    checked = _checked_scheme(args.scheme)
    if isinstance(checked, int):
        return checked
    _, report = checked
    lines = [
        f"valid, bound = {fmt(report.bound)}",
        f"wt min = {fmt(report.wt_min)}",
        f"wt max = {fmt(report.wt_max)}",
        f"v min = {fmt(report.v_lo)}",
        f"v max = {fmt(report.v_hi)}",
        f"v_A = {fmt(report.v_a)}",
        f"v_B = {fmt(report.v_b)}",
        f"v_max = {fmt(report.v_max)}",
    ]
    payload = {
        "valid": True,
        "bound": str(report.bound),
        "wt_min": str(report.wt_min),
        "wt_max": str(report.wt_max),
        "v_min": str(report.v_lo),
        "v_max_entry": str(report.v_hi),
        "v_A": str(report.v_a),
        "v_B": str(report.v_b),
        "v_max": str(report.v_max),
    }
    _emit(args, lines, payload)
    return 0


# ---- compose -----------------------------------------------------------


def cmd_compose(args) -> int:
    name = BASE_ALIASES.get(args.base)
    if name is None:
        print(f"unknown base {args.base!r}", file=sys.stderr)
        return 2
    if not 1 <= args.depth <= MAX_DEPTH:
        print(f"depth must be in 1..{MAX_DEPTH}", file=sys.stderr)
        return 2
    base = adversary.builtin_scheme(name)
    base_report = adversary.loads(base, keep_maps=False)
    balanced = adversary.balance(base, base_report)
    predicted = compose.predicted_bound(balanced, args.depth)
    arity = base.f.arity**args.depth
    lines = []
    payload = {"base": name, "depth": args.depth}
    materializable = args.depth <= 2 and arity <= compose.COMPOSE_ARITY_CAP
    if not materializable:
        lines.append(
            f"materialization skipped: depth {args.depth} gives arity {arity} "
            f"(cap: depth 2, arity {compose.COMPOSE_ARITY_CAP})"
        )
        lines.append(f"predicted bound = {fmt(predicted)}")
        payload.update(materialized=False, predicted_bound=str(predicted))
        if args.export:
            print("cannot export: composition not materialized", file=sys.stderr)
            return 1
        _emit(args, lines, payload)
        return 0
    if args.depth == 1:
        scheme = balanced
    else:
        scheme = compose.compose_scheme(balanced, balanced)
    violations = adversary.verify(scheme)
    if violations:
        print(f"composed scheme invalid: {len(violations)} violation(s)")
        for v in violations[:10]:
            print(f"  {v}")
        return 1
    report = adversary.loads(scheme, keep_maps=False)
    lines.append(f"pairs = {scheme.pair_count}")
    lines.append(f"measured bound = {fmt(report.bound)}")
    lines.append(f"predicted bound = {fmt(predicted)}")
    payload.update(
        materialized=True,
        pairs=scheme.pair_count,
        measured_bound=str(report.bound),
        predicted_bound=str(predicted),
    )
    if args.export:
        try:
            adversary.save_scheme(scheme, args.export)
        except OSError as exc:
            print(f"cannot export: {exc}", file=sys.stderr)
            return 2
        lines.append(f"exported to {args.export}")
        payload["exported"] = str(args.export)
    _emit(args, lines, payload)
    return 0


# ---- matchings ---------------------------------------------------------


def cmd_matchings(args) -> int:
    if args.depth < 1:
        print("depth must be at least 1", file=sys.stderr)
        return 2
    try:
        checks = matchings.check_matchings(args.depth)
    except matchings.MatchingError as exc:
        print(f"matchings failed: {exc}", file=sys.stderr)
        return 1
    lines = []
    payload = {"depth": args.depth, "sets": {}}
    for set_id, chk in sorted(checks.items()):
        lines.append(
            f"set {set_id}: matchings = {chk.matching_count}, "
            f"size = {chk.matching_size}, m = {chk.m}, m' = {chk.m_prime}, "
            f"l = {chk.l}, l' = {chk.l_prime}, disjoint = {fmt(chk.disjoint)}, "
            f"bound = {fmt(chk.bound)}"
        )
        payload["sets"][str(set_id)] = {
            "matchings": chk.matching_count,
            "size": chk.matching_size,
            "m": chk.m,
            "m_prime": chk.m_prime,
            "l": chk.l,
            "l_prime": chk.l_prime,
            "disjoint": chk.disjoint,
            "bound": str(chk.bound),
        }
    if args.export:
        files = []
        for set_id in (1, 2):
            ms = matchings.build_matchings(args.depth, set_id)
            try:
                written = matchings.export_matchings(ms, args.export)
            except OSError as exc:
                print(f"cannot export: {exc}", file=sys.stderr)
                return 2
            files.extend(str(p) for p in written)
        lines.append(f"exported {len(files)} files to {args.export}")
        payload["exported"] = files
    _emit(args, lines, payload)
    return 0


# ---- simulate ----------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.eps is not None and not 0.0 <= args.eps < 0.5:
        print(f"bad eps {args.eps!r}: must lie in [0, 1/2)", file=sys.stderr)
        return 2
    if args.count < 1:
        print(f"bad count {args.count}: must be at least 1", file=sys.stderr)
        return 2
    checked = _checked_scheme(args.scheme)
    if isinstance(checked, int):
        return checked
    scheme, report = checked
    if report.v_a != report.v_b:
        try:
            scheme = adversary.balance(scheme, report)
        except adversary.SchemeError as exc:
            print(f"cannot trace scheme: {exc}", file=sys.stderr)
            return 2
        report = adversary.loads(scheme, keep_maps=False)
        note = "note: scheme balanced before tracing"
    else:
        note = None

    algs: list[tuple[str, qsim.QueryAlgorithm]] = []
    spec = args.algorithm
    try:
        if spec == "random":
            seed = args.seed if args.seed is not None else 0
            for j in range(args.count):
                algs.append(
                    (
                        f"random[seed={seed + j}]",
                        qsim.random_algorithm(
                            scheme.f.arity,
                            args.queries,
                            work=args.work,
                            seed=seed + j,
                        ),
                    )
                )
        elif spec == "identity":
            algs.append(
                (
                    "identity",
                    qsim.identity_algorithm(
                        scheme.f.arity, args.queries, work=args.work
                    ),
                )
            )
        elif spec == "parity2":
            algs.append(("parity2", qsim.parity2_algorithm()))
        else:
            algs.append((spec, qsim.load_algorithm(spec)))
    except (OSError, qsim.QsimError, ValueError) as exc:
        print(f"cannot build algorithm: {exc}", file=sys.stderr)
        return 2

    lines = [] if note is None else [note]
    payload = {"scheme": args.scheme, "algorithms": []}
    failures = 0
    for label, alg in algs:
        try:
            trace = qsim.progress_trace(alg, scheme)
        except qsim.QsimError as exc:
            print(f"{label}: {exc}", file=sys.stderr)
            return 1
        ok = qsim.check_drop_bound(trace, report.v_max)
        entry = {
            "algorithm": label,
            "queries": alg.queries,
            "W": [f"~{v:.9g}" for v in trace.values],
            "drop_bound_ok": ok,
        }
        if alg.seed is not None:
            entry["seed"] = alg.seed
        w_str = ", ".join(f"{v:.6f}" for v in trace.values)
        lines.append(f"{label}: queries = {alg.queries}, W = [{w_str}]")
        lines.append(f"  drop bound: {'ok' if ok else 'VIOLATED'}")
        if not ok:
            failures += 1
        if args.eps is not None:
            try:
                final_ok = qsim.check_final_bound(trace, args.eps)
                lines.append(
                    f"  final bound at eps = {args.eps}: "
                    f"{'ok' if final_ok else 'VIOLATED'}"
                )
                entry["final_bound_ok"] = final_ok
                if not final_ok:
                    failures += 1
            except qsim.AlgorithmErrorTooLarge as exc:
                lines.append(f"  precondition failed: {exc}")
                entry["precondition_failed"] = str(exc)
                failures += 1
            lower = qsim.query_lower_bound(args.eps, report.v_max)
            lines.append(f"  query lower bound: {lower:.6f}")
            entry["query_lower_bound"] = f"~{lower:.9g}"
        payload["algorithms"].append(entry)
    _emit(args, lines, payload)
    return 1 if failures else 0


# ---- iterate -----------------------------------------------------------


def cmd_iterate(args) -> int:
    try:
        f = _load_function(args.fn)
    except boolfn.TableFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot load function: {exc}", file=sys.stderr)
        return 2
    if not 1 <= args.depth <= MAX_DEPTH:
        print(f"depth must be in 1..{MAX_DEPTH}", file=sys.stderr)
        return 2
    try:
        rep = measures.iterated_certificates(f, args.depth)
    except (measures.ArityError, ValueError) as exc:
        print(f"iterate failed: {exc}", file=sys.stderr)
        return 1
    lines = [
        f"depth = {rep.d}",
        f"sensitivity = {rep.s}",
        f"block sensitivity >= {rep.bs_lower}",
        f"decision tree depth <= {rep.depth_upper}",
        f"tight = {fmt(rep.equal)}",
        f"exhaustively verified = {fmt(rep.verified)}",
    ]
    payload = {
        "depth": rep.d,
        "s": rep.s,
        "bs_lower": rep.bs_lower,
        "depth_upper": rep.depth_upper,
        "tight": rep.equal,
        "verified": rep.verified,
    }
    if rep.degree is not None:
        lines.append(f"degree = {rep.degree}")
        payload["degree"] = rep.degree
    _emit(args, lines, payload)
    return 0


# ---- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advwb",
        description="Exact adversary-bound workbench for small Boolean functions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "measures", parents=[common], help="complexity measures of a function"
    )
    p.add_argument("fn", help="truth-table file or builtin name (f4, parity3, ...)")
    p.add_argument("--eps", default="1/3", help="approximation error (exact fraction)")
    p.add_argument("--skip", default="", help=f"comma list from {measures.SKIPPABLE}")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser(
        "verify-scheme", parents=[common], help="validate a weight scheme"
    )
    p.add_argument("scheme", help="scheme JSON file or builtin name (f4, nae3, h6)")
    p.set_defaults(func=cmd_verify_scheme)

    p = sub.add_parser(
        "compose", parents=[common], help="compose a base scheme with itself"
    )
    p.add_argument("--base", required=True, help="f, g, h (or f4, nae3, h6)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--export", help="write the composed scheme JSON here")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "matchings", parents=[common], help="build and check matching families"
    )
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--export", help="directory for pair-list files")
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser(
        "simulate", parents=[common], help="trace query algorithms against a scheme"
    )
    p.add_argument(
        "algorithm",
        help="algorithm JSON file, or one of: random, identity, parity2",
    )
    p.add_argument("--scheme", required=True, help="scheme file or builtin name")
    p.add_argument("--queries", type=int, default=2)
    p.add_argument("--work", type=int, default=2)
    p.add_argument("--count", type=int, default=1, help="random algorithms to run")
    p.add_argument("--seed", type=int, default=None, help="base seed (echoed)")
    p.add_argument("--eps", type=float, default=None, help="check the final bound")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "iterate", parents=[common], help="certified measures of an iterated base"
    )
    p.add_argument("fn", help="4-bit base function (file or builtin)")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_iterate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
