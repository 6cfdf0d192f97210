"""Command-line front end: deterministic text or JSON reports.

Exact quantities (sums of radicals, or sqrt(...) of one) print as exact
strings followed by a six-place decimal in parentheses; JSON output
carries the exact strings, and a leading ~ marks only simulator floats.
Exit codes: 0 success, 1 validation failure, 2 usage or parse error.
A failing subcommand or a bad command line raises `_Exit`; `main` alone
catches it, prints its message as the one stderr line and returns its
code.  Only a scheme's violations, listed on stdout, leave with no
message; `simulate` reports a failed bound in its output and returns 1.

A process checks each scheme once: `main` keeps the verified scheme and
its loads (and its balanced form, once needed) for each builtin name and
each scheme-file content it has checked, so repeated calls skip the
rebuild, `verify` and `loads`.  Failures are not kept.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
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


class _Exit(Exception):
    """Leaves a subcommand: `main` prints `message`, if any, and returns `code`."""

    def __init__(self, code: int, message: str | None = None):
        super().__init__(code, message)
        self.code, self.message = code, message


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
    try:
        return boolfn.load_table(path) if path.exists() else boolfn.builtin(spec)
    except boolfn.TableFormatError as exc:
        raise _Exit(2, f"parse error: {exc}")
    except KeyError as exc:  # its str() would quote the message
        raise _Exit(2, f"cannot load function: {exc.args[0]}")
    except (OSError, ValueError) as exc:
        raise _Exit(2, f"cannot load function: {exc}")


# Verified schemes kept by `_checked`, keyed by builtin name or by file
# content, least recently used first; past this many the first is dropped.
CHECKED_SCHEME_CAP = 8

_checked_schemes: OrderedDict = OrderedDict()


@dataclass(eq=False)
class _Checked:
    """A verified scheme and its loads; its balanced form on first need."""

    scheme: object
    report: adversary.LoadReport
    _balanced: tuple | None = field(default=None, init=False, repr=False)

    def balanced(self) -> tuple:
        """The balanced scheme and its loads (the scheme itself when already
        balanced); raises SchemeError when the loads cannot be balanced."""
        if self._balanced is None:
            scheme = adversary.balance(self.scheme, self.report)
            report = self.report if scheme is self.scheme else adversary.loads(scheme)
            self._balanced = scheme, report
        return self._balanced


def _checked(key, load) -> _Checked:
    """The checked scheme memoized under key, or the one `load` returns,
    once verified.  Raises `_Exit(2)` when the scheme cannot be read or
    weighed exactly, and `_Exit(1)` after printing each violation when it
    is invalid.  Only successes are kept."""
    checked = _checked_schemes.get(key)
    if checked is not None:
        _checked_schemes.move_to_end(key)
        return checked
    try:
        scheme = load()
    except KeyError as exc:  # its str() would quote the message
        raise _Exit(2, f"cannot load scheme: {exc.args[0]}")
    except (OSError, ValueError) as exc:
        raise _Exit(2, f"cannot load scheme: {exc}")
    violations = adversary.verify(scheme)
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        for v in violations:
            print(f"  {v}")
        raise _Exit(1)
    try:
        report = adversary.loads(scheme)
    except ValueError as exc:
        raise _Exit(2, f"cannot load scheme: {exc}")
    checked = _checked_schemes[key] = _Checked(scheme, report)
    if len(_checked_schemes) > CHECKED_SCHEME_CAP:
        _checked_schemes.popitem(last=False)
    return checked


def _checked_builtin(name: str) -> _Checked:
    return _checked(name, lambda: adversary.builtin_scheme(name))


def _scheme_file_key(path: Path) -> tuple:
    """All that the scheme in a file depends on: sha256 digests of the file's
    text, read as `load_scheme` reads it, and of the bytes of the table it
    names by "path"."""
    text = path.read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if '"path"' not in text and "\\u" not in text:  # else only a \u escape spells it
        return digest, None
    try:
        table = (path.parent / json.loads(text)["path"]).resolve()
    except (ValueError, RecursionError, TypeError, KeyError):
        return digest, None  # no table named; `load_scheme` reports any defect
    return digest, hashlib.sha256(table.read_bytes()).hexdigest()


def _checked_scheme(spec: str) -> _Checked:
    """`_checked` for a scheme file, keyed by its content, or a builtin."""
    path = Path(spec)
    try:
        key = _scheme_file_key(path) if path.exists() else None
    except (OSError, ValueError) as exc:  # exists() fails on a name too long
        raise _Exit(2, f"cannot load scheme: {exc}")
    if key is None:
        return _checked_builtin(BASE_ALIASES.get(spec, spec))
    return _checked(key, lambda: adversary.load_scheme(path))


# ---- measures ----------------------------------------------------------


def cmd_measures(args) -> int:
    f = _load_function(args.fn)
    skip = tuple(t for t in (args.skip or "").split(",") if t)
    bad = set(skip) - set(measures.SKIPPABLE)
    if bad:
        raise _Exit(
            2, f"unknown skip tokens {sorted(bad)}; choose from {measures.SKIPPABLE}"
        )
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise _Exit(2, f"bad eps {args.eps!r}")
    if not 0 <= eps < Fraction(1, 2):
        raise _Exit(2, f"bad eps {args.eps!r}: must lie in [0, 1/2)")
    try:
        rep = measures.compute_report(f, eps, skip=skip)
    except measures.CapExceeded as exc:
        raise _Exit(1, f"cap exceeded: {exc} (use --skip)")
    except measures.CertificateError as exc:
        raise _Exit(1, f"approximate degree not certified: {exc}")
    d = rep.as_dict()
    lines = [f"{k} = {v}" for k, v in d.items()]
    _emit(args, lines, d)
    return 0


# ---- verify-scheme -----------------------------------------------------


def cmd_verify_scheme(args) -> int:
    report = _checked_scheme(args.scheme).report
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
        raise _Exit(2, f"unknown base {args.base!r}")
    if not 1 <= args.depth <= MAX_DEPTH:
        raise _Exit(2, f"depth must be in 1..{MAX_DEPTH}")
    balanced, balanced_report = _checked_builtin(name).balanced()
    predicted = balanced_report.bound**args.depth
    arity = balanced.f.arity**args.depth
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
            raise _Exit(1, "cannot export: composition not materialized")
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
        raise _Exit(1)
    report = adversary.loads(scheme)
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
            raise _Exit(2, f"cannot export: {exc}")
        lines.append(f"exported to {args.export}")
        payload["exported"] = str(args.export)
    _emit(args, lines, payload)
    return 0


# ---- matchings ---------------------------------------------------------


def cmd_matchings(args) -> int:
    if args.depth < 1:
        raise _Exit(2, "depth must be at least 1")
    try:
        checks = matchings.check_matchings(args.depth)
    except matchings.MatchingError as exc:
        raise _Exit(1, f"matchings failed: {exc}")
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
                raise _Exit(2, f"cannot export: {exc}")
            files.extend(str(p) for p in written)
        lines.append(f"exported {len(files)} files to {args.export}")
        payload["exported"] = files
    _emit(args, lines, payload)
    return 0


# ---- simulate ----------------------------------------------------------


def _algorithm_builders(args, n: int):
    """(label, build) for each algorithm to trace, in order.

    Each algorithm is built when its turn comes.  The random ones share n,
    `--queries` and `--work`, so a cap error comes from the first of them.
    """
    spec = args.algorithm
    if spec == "random":
        seed = args.seed if args.seed is not None else 0
        for s in range(seed, seed + args.count):
            yield f"random[seed={s}]", functools.partial(
                qsim.random_algorithm, n, args.queries, work=args.work, seed=s
            )
    elif spec == "identity":
        yield "identity", functools.partial(
            qsim.identity_algorithm, n, args.queries, work=args.work
        )
    elif spec == "parity2":
        yield "parity2", qsim.parity2_algorithm
    else:
        yield spec, functools.partial(qsim.load_algorithm, spec)


def cmd_simulate(args) -> int:
    if args.eps is not None and not 0.0 <= args.eps < 0.5:
        raise _Exit(2, f"bad eps {args.eps!r}: must lie in [0, 1/2)")
    if args.count < 1:
        raise _Exit(2, f"bad count {args.count}: must be at least 1")
    checked = _checked_scheme(args.scheme)
    try:
        scheme, report = checked.balanced()
    except adversary.SchemeError as exc:
        raise _Exit(2, f"cannot trace scheme: {exc}")

    lines = []
    if scheme is not checked.scheme:
        lines.append("note: scheme balanced before tracing")
    payload = {"scheme": args.scheme, "algorithms": []}
    failures = 0
    for label, build in _algorithm_builders(args, scheme.f.arity):
        try:
            alg = build()
        except (OSError, qsim.QsimError, ValueError) as exc:
            raise _Exit(2, f"cannot build algorithm: {exc}")
        try:
            trace = qsim.progress_trace(alg, scheme)
        except qsim.QsimError as exc:
            raise _Exit(1, f"{label}: {exc}")
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
        del alg  # dropped before the next one is built
    _emit(args, lines, payload)
    return 1 if failures else 0


# ---- iterate -----------------------------------------------------------


def cmd_iterate(args) -> int:
    f = _load_function(args.fn)
    if not 1 <= args.depth <= MAX_DEPTH:
        raise _Exit(2, f"depth must be in 1..{MAX_DEPTH}")
    try:
        rep = measures.iterated_certificates(f, args.depth)
    except (measures.ArityError, ValueError) as exc:
        raise _Exit(1, f"iterate failed: {exc}")
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line leaves like a failing subcommand
        raise _Exit(2, f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        if exc.message is not None:
            print(exc.message, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
