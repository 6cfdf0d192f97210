"""Weight schemes over 0/1-preimage relations and their query lower bounds.

A scheme places a positive weight w(x, y) on each pair of a relation
R between A (0-inputs) and B (1-inputs) of a function, plus directional
weights w'(x, y, i) for every coordinate i where the pair differs, subject
to w'(x, y, i) * w'(y, x, i) >= w(x, y)^2.  The reciprocal of the largest
geometric-mean load is then a bound on bounded-error quantum query cost.

Protocol (duck-typed):
    f            BooleanFunction
    a_side       sorted tuple of 0-input indices appearing in pairs
    b_side       sorted tuple of 1-input indices appearing in pairs
    pair_count   number of pairs in the relation
    sweep_slices(side)   yields (source, slices) per source of the side
                         ("a" or "b"); a Slice holds (xor, w, diffs)
                         entries whose partner is source ^ xor, and diffs
                         is a tuple of (i, fwd, bwd) over differing
                         coordinates, fwd being w'(source, partner, i)
    sweep_pairs(side)    the flattening of sweep_slices: yields
                         (source, records) with (partner, w, diffs) records
                         in slice order

The records are the scheme: every pair appears once from each side, and
there is no per-pair lookup.  A slice's entries do not depend on the
source, so its pair-weight sum, forward sums and failed requirements are
computed once (`Slice.wt`, `Slice.v`, `Slice.faults`) and hold for every
source that reaches it.  `verify` and `loads` read these aggregates.

Two classes implement the protocol: ExplicitScheme builds one slice per
source from literal pair tables, and compose.ComposedScheme builds its
slices on demand from an outer and an inner scheme, sharing one slice
among all sources with the same surroundings.  `balance` returns an
ExplicitScheme, or its argument when that is already balanced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .boolfn import BooleanFunction, var_bit
from .weights import ONE, ZERO, ExactWeight, exact_sum


class SchemeError(ValueError):
    """A scheme is malformed or a scheme operation cannot proceed."""


VIOLATION_CAP = 100


@dataclass(frozen=True)
class Violation:
    """One failed scheme requirement, located by pair and coordinate."""

    kind: str  # "side", "weight", "directional", "constraint", "coverage"
    x: int
    y: int | None
    i: int | None
    message: str

    def __str__(self) -> str:
        loc = f"pair ({self.x}, {self.y})" if self.y is not None else f"input {self.x}"
        if self.i is not None:
            loc += f", coordinate {self.i}"
        return f"[{self.kind}] {loc}: {self.message}"


# ---- slices ----------------------------------------------------------------


class Slice:
    """Pair records from a source, shared by sources with equal surroundings.

    entries is a tuple of (xor, w, diffs): the partner of a source is
    source ^ xor, w the pair weight, and diffs the (i, fwd, bwd) tuple
    over the differing coordinates, oriented from the source.  None of it
    depends on the source, so the aggregates are computed once, on first
    use, and hold for every source that reaches the slice:

        wt      sum of the pair weights
        v       coordinate i -> sum of the forward weights at i
        faults  (xor, kind, i, message) for every requirement an entry
                fails (positivity, the product constraint, coverage), in
                the order `verify` reports them.  Coverage compares the
                coordinates of diffs with xor, which equals
                source ^ partner for every source.
    """

    # no per-instance dict: an explicit scheme keeps one slice per source
    __slots__ = ("entries", "arity", "_wt", "_v", "_faults")

    def __init__(self, entries: tuple, arity: int):
        self.entries = entries
        self.arity = arity
        self._wt = self._v = self._faults = None

    @property
    def wt(self):
        if self._wt is None:
            self._wt = exact_sum([w for _, w, _ in self.entries])
        return self._wt

    @property
    def v(self) -> dict:
        if self._v is None:
            per_i: dict[int, list] = {}
            for _, _, diffs in self.entries:
                for i, fwd, _ in diffs:
                    per_i.setdefault(i, []).append(fwd)
            self._v = {i: exact_sum(vals) for i, vals in per_i.items()}
        return self._v

    @property
    def faults(self) -> tuple:
        if self._faults is None:
            self._faults = self._find_faults()
        return self._faults

    def _find_faults(self) -> tuple:
        out = []
        for xor, w, diffs in self.entries:
            if w.is_zero:
                out.append((xor, "weight", None, "pair weight is zero"))
                continue
            mask = 0
            for i, fwd, bwd in diffs:
                mask |= var_bit(self.arity, i)
                if fwd.is_zero or bwd.is_zero:
                    kind = "directional"
                elif fwd * bwd >= w * w:
                    continue
                else:
                    kind = "constraint"
                out.append((xor, kind, i, f"w'*w' = {fwd * bwd} < w^2 = {w * w}"))
            if mask != xor:
                out.append(
                    (
                        xor,
                        "coverage",
                        None,
                        "directional weights do not cover exactly the differing coordinates",
                    )
                )
        return tuple(out)


def _share(triples, shared: dict) -> tuple:
    """The triples as a tuple, each equal triple stored once in `shared`."""
    return tuple(shared.setdefault(t, t) for t in triples)


def flatten_slices(sweep):
    """(source, records) from a `sweep_slices` iterator, in slice order."""
    for source, slices in sweep:
        yield source, [
            (source ^ xor, w, diffs) for sl in slices for xor, w, diffs in sl.entries
        ]


# ---- explicit schemes ------------------------------------------------------


class ExplicitScheme:
    """A scheme given by its literal pair and directional-weight tables.

    pairs: iterable of (x, y, w, wp) where wp maps each differing
    coordinate i to a pair (w'(x,y,i), w'(y,x,i)).  Duplicate pairs, in
    either orientation, are rejected.  Weights may be given as
    ExactWeight, int, or Fraction; a missing coordinate entry is treated
    as a zero directional weight (and will fail verification).

    The tables are kept only as the records of the two sides: one Slice
    per source, partners in the order the pairs were given.
    """

    def __init__(self, f: BooleanFunction, pairs):
        self.f = f
        size = 1 << f.arity
        sides: tuple[dict, dict] = ({}, {})  # source -> [(xor, w, diffs)]
        seen = set()
        # schemes repeat a few weights, so equal (i, fwd, bwd) triples are
        # stored once
        shared: dict = {}
        for x, y, w, wp in pairs:
            if not (0 <= x < size and 0 <= y < size):
                raise SchemeError(f"pair ({x}, {y}) out of range for arity {f.arity}")
            if x == y:
                raise SchemeError(f"pair ({x}, {x}) relates an input to itself")
            if (x, y) in seen or (y, x) in seen:
                raise SchemeError(f"duplicate pair ({x}, {y})")
            seen.add((x, y))
            diff = x ^ y
            table = {}
            for i, (fwd, bwd) in wp.items():
                if not diff & var_bit(f.arity, i):
                    raise SchemeError(
                        f"pair ({x}, {y}) agrees at coordinate {i}; "
                        "directional weights apply only where the pair differs"
                    )
                table[i] = (ExactWeight.of(fwd), ExactWeight.of(bwd))
            for i in range(1, f.arity + 1):
                if diff & var_bit(f.arity, i) and i not in table:
                    table[i] = (ZERO, ZERO)
            w = ExactWeight.of(w)
            coords = sorted(table.items())
            sides[0].setdefault(x, []).append(
                (diff, w, _share(((i, fwd, bwd) for i, (fwd, bwd) in coords), shared))
            )
            sides[1].setdefault(y, []).append(
                (diff, w, _share(((i, bwd, fwd) for i, (fwd, bwd) in coords), shared))
            )
        if not seen:
            raise SchemeError("a scheme needs at least one pair")
        self.pair_count = len(seen)
        self._slices = {
            side: [(s, [Slice(tuple(group[s]), f.arity)]) for s in sorted(group)]
            for side, group in zip("ab", sides)
        }
        self.a_side, self.b_side = (tuple(sorted(group)) for group in sides)

    def sweep_slices(self, side: str):
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', not {side!r}")
        yield from self._slices[side]

    def sweep_pairs(self, side: str):
        yield from flatten_slices(self.sweep_slices(side))


# ---- verification ----------------------------------------------------------


def verify(scheme, limit: int = VIOLATION_CAP) -> list[Violation]:
    """Check the defining requirements; an empty list means valid.

    Checks side membership (A inside the 0-preimage, B inside the
    1-preimage, no overlap), weight positivity, and the product constraint
    w'(x,y,i) * w'(y,x,i) >= w(x,y)^2 at every differing coordinate.  All
    comparisons are exact.  Pair requirements are read from `Slice.faults`:
    a slice is checked once and that covers every pair it emits, from
    whichever source.  Reporting stops after `limit` violations.
    """
    out: list[Violation] = []
    f = scheme.f
    tab = f.table
    for x in scheme.a_side:
        if tab[x] != 0:
            out.append(Violation("side", x, None, None, "A-side input is not a 0-input"))
            if len(out) >= limit:
                return out
    for y in scheme.b_side:
        if tab[y] != 1:
            out.append(Violation("side", y, None, None, "B-side input is not a 1-input"))
            if len(out) >= limit:
                return out

    for source, slices in scheme.sweep_slices("a"):
        for sl in slices:
            for xor, kind, i, message in sl.faults:
                out.append(Violation(kind, source, source ^ xor, i, message))
                if len(out) >= limit:
                    return out
    return out


# ---- loads and the bound ---------------------------------------------------


@dataclass
class LoadReport:
    """Aggregate weights and loads of a scheme.

    v_a and v_b are the per-side maxima of v(x, i) / wt(x); v_max is their
    geometric mean and bound its reciprocal.  Values are exact sums of
    radicals (ExactWeight); v_max and bound are a weights.Root when v_A * v_B
    is not rational and v_A != v_B.  wt and v maps are kept only when
    requested (they can be large for composed schemes).
    """

    v_a: object
    v_b: object
    v_max: object
    bound: object
    wt_min: object
    wt_max: object
    v_lo: object
    v_hi: object
    wt: dict | None = None
    v: dict | None = None


class _Sums:
    """Distinct values numbered 0, 1, ...; addition memoized on the numbers.

    A composed scheme's slices repeat a few dozen values over a million
    pairs, so `loads` adds small ints and turns them back into values only
    at the end.
    """

    def __init__(self):
        self.values: list = []
        self._ids: dict = {}
        self._sums: dict = {}
        self._slices: dict = {}

    def id(self, value) -> int:
        k = self._ids.get(value)
        if k is None:
            k = self._ids[value] = len(self.values)
            self.values.append(value)
        return k

    def add(self, a: int, b: int) -> int:
        k = self._sums.get((a, b))
        if k is None:
            k = self._sums[(a, b)] = self.id(self.values[a] + self.values[b])
        return k

    def source(self, slices) -> tuple[int, dict]:
        """wt(x) and i -> v(x, i) of a source, as numbers, from its slices."""
        agg = self._slices
        first, *rest = slices
        wt, v = agg.get(first) or self._slice(first)
        if rest:
            v = dict(v)
            for sl in rest:
                swt, sv = agg.get(sl) or self._slice(sl)
                wt = self.add(wt, swt)
                for i, term in sv.items():
                    v[i] = self.add(v[i], term) if i in v else term
        return wt, v

    def _slice(self, sl) -> tuple[int, dict]:
        out = self._slices[sl] = (self.id(sl.wt), {i: self.id(t) for i, t in sl.v.items()})
        return out


def loads(scheme, *, keep_maps: bool = True) -> LoadReport:
    """Weights wt(x), loads v(x, i), side maxima, and the bound.

    wt(x) sums the pair weights at x; v(x, i) sums the directional weights
    from x over partners differing at i.  Both are added up from the
    per-slice sums of `sweep_slices`, a few per source.  Without maps only
    the distinct values are kept, grouped by wt, so memory stays flat.
    """
    if not scheme.a_side or not scheme.b_side:
        raise SchemeError("loads need a nonempty relation on both sides")
    wt_map: dict | None = {} if keep_maps else None
    v_map: dict | None = {} if keep_maps else None
    sums = _Sums()
    value = sums.values
    side_best = {}
    wts: dict = {}  # distinct value numbers as ordered sets, over both sides
    vs: dict = {}
    for side in ("a", "b"):
        by_wt: dict = {}  # wt -> distinct v(x, i) of the sources x with that wt
        for source, slices in scheme.sweep_slices(side):
            if not slices:
                continue
            wt, v = sums.source(slices)
            by_wt.setdefault(wt, {}).update(dict.fromkeys(v.values()))
            if wt_map is not None:
                wt_map[source] = value[wt]
                for i, term in v.items():
                    v_map[(source, i)] = value[term]
        if not by_wt:
            raise SchemeError(f"side {side!r} has no pairs")
        side_best[side] = max(
            max(value[k] for k in group) / value[wt] for wt, group in by_wt.items()
        )
        wts.update(dict.fromkeys(by_wt))
        for group in by_wt.values():
            vs.update(group)
    wt_min, wt_max = min(value[k] for k in wts), max(value[k] for k in wts)
    v_lo, v_hi = min(value[k] for k in vs), max(value[k] for k in vs)
    v_a, v_b = side_best["a"], side_best["b"]
    if v_a.is_zero or v_b.is_zero:
        raise SchemeError("degenerate scheme: a side load is zero")
    if v_a == v_b:
        v_max, bound = v_a, ONE / v_a
    else:
        v_max, bound = (v_a * v_b).sqrt(), (ONE / (v_a * v_b)).sqrt()
    return LoadReport(
        v_a=v_a,
        v_b=v_b,
        v_max=v_max,
        bound=bound,
        wt_min=wt_min,
        wt_max=wt_max,
        v_lo=v_lo,
        v_hi=v_hi,
        wt=wt_map,
        v=v_map,
    )


def balance(scheme, report: LoadReport | None = None):
    """Rescale directional weights so that both side loads equal v_max.

    Multiplies every forward weight of the A-side records by
    s = sqrt(v_b/v_a) and divides every backward weight by s.  Pair
    weights and the products w'(x,y,i)*w'(y,x,i) are untouched, so
    validity is preserved.  Returns an ExplicitScheme with the pairs in
    the order of `scheme.sweep_pairs("a")`, or the scheme unchanged when
    it is already balanced.
    """
    rep = report if report is not None else loads(scheme, keep_maps=False)
    v_a, v_b = rep.v_a, rep.v_b
    if v_a.is_zero or v_b.is_zero:
        raise SchemeError("degenerate scheme: a side load is zero")
    if v_a == v_b:
        return scheme
    ratio = v_b / v_a
    if ratio.u != 1:
        raise SchemeError(f"load ratio {ratio} has no exact square root")
    s = ratio.sqrt()
    pairs = [
        (x, y, w, {i: (fwd * s, bwd / s) for i, fwd, bwd in diffs})
        for x, records in scheme.sweep_pairs("a")
        for y, w, diffs in records
    ]
    return ExplicitScheme(scheme.f, pairs)


# ---- unweighted relation bound ---------------------------------------------


@dataclass(frozen=True)
class RelationBound:
    """Partner-count parameters of a bare relation and the bound they give."""

    m: int
    m_prime: int
    l: int
    l_prime: int
    bound: ExactWeight


def _check_sides(f: BooleanFunction, a, b):
    tab = f.np_table
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    bad_a = a[tab[a] != 0].tolist()
    bad_b = b[tab[b] != 1].tolist()
    if bad_a or bad_b:
        raise SchemeError(
            f"side membership violated: {bad_a} not 0-inputs, {bad_b} not 1-inputs"
        )


def relation_bound(f: BooleanFunction, a, b, relation) -> RelationBound:
    """Min partner counts, max per-coordinate counts, and sqrt(mm'/(ll')).

    m and m' are the minimum partner counts over A and B; l is the largest
    number of partners of one A-side input all differing from it at one
    coordinate, l' the B-side analogue.  The relation is any sequence of
    (x, y) pairs, a list of tuples or an (N, 2) integer array; it is
    counted with array passes, one bincount per side for m and m' and one
    masked bincount per side and coordinate for l and l'.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    _check_sides(f, a, b)
    if not len(relation):
        raise SchemeError("empty relation")
    rel = np.asarray(relation, dtype=np.int64).reshape(-1, 2)
    n = f.arity
    size = 1 << n
    in_a = np.zeros(size, dtype=bool)
    in_b = np.zeros(size, dtype=bool)
    in_a[a] = True
    in_b[b] = True
    xs, ys = rel[:, 0], rel[:, 1]
    ok = (xs >= 0) & (xs < size) & (ys >= 0) & (ys < size)
    ok[ok] = in_a[xs[ok]] & in_b[ys[ok]]
    if not ok.all():
        x, y = rel[np.argmin(ok)].tolist()
        raise SchemeError(f"pair ({x}, {y}) leaves the declared sides")
    m = int(np.bincount(xs, minlength=size)[a].min())
    m_prime = int(np.bincount(ys, minlength=size)[b].min())
    diff = xs ^ ys
    l = l_prime = 0
    for i in range(n):
        at = (diff >> i) & 1 == 1
        if at.any():
            l = max(l, int(np.bincount(xs[at]).max()))
            l_prime = max(l_prime, int(np.bincount(ys[at]).max()))
    bound = ExactWeight.sqrt_of(Fraction(m * m_prime, l * l_prime))
    return RelationBound(m, m_prime, l, l_prime, bound)


def unit_scheme(f: BooleanFunction, a, b, relation) -> ExplicitScheme:
    """The scheme with w = w' = 1 everywhere on the given relation."""
    _check_sides(f, tuple(a), tuple(b))
    n = f.arity
    pairs = []
    for x, y in relation:
        wp = {}
        diff = x ^ y
        for i in range(1, n + 1):
            if diff & var_bit(n, i):
                wp[i] = (ONE, ONE)
        pairs.append((x, y, ONE, wp))
    return ExplicitScheme(f, pairs)


# ---- built-in schemes -------------------------------------------------------


def sensitive_partition(f: BooleanFunction, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Variables whose single flip changes f at the input, and the rest."""
    n = f.arity
    sens, insens = [], []
    for i in range(1, n + 1):
        if f.table[index ^ var_bit(n, i)] != f.table[index]:
            sens.append(i)
        else:
            insens.append(i)
    return tuple(sens), tuple(insens)


def _scheme_f4() -> ExplicitScheme:
    """Scheme on the 4-bit base with bound 5/2.

    Every input has exactly two sensitive variables, and flipping either
    the sensitive pair or the insensitive pair as a block changes the
    value.  Pairs at distance 1 get w = w' = 1.  Pairs at distance 2 get
    w = 2/3 with w'(u, v, i) = 1/3 where i is sensitive for u and 4/3
    where it is insensitive (the two directions always meet 1/3 * 4/3 =
    (2/3)^2 exactly, because a sensitive coordinate of one endpoint is
    insensitive for the other).
    """
    from .boolfn import block_mask, f4

    f = f4()
    third = ExactWeight(1, 3)
    four_third = ExactWeight(4, 3)
    two_third = ExactWeight(2, 3)
    pairs = []
    for x in range(16):
        if f.table[x] != 0:
            continue
        sens, insens = sensitive_partition(f, x)
        for i in sens:
            pairs.append((x, x ^ var_bit(4, i), ONE, {i: (ONE, ONE)}))
        for group in (sens, insens):
            mask = block_mask(4, group)
            y = x ^ mask
            wp = {}
            for i in group:
                fwd = third if i in sens else four_third
                bwd = four_third if i in sens else third
                wp[i] = (fwd, bwd)
            pairs.append((x, y, two_third, wp))
    return ExplicitScheme(f, pairs)


def _scheme_nae3() -> ExplicitScheme:
    """Scheme on 3-bit not-all-equal with bound 3/sqrt(2).

    A = {000, 111}, B = the remaining six inputs, R = A x B.  Pairs at
    distance 1 get w = 2 with w' = 2*sqrt(2) from the A side and sqrt(2)
    from the B side; pairs at distance 2 get w = 1 with sqrt(2)/2 and
    sqrt(2).
    """
    from .boolfn import nae3

    f = nae3()
    r2 = ExactWeight.sqrt_of(2)
    two_r2 = ExactWeight(2) * r2
    half_r2 = ExactWeight(1, 2) * r2
    pairs = []
    for x in (0, 7):
        for y in range(8):
            if f.table[y] != 1:
                continue
            diff = x ^ y
            dist = diff.bit_count()
            w = ExactWeight(2) if dist == 1 else ONE
            fwd = two_r2 if dist == 1 else half_r2
            wp = {}
            for i in range(1, 4):
                if diff & var_bit(3, i):
                    wp[i] = (fwd, r2)
            pairs.append((x, y, w, wp))
    return ExplicitScheme(f, pairs)


def _scheme_h6() -> ExplicitScheme:
    """Scheme on the 6-bit function with bound sqrt(39)/2.

    A = the all-zero input plus the ten weight-3 0-inputs; B = the six
    weight-1 inputs.  The all-zero input pairs with each weight-1 input at
    w = w' = 1.  Each weight-3 0-input pairs with the three weight-1
    inputs inside its support at w = 1/8, with w' = 1/32 from the triple
    side and 1/2 from the weight-1 side.

    The side loads come out at v_A = 1/6 and v_B = 8/13; their geometric
    mean is 2/sqrt(39), so the bound is sqrt(39)/2.  (A doubled load of
    4/sqrt(39) sometimes quoted for this construction is not what the
    explicit sums here give.)
    """
    from .boolfn import H6_ZERO_TRIPLES, block_mask, h6

    f = h6()
    eighth = ExactWeight(1, 8)
    fwd = ExactWeight(1, 32)
    bwd = ExactWeight(1, 2)
    pairs = []
    zero = 0
    for i in range(1, 7):
        e = var_bit(6, i)
        pairs.append((zero, e, ONE, {i: (ONE, ONE)}))
    for triple in H6_ZERO_TRIPLES:
        x = block_mask(6, triple)
        for i in triple:
            y = var_bit(6, i)
            wp = {}
            for j in triple:
                if j != i:
                    wp[j] = (fwd, bwd)
            pairs.append((x, y, eighth, wp))
    return ExplicitScheme(f, pairs)


_SCHEME_BUILDERS = {"f4": _scheme_f4, "nae3": _scheme_nae3, "h6": _scheme_h6}

SCHEME_NAMES = tuple(_SCHEME_BUILDERS)


def builtin_scheme(name: str) -> ExplicitScheme:
    """Construct a named built-in scheme: f4, nae3, or h6."""
    try:
        builder = _SCHEME_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}") from None
    return builder()


# ---- scheme files -----------------------------------------------------------


def save_scheme(scheme, path) -> None:
    """Write a scheme to JSON with exact weight strings."""
    doc = {
        "arity": scheme.f.arity,
        "table": "".join(str(b) for b in scheme.f.table),
        "a": list(scheme.a_side),
        "b": list(scheme.b_side),
        "pairs": [],
    }
    for source, records in scheme.sweep_pairs("a"):
        for partner, w, diffs in records:
            doc["pairs"].append(
                {
                    "x": source,
                    "y": partner,
                    "w": str(w),
                    "wp": {str(i): [str(fwd), str(bwd)] for i, fwd, bwd in diffs},
                }
            )
    Path(path).write_text(json.dumps(doc, indent=1))


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc: dict, key: str, kind: type):
    """doc[key], which must be an instance of `kind` (no bool for int)."""
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise SchemeError(f"{key!r} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _int_list(doc: dict, key: str) -> list:
    """doc[key], which must be a list of integers."""
    value = _field(doc, key, list)
    if not all(map(_is_int, value)):
        raise SchemeError(f"{key!r} must be a list of integers")
    return value


def load_scheme(path) -> ExplicitScheme:
    """Read a scheme from JSON; weights are parsed exactly, never as floats."""
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise SchemeError("a scheme file must hold a JSON object")
    if "path" in doc:
        from .boolfn import load_table

        f = load_table((path.parent / _field(doc, "path", str)).resolve())
    else:
        f = BooleanFunction.from_bits(_field(doc, "table", str))
        arity = _field(doc, "arity", int)
        if f.arity != arity:
            raise SchemeError(f"declared arity {arity} but table has arity {f.arity}")
    declared_a, declared_b = set(_int_list(doc, "a")), set(_int_list(doc, "b"))
    parsed: dict[str, ExactWeight] = {}  # literal -> its weight, parsed once

    def weight(text: str) -> ExactWeight:
        w = parsed.get(text)
        if w is None:
            w = parsed[text] = ExactWeight.parse(text)
        return w

    pairs = []
    for rec in _field(doc, "pairs", list):
        if not isinstance(rec, dict):
            raise SchemeError(f"pair record {rec!r} is not an object")
        x, y = _field(rec, "x", int), _field(rec, "y", int)
        wp = rec["wp"]
        if not isinstance(wp, dict) or not all(
            isinstance(fb, list) and len(fb) == 2 and all(isinstance(v, str) for v in fb)
            for fb in wp.values()
        ):
            raise SchemeError(
                f"pair ({x}, {y}): 'wp' must map coordinates to [fwd, bwd] weight strings"
            )
        if x not in declared_a or y not in declared_b:
            raise SchemeError(f"pair ({x}, {y}) outside the declared sides")
        w = weight(_field(rec, "w", str))
        wp = {int(i): (weight(fb[0]), weight(fb[1])) for i, fb in wp.items()}
        pairs.append((x, y, w, wp))
    return ExplicitScheme(f, pairs)
