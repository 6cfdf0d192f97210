"""Weight schemes over 0/1-preimage relations and their query lower bounds.

A scheme places a positive weight w(x, y) on each pair of a relation
R between A (0-inputs) and B (1-inputs) of a function, plus directional
weights w'(x, y, i) for every coordinate i where the pair differs, subject
to w'(x, y, i) * w'(y, x, i) >= w(x, y)^2.  The reciprocal of the largest
geometric-mean load is then a bound on bounded-error quantum query cost.

Every scheme is an `ExplicitScheme`, which has
    f            BooleanFunction
    a_side       the 0-inputs in pairs: the sources of slice_table("a"),
                 the same sorted, read-only int64 array object
    b_side       the 1-inputs in pairs, as the sources of slice_table("b")
    pair_count   number of pairs in the relation, read off the A table
    slice_table(side)    the records of a side ("a" or "b") as
                         (sources, ids, slices, entries): sources an int64
                         array; ids an (S, K) integer array whose row r
                         lists the slices of sources[r] in order (-1 for
                         an empty slot; slot 0 is never empty); slices[k]
                         the tuple of entry numbers of slice k; and
                         entries the side's distinct (xor, w, diffs)
                         records, each held once.  The partner of a source
                         is source ^ xor, and diffs is a tuple of (i, fwd,
                         bwd) over differing coordinates, fwd being
                         w'(source, partner, i).  Every call returns the
                         same four objects
    sweep_pairs          given a side, yields (source, records) per row of
                         the table, (partner, w, diffs) records in slot and
                         slice order: the record view for tests and tracing

The records are the scheme: every pair appears once from each side, and
there is no per-pair lookup.  Code in this package reads `slice_table`.
An entry does not depend on the source, so `verify` finds the faults of
each entry once, `loads` sums each slice once, as integer coefficient
rows, then adds the K rows of every source one column at a time in
numpy, `save_scheme` formats and `balance` rescales each entry once, and
`qsim.progress_trace` reads each A-side entry once and expands the table
into pair rows in numpy.

A side's entries are distinct by value, and each is referenced by at
least one slice; sources with equal surroundings share a slice.  Every
scheme holds both finished tables from construction on.  The pair
constructor holds all of a source's pairs in one slot; `balance` keeps
its argument's sources, ids and slices and rescales its entries, or
returns the argument when that is already balanced; and the subclass
compose.ComposedScheme builds both tables from its factors' tables, one
slot per outer partner.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .boolfn import BooleanFunction, var_bit
from .weights import ONE, ZERO, ExactWeight, coefficients, exact_sum, from_coefficients


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


def _product_fault(w, fwd, bwd) -> tuple[str, str] | None:
    """(kind, message) when w'(x,y,i) * w'(y,x,i) >= w^2 fails, else None."""
    if fwd.is_zero or bwd.is_zero:
        kind = "directional"
    elif fwd * bwd >= w * w:
        return None
    else:
        kind = "constraint"
    return kind, f"w'*w' = {fwd * bwd} < w^2 = {w * w}"


def _entry_faults(entry: tuple, arity: int, products: dict) -> list:
    """(xor, kind, i, message) for every requirement one entry fails.

    Positivity, the product constraint and coverage, in the order `verify`
    reports them.  Coverage compares the coordinates of diffs with xor,
    which equals source ^ partner for every source.  `products` memoizes
    the outcome of each (w, fwd, bwd) triple.
    """
    xor, w, diffs = entry
    if w.is_zero:
        return [(xor, "weight", None, "pair weight is zero")]
    out = []
    mask = 0
    for i, fwd, bwd in diffs:
        mask |= var_bit(arity, i)
        triple = (w, fwd, bwd)
        if triple not in products:
            products[triple] = _product_fault(w, fwd, bwd)
        fault = products[triple]
        if fault is not None:
            out.append((xor, fault[0], i, fault[1]))
    if mask != xor:
        out.append(
            (
                xor,
                "coverage",
                None,
                "directional weights do not cover exactly the differing coordinates",
            )
        )
    return out


# ---- explicit schemes ------------------------------------------------------


class ExplicitScheme:
    """A scheme held as its two slice tables, built here from pair records.

    pairs: iterable of (x, y, w, wp) where wp maps each differing
    coordinate i to a pair (w'(x,y,i), w'(y,x,i)).  Duplicate pairs, in
    either orientation, are rejected.  Weights may be given as
    ExactWeight, int, or Fraction; a missing coordinate entry is treated
    as a zero directional weight (and will fail verification).

    A side's equal entries are one record, numbered in pair order; sources
    with the same entry numbers, in pair order, share one slice in their
    one slot.  A pair with an earlier pair's w and wp objects and x ^ y
    reuses that entry, so no wp may change.  `balance` and
    compose.ComposedScheme hand their finished tables to `_set` instead;
    the sides and the pair count are read off the tables.
    """

    def __init__(self, f: BooleanFunction, pairs):
        size = 1 << f.arity
        rows: tuple[dict, dict] = ({}, {})  # source -> entry ids, in pair order
        seen = set()  # x * size + y of every pair so far
        triples: dict = {}  # distinct A-side (i, fwd, bwd) -> triple id
        entries: dict = {}  # (xor, w, triple ids) -> entry id
        known: dict = {}  # (id(w), id(wp), x ^ y) -> (w, wp, entry id), ids kept
        for x, y, w, wp in pairs:
            if not (0 <= x < size and 0 <= y < size):
                raise SchemeError(f"pair ({x}, {y}) out of range for arity {f.arity}")
            if x == y:
                raise SchemeError(f"pair ({x}, {x}) relates an input to itself")
            if x * size + y in seen or y * size + x in seen:
                raise SchemeError(f"duplicate pair ({x}, {y})")
            seen.add(x * size + y)
            diff = x ^ y
            hit = known.get((id(w), id(wp), diff))
            if hit is None:
                table = {}
                for i, (fwd, bwd) in wp.items():
                    if not diff & var_bit(f.arity, i):
                        raise SchemeError(
                            f"pair ({x}, {y}) agrees at coordinate {i}; "
                            "directional weights apply only where the pair differs"
                        )
                    table[i] = (i, ExactWeight.of(fwd), ExactWeight.of(bwd))
                for i in range(1, f.arity + 1):
                    if diff & var_bit(f.arity, i) and i not in table:
                        table[i] = (i, ZERO, ZERO)
                tids = tuple(triples.setdefault(t, len(triples)) for _, t in sorted(table.items()))
                e = entries.setdefault((diff, ExactWeight.of(w), tids), len(entries))
                hit = known[(id(w), id(wp), diff)] = (w, wp, e)
            rows[0].setdefault(x, []).append(hit[2])
            rows[1].setdefault(y, []).append(hit[2])
        if not seen:
            raise SchemeError("a scheme needs at least one pair")
        flipped = [(i, bwd, fwd) for i, fwd, bwd in triples]
        tables = {}
        for side, group, ts in zip("ab", rows, (list(triples), flipped)):
            side_entries = [(xor, w, tuple([ts[t] for t in tids])) for xor, w, tids in entries]
            order = sorted(group)
            seqs: dict = {}  # distinct entry-id sequence -> slice id
            ids = np.array([seqs.setdefault(tuple(group[s]), len(seqs)) for s in order])
            sources = np.array(order, dtype=np.int64)
            sources.flags.writeable = False
            tables[side] = (sources, ids.reshape(-1, 1), list(seqs), side_entries)
        self._set(f, tables)

    def _set(self, f: BooleanFunction, tables: dict) -> None:
        """The function and both tables, side -> (sources, ids, slices,
        entries).  The sides are the tables' sources, and every pair is one
        entry number in a filled slot of the A table."""
        _, ids, slices, _ = tables["a"]
        sizes = np.array([len(sl) for sl in slices] + [0])  # -1: empty slot
        self.f, self.pair_count = f, int(sizes[ids].sum())
        self.a_side, self.b_side = tables["a"][0], tables["b"][0]
        self._tables = tables

    def slice_table(self, side: str):
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', not {side!r}")
        return self._tables[side]

    def sweep_pairs(self, side: str):
        sources, ids, slices, entries = self.slice_table(side)
        for source, row in zip(sources.tolist(), ids.tolist()):
            records = [entries[e] for k in row if k >= 0 for e in slices[k]]
            yield source, [(source ^ xor, w, diffs) for xor, w, diffs in records]


# ---- verification ----------------------------------------------------------


def verify(scheme, limit: int = VIOLATION_CAP) -> list[Violation]:
    """Check the defining requirements; an empty list means valid.

    Checks side membership (A inside the 0-preimage, B inside the
    1-preimage, no overlap), weight positivity, and the product constraint
    w'(x,y,i) * w'(y,x,i) >= w(x,y)^2 at every differing coordinate.  All
    comparisons are exact.  Membership is one mask per side over the
    table.  Pair requirements are found once per A-side entry (and the
    product once per distinct weight triple); that covers every pair the
    entry stands for, from whichever source, and only the sources that
    reach a slice with a faulty entry are visited.  Violations come in
    source, slot, entry order; reporting stops after `limit` of them.
    """
    out: list[Violation] = []
    tab = scheme.f.np_table
    for side, value, message in (
        (scheme.a_side, 0, "A-side input is not a 0-input"),
        (scheme.b_side, 1, "B-side input is not a 1-input"),
    ):
        for x in side[tab[side] != value].tolist():
            out.append(Violation("side", x, None, None, message))
            if len(out) >= limit:
                return out

    sources, ids, slices, entries = scheme.slice_table("a")
    products: dict = {}
    faults = [_entry_faults(entry, scheme.f.arity, products) for entry in entries]
    # a last False stands for the empty slot, id -1
    faulty = np.array([any(faults[e] for e in sl) for sl in slices] + [False])
    for r in np.flatnonzero(faulty[ids].any(axis=1)).tolist():
        source = int(sources[r])
        for k in ids[r].tolist():
            for e in slices[k] if k >= 0 else ():
                for xor, kind, i, message in faults[e]:
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


def _number_rows(columns: list, radices: list) -> tuple[np.ndarray, np.ndarray]:
    """(ids, first) numbering the distinct rows of integer columns.

    Column c holds values in [0, radices[c]), but a first column of radix
    2^62 may hold any integers.  The columns are packed into one int64
    code, renumbered with `np.unique` whenever the next column would
    overflow it; rows r and s are equal exactly when ids[r] == ids[s], and
    first[k] is the first row numbered k.  Integer columns of any width are
    packed in int64, so that narrow ones cannot wrap.
    """
    code, size = columns[0], radices[0]
    if code.dtype.kind in "iu":
        code = code.astype(np.int64, copy=False)
    for col, radix in zip(columns[1:], radices[1:]):
        if size * radix >= 1 << 62:
            code = np.unique(code, return_inverse=True)[1]
            size = max(len(code), 1)
        code = code * radix + col
        size *= radix
    # np.unique's numbering with at most three row-sized arrays alive: the
    # codes are sorted in place (a caller's column on a copy) beside their
    # order, first[k] is the least row of the k-th run of equal codes, and
    # each row's id is the count of runs up to it in sorted order
    order = np.argsort(code)
    if code is columns[0]:
        code = code.copy()
    code.sort()
    new = np.empty(len(code), dtype=bool)  # true at the first row of each run
    new[:1] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    del code
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    rank = new.astype(np.int64)
    np.cumsum(rank, out=rank)
    rank -= 1
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank
    return ids, first


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_number_rows` of a 2-D int64 or object array, the first column as it
    is: one column needs no renumbering before its `np.unique`."""
    rest = [np.unique(col, return_inverse=True) for col in rows.T[1:]]
    radices = [1 << 62] + [len(values) for values, _ in rest]
    return _number_rows([rows[:, 0]] + [ids for _, ids in rest], radices)


class _Lowered:
    """Per-slice sums of slice lists as integer coefficient rows.

    parts is a list of (slices, entries), in which slices[k] lists the
    numbers of slice k's records in entries; the slices of all parts are
    numbered in turn, and so are their entries.  Every weight of the
    entries is lowered to integer coefficients over one denominator and
    radicand basis (`weights.coefficients`).  rows[k, c] holds the
    coefficients of slice k's pair-weight sum (c = 0) or of its
    forward-weight sum at coordinate c, and terms[k, c] counts the weights
    added there, so a coordinate is present where the count is positive.
    A last all-zero row stands for the empty slot, id -1.  coords[k] lists
    the coordinates of slice k's directional weights in first-named order.

    Each entry is lowered once, its weights numbered by value in one dict,
    and a slice's rows sum its entries' rows one column at a time: no
    array is as long as the weight slots of all slices.

    The dtype is int64 when the largest coefficient times the most terms
    in one slice column times `width` slots rules out overflow in the
    per-source sums, and object (Python ints) otherwise.
    """

    def __init__(self, parts: list, arity: int, width: int):
        self.parts = parts
        # (entry, column, value id) per weight of each entry: w at column 0,
        # fwd at column i
        index: dict = {}  # distinct value -> value id
        at_entry, at_col, val_ids = [], [], []
        entries = [entry for _, side in parts for entry in side]
        for k, (_, w, diffs) in enumerate(entries):
            at_entry += [k] * (len(diffs) + 1)
            at_col.append(0)
            at_col += [i for i, _, _ in diffs]
            val_ids.append(index.setdefault(w, len(index)))
            val_ids += [index.setdefault(fwd, len(index)) for _, fwd, _ in diffs]
        self.radicands, self.q, coeffs = coefficients(list(index))
        at = (np.array(at_entry, dtype=np.int64), np.array(at_col, dtype=np.int64))
        ent_terms = np.zeros((len(entries), arity + 1), dtype=np.int64)
        np.add.at(ent_terms, at, 1)
        # slice k sums slots starts[k] .. starts[k + 1] - 1, one column at a
        # time; a part's entry numbers move past the earlier parts' entries
        sizes, slots, shift = [], [], 0
        for slices, side in parts:
            sizes.append(np.fromiter(map(len, slices), dtype=np.int64, count=len(slices)))
            slots.append(np.fromiter(itertools.chain.from_iterable(slices), dtype=np.int64) + shift)
            shift += len(side)
        sizes, slots = np.concatenate(sizes), np.concatenate(slots)
        starts = np.cumsum(sizes) - sizes
        shape = (len(sizes) + 1, arity + 1)
        self.terms = np.zeros(shape, dtype=np.int64)
        for c in range(arity + 1):
            self.terms[:-1, c] = np.add.reduceat(ent_terms[slots, c], starts)
        largest = max(abs(c) for row in coeffs for c in row)
        fits = largest * int(self.terms.max()) * width < 2**63
        coeffs = np.array(coeffs, dtype=np.int64 if fits else object)
        ent_rows = np.zeros(ent_terms.shape + (len(self.radicands),), dtype=coeffs.dtype)
        np.add.at(ent_rows, at, coeffs[val_ids])
        self.rows = np.zeros(shape + (len(self.radicands),), dtype=coeffs.dtype)
        for c in range(arity + 1):
            self.rows[:-1, c] = np.add.reduceat(ent_rows[slots, c], starts)
        self._values: dict = {}

    def value(self, row) -> ExactWeight:
        """The exact value of one coefficient row, built once per row."""
        key = tuple(row.tolist())
        w = self._values.get(key)
        if w is None:
            w = self._values[key] = from_coefficients(self.radicands, self.q, key)
        return w

    def column(self, ids: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-source sums in column c over the slots of ids, and presence."""
        rows, has = self.rows[:, c], self.terms[:, c] > 0
        total, present = rows[ids[:, 0]], has[ids[:, 0]]
        for k in range(1, ids.shape[1]):
            slot = ids[:, k]
            total += rows[slot]
            present |= has[slot]
        return total, present

    @functools.cached_property
    def coords(self) -> list:
        """coords[k]: the coordinates of slice k's directional weights in
        first-named order, made on first use (only the maps need them)."""
        return [
            tuple(dict.fromkeys(i for e in sl for i, _, _ in entries[e][2]))
            for slices, entries in self.parts
            for sl in slices
        ]

    def order(self, row) -> tuple:
        """The coordinates of a source with these slice ids, in first-named order."""
        return tuple(dict.fromkeys(itertools.chain(*(self.coords[k] for k in row if k >= 0))))


def loads(scheme, *, keep_maps: bool = False) -> LoadReport:
    """Weights wt(x), loads v(x, i), side maxima, and the bound.

    wt(x) sums the pair weights at x; v(x, i) sums the directional weights
    from x over partners differing at i.  Each slice of the two
    `slice_table`s is summed once as integer coefficient rows (`_Lowered`,
    which lowers each entry once and numbers weights by value);
    every source adds its slots' rows one column at a time, and a
    coordinate counts for a source when one of its slices has it.  Exact
    values are made only for distinct sums, and the v / wt maxima are
    taken over distinct (wt, v) pairs.  Without maps nothing is kept per
    source, so memory stays flat.
    """
    if not len(scheme.a_side) or not len(scheme.b_side):
        raise SchemeError("loads need a nonempty relation on both sides")
    arity = scheme.f.arity
    tables = [scheme.slice_table(side) for side in "ab"]
    # `_Lowered` numbers the B side's slices after the A side's
    b_ids = tables[1][1]
    b_ids = np.where(b_ids >= 0, b_ids + len(tables[0][2]), -1)
    sides = [(tables[0][0], tables[0][1]), (tables[1][0], b_ids)]
    parts = [(slices, entries) for _, _, slices, entries in tables]
    low = _Lowered(parts, arity, max(ids.shape[1] for _, ids in sides))
    wt_map: dict | None = {} if keep_maps else None
    v_map: dict | None = {} if keep_maps else None
    side_best = []
    wts: dict = {}  # distinct values as ordered sets, over both sides
    vs: dict = {}
    for sources, ids in sides:
        wt_rows, _ = low.column(ids, 0)
        wt_ids, first = _distinct(wt_rows)
        wt_values = [low.value(wt_rows[r]) for r in first.tolist()]
        wts.update(dict.fromkeys(wt_values))
        best: dict = {}  # wt id -> largest v(x, i) of the sources with that wt
        v_of: dict = {}  # i -> source row -> v(x, i), kept for the maps
        for i in range(1, arity + 1):
            v_rows, present = low.column(ids, i)
            at = np.flatnonzero(present)
            v_ids, first = _distinct(v_rows[at])
            values = [low.value(v_rows[r]) for r in at[first].tolist()]
            vs.update(dict.fromkeys(values))
            first = _number_rows([wt_ids[at], v_ids], [len(wt_values), len(values)])[1]
            for wt, v in zip(wt_ids[at[first]].tolist(), v_ids[first].tolist()):
                if wt not in best or values[v] > best[wt]:
                    best[wt] = values[v]
            if keep_maps:
                v_of[i] = dict(zip(at.tolist(), map(values.__getitem__, v_ids.tolist())))
        side_best.append(max(v / wt_values[wt] for wt, v in best.items()))
        if keep_maps:
            rows = zip(sources.tolist(), ids.tolist(), wt_ids.tolist())
            for r, (source, row, wt) in enumerate(rows):
                wt_map[source] = wt_values[wt]
                for i in low.order(row):
                    v_map[(source, i)] = v_of[i][r]
    wt_min, wt_max = min(wts), max(wts)
    v_lo, v_hi = min(vs), max(vs)
    v_a, v_b = side_best
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

    With s = sqrt(v_b/v_a), every A-side triple (i, fwd, bwd) becomes
    (i, fwd*s, bwd/s) and every B-side triple (i, fwd/s, bwd*s), so the
    directional weights of a pair are rescaled alike from both sides.
    Pair weights and the products w'(x,y,i)*w'(y,x,i) are untouched, so
    validity is preserved.  Each entry of the two slice tables is rescaled
    once, and the result is an ExplicitScheme with the scheme's sources,
    ids and slices and the rescaled entries in the same order; the scheme
    itself is returned when it is already balanced.
    """
    rep = report if report is not None else loads(scheme)
    v_a, v_b = rep.v_a, rep.v_b
    if v_a.is_zero or v_b.is_zero:
        raise SchemeError("degenerate scheme: a side load is zero")
    if v_a == v_b:
        return scheme
    ratio = v_b / v_a
    if ratio.u != 1:
        raise SchemeError(f"load ratio {ratio} has no exact square root")
    s = ratio.sqrt()
    tables = {}
    for side, up, down in (("a", s, ONE / s), ("b", ONE / s, s)):
        sources, ids, slices, entries = scheme.slice_table(side)
        entries = [
            (xor, w, tuple([(i, fwd * up, bwd * down) for i, fwd, bwd in diffs]))
            for xor, w, diffs in entries
        ]
        tables[side] = (sources, ids, slices, entries)
    out = object.__new__(ExplicitScheme)
    out._set(scheme.f, tables)
    return out


# ---- unweighted relation bound ---------------------------------------------


@dataclass(frozen=True)
class RelationBound:
    """Partner-count parameters of a bare relation and the bound they give."""

    m: int
    m_prime: int
    l: int
    l_prime: int
    bound: ExactWeight


def _int_array(values) -> np.ndarray:
    """values as an array of their own integer type, or of int64."""
    arr = np.asarray(values)
    return arr if arr.dtype.kind == "i" else arr.astype(np.int64)


def _check_sides(f: BooleanFunction, a, b):
    tab = f.np_table
    a = _int_array(a)
    b = _int_array(b)
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
    (x, y) pairs, a list of tuples or an (N, 2) integer array, read in its
    own integer type with array passes: one `np.add.at` count per side for
    m and m', which also finds a pair off the declared sides, and one
    masked count per side and coordinate for l and l'.  Counting by
    `np.add.at` makes no intp copy of the relation, and the coordinate
    loop reuses one bool mask over one xor array of the narrowest unsigned
    type that holds an input.  The sides, too, keep an integer array's type.
    """
    a = _int_array(a)
    b = _int_array(b)
    _check_sides(f, a, b)
    if not len(relation):
        raise SchemeError("empty relation")
    rel = _int_array(relation).reshape(-1, 2)
    n = f.arity
    size = 1 << n
    in_a = np.zeros(size, dtype=bool)
    in_b = np.zeros(size, dtype=bool)
    in_a[a] = True
    in_b[b] = True
    xs, ys = rel[:, 0], rel[:, 1]
    # partner counts per input (a relation has far fewer than 2^31 pairs);
    # an int32 one keeps np.add.at on its fast path for int32 counts
    x_count = np.zeros(size, dtype=np.int32)
    y_count = np.zeros(size, dtype=np.int32)
    one = np.int32(1)
    inside = min(xs.min(), ys.min()) >= 0 and max(xs.max(), ys.max()) < size
    if inside:
        np.add.at(x_count, xs, one)
        np.add.at(y_count, ys, one)
    if not inside or x_count[~in_a].any() or y_count[~in_b].any():
        ok = (xs >= 0) & (xs < size) & (ys >= 0) & (ys < size)
        ok[ok] = in_a[xs[ok]] & in_b[ys[ok]]
        x, y = rel[np.argmin(ok)].tolist()
        raise SchemeError(f"pair ({x}, {y}) leaves the declared sides")
    m = int(x_count[a].min())
    m_prime = int(y_count[b].min())
    diff = np.empty(len(rel), dtype=np.min_scalar_type(size - 1))
    np.bitwise_xor(xs, ys, out=diff, casting="unsafe")
    at = np.empty(len(rel), dtype=bool)
    l = l_prime = 0
    for i in range(n):
        np.bitwise_and(diff, 1 << i, out=at, casting="unsafe")
        if at.any():
            x_count.fill(0)
            np.add.at(x_count, xs[at], one)
            y_count.fill(0)
            np.add.at(y_count, ys[at], one)
            l = max(l, int(x_count.max()))
            l_prime = max(l_prime, int(y_count.max()))
    bound = ExactWeight.sqrt_of(Fraction(m * m_prime, l * l_prime))
    return RelationBound(m, m_prime, l, l_prime, bound)


# ---- minimax upper certificates --------------------------------------------


def upper_certificate(f: BooleanFunction, p) -> ExactWeight:
    """An exact upper bound on what any positive-weight scheme for f certifies.

    p gives every input x a probability vector over the coordinates:
    p[x][i - 1] = p_x(i), exact nonnegative rationals (Fraction, int or a
    'p/q' string) with sum over i at most 1, checked exactly for every
    input.  By the minimax form of the positive-weight adversary
    (Spalek-Szegedy 2006), no scheme beats

        1 / min over x in f^-1(0), y in f^-1(1) of
            sum over i with x_i != y_i of sqrt(p_x(i) * p_y(i)),

    which is returned exactly.  A p that gives some pair nothing where it
    differs certifies no finite bound and is refused.
    """
    n, size = f.arity, 1 << f.arity
    if len(p) != size:
        raise SchemeError(f"need a probability vector for each of the {size} inputs")
    rows = []
    for x, vector in enumerate(p):
        if len(vector) != n or any(isinstance(v, float) for v in vector):
            raise SchemeError(f"input {x}: need {n} exact probabilities")
        row = [Fraction(v) for v in vector]
        if min(row) < 0:
            raise SchemeError(f"input {x}: negative probability {min(row)}")
        if sum(row) > 1:
            raise SchemeError(f"input {x}: probabilities sum to {sum(row)}, past 1")
        rows.append(row)
    root = functools.cache(ExactWeight.sqrt_of)  # a few distinct products
    best = None
    ones = [y for y in range(size) if f.table[y]]
    for x in range(size):
        if f.table[x]:
            continue
        for y in ones:
            total = exact_sum(
                [
                    root(rows[x][i - 1] * rows[y][i - 1])
                    for i in range(1, n + 1)
                    if (x ^ y) & var_bit(n, i)
                ]
            )
            if best is None or total < best:
                best = total
    if best is None:
        raise SchemeError("a constant function has no pairs to bound")
    if best.is_zero:
        raise SchemeError("some pair gets no probability where it differs: no finite bound")
    return ONE / best


# Optimal probabilities p_x(i) for the functions of the f4 and nae3 schemes,
# one row per input (table index), one entry per coordinate: 2/5 on each of
# an f4 input's two sensitive coordinates and 1/10 elsewhere; 1/3 everywhere
# on 000 and 111, and 2/3 on the odd coordinate of the other nae3 inputs
# with 1/6 on the rest.  `upper_certificate` gives 5/2 and 3/2*sqrt(2), the
# schemes' bounds, so neither scheme can be improved.
MINIMAX_PROBABILITIES = {
    "f4": (
        "2/5 2/5 1/10 1/10",
        "1/10 2/5 2/5 1/10",
        "2/5 1/10 1/10 2/5",
        "1/10 1/10 2/5 2/5",
        "1/10 2/5 2/5 1/10",
        "2/5 2/5 1/10 1/10",
        "1/10 1/10 2/5 2/5",
        "2/5 1/10 1/10 2/5",
        "2/5 1/10 1/10 2/5",
        "1/10 1/10 2/5 2/5",
        "2/5 2/5 1/10 1/10",
        "1/10 2/5 2/5 1/10",
        "1/10 1/10 2/5 2/5",
        "2/5 1/10 1/10 2/5",
        "1/10 2/5 2/5 1/10",
        "2/5 2/5 1/10 1/10",
    ),
    "nae3": (
        "1/3 1/3 1/3",
        "1/6 1/6 2/3",
        "1/6 2/3 1/6",
        "2/3 1/6 1/6",
        "2/3 1/6 1/6",
        "1/6 2/3 1/6",
        "1/6 1/6 2/3",
        "1/3 1/3 1/3",
    ),
}


def minimax_probabilities(name: str) -> list[list[Fraction]]:
    """The committed minimax probabilities of a builtin scheme's function."""
    return [[Fraction(v) for v in row.split()] for row in MINIMAX_PROBABILITIES[name]]


def unit_scheme(f: BooleanFunction, a, b, relation) -> ExplicitScheme:
    """The scheme with w = w' = 1 everywhere on the given relation."""
    _check_sides(f, a, b)
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


def _quote(weight) -> str:
    return json.dumps(str(weight))


def _entry_text(w, diffs) -> str:
    """A pair's text after its "y" value, as json.dumps(doc, indent=1) prints it."""
    wp = ",\n".join(
        f'    "{i}": [\n     {_quote(fwd)},\n     {_quote(bwd)}\n    ]' for i, fwd, bwd in diffs
    )
    wp = f"{{\n{wp}\n   }}" if diffs else "{}"
    return f',\n   "w": {_quote(w)},\n   "wp": {wp}\n  }}'


def save_scheme(scheme, path) -> None:
    """Write a scheme to JSON with exact weight strings.

    The file holds json.dumps(doc, indent=1) of the whole document, but it
    is written as it is made: the header, then the pairs one source at a
    time off the A side's `slice_table`, each entry's text made once, so
    that only one source's pairs are held in memory.
    """
    head = json.dumps(
        {
            "arity": scheme.f.arity,
            "table": "".join(str(b) for b in scheme.f.table),
            "a": scheme.a_side.tolist(),
            "b": scheme.b_side.tolist(),
            "pairs": [],
        },
        indent=1,
    )
    sources, ids, slices, entries = scheme.slice_table("a")
    tails = [_entry_text(w, diffs) for _, w, diffs in entries]
    chunks = (
        ",\n".join(
            f'  {{\n   "x": {x},\n   "y": {x ^ entries[e][0]}{tails[e]}'
            for k in row
            if k >= 0
            for e in slices[k]
        )
        for x, row in zip(sources.tolist(), ids.tolist())
    )
    with Path(path).open("w") as out:
        first = next(chunks, None)
        if first is None:
            out.write(head)
            return
        out.write(head.removesuffix("[]\n}") + "[\n" + first)
        for chunk in chunks:
            out.write(",\n" + chunk)
        out.write("\n ]\n}")


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
    try:
        doc = json.loads(path.read_text())
    except RecursionError:
        raise SchemeError("a scheme file's JSON nests too deep") from None
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
    parsed_wp: dict[str, dict] = {}  # repr of a "wp" object -> its mapping, checked once

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
        known = parsed_wp.get(text := repr(wp))
        if known is None:
            if not isinstance(wp, dict) or not all(
                isinstance(fb, list) and len(fb) == 2 and type(fb[0]) is type(fb[1]) is str
                for fb in wp.values()
            ):
                raise SchemeError(
                    f"pair ({x}, {y}): 'wp' must map coordinates to [fwd, bwd] weight strings"
                )
        if x not in declared_a or y not in declared_b:
            raise SchemeError(f"pair ({x}, {y}) outside the declared sides")
        w = weight(_field(rec, "w", str))
        if known is None:
            known = {int(i): (weight(fb[0]), weight(fb[1])) for i, fb in wp.items()}
            if list(map(str, known)) != list(wp):
                raise SchemeError(f"pair ({x}, {y}): 'wp' keys must read str(i), not {list(wp)}")
            parsed_wp[text] = known
        pairs.append((x, y, w, known))
    return ExplicitScheme(f, pairs)
