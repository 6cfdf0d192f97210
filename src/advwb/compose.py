"""Product construction that turns schemes for g and g^(d-1) into one for g^d.

Inputs split into n contiguous blocks of n^(d-1) variables.  A composed
pair keeps equal blocks wherever the two block-value patterns agree and
pairs up inner-scheme partners wherever they differ.  The pair weight is
the outer weight times inner weights on differing blocks times inner
total weights on agreeing blocks; directional weights attach the square
root of the two forward/backward ratios, which keeps the defining
constraint tight and multiplies the two bounds.

The pairs from one source to the partners with one block pattern form a
slice.  Its entries (xor offset, weight, directional weights) depend
only on the pattern pair, the source's blocks where the patterns differ
and the inner totals where they agree, so sources with the same
surroundings share one `adversary.Slice`: 2,304 slices serve the
1,310,720 pairs of the 4-bit base's square.  `slice_table` finds every
source's slices of a side at once: it computes block patterns and
total-weight classes as arrays, one block column at a time, takes
`np.unique` of the slice key per outer partner slot, and builds the
side's slices in one batch, once; the table is kept and handed out again
on every later call.  The batch works on int32 ids of the few distinct
exact weights: each product, quotient and ratio root is computed once per
distinct id pair, and only distinct diff triples and distinct entries
become Python tuples, which the slices share (on each side of the 4-bit
base's square, 1,136 entries serve 16,896 entry slots).  Its entry- and
diff-sized arrays are int32 and each is dropped once it has been read, so
a side's build peaks near 4 MiB of temporaries on the square of the 4-bit
base, against 1.2 MiB kept.  `verify`, `loads`, `save_scheme`, `balance`,
`qsim.progress_trace` and the claim checks at the end of this module
read that table (`sweep_pairs` is its record view for tests and the
benchmark tracer), and a composed scheme reads its factors' tables.  A
side is the sources array of its table, one sorted int64 array kept once,
and the claim checks find a source's row by binary search on it, so they
certify exactly what `verify` and `loads` consume.  Their right-hand
sides depend only on the block pattern and total-weight classes and are
computed once for each, and claim 2's outcome once per slice and
coordinate.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .adversary import SchemeError, Slice, TableSweeps, _number_rows, loads
from .boolfn import ArityError, BooleanFunction, compose as compose_tables, iterate
from .weights import ONE, ExactWeight, exact_sum

COMPOSE_ARITY_CAP = 16


def block_index(i: int, n: int, d: int) -> tuple[int, int]:
    """Split global coordinate i in [1, n^d] into (block, offset in block).

    Blocks have n^(d-1) coordinates; both results are 1-based, so
    i = (i1 - 1) * n^(d-1) + i2.
    """
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    size = n ** (d - 1)
    if not 1 <= i <= n**d:
        raise ValueError(f"coordinate {i} outside [1, {n ** d}]")
    return (i - 1) // size + 1, (i - 1) % size + 1


def _iteration_depth(outer_f: BooleanFunction, inner_f: BooleanFunction) -> int:
    """d such that inner_f = the (d-1)-fold iterate of outer_f."""
    n, m = outer_f.arity, inner_f.arity
    k, a = 1, n
    while a < m:
        a *= n
        k += 1
    if a != m:
        raise SchemeError(
            f"inner arity {m} is not a power of the outer arity {n}"
        )
    if iterate(outer_f, k) != inner_f:
        raise SchemeError("inner scheme's function is not an iterate of the outer function")
    return k + 1


def _sqrt_product(r1: ExactWeight, r2: ExactWeight) -> ExactWeight:
    """sqrt(r1 * r2), which must be rational for the weights to stay exact."""
    prod = r1 * r2
    if prod.u != 1:
        raise SchemeError(f"directional ratio product {prod} has no exact square root")
    return prod.sqrt()


def _ratio_table(scheme, side: str) -> tuple:
    """(sources, ids, records, totals) of a side's `slice_table` as lists:
    slice k's entries as records[k] = ((xor, w, ((i, fwd / bwd), ...)), ...)
    and row r's total weight, the sum of its `Slice.wt`, as totals[r].  A
    zero directional weight has no ratio: SchemeError names its coordinate
    and the pair of the first source that reaches its slice."""
    sources, ids, slices = scheme.slice_table(side)
    div = functools.cache(operator.truediv)  # a scheme repeats a few ratios
    records = []
    for k, sl in enumerate(slices):
        for xor, _, diffs in sl.entries:
            zero = [i for i, fwd, bwd in diffs if fwd.is_zero or bwd.is_zero]
            if zero:
                x = int(sources[(ids == k).any(axis=1).argmax()])
                raise SchemeError(
                    f"pair ({x}, {x ^ xor}) has a zero directional weight at coordinate {zero[0]}"
                )
        records.append(
            tuple((xor, w, tuple([(i, div(f, b)) for i, f, b in d])) for xor, w, d in sl.entries)
        )
    ids = ids.tolist()
    totals = [exact_sum([slices[k].wt for k in row if k >= 0]) for row in ids]
    return sources.tolist(), ids, records, totals


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated, in counts' dtype."""
    starts = np.cumsum(counts, dtype=counts.dtype) - counts
    return np.arange(int(counts.sum()), dtype=counts.dtype) - np.repeat(starts, counts)


class _Pool:
    """Distinct ExactWeights numbered 0, 1, ...; operations memoized on numbers.

    `apply` runs a binary operation elementwise on two id arrays with one
    exact operation per distinct id pair, remembered across calls, and
    returns int32 ids.  A pair whose operation raises SchemeError gives -1,
    so that the caller can find the first one in its own order.
    """

    def __init__(self):
        self.values: list = []
        self._ids: dict = {}
        self._memo: dict = {}

    def id(self, value: ExactWeight) -> int:
        k = self._ids.get(value)
        if k is None:
            k = self._ids[value] = len(self.values)
            self.values.append(value)
        return k

    def apply(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        memo = self._memo.setdefault(op, {})
        # int64 keys whatever the ids' dtype: an int32 shift by 32 would wrap
        keys = a.astype(np.int64) << 32 | b
        pairs = np.unique(keys)
        out = []
        for pair in pairs.tolist():
            k = memo.get(pair)
            if k is None:
                k = memo[pair] = self._result(op, pair >> 32, pair & 0xFFFFFFFF)
            out.append(k)
        return np.array(out, dtype=np.int32)[np.searchsorted(pairs, keys)]

    def _result(self, op, i: int, j: int) -> int:
        try:
            return self.id(op(self.values[i], self.values[j]))
        except SchemeError:
            return -1


class _TemplateBuilder:
    """Builds the slices of a ComposedScheme in batches, over weight ids.

    The outer pair weights and ratios and the inner records (per distinct
    inner slice), totals and ratios are numbered once in a `_Pool`.  The
    inner records of block value u are rows rec_start[u] .. rec_start[u] +
    rec_count[u] - 1 of flat arrays, and their diffs rows of flatter ones;
    a last record `pad` (offset 0, weight 1, no diffs) fills the slots of
    templates with fewer differing blocks than others in a batch.
    """

    def __init__(self, composed: "ComposedScheme", inner_tables: list):
        pool = self.pool = _Pool()
        self.n, self.m, self.arity = composed.n, composed.m, composed.arity
        self.outer = {
            pz: (pool.id(w), tuple((j, pool.id(r1)) for j, r1 in odiffs))
            for pz, (w, odiffs) in composed._o_pairs.items()
        }
        # block values in no inner pair have class -1, which picks the last id, -1
        class_ids = [pool.id(wt) for wt in composed._class_wt]
        self.total = np.array(class_ids + [-1], dtype=np.int32)[composed._class_of]
        self.rec_start, self.rec_count = np.zeros((2, 1 << self.m), dtype=np.int32)
        rows, diffs = [], []  # (xor, w, diff start, diff count) per record; (i2, r2)
        for sources, ids, records, _ in inner_tables:
            numbered = [
                [(xor, pool.id(w), [(i, pool.id(r)) for i, r in rd]) for xor, w, rd in recs]
                for recs in records
            ]
            for u, row in zip(sources, ids):
                recs = [rec for k in row if k >= 0 for rec in numbered[k]]
                self.rec_start[u], self.rec_count[u] = len(rows), len(recs)
                for xor, w, rd in recs:
                    rows.append((xor, w, len(diffs), len(rd)))
                    diffs += rd
        self.pad = len(rows)
        rows.append((0, pool.id(ONE), len(diffs), 0))
        self.off, self.wv, self.dstart, self.dcount = np.array(rows, dtype=np.int32).T
        self.i2, self.r2 = np.array(diffs, dtype=np.int32).reshape(-1, 2).T

    def build(self, keys: list, blocks: np.ndarray) -> list[Slice]:
        """The Slices of outer pairs keys[k] = (p, z), towards z from a
        source with pattern p and the blocks in row k of blocks.

        A slice's entries are the product of the inner records of its
        differing blocks, the first differing block outermost; the product
        runs over every template at once, one block slot at a time.  Each
        entry has an xor offset, weight id base * prod(wv) and diffs
        (coordinate, w*s, w/s) with s = sqrt(r1 * r2), flattened in
        template, entry and diff order, so the first ratio product with no
        exact root raises its error.  Distinct diff triples and distinct
        entries become one shared tuple each.  The entry- and diff-sized
        arrays are int32 and each is dropped once it has been read.
        """
        pool, n, m = self.pool, self.n, self.m
        outer = [self.outer[key] for key in keys]
        differ = np.array([p ^ z for p, z in keys], dtype=np.int32)
        base = np.array([w for w, _ in outer], dtype=np.int32)
        for j in range(n):
            at = np.flatnonzero((differ >> (n - 1 - j)) & 1 == 0)
            base[at] = pool.apply(operator.mul, base[at], self.total[blocks[at, j]])
        # differing blocks and outer ratios per slot; pad slots repeat block 1
        width = max(len(odiffs) for _, odiffs in outer)
        dj = np.array(
            [[j for j, _ in od] + [1] * (width - len(od)) for _, od in outer], dtype=np.int32
        )
        r1 = np.array(
            [[r for _, r in od] + [0] * (width - len(od)) for _, od in outer], dtype=np.int32
        )
        real = np.arange(width) < np.array([len(od) for _, od in outer])[:, None]
        u = np.take_along_axis(blocks, dj - 1, axis=1)
        starts = np.where(real, self.rec_start[u], self.pad)
        counts = np.where(real, self.rec_count[u], 1)

        # the Cartesian product of the slots' records, per template
        job = np.arange(len(keys), dtype=np.int32)
        rec = np.zeros((len(keys), 0), dtype=np.int32)
        for b in range(width):
            per_job = counts[job, b]
            chosen = np.repeat(starts[job, b], per_job) + _ranks(per_job)
            job = np.repeat(job, per_job)
            rec = np.column_stack([np.repeat(rec, per_job, axis=0), chosen])
        shift = (n - dj) * m
        xor = np.zeros(len(job), dtype=np.int32)
        w = base[job]
        for b in range(width):
            xor |= self.off[rec[:, b]] << shift[job, b]
            w = pool.apply(operator.mul, w, self.wv[rec[:, b]])

        # diffs: entry-major, then slot, then the inner record's own order
        per_rec = self.dcount[rec]
        per_entry = per_rec.sum(axis=1, dtype=np.int32)
        per_rec = per_rec.ravel()
        d = np.repeat(self.dstart[rec.ravel()], per_rec) + _ranks(per_rec)
        d_col = np.repeat(((dj - 1) * m)[job].ravel(), per_rec) + self.i2[d]
        d_r1 = np.repeat(r1[job].ravel(), per_rec)
        del rec, per_rec
        d_r2 = self.r2[d]
        del d
        values = pool.values
        s = pool.apply(_sqrt_product, d_r1, d_r2)
        failed = np.flatnonzero(s < 0)
        if failed.size:  # raise for the first failing diff
            _sqrt_product(values[d_r1[failed[0]]], values[d_r2[failed[0]]])
        del d_r1, d_r2
        # s is never 0: construction refused every zero directional weight
        # of both factors (`_ratio_table`)
        d_w = np.repeat(w, per_entry)
        fwd = pool.apply(operator.mul, d_w, s)
        bwd = pool.apply(operator.truediv, d_w, s)
        del d_w, s
        size = len(values)
        d_ids, first = _number_rows([d_col, fwd, bwd], [self.arity + 1, size, size])
        triples = [
            (i, values[a], values[b])
            for i, a, b in zip(d_col[first].tolist(), fwd[first].tolist(), bwd[first].tolist())
        ]
        del d_col, fwd, bwd
        # each entry's triple ids, shifted by one and padded with 0: the
        # mask is true on the first per_entry slots of each row, which it
        # fills in row order, the diffs' own order
        diff_ids = np.zeros((len(job), int(per_entry.max(initial=0))), dtype=np.int32)
        diff_ids[np.arange(diff_ids.shape[1]) < per_entry[:, None]] = d_ids + 1
        del d_ids
        e_ids, first = _number_rows(
            [xor, w, *diff_ids.T], [1 << self.arity, size] + [len(triples) + 1] * diff_ids.shape[1]
        )
        records = [
            (x, values[v], tuple([triples[t - 1] for t in row if t]))
            for x, v, row in zip(xor[first].tolist(), w[first].tolist(), diff_ids[first].tolist())
        ]
        e_ids = e_ids.tolist()
        ends = np.cumsum(np.bincount(job, minlength=len(keys))).tolist()
        return [
            Slice(tuple([records[e] for e in e_ids[start:end]]))
            for start, end in zip([0] + ends, ends)
        ]


def _sides(outer, inner) -> list[np.ndarray]:
    """The composed A and B sides: the inputs with every block on an inner
    side whose pattern (bit set: block on the inner B side) is on the
    outer A or B side, as sorted, read-only int64 arrays.  One block column
    at a time, in int32."""
    n, m = outer.f.arity, inner.f.arity
    on = np.zeros(1 << m, dtype=np.int8)  # 1 on the inner A side, 2 on the B side
    on[inner.a_side], on[inner.b_side] = 1, 2
    xs = np.arange(1 << n * m, dtype=np.int32)
    patterns = np.zeros(len(xs), dtype=np.int32)
    inside = np.ones(len(xs), dtype=bool)
    for j in range(n):
        at = on[(xs >> (n - 1 - j) * m) & ((1 << m) - 1)]
        inside &= at > 0
        patterns = patterns << 1 | (at == 2)
    patterns[~inside] = -1
    sides = [np.flatnonzero(np.isin(patterns, side)) for side in (outer.a_side, outer.b_side)]
    for xs in sides:
        xs.flags.writeable = False
    return sides


class ComposedScheme(TableSweeps):
    """Scheme for g^d assembled from schemes for g and g^(d-1).

    Nothing is stored per pair, and the factors' pairs and weights are
    read only off their `slice_table`s.  Construction keeps the two sides
    as read-only int64 arrays (`_sides`), and `slice_table` uses each as
    its table's sources.  It builds a side's shared slices in one batch
    (`_TemplateBuilder`, made at construction) and keeps the side's table,
    so the ~1.3*10^6 pairs of the 4-bit base's square stay cheap and
    exact; there is no per-pair lookup.  Slices share their entry and diff
    tuples, and the tables are made on first use, not at construction.
    """

    def __init__(self, outer, inner):
        n, m = outer.f.arity, inner.f.arity
        self.depth = _iteration_depth(outer.f, inner.f)
        arity = n * m
        if arity > COMPOSE_ARITY_CAP:
            raise ArityError(
                f"composed arity {arity} exceeds the materialization cap "
                f"{COMPOSE_ARITY_CAP}"
            )
        outer_report = loads(outer)
        inner_report = loads(inner)
        for name, rep in (("outer", outer_report), ("inner", inner_report)):
            if rep.v_a != rep.v_b:
                raise SchemeError(
                    f"{name} scheme is not balanced (v_A = {rep.v_a}, "
                    f"v_B = {rep.v_b}); balance() it first"
                )
        self.outer, self.inner = outer, inner
        self.n, self.m = n, m
        self.arity = arity
        self.f = compose_tables(outer.f, [inner.f] * n)
        self.inner_vmax = inner_report.v_max
        self.predicted_bound = ONE / (outer_report.v_max * inner_report.v_max)

        # (p, z) -> (w, ((j, fwd / bwd), ...)), p -> ((z, mask of the blocks
        # where p and z differ), ...) in table order, and p -> total weight
        self._o_pairs, self._o_partners, self._outer_wt = {}, {}, {}
        block = (1 << m) - 1
        for side in "ab":
            sources, ids, records, totals = _ratio_table(outer, side)
            for p, row, wt in zip(sources, ids, totals):
                recs = [rec for k in row if k >= 0 for rec in records[k]]
                self._o_pairs.update(((p, p ^ xor), (w, od)) for xor, w, od in recs)
                self._o_partners[p] = tuple(
                    (p ^ xor, sum(block << (n - j) * m for j, _ in od)) for xor, _, od in recs
                )
                self._outer_wt[p] = wt
        # a slice sees its agreeing blocks only through their inner totals,
        # so blocks with equal totals share a class (-1: no inner pair)
        inner_tables = [_ratio_table(inner, side) for side in "ab"]
        classes: dict = {}
        self._class_of = np.full(1 << m, -1, dtype=np.int64)
        for sources, _, _, totals in inner_tables:
            for u, wt in zip(sources, totals):
                self._class_of[u] = classes.setdefault(wt, len(classes))
        self._class_wt = list(classes)
        self._tables: dict = {}  # side -> (sources, ids, slices)
        self._claims: dict = {}  # (p, classes) -> claim 1 right-hand sides
        self._claim2: dict = {}  # (slice, i) -> whether claim 2 holds

        self.a_side, self.b_side = _sides(outer, inner)
        # a composed pair lies over one outer pair (p, z), p on the A side:
        # inner pairs where p and z differ, the inner side p names elsewhere
        sizes, pairs = (len(inner.a_side), len(inner.b_side)), inner.pair_count
        self.pair_count = sum(
            math.prod(pairs if (p ^ z) >> j & 1 else sizes[p >> j & 1] for j in range(n))
            for p in outer.a_side.tolist()
            for z, _ in self._o_partners[p]
        )
        self._builder = _TemplateBuilder(self, inner_tables)

    # ---- sweeps -----------------------------------------------------------

    def slice_table(self, side: str):
        """(sources, ids, slices) of a side, built on the first call and
        the same objects on every call after it.

        Sources with the same block pattern p, the same blocks where p
        differs from an outer partner z and the same total-weight classes
        elsewhere share a slice towards z.  For each p and outer partner
        slot (p, z) that key is numbered over the sources at once with
        `np.unique`, the classes folded into one integer above the source
        bits, and every distinct key's slice is built from its first
        source, the whole side in one batch.
        """
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', not {side!r}")
        table = self._tables.get(side)
        if table is not None:
            return table
        n, m = self.n, self.m
        xs = self.a_side if side == "a" else self.b_side
        # patterns and class codes one block column at a time; any radix
        # above every class orders the codes as the class tuples
        patterns = np.zeros(len(xs), dtype=np.int32)
        class_code = np.zeros(len(xs), dtype=np.int64)
        radix = int(self._class_of.max()) + 1
        for j in range(n):
            u = (xs >> (n - 1 - j) * m) & ((1 << m) - 1)
            patterns = patterns << 1 | self.inner.f.np_table[u]
            class_code = class_code * radix + self._class_of[u]
        del u
        class_code <<= self.arity
        present = np.unique(patterns).tolist()
        width = max(len(self._o_partners[p]) for p in present)
        # int32 ids halve the kept table; a side has far fewer than 2^31 slices
        ids = np.full((len(xs), width), -1, dtype=np.int32)
        keys: list = []
        firsts: list = []
        for p in present:
            rows = np.flatnonzero(patterns == p)
            for k, (z, mask) in enumerate(self._o_partners[p]):
                _, first, inverse = np.unique(
                    class_code[rows] | (xs[rows] & mask), return_index=True, return_inverse=True
                )
                ids[rows, k] = inverse + len(keys)
                keys += [(p, z)] * len(first)
                firsts.append(rows[first])
        del patterns, class_code
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64) * m
        blocks = (xs[np.concatenate(firsts)][:, None] >> shifts) & ((1 << m) - 1)
        slices = self._builder.build(keys, blocks)
        table = self._tables[side] = (xs, ids, slices)
        return table


def compose_scheme(outer, inner) -> ComposedScheme:
    """Build the scheme for g^d from balanced schemes for g and g^(d-1)."""
    return ComposedScheme(outer, inner)


def predicted_bound(base_scheme, d: int) -> ExactWeight:
    """The d-th power of a base scheme's bound (what composing d times gives)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return loads(base_scheme).bound ** d


# ---- internal identities as checks ------------------------------------------


def _source(composed: ComposedScheme, x: int, z: int | None = None):
    """Block pattern, total-weight classes and z -> slice of source x, the
    slices read off the row of x in its side's `slice_table`; with z,
    (p, z) must be an outer pair."""
    for side, xs in (("a", composed.a_side), ("b", composed.b_side)):
        r = np.searchsorted(xs, x)
        if r < len(xs) and xs[r] == x:
            break
    else:
        raise SchemeError(f"input {x} is not a source of the composed relation")
    _, ids, slices = composed.slice_table(side)
    n, m = composed.n, composed.m
    blocks = [(x >> (n - 1 - j) * m) & ((1 << m) - 1) for j in range(n)]
    p = sum(composed.inner.f.table[u] << (n - 1 - j) for j, u in enumerate(blocks))
    partners = composed._o_partners[p]
    row = {pz: slices[k] for (pz, _), k in zip(partners, ids[r].tolist())}
    if z is not None and z not in row:
        raise SchemeError(f"({p:b}, {z:b}) not an outer pair")
    return p, tuple(composed._class_of[blocks].tolist()), row


def _claim_sides(composed: ComposedScheme, p: int, classes: tuple) -> tuple[dict, bool]:
    """Claim 1's right-hand sides for sources with pattern p and these
    total-weight classes, and whether they add up to the corollary's.

    Returns (z -> outer weight of (p, z) times every block's inner total
    weight, whether those sum to the outer wt(p) times the same product).
    Both depend only on (p, classes), so they are computed once for it.
    """
    key = (p, classes)
    sides = composed._claims.get(key)
    if sides is None:
        totals = ONE
        for c in classes:
            totals = totals * composed._class_wt[c]
        rhs = {z: composed._o_pairs[(p, z)][0] * totals for z, _ in composed._o_partners[p]}
        adds_up = exact_sum(rhs.values()) == composed._outer_wt[p] * totals
        sides = composed._claims[key] = (rhs, adds_up)
    return sides


def check_claim1(composed: ComposedScheme, x: int, z: int) -> bool:
    """Partner weights with a fixed block-value pattern sum to a product.

    The sum of w(x, y) over partners y whose block values equal z must be
    the outer weight of (pattern(x), z) times the product over all blocks
    of the inner total weight.  Exact comparison.
    """
    p, classes, slices = _source(composed, x, z)
    return slices[z].wt == _claim_sides(composed, p, classes)[0][z]


def check_corollary(composed: ComposedScheme, x: int) -> bool:
    """Total weight factorizes: wt(x) = outer wt(pattern) * prod inner wt.

    Every slice of x must meet claim 1; the right-hand sides then add up
    to the total.
    """
    p, classes, slices = _source(composed, x)
    rhs, adds_up = _claim_sides(composed, p, classes)
    return all(sl.wt == rhs[z] for z, sl in slices.items()) and adds_up


def check_claim2(composed: ComposedScheme, x: int, z: int, i: int) -> bool:
    """Per-slice load bound inside the composition proof.

    Fix a partner pattern z and a differing coordinate i in block i1.  For
    every choice of partner blocks outside i1, the directional-weight sum
    over the i1 block satisfies V <= v_inner * sqrt(r1) * W, with W the
    matching pair-weight sum and r1 the outer ratio at i1.  Exact.  A
    slice belongs to one outer pair (p, z), so the outcome depends only on
    the slice and i: it is computed once for each and kept on the scheme.
    """
    p, _, slices = _source(composed, x, z)
    m, n = composed.m, composed.n
    i1, _ = block_index(i, n, composed.depth)
    r1 = dict(composed._o_pairs[(p, z)][1]).get(i1)
    if r1 is None:
        raise SchemeError(f"patterns agree in block {i1}")
    key = (slices[z], i)
    holds = composed._claim2.get(key)
    if holds is not None:
        return holds
    outside = ~(((1 << m) - 1) << ((n - i1) * m))
    groups: dict[int, tuple[list, list]] = {}
    for xor, w, diffs in slices[z].entries:
        v_terms, w_terms = groups.setdefault(xor & outside, ([], []))
        w_terms.append(w)
        v_terms.extend(fwd for j, fwd, _ in diffs if j == i)
    bound_factor = composed.inner_vmax * _sqrt_product(r1, ONE)
    holds = not any(
        exact_sum(v_terms) > bound_factor * exact_sum(w_terms)
        for v_terms, w_terms in groups.values()
        if v_terms
    )
    composed._claim2[key] = holds
    return holds
