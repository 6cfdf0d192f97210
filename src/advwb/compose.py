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
source's slices of a side at once: it computes blocks, block patterns and
total-weight classes as arrays, takes `np.unique` of the slice key per
outer partner slot, and builds the side's slices in one batch, once; the
table is kept and handed out again on every later call.  The batch works
on integer ids of the few distinct exact weights: each product, quotient
and ratio root is computed once per distinct id pair, and only distinct
diff triples and distinct entries become Python tuples, which the slices
share (on each side of the 4-bit base's square, 1,136 entries serve
16,896 entry slots).  `verify`, `loads`, `save_scheme`, `sweep_pairs`
and `qsim.progress_trace` read that table, and so do the claim checks at
the end of this module: they find a source's row by binary search on its
side, so they certify exactly what `verify` and `loads` consume.  Their right-hand sides
depend only on the block pattern and total-weight classes and are
computed once for each.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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


def _ratio_records(scheme):
    """Per source on both sides: (partner, w, ((i, fwd/bwd), ...)) records."""
    div = functools.cache(operator.truediv)  # a scheme repeats a few ratios
    return {
        source: tuple(
            (partner, w, tuple((i, div(fwd, bwd)) for i, fwd, bwd in diffs))
            for partner, w, diffs in records
        )
        for side in ("a", "b")
        for source, records in scheme.sweep_pairs(side)
    }


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c in counts, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


class _Pool:
    """Distinct ExactWeights numbered 0, 1, ...; operations memoized on numbers.

    `apply` runs a binary operation elementwise on two id arrays with one
    exact operation per distinct id pair, remembered across calls.  A pair
    whose operation raises SchemeError gives -1, so that the caller can
    find the first one in its own order.
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
        pairs, inverse = np.unique(a << 32 | b, return_inverse=True)
        out = []
        for pair in pairs.tolist():
            k = memo.get(pair)
            if k is None:
                k = memo[pair] = self._result(op, pair >> 32, pair & 0xFFFFFFFF)
            out.append(k)
        return np.array(out, dtype=np.int64)[inverse]

    def _result(self, op, i: int, j: int) -> int:
        try:
            return self.id(op(self.values[i], self.values[j]))
        except SchemeError:
            return -1


class _TemplateBuilder:
    """Builds the slices of a ComposedScheme in batches, over weight ids.

    The outer pair weights and ratios and the inner records, totals and
    ratios are numbered once in a `_Pool`.  The inner records of block
    value u are rows rec_start[u] .. rec_start[u] + rec_count[u] - 1 of
    flat arrays, and their diffs rows of flatter ones; a last record `pad`
    (offset 0, weight 1, no diffs) fills the slots of templates with fewer
    differing blocks than others in a batch.
    """

    def __init__(self, composed: "ComposedScheme"):
        pool = self.pool = _Pool()
        self.n, self.m, self.arity = composed.n, composed.m, composed.arity
        self.outer = {
            pz: (pool.id(w), tuple((j, pool.id(r1)) for j, r1 in odiffs))
            for pz, (w, odiffs) in composed._o_pairs.items()
        }
        size = 1 << self.m
        self.total = np.full(size, -1, dtype=np.int64)
        self.rec_start = np.zeros(size, dtype=np.int64)
        self.rec_count = np.zeros(size, dtype=np.int64)
        for u, wt in composed._inner_wt.items():
            self.total[u] = pool.id(wt)
        off, wv, dstart, dcount, i2s, r2s = [], [], [], [], [], []
        for u, recs in composed._i_records.items():
            self.rec_start[u], self.rec_count[u] = len(off), len(recs)
            for v, w, rdiffs in recs:
                off.append(u ^ v)
                wv.append(pool.id(w))
                dstart.append(len(i2s))
                dcount.append(len(rdiffs))
                for i2, r2 in rdiffs:
                    i2s.append(i2)
                    r2s.append(pool.id(r2))
        self.pad = len(off)
        off.append(0)
        wv.append(pool.id(ONE))
        dstart.append(len(i2s))
        dcount.append(0)
        self.off, self.wv, self.dstart, self.dcount, self.i2, self.r2 = (
            np.array(col, dtype=np.int64) for col in (off, wv, dstart, dcount, i2s, r2s)
        )

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
        entries become one shared tuple each.
        """
        pool, n, m = self.pool, self.n, self.m
        outer = [self.outer[key] for key in keys]
        differ = np.array([p ^ z for p, z in keys], dtype=np.int64)
        base = np.array([w for w, _ in outer], dtype=np.int64)
        for j in range(n):
            at = np.flatnonzero((differ >> (n - 1 - j)) & 1 == 0)
            base[at] = pool.apply(operator.mul, base[at], self.total[blocks[at, j]])
        # differing blocks and outer ratios per slot; pad slots repeat block 1
        width = max(len(odiffs) for _, odiffs in outer)
        dj = np.array(
            [[j for j, _ in od] + [1] * (width - len(od)) for _, od in outer], dtype=np.int64
        )
        r1 = np.array(
            [[r for _, r in od] + [0] * (width - len(od)) for _, od in outer], dtype=np.int64
        )
        real = np.arange(width) < np.array([len(od) for _, od in outer])[:, None]
        u = np.take_along_axis(blocks, dj - 1, axis=1)
        starts = np.where(real, self.rec_start[u], self.pad)
        counts = np.where(real, self.rec_count[u], 1)

        # the Cartesian product of the slots' records, per template
        job = np.arange(len(keys), dtype=np.int64)
        rec = np.zeros((len(keys), 0), dtype=np.int64)
        for b in range(width):
            per_job = counts[job, b]
            chosen = np.repeat(starts[job, b], per_job) + _ranks(per_job)
            job = np.repeat(job, per_job)
            rec = np.column_stack([np.repeat(rec, per_job, axis=0), chosen])
        xor = np.bitwise_or.reduce(self.off[rec] << (n - dj[job]) * m, axis=1)
        w = base[job]
        for b in range(width):
            w = pool.apply(operator.mul, w, self.wv[rec[:, b]])

        # diffs: entry-major, then slot, then the inner record's own order
        flat = rec.ravel()
        per_rec = self.dcount[flat]
        d = np.repeat(self.dstart[flat], per_rec) + _ranks(per_rec)
        d_entry = np.repeat(np.repeat(np.arange(len(job), dtype=np.int64), width), per_rec)
        d_col = np.repeat(((dj - 1) * m)[job].ravel(), per_rec) + self.i2[d]
        d_r1 = np.repeat(r1[job].ravel(), per_rec)
        d_r2 = self.r2[d]
        d_w = w[d_entry]
        values = pool.values
        s = pool.apply(_sqrt_product, d_r1, d_r2)
        failed = np.flatnonzero(s < 0)
        if failed.size:  # raise for the first failing diff
            _sqrt_product(values[d_r1[failed[0]]], values[d_r2[failed[0]]])
        # s is never 0: a zero directional weight divides in the reverse
        # record's ratio, which `_ratio_records` already refused
        fwd = pool.apply(operator.mul, d_w, s)
        bwd = pool.apply(operator.truediv, d_w, s)
        size = len(values)
        d_ids, first = _number_rows([d_col, fwd, bwd], [self.arity + 1, size, size])
        triples = [
            (i, values[a], values[b])
            for i, a, b in zip(d_col[first].tolist(), fwd[first].tolist(), bwd[first].tolist())
        ]
        # each entry's triple ids, shifted by one and padded with 0
        per_entry = np.bincount(d_entry, minlength=len(job))
        diff_ids = np.zeros((len(job), int(per_entry.max(initial=0))), dtype=np.int64)
        diff_ids[d_entry, _ranks(per_entry)] = d_ids + 1
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
            Slice(tuple([records[e] for e in e_ids[start:end]]), self.arity)
            for start, end in zip([0] + ends, ends)
        ]


class ComposedScheme(TableSweeps):
    """Scheme for g^d assembled from schemes for g and g^(d-1).

    Nothing is stored per pair.  `slice_table` builds a side's shared
    slices in one batch (`_TemplateBuilder`) from the outer and inner
    schemes' records and keeps the side's table, so the ~1.3*10^6 pairs
    of the 4-bit base's square stay cheap and exact; there is no per-pair
    lookup.  Slices share their entry and diff tuples, and the tables, the
    batch builder and its pool of weight ids are made on first use, not
    at construction.
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
        outer_report = loads(outer, keep_maps=True)
        inner_report = loads(inner, keep_maps=True)
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

        self._inner_wt = inner_report.wt
        self._outer_wt = outer_report.wt
        self._o_records = _ratio_records(outer)
        self._i_records = _ratio_records(inner)
        self._o_pairs = {
            (p, z): (w, rd) for p, recs in self._o_records.items() for z, w, rd in recs
        }
        # a slice sees its agreeing blocks only through their inner totals,
        # so blocks with equal totals share a class
        classes: dict = {}
        self._wt_class = {
            u: classes.setdefault(wt, len(classes)) for u, wt in self._inner_wt.items()
        }
        self._class_wt = list(classes)
        block = (1 << m) - 1
        self._o_partners = {
            p: tuple(
                (z, sum(block << (n - j) * m for j, _ in odiffs))
                for z, _, odiffs in recs
            )
            for p, recs in self._o_records.items()
        }
        self._tables: dict = {}  # side -> (sources, ids, slices)
        self._claims: dict = {}  # (p, classes) -> claim 1 right-hand sides

        self.a_side = self._enumerate_side(outer.a_side)
        self.b_side = self._enumerate_side(outer.b_side)
        self.pair_count = self._count_pairs()

    # ---- construction helpers ------------------------------------------

    def _enumerate_side(self, patterns) -> tuple[int, ...]:
        inner_a, inner_b = self.inner.a_side, self.inner.b_side
        n, m = self.n, self.m
        out = []
        for p in patterns:
            choices = [
                inner_b if p & (1 << (n - 1 - j)) else inner_a for j in range(n)
            ]
            for blocks in itertools.product(*choices):
                x = 0
                for b in blocks:
                    x = (x << m) | b
                out.append(x)
        return tuple(sorted(out))

    def _count_pairs(self) -> int:
        """Pairs of the composed relation, counted without a sweep.

        Each outer pair (p, z) contributes the product over blocks j of the
        inner pair count where p and z differ at j, else the size of the
        inner side that p's bit j names.
        """
        inner_pairs = self.inner.pair_count
        inner_sizes = (len(self.inner.a_side), len(self.inner.b_side))
        n = self.n
        total = 0
        for p, records in self.outer.sweep_pairs("a"):
            for z, _, _ in records:
                count = 1
                for j in range(n):
                    bit = 1 << (n - 1 - j)
                    count *= inner_pairs if (p ^ z) & bit else inner_sizes[bool(p & bit)]
                total += count
        return total

    # ---- sweeps -----------------------------------------------------------

    @functools.cached_property
    def _builder(self) -> _TemplateBuilder:
        return _TemplateBuilder(self)

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
        xs = np.array(self.a_side if side == "a" else self.b_side, dtype=np.int64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        blocks = (xs[:, None] >> (shifts * m)) & ((1 << m) - 1)
        patterns = (self.inner.f.np_table[blocks].astype(np.int64) << shifts).sum(axis=1)
        class_of = np.full(1 << m, -1, dtype=np.int64)
        class_of[list(self._wt_class)] = list(self._wt_class.values())
        classes = class_of[blocks]
        radix = int(classes.max()) + 1
        class_code = (classes * radix**shifts).sum(axis=1) << self.arity
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
        slices = self._builder.build(keys, blocks[np.concatenate(firsts)])
        table = self._tables[side] = (xs, ids, slices)
        return table


def compose_scheme(outer, inner) -> ComposedScheme:
    """Build the scheme for g^d from balanced schemes for g and g^(d-1)."""
    return ComposedScheme(outer, inner)


def predicted_bound(base_scheme, d: int) -> ExactWeight:
    """The d-th power of a base scheme's bound (what composing d times gives)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return loads(base_scheme, keep_maps=False).bound ** d


# ---- internal identities as checks ------------------------------------------


def _source(composed: ComposedScheme, x: int, z: int | None = None):
    """Block pattern, total-weight classes and z -> slice of source x, the
    slices read off the row of x in its side's `slice_table`; with z,
    (p, z) must be an outer pair."""
    for side, xs in (("a", composed.a_side), ("b", composed.b_side)):
        r = bisect.bisect_left(xs, x)
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
    return p, tuple([composed._wt_class[u] for u in blocks]), row


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
    matching pair-weight sum and r1 the outer ratio at i1.  Exact.
    """
    p, _, slices = _source(composed, x, z)
    m, n = composed.m, composed.n
    i1, _ = block_index(i, n, composed.depth)
    r1 = dict(composed._o_pairs[(p, z)][1]).get(i1)
    if r1 is None:
        raise SchemeError(f"patterns agree in block {i1}")
    outside = ~(((1 << m) - 1) << ((n - i1) * m))
    groups: dict[int, tuple[list, list]] = {}
    for xor, w, diffs in slices[z].entries:
        v_terms, w_terms = groups.setdefault(xor & outside, ([], []))
        w_terms.append(w)
        v_terms.extend(fwd for j, fwd, _ in diffs if j == i)
    bound_factor = composed.inner_vmax * _sqrt_product(r1, ONE)
    for v_terms, w_terms in groups.values():
        if not v_terms:
            continue
        if exact_sum(v_terms) > bound_factor * exact_sum(w_terms):
            return False
    return True
