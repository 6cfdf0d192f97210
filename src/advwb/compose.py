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
surroundings share one cached `adversary.Slice`: 2,304 slices serve the
1,310,720 pairs of the 4-bit base's square.  `slice_table` finds every
source's slices at once: it computes blocks, block patterns and
total-weight classes as arrays, takes `np.unique` of the slice key per
outer partner slot, and builds only the slices not yet cached.  `verify`
and `loads` read that array view and never walk the sources in Python;
`sweep_slices` and `sweep_pairs` flatten it into per-source slices and
records.  The claim checks at the end of this module look slices up one
source at a time (`_slices_of`) in the same cache, so they certify
exactly what `verify` and `loads` consume.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .adversary import SchemeError, Slice, TableSweeps, loads
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


def _ratio_records(scheme, div):
    """Per source on both sides: (partner, w, ((i, fwd/bwd), ...)) records."""
    return {
        source: tuple(
            (partner, w, tuple((i, div(fwd, bwd)) for i, fwd, bwd in diffs))
            for partner, w, diffs in records
        )
        for side in ("a", "b")
        for source, records in scheme.sweep_pairs(side)
    }


class ComposedScheme(TableSweeps):
    """Scheme for g^d assembled from schemes for g and g^(d-1).

    Nothing is stored per pair.  `slice_table` builds each shared slice on
    first use from the outer and inner schemes' records, so the
    ~1.3*10^6 pairs of the 4-bit base's square stay cheap and exact;
    there is no per-pair lookup.
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

        # memoized arithmetic: sweeps reuse a few dozen distinct values
        self._mul = functools.cache(operator.mul)
        self._div = functools.cache(operator.truediv)
        self._sqrtp = functools.cache(_sqrt_product)
        self._inner_wt = inner_report.wt
        self._outer_wt = outer_report.wt
        self._o_records = _ratio_records(outer, self._div)
        self._i_records = _ratio_records(inner, self._div)
        self._o_pairs = {
            (p, z): (w, rd) for p, recs in self._o_records.items() for z, w, rd in recs
        }
        # a slice sees its agreeing blocks only through their inner totals,
        # so blocks with equal totals share a class
        classes: dict = {}
        self._wt_class = {
            u: classes.setdefault(wt, len(classes)) for u, wt in self._inner_wt.items()
        }
        block = (1 << m) - 1
        self._o_partners = {
            p: tuple(
                (z, sum(block << (n - j) * m for j, _ in odiffs))
                for z, _, odiffs in recs
            )
            for p, recs in self._o_records.items()
        }
        self._templates: dict = {}

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

    def _blocks_of(self, x: int) -> tuple[int, ...]:
        m, n = self.m, self.n
        mask = (1 << m) - 1
        return tuple((x >> ((n - 1 - j) * m)) & mask for j in range(n))

    def _pattern_of(self, blocks) -> int:
        tab = self.inner.f.table
        p = 0
        for b in blocks:
            p = (p << 1) | tab[b]
        return p

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

    def _template(self, blocks: tuple, p: int, z: int) -> Slice:
        """The Slice of a source with these blocks towards block pattern z.

        Its base weight is the outer weight of (p, z) times the inner total
        weight of every block where p and z agree; its entries are (xor
        offset to apply to the source index, pair weight, diffs tuple).
        """
        mul, div, sqrtp = self._mul, self._div, self._sqrtp
        m, n = self.m, self.n
        base, odiffs = self._o_pairs[(p, z)]
        for j, u in enumerate(blocks):
            if not (p ^ z) >> (n - 1 - j) & 1:
                base = mul(base, self._inner_wt[u])
        per_block = []
        for j, r1 in odiffs:
            u = blocks[j - 1]
            shift = (n - j) * m
            per_block.append(
                [((u ^ v) << shift, wv, j, r1, rdiffs) for v, wv, rdiffs in self._i_records[u]]
            )
        entries = []
        for combo in itertools.product(*per_block):
            xor = 0
            w = base
            for off, wv, _, _, _ in combo:
                xor |= off
                w = mul(w, wv)
            diffs = []
            for off, wv, j, r1, rdiffs in combo:
                col = (j - 1) * m
                for i2, r2 in rdiffs:
                    s = sqrtp(r1, r2)
                    diffs.append((col + i2, mul(w, s), div(w, s)))
            entries.append((xor, w, tuple(diffs)))
        return Slice(tuple(entries), self.arity)

    def _slices_of(self, x: int) -> dict:
        """z -> the shared Slice of x's pairs towards block pattern z.

        Sources with the same pattern, the same blocks where it differs
        from z and the same total-weight classes elsewhere share a slice.
        """
        blocks = self._blocks_of(x)
        p = self._pattern_of(blocks)
        classes = tuple([self._wt_class[u] for u in blocks])
        return {
            z: self._cached((p, z, x & mask, classes), blocks)
            for z, mask in self._o_partners[p]
        }

    def _cached(self, key: tuple, blocks: tuple) -> Slice:
        """The shared Slice of key = (p, z, x & mask, classes), built from
        the blocks of a source x with that key when not yet cached."""
        sl = self._templates.get(key)
        if sl is None:
            sl = self._templates[key] = self._template(blocks, key[0], key[1])
        return sl

    def slice_table(self, side: str):
        """(sources, ids, slices) of a side, with every source's slots in
        the order of `_slices_of`, found as whole-array passes.

        For each block pattern p and outer partner slot (p, z), the key
        (x & mask, classes) of `_slices_of` is numbered over the sources
        at once with `np.unique`, the classes folded into one integer
        above the source bits.  Each distinct key is looked up in the
        shared cache, and built from its first source when missing.
        """
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', not {side!r}")
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
        ids = np.full((len(xs), width), -1, dtype=np.int64)
        slices: list = []
        for p in present:
            rows = np.flatnonzero(patterns == p)
            for k, (z, mask) in enumerate(self._o_partners[p]):
                _, first, inverse = np.unique(
                    class_code[rows] | (xs[rows] & mask), return_index=True, return_inverse=True
                )
                ids[rows, k] = inverse + len(slices)
                for r in rows[first].tolist():
                    key = (p, z, int(xs[r]) & mask, tuple(classes[r].tolist()))
                    slices.append(self._cached(key, tuple(blocks[r].tolist())))
        return xs, ids, slices


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
    """Blocks, block pattern and slices of x; with z, (p, z) must be an outer pair."""
    blocks = composed._blocks_of(x)
    p = composed._pattern_of(blocks)
    slices = composed._slices_of(x)
    if z is not None and z not in slices:
        raise SchemeError(f"({p:b}, {z:b}) not an outer pair")
    return blocks, p, slices


def _times_inner_totals(composed: ComposedScheme, w, blocks):
    """w times the inner total weight of every block."""
    for u in blocks:
        w = composed._mul(w, composed._inner_wt[u])
    return w


def check_claim1(composed: ComposedScheme, x: int, z: int) -> bool:
    """Partner weights with a fixed block-value pattern sum to a product.

    The sum of w(x, y) over partners y whose block values equal z must be
    the outer weight of (pattern(x), z) times the product over all blocks
    of the inner total weight.  Exact comparison.
    """
    blocks, p, slices = _source(composed, x, z)
    return slices[z].wt == _times_inner_totals(composed, composed._o_pairs[(p, z)][0], blocks)


def check_corollary(composed: ComposedScheme, x: int) -> bool:
    """Total weight factorizes: wt(x) = outer wt(pattern) * prod inner wt.

    Every slice of x must meet claim 1; the right-hand sides then add up
    to the total.
    """
    blocks, p, slices = _source(composed, x)
    total = []
    for z, sl in slices.items():
        rhs = _times_inner_totals(composed, composed._o_pairs[(p, z)][0], blocks)
        if sl.wt != rhs:
            return False
        total.append(rhs)
    return exact_sum(total) == _times_inner_totals(composed, composed._outer_wt[p], blocks)


def check_claim2(composed: ComposedScheme, x: int, z: int, i: int) -> bool:
    """Per-slice load bound inside the composition proof.

    Fix a partner pattern z and a differing coordinate i in block i1.  For
    every choice of partner blocks outside i1, the directional-weight sum
    over the i1 block satisfies V <= v_inner * sqrt(r1) * W, with W the
    matching pair-weight sum and r1 the outer ratio at i1.  Exact.
    """
    _, p, slices = _source(composed, x, z)
    m, n = composed.m, composed.n
    i1 = (i - 1) // m + 1
    r1 = dict(composed._o_pairs[(p, z)][1]).get(i1)
    if r1 is None:
        raise SchemeError(f"patterns agree in block {i1}")
    outside = ~(((1 << m) - 1) << ((n - i1) * m))
    groups: dict[int, tuple[list, list]] = {}
    for xor, w, diffs in slices[z].entries:
        v_terms, w_terms = groups.setdefault(xor & outside, ([], []))
        w_terms.append(w)
        v_terms.extend(fwd for j, fwd, _ in diffs if j == i)
    bound_factor = composed.inner_vmax * composed._sqrtp(r1, ONE)
    for v_terms, w_terms in groups.values():
        if not v_terms:
            continue
        if exact_sum(v_terms) > bound_factor * exact_sum(w_terms):
            return False
    return True
