"""Product construction that turns schemes for g and g^(d-1) into one for g^d.

Inputs split into n contiguous blocks of n^(d-1) variables.  A composed
pair keeps equal blocks wherever the two block-value patterns agree and
pairs up inner-scheme partners wherever they differ.  The pair weight is
the outer weight times inner weights on differing blocks times inner
total weights on agreeing blocks; directional weights attach the square
root of the two forward/backward ratios, which keeps the defining
constraint tight and multiplies the two bounds.
"""

from __future__ import annotations

import itertools

from .adversary import SchemeError, loads
from .boolfn import ArityError, BooleanFunction, compose as compose_tables
from .weights import ONE, ExactWeight

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
    from .boolfn import iterate

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


class _Cache:
    """Memoized ExactWeight products, quotients and sqrt-of-ratio-products."""

    def __init__(self):
        self._mul: dict = {}
        self._div: dict = {}
        self._sqrt: dict = {}
        self._inv: dict = {}

    def mul(self, a: ExactWeight, b: ExactWeight) -> ExactWeight:
        key = (a, b)
        out = self._mul.get(key)
        if out is None:
            out = a * b
            self._mul[key] = out
        return out

    def div(self, a: ExactWeight, b: ExactWeight) -> ExactWeight:
        key = (a, b)
        out = self._div.get(key)
        if out is None:
            out = a / b
            self._div[key] = out
        return out

    def inv(self, a: ExactWeight) -> ExactWeight:
        out = self._inv.get(a)
        if out is None:
            out = ONE / a
            self._inv[a] = out
        return out

    def sqrt_product(self, r1: ExactWeight, r2: ExactWeight) -> ExactWeight:
        key = (r1, r2)
        out = self._sqrt.get(key)
        if out is None:
            prod = r1 * r2
            if prod.u != 1:
                raise SchemeError(
                    f"directional ratio product {prod} has no exact square root"
                )
            out = ExactWeight.sqrt_of(prod.rational)
            self._sqrt[key] = out
        return out


def _directional_ratios(scheme, cache: _Cache):
    """Per ordered pair: weight, and (coordinate, fwd/bwd ratio) tuples."""
    w_of: dict[tuple[int, int], ExactWeight] = {}
    diffs_of: dict[tuple[int, int], tuple] = {}
    partners_a: dict[int, tuple[int, ...]] = {}
    partners_b: dict[int, tuple[int, ...]] = {}
    for side, partners in (("a", partners_a), ("b", partners_b)):
        for source, records in scheme.sweep_pairs(side):
            ps = []
            for partner, w, diffs in records:
                ps.append(partner)
                key = (source, partner)
                w_of[key] = w
                diffs_of[key] = tuple(
                    (i, cache.div(fwd, bwd)) for i, fwd, bwd in diffs
                )
            partners[source] = tuple(ps)
    return w_of, diffs_of, partners_a, partners_b


class ComposedScheme:
    """Scheme for g^d assembled from schemes for g and g^(d-1).

    Nothing is stored per pair: pairs, pair weights and directional
    weights are reproduced on demand from the outer and inner schemes'
    stored values, so sweeps over the ~n*10^6 pairs of the 4-bit base's
    square stay cheap and exact.
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
            if not (
                isinstance(rep.v_a, ExactWeight)
                and isinstance(rep.v_b, ExactWeight)
                and rep.v_a == rep.v_b
            ):
                raise SchemeError(
                    f"{name} scheme is not balanced (v_A = {rep.v_a}, "
                    f"v_B = {rep.v_b}); balance() it first"
                )
        self.outer, self.inner = outer, inner
        self.n, self.m = n, m
        self.arity = arity
        self.f = compose_tables(outer.f, [inner.f] * n)
        self.inner_vmax = inner_report.v_max
        self.predicted_vmax = outer_report.v_max * inner_report.v_max
        self.predicted_bound = ONE / self.predicted_vmax

        self._cache = _Cache()
        self._inner_wt = inner_report.wt
        self._outer_wt = outer_report.wt
        ow, od, opa, opb = _directional_ratios(outer, self._cache)
        iw, idf, ipa, ipb = _directional_ratios(inner, self._cache)
        self._o_w, self._o_diffs = ow, od
        self._o_partners = {"a": opa, "b": opb}
        self._i_w, self._i_diffs = iw, idf
        self._i_partners = {"a": ipa, "b": ipb}
        self._i_in_a = frozenset(inner.a_side)
        self._i_in_b = frozenset(inner.b_side)

        # inner partner records per source: (partner, weight, ((i2, ratio), ...))
        self._i_records: dict[int, tuple] = {
            u: tuple(
                (v, self._i_w[(u, v)], self._i_diffs[(u, v)]) for v in vs
            )
            for u, vs in itertools.chain(ipa.items(), ipb.items())
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
        for p, z in self.outer.iter_pairs():
            count = 1
            for j in range(n):
                bit = 1 << (n - 1 - j)
                count *= inner_pairs if (p ^ z) & bit else inner_sizes[bool(p & bit)]
            total += count
        return total

    def iter_pairs(self):
        for x, records in self.sweep_pairs("a"):
            for y, _, _ in records:
                yield x, y

    # ---- weights on demand ----------------------------------------------

    def _oriented(self, x: int, y: int):
        """Blocks, patterns and outer-pair data for an ordered pair."""
        bx, by = self._blocks_of(x), self._blocks_of(y)
        px, py = self._pattern_of(bx), self._pattern_of(by)
        key = (px, py)
        if key not in self._o_w:
            raise SchemeError(f"block patterns ({px:b}, {py:b}) not in the outer relation")
        for j in range(self.n):
            bit = 1 << (self.n - 1 - j)
            if (px & bit) == (py & bit):
                if bx[j] != by[j]:
                    raise SchemeError(
                        f"pair ({x}, {y}) differs in block {j + 1} where the "
                        "patterns agree"
                    )
            elif (bx[j], by[j]) not in self._i_w:
                raise SchemeError(
                    f"block {j + 1} of pair ({x}, {y}) is not an inner-relation pair"
                )
        return bx, by, px, py

    def weight(self, x: int, y: int) -> ExactWeight:
        bx, by, px, py = self._oriented(x, y)
        mul = self._cache.mul
        w = self._o_w[(px, py)]
        for j in range(self.n):
            bit = 1 << (self.n - 1 - j)
            if (px & bit) == (py & bit):
                w = mul(w, self._inner_wt[bx[j]])
            else:
                w = mul(w, self._i_w[(bx[j], by[j])])
        return w

    def wprime(self, x: int, y: int, i: int) -> ExactWeight:
        bx, by, px, py = self._oriented(x, y)
        if not 1 <= i <= self.arity:
            raise ValueError(f"coordinate {i} outside [1, {self.arity}]")
        i1, i2 = (i - 1) // self.m + 1, (i - 1) % self.m + 1
        r1 = dict(self._o_diffs[(px, py)]).get(i1)
        if r1 is None:
            raise SchemeError(f"patterns agree in block {i1}")
        r2 = dict(self._i_diffs[(bx[i1 - 1], by[i1 - 1])]).get(i2)
        if r2 is None:
            raise SchemeError(f"pair ({x}, {y}) does not differ at coordinate {i}")
        s = self._cache.sqrt_product(r1, r2)
        return self.weight(x, y) * s

    # ---- sweeps -----------------------------------------------------------

    def _template(self, p: int, z: int, diff_sources: tuple, base: ExactWeight):
        """Shared per-(pattern pair, block sources, base weight) pair data.

        Entries are (xor offset to apply to the source index, pair weight,
        diffs tuple); sources with identical surroundings reuse them.
        """
        key = (p, z, diff_sources, base)
        tpl = self._templates.get(key)
        if tpl is not None:
            return tpl
        cache = self._cache
        mul, inv, sqrtp = cache.mul, cache.inv, cache.sqrt_product
        odiffs = self._o_diffs[(p, z)]
        m, n = self.m, self.n
        per_block = []
        for (j, r1), u in zip(odiffs, diff_sources):
            shift = (n - j) * m
            opts = []
            for v, wv, rdiffs in self._i_records[u]:
                opts.append(((u ^ v) << shift, wv, j, r1, rdiffs))
            per_block.append(opts)
        tpl = []
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
                    diffs.append((col + i2, mul(w, s), mul(w, inv(s))))
            tpl.append((xor, w, tuple(diffs)))
        self._templates[key] = tpl
        return tpl

    def sweep_pairs(self, side: str):
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', not {side!r}")
        o_partners = self._o_partners[side]
        sources = self.a_side if side == "a" else self.b_side
        mul = self._cache.mul
        o_w = self._o_w
        o_diffs = self._o_diffs
        inner_wt = self._inner_wt
        n = self.n
        for x in sources:
            blocks = self._blocks_of(x)
            p = self._pattern_of(blocks)
            records = []
            for z in o_partners[p]:
                base = o_w[(p, z)]
                diff_js = tuple(j for j, _ in o_diffs[(p, z)])
                diff_set = set(diff_js)
                for j in range(1, n + 1):
                    if j not in diff_set:
                        base = mul(base, inner_wt[blocks[j - 1]])
                diff_sources = tuple(blocks[j - 1] for j in diff_js)
                for xor, w, diffs in self._template(p, z, diff_sources, base):
                    records.append((x ^ xor, w, diffs))
            yield x, records


def compose_scheme(outer, inner) -> ComposedScheme:
    """Build the scheme for g^d from balanced schemes for g and g^(d-1)."""
    return ComposedScheme(outer, inner)


def predicted_bound(base_scheme, d: int) -> ExactWeight:
    """The d-th power of a base scheme's bound (what composing d times gives)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    report = loads(base_scheme, keep_maps=False)
    if not isinstance(report.bound, ExactWeight):
        raise SchemeError("predicted bound needs an exact base bound")
    return report.bound**d


# ---- internal identities as checks ------------------------------------------


def check_claim1(composed: ComposedScheme, x: int, z: int) -> bool:
    """Partner weights with a fixed block-value pattern sum to a product.

    The sum of w(x, y) over partners y whose block values equal z must be
    the outer weight of (pattern(x), z) times the product over all blocks
    of the inner total weight.  Exact comparison.
    """
    blocks = composed._blocks_of(x)
    p = composed._pattern_of(blocks)
    if (p, z) not in composed._o_w:
        raise SchemeError(f"({p:b}, {z:b}) not an outer pair")
    mul = composed._cache.mul
    lhs_terms = []
    diff_js = tuple(j for j, _ in composed._o_diffs[(p, z)])
    per_block = []
    for j in diff_js:
        u = blocks[j - 1]
        per_block.append([w for _, w, _ in composed._i_records[u]])
    base = composed._o_w[(p, z)]
    for j in range(1, composed.n + 1):
        if j not in diff_js:
            base = mul(base, composed._inner_wt[blocks[j - 1]])
    for combo in itertools.product(*per_block):
        w = base
        for wv in combo:
            w = mul(w, wv)
        lhs_terms.append(w)
    from .weights import exact_sum

    lhs = exact_sum(lhs_terms)
    rhs = composed._o_w[(p, z)]
    for u in blocks:
        rhs = mul(rhs, composed._inner_wt[u])
    return lhs == rhs


def check_corollary(composed: ComposedScheme, x: int) -> bool:
    """Total weight factorizes: wt(x) = outer wt(pattern) * prod inner wt."""
    from .weights import exact_sum

    blocks = composed._blocks_of(x)
    p = composed._pattern_of(blocks)
    side = "a" if p in composed._o_partners["a"] else "b"
    total = []
    for z in composed._o_partners[side][p]:
        if not check_claim1(composed, x, z):
            return False
        w = composed._o_w[(p, z)]
        for u in blocks:
            w = composed._cache.mul(w, composed._inner_wt[u])
        total.append(w)
    wt_x = exact_sum(total)
    rhs = composed._outer_wt[p]
    for u in blocks:
        rhs = composed._cache.mul(rhs, composed._inner_wt[u])
    return wt_x == rhs


def check_claim2(composed: ComposedScheme, x: int, z: int, i: int) -> bool:
    """Per-slice load bound inside the composition proof.

    Fix a partner pattern z and a differing coordinate i in block i1.  For
    every choice of partner blocks outside i1, the directional-weight sum
    over the i1 block satisfies V <= v_inner * sqrt(r1) * W, with W the
    matching pair-weight sum and r1 the outer ratio at i1.  Exact.
    """
    blocks = composed._blocks_of(x)
    p = composed._pattern_of(blocks)
    odiffs = dict(composed._o_diffs[(p, z)])
    i1 = (i - 1) // composed.m + 1
    i2 = (i - 1) % composed.m + 1
    if i1 not in odiffs:
        raise SchemeError(f"patterns agree in block {i1}")
    r1 = odiffs[i1]
    mul = composed._cache.mul
    sqrtp = composed._cache.sqrt_product
    base = composed._o_w[(p, z)]
    diff_js = tuple(j for j in odiffs if j != i1)
    for j in range(1, composed.n + 1):
        if j not in odiffs:
            base = mul(base, composed._inner_wt[blocks[j - 1]])
    outer_factor = sqrtp(r1, ONE)  # sqrt(r1)
    bound_factor = composed.inner_vmax * outer_factor
    per_block = [composed._i_records[blocks[j - 1]] for j in diff_js]
    central = composed._i_records[blocks[i1 - 1]]
    from .weights import exact_sum

    for combo in itertools.product(*per_block):
        w_outside = base
        for _, wv, _ in combo:
            w_outside = mul(w_outside, wv)
        v_terms = []
        w_terms = []
        for _, wv, rdiffs in central:
            w_pair = mul(w_outside, wv)
            w_terms.append(w_pair)
            r2 = dict(rdiffs).get(i2)
            if r2 is not None:
                v_terms.append(mul(w_pair, sqrtp(r1, r2)))
        V = exact_sum(v_terms) if v_terms else None
        W = exact_sum(w_terms)
        if V is None:
            continue
        rhs = bound_factor * W
        if isinstance(V, ExactWeight) and isinstance(rhs, ExactWeight):
            if V > rhs:
                return False
        elif float(V) > float(rhs) + 1e-9:
            return False
    return True
