"""Classical complexity measures of truth-table functions.

Exact multilinear polynomials, approximate degree by linear programming,
sensitivity, block sensitivity, certificate complexity, decision-tree depth
with a witness tree, and certified values for iterates of the 4-bit base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .boolfn import ArityError, BooleanFunction, iterate, var_bit

APPROX_ARITY_CAP = 12
EXACT_LP_ARITY_CAP = 8
BS_ARITY_CAP = 12
CERT_ARITY_CAP = 8
DEPTH_ARITY_CAP = 12
FLOAT_TOL = 1e-9

DEFAULT_EPS = Fraction(1, 3)


class CapExceeded(ArityError):
    """Arity above the cap for an exhaustive measure; override to force."""


# ---- exact multilinear polynomial --------------------------------------


class MultilinearPolynomial:
    """Integer-coefficient multilinear polynomial over {0,1}^N.

    Coefficients are keyed by variable-set masks (variable i contributes
    bit 1 << (N - i), matching assignment indexing).
    """

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: dict[int, int]):
        self.arity = arity
        self.coeffs = {m: int(c) for m, c in coeffs.items() if c}

    def coefficient(self, vars_=()) -> int:
        m = 0
        for i in vars_:
            m |= var_bit(self.arity, i)
        return self.coeffs.get(m, 0)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)

    def evaluate(self, index: int) -> int:
        total = 0
        for m, c in self.coeffs.items():
            if m & index == m:
                total += c
        return total

    def table(self) -> np.ndarray:
        """Evaluate on every assignment (inverse of the coefficient transform)."""
        n = self.arity
        arr = np.zeros(1 << n, dtype=np.int64)
        for m, c in self.coeffs.items():
            arr[m] = c
        view = arr.reshape([2] * n)
        for ax in range(n):
            hi = [slice(None)] * n
            lo = [slice(None)] * n
            hi[ax], lo[ax] = 1, 0
            view[tuple(hi)] += view[tuple(lo)]
        return arr

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPolynomial)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"MultilinearPolynomial(arity={self.arity}, terms={len(self.coeffs)})"


def exact_polynomial(f: BooleanFunction) -> MultilinearPolynomial:
    """The unique multilinear polynomial agreeing with f on {0,1}^N."""
    n = f.arity
    arr = f.np_table.astype(np.int64).copy()
    view = arr.reshape([2] * n)
    for ax in range(n):
        hi = [slice(None)] * n
        lo = [slice(None)] * n
        hi[ax], lo[ax] = 1, 0
        view[tuple(hi)] -= view[tuple(lo)]
    nz = np.nonzero(arr)[0]
    return MultilinearPolynomial(n, {int(m): int(arr[m]) for m in nz})


def degree(f: BooleanFunction) -> int:
    return exact_polynomial(f).degree


# ---- approximate degree -------------------------------------------------


@dataclass
class ApproxWitness:
    """A degree-k polynomial within eps of f everywhere, plus its deviation."""

    degree: int
    eps: Fraction
    coeffs: dict[int, Fraction]
    deviation: object  # Fraction (exact path) or float

    def evaluate(self, index: int):
        return sum(c for m, c in self.coeffs.items() if m & index == m)


def _monomials_up_to(n: int, k: int) -> list[int]:
    out = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(n), size):
            m = 0
            for bitpos in combo:
                m |= 1 << bitpos
            out.append(m)
    return out


def _lp_exact(f: BooleanFunction, monomials: list[int], eps: Fraction):
    """Best max-deviation of a span(monomials) approximant, early-stopped at eps."""
    size = 1 << f.arity
    nmono = len(monomials)
    # variables: t, then (plus, minus) per monomial coefficient
    nvars = 1 + 2 * nmono
    A, b = [], []
    tab = f.table
    for x in range(size):
        inc = [1 if m & x == m else 0 for m in monomials]
        row_hi = [-1] + [v for pm in zip(inc, [-v for v in inc]) for v in pm]
        row_lo = [-1] + [v for pm in zip([-v for v in inc], inc) for v in pm]
        A.append(row_hi)
        b.append(tab[x])
        A.append(row_lo)
        b.append(-tab[x])
    c = [1] + [0] * (2 * nmono)
    stop = (lambda v: v <= eps) if eps > 0 else None
    status, value, x = simplex.solve_min(A, b, c, early_stop=stop)
    if status != simplex.OPTIMAL and status != "stopped":
        raise simplex.SimplexError(f"unexpected LP status {status}")
    coeffs = {}
    for j, m in enumerate(monomials):
        cval = x[1 + 2 * j] - x[2 + 2 * j]
        if cval:
            coeffs[m] = cval
    return Fraction(value), coeffs


def _lp_float(f: BooleanFunction, monomials: list[int], eps: Fraction):
    from scipy.optimize import linprog

    size = 1 << f.arity
    nmono = len(monomials)
    inc = np.zeros((size, nmono))
    for j, m in enumerate(monomials):
        ks = np.arange(size)
        inc[:, j] = (ks & m) == m
    tab = f.np_table.astype(float)
    # rows: p(x) - t <= f(x) and -p(x) - t <= -f(x)
    ones = np.ones((size, 1))
    A_ub = np.vstack([np.hstack([-ones, inc]), np.hstack([-ones, -inc])])
    b_ub = np.concatenate([tab, -tab])
    c = np.zeros(nmono + 1)
    c[0] = 1.0
    bounds = [(0, None)] + [(None, None)] * nmono
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    coeffs = {m: res.x[1 + j] for j, m in enumerate(monomials) if abs(res.x[1 + j]) > FLOAT_TOL}
    return res.fun, coeffs


def approx_polynomial(f: BooleanFunction, eps=DEFAULT_EPS) -> ApproxWitness:
    """Lowest-degree polynomial within eps of f pointwise, with witness.

    Exact rational LP up to arity 8; floating point (tolerance 1e-9) up to
    arity 12.  eps = 0 returns the exact polynomial.
    """
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    n = f.arity
    if n > APPROX_ARITY_CAP:
        raise CapExceeded(f"approximate degree capped at arity {APPROX_ARITY_CAP}")
    if eps == 0:
        poly = exact_polynomial(f)
        coeffs = {m: Fraction(c) for m, c in poly.coeffs.items()}
        return ApproxWitness(poly.degree, eps, coeffs, Fraction(0))
    exact = n <= EXACT_LP_ARITY_CAP
    for k in range(n + 1):
        monomials = _monomials_up_to(n, k)
        if exact:
            value, coeffs = _lp_exact(f, monomials, eps)
            if value <= eps:
                witness = ApproxWitness(k, eps, coeffs, value)
                _check_witness_exact(f, witness)
                return witness
        else:
            value, coeffs = _lp_float(f, monomials, eps)
            if value <= float(eps) + FLOAT_TOL:
                witness = ApproxWitness(k, eps, coeffs, value)
                _check_witness_float(f, witness)
                return witness
    raise RuntimeError("unreachable: degree-n polynomial is exact")


def _check_witness_exact(f: BooleanFunction, w: ApproxWitness) -> None:
    for x in range(1 << f.arity):
        dev = abs(w.evaluate(x) - f.table[x])
        if dev > w.eps:
            raise AssertionError(f"witness violates band at {x}: |{dev}| > {w.eps}")


def _check_witness_float(f: BooleanFunction, w: ApproxWitness) -> None:
    for x in range(1 << f.arity):
        dev = abs(float(w.evaluate(x)) - f.table[x])
        if dev > float(w.eps) + FLOAT_TOL:
            raise AssertionError(f"witness violates band at {x}: {dev}")


def approx_degree(f: BooleanFunction, eps=DEFAULT_EPS) -> int:
    return approx_polynomial(f, eps).degree


# ---- sensitivity ---------------------------------------------------------


def sensitivity_counts(f: BooleanFunction) -> np.ndarray:
    """Per-input count of single-variable flips that change the value."""
    n = f.arity
    tab = f.np_table
    ks = np.arange(1 << n)
    counts = np.zeros(1 << n, dtype=np.int64)
    for i in range(1, n + 1):
        counts += tab[ks ^ var_bit(n, i)] != tab
    return counts


def sensitivity_at(f: BooleanFunction, index: int) -> int:
    n = f.arity
    return sum(1 for i in range(1, n + 1) if f.table[index ^ var_bit(n, i)] != f.table[index])


def sensitivity(f: BooleanFunction) -> int:
    return int(sensitivity_counts(f).max())


# ---- block sensitivity ---------------------------------------------------


def _minimal_sensitive_blocks(f: BooleanFunction, index: int) -> list[int]:
    """Masks of minimal blocks whose flip changes f at the given input."""
    n = f.arity
    size = 1 << n
    tab = f.np_table
    sens = tab[np.arange(size) ^ index] != tab[index]
    anysub = sens.copy()  # OR of sens over submasks
    view = anysub.reshape([2] * n)
    for ax in range(n):
        hi = [slice(None)] * n
        lo = [slice(None)] * n
        hi[ax], lo[ax] = 1, 0
        view[tuple(hi)] |= view[tuple(lo)]
    has_proper = np.zeros(size, dtype=bool)
    ks = np.arange(size)
    for bit in range(n):
        b = 1 << bit
        sel = (ks & b).astype(bool)
        has_proper[sel] |= anysub[ks[sel] ^ b]
    minimal = sens & ~has_proper
    minimal[0] = False
    return [int(m) for m in np.nonzero(minimal)[0]]


def _max_disjoint(blocks: list[int]) -> int:
    """Largest pairwise-disjoint subcollection (branch and bound)."""
    blocks = sorted(blocks, key=lambda m: m.bit_count())
    nbl = len(blocks)
    best = 0

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        if count + (nbl - i) <= best:
            return
        if i == nbl:
            best = max(best, count)
            return
        if not blocks[i] & used:
            rec(i + 1, used | blocks[i], count + 1)
        rec(i + 1, used, count)

    rec(0, 0, 0)
    return best


def block_sensitivity_at(f: BooleanFunction, index: int) -> int:
    if f.arity > BS_ARITY_CAP:
        raise CapExceeded(f"block sensitivity capped at arity {BS_ARITY_CAP}")
    return _max_disjoint(_minimal_sensitive_blocks(f, index))


def block_sensitivity(f: BooleanFunction) -> int:
    if f.arity > BS_ARITY_CAP:
        raise CapExceeded(f"block sensitivity capped at arity {BS_ARITY_CAP}")
    return max(block_sensitivity_at(f, x) for x in range(1 << f.arity))


# ---- certificate complexity ----------------------------------------------


def certificate_at(f: BooleanFunction, index: int) -> int:
    """Fewest fixed variables forcing f to f(index) on the whole subcube."""
    n = f.arity
    full = (1 << n) - 1
    target = f.table[index]
    tab = f.table
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            sm = 0
            for i in combo:
                sm |= var_bit(n, i)
            free = full ^ sm
            base = index & sm
            sub = free
            ok = True
            while True:
                if tab[base | sub] != target:
                    ok = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & free
            if ok:
                return size
    return n


def certificate_complexity(f: BooleanFunction, *, force: bool = False) -> tuple[int, int]:
    """(C_0, C_1): worst-case certificate sizes over each preimage."""
    if f.arity > CERT_ARITY_CAP and not force:
        raise CapExceeded(
            f"certificate complexity capped at arity {CERT_ARITY_CAP}; pass force=True"
        )
    c0 = c1 = 0
    for x in range(1 << f.arity):
        c = certificate_at(f, x)
        if f.table[x]:
            c1 = max(c1, c)
        else:
            c0 = max(c0, c)
    return c0, c1


# ---- deterministic decision-tree depth ------------------------------------


@dataclass(frozen=True)
class TreeLeaf:
    value: int

    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class TreeNode:
    var: int  # 1-based variable queried
    low: "TreeNode | TreeLeaf"  # branch for x_var = 0
    high: "TreeNode | TreeLeaf"

    def depth(self) -> int:
        return 1 + max(self.low.depth(), self.high.depth())


DecisionTree = TreeNode | TreeLeaf


def run_tree(tree: DecisionTree, index: int, arity: int) -> tuple[int, int]:
    """(value, number of queries) of the tree on one assignment."""
    queries = 0
    node = tree
    while isinstance(node, TreeNode):
        queries += 1
        node = node.high if index & var_bit(arity, node.var) else node.low
    return node.value, queries


def det_complexity(f: BooleanFunction) -> tuple[int, DecisionTree]:
    """Exact decision-tree depth with an optimal witness tree."""
    if f.arity > DEPTH_ARITY_CAP:
        raise CapExceeded(f"decision-tree depth capped at arity {DEPTH_ARITY_CAP}")
    n = f.arity
    full = (1 << n) - 1
    tab = f.table
    memo: dict[tuple[int, int], tuple[int, DecisionTree]] = {}

    def constant_value(fixed_mask: int, fixed_vals: int) -> int | None:
        free = full ^ fixed_mask
        first = tab[fixed_vals | free]
        sub = free
        while True:
            if tab[fixed_vals | sub] != first:
                return None
            if sub == 0:
                return first
            sub = (sub - 1) & free

    def rec(fixed_mask: int, fixed_vals: int) -> tuple[int, DecisionTree]:
        key = (fixed_mask, fixed_vals)
        hit = memo.get(key)
        if hit is not None:
            return hit
        cv = constant_value(fixed_mask, fixed_vals)
        if cv is not None:
            out = (0, TreeLeaf(cv))
        else:
            best = None
            for i in range(1, n + 1):
                b = var_bit(n, i)
                if fixed_mask & b:
                    continue
                d0, t0 = rec(fixed_mask | b, fixed_vals)
                d1, t1 = rec(fixed_mask | b, fixed_vals | b)
                d = 1 + max(d0, d1)
                if best is None or d < best[0]:
                    best = (d, TreeNode(i, t0, t1))
                    if d == 1:
                        break
            out = best
        memo[key] = out
        return out

    return rec(0, 0)


# ---- iterated base certificates --------------------------------------------


@dataclass
class IteratedReport:
    """Certified measures of the d-fold iterate of a 4-bit base."""

    d: int
    s: int
    bs_lower: int
    depth_upper: int
    equal: bool  # bs lower bound meets the depth upper bound
    verified: bool  # exhaustively checked (d <= 2) vs certificate-only
    degree: int | None = None


def _base_blocks(f: BooleanFunction) -> list[tuple[int, int, int]]:
    """Per input: masks of the two sensitive singletons and the complement pair.

    Requires the structure the 4-bit base has: exactly two sensitive
    variables everywhere, and flipping either the sensitive or the
    insensitive pair changes the value.
    """
    if f.arity != 4:
        raise ArityError("iterated certificates need an arity-4 base")
    out = []
    for x in range(16):
        sens = [i for i in range(1, 5) if f.table[x ^ var_bit(4, i)] != f.table[x]]
        if len(sens) != 2:
            raise ValueError(f"input {x:04b} has sensitivity {len(sens)}, need 2")
        s_mask = var_bit(4, sens[0]) | var_bit(4, sens[1])
        i_mask = 15 ^ s_mask
        if f.table[x ^ s_mask] == f.table[x] or f.table[x ^ i_mask] == f.table[x]:
            raise ValueError(f"pair flips do not change the value at {x:04b}")
        out.append((var_bit(4, sens[0]), var_bit(4, sens[1]), i_mask))
    return out


def _compose_tree(outer: DecisionTree, inner: DecisionTree, inner_arity: int):
    """Replace each outer query of variable j by the inner tree on block j."""

    def shift(node: DecisionTree, offset: int, lo: DecisionTree, hi: DecisionTree):
        if isinstance(node, TreeLeaf):
            return hi if node.value else lo
        return TreeNode(
            node.var + offset,
            shift(node.low, offset, lo, hi),
            shift(node.high, offset, lo, hi),
        )

    if isinstance(outer, TreeLeaf):
        return outer
    lo = _compose_tree(outer.low, inner, inner_arity)
    hi = _compose_tree(outer.high, inner, inner_arity)
    offset = (outer.var - 1) * inner_arity
    return shift(inner, offset, lo, hi)


def _iterated_blocks(f: BooleanFunction, base: np.ndarray, d: int) -> np.ndarray:
    """(2^(4^d), 3^d) masks of the sensitive blocks of every input of the iterate.

    d is 1 or 2, and base is the (16, 3) table of _base_blocks.  At depth 2,
    base block o of an input's block pattern expands, per inner choice k,
    into the union of inner block k of each 4-bit block the outer block
    covers.
    """
    if d == 1:
        return base
    x = np.arange(1 << 16)
    order = np.arange(3, -1, -1)  # 4-bit block j sits at bits 4 * (3 - j)
    sub = (x[:, None] >> 4 * order) & 15
    pattern = (f.np_table[sub].astype(np.int64) << order).sum(axis=1)
    covered = (base[pattern][:, :, None] >> order) & 1  # (N, outer block, j)
    inner = base[sub] << (4 * order)[:, None]  # (N, j, inner block)
    return np.concatenate(
        [np.where(covered[:, o, :, None] == 1, inner, 0).sum(axis=1) for o in range(3)],
        axis=1,
    )


def _tree_failures(
    tree: DecisionTree, xs: np.ndarray, arity: int, tab: np.ndarray, limit: int
) -> np.ndarray:
    """Inputs on which the tree gives a wrong value or queries more than limit."""
    bad = []
    stack = [(tree, xs, 0)]
    while stack:
        node, idx, queries = stack.pop()
        if not idx.size:
            continue
        if isinstance(node, TreeLeaf):
            if queries > limit:
                bad.append(idx)
            else:
                bad.append(idx[tab[idx] != node.value])
            continue
        high = idx & var_bit(arity, node.var) != 0
        stack.append((node.low, idx[~high], queries + 1))
        stack.append((node.high, idx[high], queries + 1))
    return np.concatenate(bad) if bad else xs[:0]


def iterated_certificates(f: BooleanFunction, d: int) -> IteratedReport:
    """Certified s, bs and depth of the d-fold iterate of an arity-4 base.

    d <= 2: the iterate is materialized and every claim is checked on every
    input, as array passes over all inputs at once: the sensitivity count,
    3^d explicitly constructed disjoint sensitive blocks, and a composed
    decision tree whose nodes split the inputs that reach them.  d >= 3:
    returns the values the certificates yield, flagged unverified.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    blocks = _base_blocks(f)  # validates base structure
    base_depth, base_tree = det_complexity(f)
    s_val, bs_val, depth_val = 2**d, 3**d, base_depth**d
    if d > 2:
        return IteratedReport(d, s_val, bs_val, depth_val, bs_val == depth_val, False)

    fd = iterate(f, d)
    n = fd.arity
    tab = fd.np_table

    counts = sensitivity_counts(fd)
    if not np.all(counts == s_val):
        raise AssertionError("sensitivity certificate failed")

    masks = _iterated_blocks(f, np.array(blocks, dtype=np.int64), d)
    if masks.shape[1] != bs_val:
        raise AssertionError(f"expected {bs_val} blocks per input")
    xs = np.arange(1 << n)
    used = np.zeros(1 << n, dtype=np.int64)
    bad = np.zeros(1 << n, dtype=bool)
    for mask in masks.T:
        bad |= (mask & used != 0) | (tab[xs ^ mask] == tab)
        used |= mask
    if bad.any():
        raise AssertionError(f"block certificate failed at input {np.argmax(bad)}")

    tree = base_tree
    inner_arity = 4
    for _ in range(d - 1):
        tree = _compose_tree(base_tree, tree, inner_arity)
        inner_arity *= 4
    bad = _tree_failures(tree, xs, n, tab, depth_val)
    if bad.size:
        raise AssertionError(f"composed tree failed at input {bad.min()}")

    deg = degree(fd)
    return IteratedReport(d, s_val, bs_val, depth_val, bs_val == depth_val, True, deg)


# ---- report ---------------------------------------------------------------


@dataclass
class ComplexityReport:
    """Bundle of measures with the derived quantum query lower bounds."""

    deg: int | None = None
    approx_deg: int | None = None
    eps: Fraction | None = None
    s: int | None = None
    bs: int | None = None
    c0: int | None = None
    c1: int | None = None
    d_depth: int | None = None

    @property
    def qe_lower(self) -> Fraction | None:
        return None if self.deg is None else Fraction(self.deg, 2)

    @property
    def q2_lower_poly(self) -> Fraction | None:
        return None if self.approx_deg is None else Fraction(self.approx_deg, 2)

    def as_dict(self) -> dict:
        def fmt(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return str(v)
            return v

        out = {}
        for name in ("deg", "approx_deg", "eps", "s", "bs", "c0", "c1", "d_depth"):
            v = fmt(getattr(self, name))
            if v is not None:
                out[name] = v
        for name in ("qe_lower", "q2_lower_poly"):
            v = fmt(getattr(self, name))
            if v is not None:
                out[name] = v
        return out


SKIPPABLE = ("deg", "approx_deg", "s", "bs", "cert", "D")


def compute_report(
    f: BooleanFunction,
    eps=DEFAULT_EPS,
    *,
    skip=(),
    force: bool = False,
) -> ComplexityReport:
    """All measures of f, honoring skip tokens and arity caps.

    skip tokens: deg, approx_deg, s, bs, cert, D.
    """
    skip = set(skip)
    unknown = skip - set(SKIPPABLE)
    if unknown:
        raise ValueError(f"unknown skip tokens: {sorted(unknown)}")
    rep = ComplexityReport()
    if "deg" not in skip:
        rep.deg = degree(f)
    if "approx_deg" not in skip:
        rep.approx_deg = approx_degree(f, eps)
        rep.eps = Fraction(eps)
    if "s" not in skip:
        rep.s = sensitivity(f)
    if "bs" not in skip:
        rep.bs = block_sensitivity(f)
    if "cert" not in skip:
        rep.c0, rep.c1 = certificate_complexity(f, force=force)
    if "D" not in skip:
        rep.d_depth = det_complexity(f)[0]
    return rep
