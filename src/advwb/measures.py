"""Classical complexity measures of truth-table functions.

Exact multilinear polynomials, approximate degree by linear programming,
sensitivity, block sensitivity, certificate complexity, decision-tree depth
with a witness tree, and certified values for iterates of the 4-bit base.

Decision-tree depth and certificate complexity are array passes over the
3^n subcubes, each variable fixed to 0 or 1 or free: depth goes level by
level in the number of free variables, certificates by superset minima.

Approximate degree is exact at every arity.  Each degree is first tried
against the spectral dual psi = 2f - 1, projected off the low-degree
characters in integers; only a degree it does not rule out goes to HiGHS,
whose float answer is then certified on one side in integers, a
rationalised primal polynomial when the degree suffices and a projected
dual polynomial when it does not.

The HiGHS LP min t s.t. |p - f| <= t, deg p <= k is written on its
smaller side.  The monomial form has a column per monomial of degree <= k.
The Moebius form has a row per mask T of size > k, asking that p's Moebius
coefficient at T vanish; with u = (p - f) / t and alpha = 1 / t it
maximises alpha over box-bounded u.  The Moebius form is used when those
masks are no more than the monomials, which depends on n and k alone.
(e, t) -> (e / t, 1 / t) is projective, so the vertex that the
interior-point method's crossover ends at is a vertex of the monomial form
too, and both forms' answers rationalise alike.

Block sensitivity is sandwiched by s <= bs(x) <= C(x) (Nisan 1989): it
starts from s, packs blocks only at inputs whose certificate size exceeds
the best so far, and stops each packing once it reaches C(x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import simplex
from .boolfn import ArityError, BooleanFunction, iterate, var_bit

ARITY_CAP = 12  # approximate degree, block sensitivity, certificates, depth
EXACT_LP_ARITY_CAP = 8
# HiGHS primal values are rationalised to the nearest fraction with at most
# this denominator.  The LP vertices of these small programs have small
# denominators, and at a tie, an optimum of exactly eps = 1/3, only the
# exact vertex certifies: rounding to a binary grid would miss it.  Duals,
# the spectral one tried before each LP and the LP's own, are instead
# rounded to integers at scale 2^30 and projected exactly.  At a tie no
# dual certifies the strict bound anyway, and away from one the margin
# above eps outlasts a 2^-30 rounding.
DENOMINATOR_LIMIT = 10**4

DEFAULT_EPS = Fraction(1, 3)


class CapExceeded(ArityError):
    """Arity above ARITY_CAP for an exhaustive measure; skip the measure."""


class CertificateError(RuntimeError):
    """Neither side of a float LP answer certified, above the exact-LP cap."""


# ---- subset transforms ---------------------------------------------------


def _butterflies(arr: np.ndarray, n: int, step, radix: int = 2) -> np.ndarray:
    """Apply step(lo, hi, ...) in place along every digit of a radix^n array.

    lo and hi are the views of the entries with that digit 0 and 1, and a
    radix-3 subcube array adds the view with it free.  Summing hi += lo
    is the zeta transform (sum over submasks); its inverse, the Moebius
    transform, is hi -= lo.
    """
    view = arr.reshape([radix] * n)
    for ax in range(n):
        lead = (slice(None),) * ax
        # the trailing Ellipsis keeps a view even when n = 1
        step(*(view[lead + (d, ...)] for d in range(radix)))
    return arr


def _zeta(lo, hi):
    hi += lo


def _moebius(lo, hi):
    hi -= lo


def _any(lo, hi):
    hi |= lo


def _constant(lo, hi, free):
    # entries with a later digit free read unfinished halves here, and are
    # rewritten by the pass along their last free digit
    free[...] = np.where(lo == hi, lo, -1)


def _count_free(lo, hi, free):
    free += 1


def _superset_min(lo, hi, free):
    np.minimum(lo, free, out=lo)
    np.minimum(hi, free, out=hi)


def _walsh(lo, hi):
    """Unnormalised Walsh-Hadamard step: (lo, hi) -> (lo + hi, lo - hi).

    Along every bit it is the Walsh-Hadamard transform H, and H H = 2^n.
    """
    lo += hi
    hi *= -2
    hi += lo


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
        arr = np.zeros(1 << self.arity, dtype=np.int64)
        for m, c in self.coeffs.items():
            arr[m] = c
        return _butterflies(arr, self.arity, _zeta)

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
    arr = _butterflies(f.np_table.astype(np.int64), f.arity, _moebius)
    nz = np.nonzero(arr)[0]
    return MultilinearPolynomial(f.arity, {int(m): int(arr[m]) for m in nz})


def degree(f: BooleanFunction) -> int:
    return exact_polynomial(f).degree


# ---- approximate degree -------------------------------------------------


@dataclass
class ApproxWitness:
    """A degree-k polynomial within eps of f everywhere, plus its deviation."""

    degree: int
    eps: Fraction
    coeffs: dict[int, Fraction]
    deviation: Fraction  # exact max |p(x) - f(x)| over all inputs, <= eps

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


def _rationalise(values: np.ndarray) -> list[Fraction]:
    """The nearest fraction with denominator at most DENOMINATOR_LIMIT, per value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    fracs = [Fraction(v).limit_denominator(DENOMINATOR_LIMIT) for v in distinct.tolist()]
    return [fracs[i] for i in inverse.tolist()]


def _scaled(fracs: list[Fraction]) -> tuple[np.ndarray, int]:
    """(fracs * D as a Python-int array, D) for their common denominator D."""
    d = math.lcm(*(q.denominator for q in fracs))
    return np.array([q.numerator * (d // q.denominator) for q in fracs], dtype=object), d


def _max_deviation(f: BooleanFunction, coeffs: dict[int, Fraction]) -> Fraction:
    """Exact max |p(x) - f(x)| over all inputs, p the polynomial of coeffs.

    p * D is evaluated on every input by the integer zeta transform, D the
    common denominator of the coefficients.
    """
    masks = list(coeffs)
    scaled, d = _scaled([coeffs[m] for m in masks])
    values = np.zeros(1 << f.arity, dtype=object)
    values[masks] = scaled
    _butterflies(values, f.arity, _zeta)
    return Fraction(int(np.abs(values - f.np_table.astype(object) * d).max()), d)


def _certify_lower(f: BooleanFunction, k: int, psi: np.ndarray, eps: Fraction) -> bool:
    """Whether the dual psi, rounded to integers at scale 2^30, proves that
    degree k fails.

    Its Walsh-Hadamard coefficients of degree <= k are zeroed exactly, in
    integers, which leaves phi orthogonal to every degree-k polynomial p.
    Then sum phi*f = sum phi*(f - p) <= |phi|_1 * max|f - p|, so a
    correlation above eps * |phi|_1 rules out every such p.
    """
    n = f.arity
    phi = np.rint(np.ldexp(psi, 30)).astype(np.int64).astype(object)
    _butterflies(phi, n, _walsh)
    phi[np.bitwise_count(np.arange(1 << n)) <= k] = 0
    _butterflies(phi, n, _walsh)  # 2^n times the projection; the scale cancels
    correlation = int((phi * f.np_table.astype(object)).sum())
    return correlation * eps.denominator > eps.numerator * int(np.abs(phi).sum())


def _certify_upper(
    f: BooleanFunction, k: int, monomials: list[int], x: np.ndarray, eps: Fraction
) -> ApproxWitness | None:
    """The float coefficients x, rationalised, as a witness if they stay within eps."""
    coeffs = {m: c for m, c in zip(monomials, _rationalise(x)) if c}
    deviation = _max_deviation(f, coeffs)
    return ApproxWitness(k, eps, coeffs, deviation) if deviation <= eps else None


def _moebius_form(n: int, monomials: list[int]) -> bool:
    """Whether the LP over span(monomials) is posed on the masks outside it.

    That form has a row per such mask and the monomial form a column per
    monomial, so the smaller side wins; at a tie the Moebius form has a
    quarter of the monomial form's 2 * 2^n rows.
    """
    return (1 << n) - len(monomials) <= len(monomials)


def _lp_float(f: BooleanFunction, monomials: list[int]):
    """HiGHS solution of min t s.t. |p(x) - f(x)| <= t, p in span(monomials).

    Returns (t, the coefficients of p, the dual polynomial psi) in floats,
    psi scaled to |psi|_1 = 1 with sum psi*f = t.  The LP is written in
    one of two forms, whichever is smaller (_moebius_form): over the
    monomials' coefficients (_lp_monomials) or over the Moebius rows of the
    other masks (_lp_moebius).  Both are solved by the interior-point
    method with crossover, which ends at a vertex; the Moebius form's
    vertices are those of the monomial form under a projective map, so
    either form's values rationalise the same way.
    """
    if _moebius_form(f.arity, monomials):
        return _lp_moebius(f, monomials)
    return _lp_monomials(f, monomials)


def _lp_monomials(f: BooleanFunction, monomials: list[int]):
    """_lp_float posed as 2 * 2^n rows |p(x) - f(x)| <= t over the
    coefficients of p and t."""
    import scipy.optimize
    import scipy.sparse

    size = 1 << f.arity
    nmono = len(monomials)
    # rows: p(x) - t <= f(x), then -p(x) - t <= -f(x); column 0 is t and
    # column 1 + j the coefficient of monomials[j], nonzero on its supersets
    ks = np.arange(size)
    supersets = [np.flatnonzero(ks & m == m) for m in monomials]
    x_of = np.concatenate(supersets)
    j_of = np.repeat(np.arange(1, nmono + 1), [len(xs) for xs in supersets])
    rows = np.concatenate([ks, ks + size, x_of, x_of + size])
    cols = np.concatenate([np.zeros(2 * size, dtype=np.int64), j_of, j_of])
    vals = np.concatenate([-np.ones(2 * size), np.ones(len(x_of)), -np.ones(len(x_of))])
    A_ub = scipy.sparse.csc_array((vals, (rows, cols)), shape=(2 * size, nmono + 1))
    tab = f.np_table.astype(float)
    b_ub = np.concatenate([tab, -tab])
    c = np.zeros(nmono + 1)
    c[0] = 1.0
    bounds = [(0, None)] + [(None, None)] * nmono
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs-ipm")
    if not res.success:
        raise CertificateError(f"LP solve failed: {res.message}")
    # the row multipliers are <= 0; psi = lambda_minus - lambda_plus in
    # their magnitudes, so that sum psi*f is the dual objective
    marginals = res.ineqlin.marginals
    return res.fun, res.x[1:], marginals[:size] - marginals[size:]


def _lp_moebius(f: BooleanFunction, monomials: list[int]):
    """_lp_float posed on the masks T outside monomials, one row each.

    p lies in span(monomials) exactly when its Moebius coefficient at every
    such T, sum_x g_T(x) p(x) with g_T(x) = (-1)^(|T| - |x|) [x subset of
    T], is 0.  With u = (p - f) / t and alpha = 1 / t the LP becomes:
    maximise alpha s.t. g_T . u + alpha * (g_T . f) = 0 for every T,
    -1 <= u <= 1 and alpha >= 0.  Then t = 1 / alpha, the coefficients of p
    = f + u / alpha are its Moebius transform read at monomials, and the
    dual polynomial is sum_T y_T g_T for the row multipliers y.
    """
    import scipy.optimize
    import scipy.sparse

    n = f.arity
    size = 1 << n
    low = np.zeros(size, dtype=bool)
    low[monomials] = True
    high = np.flatnonzero(~low)
    # rows: g_T . u + alpha * (g_T . f) = 0 per T in high; column x < size
    # is u(x), nonzero on the rows of its supersets, and column size alpha
    ks = np.arange(size)
    subsets = [np.flatnonzero(ks & t == ks) for t in high.tolist()]
    x_of = np.concatenate(subsets)
    t_of = np.repeat(np.arange(len(high)), [len(xs) for xs in subsets])
    odd = (np.bitwise_count(high)[t_of] - np.bitwise_count(x_of)) & 1
    moebius_f = _butterflies(f.np_table.astype(np.int64), n, _moebius)[high]
    nz = np.flatnonzero(moebius_f)
    rows = np.concatenate([t_of, nz])
    cols = np.concatenate([x_of, np.full(len(nz), size)])
    vals = np.concatenate([1.0 - 2.0 * odd, moebius_f[nz]])
    A_eq = scipy.sparse.csc_array((vals, (rows, cols)), shape=(len(high), size + 1))
    c = np.zeros(size + 1)
    c[size] = -1.0
    bounds = [(-1, 1)] * size + [(0, None)]
    res = scipy.optimize.linprog(
        c, A_eq=A_eq, b_eq=np.zeros(len(high)), bounds=bounds, method="highs-ipm"
    )
    if not res.success:
        raise CertificateError(f"LP solve failed: {res.message}")
    alpha = res.x[size]
    p = f.np_table + res.x[:size] / alpha
    x = _butterflies(p, n, _moebius)[monomials]
    # the multipliers' sign and scale are the solver's: psi is turned to
    # correlate positively with f and scaled to |psi|_1 = 1, so that
    # sum psi*f = t, as the monomial form's marginals give it
    psi = A_eq[:, :size].T @ res.eqlin.marginals
    psi /= np.abs(psi).sum() * np.sign(psi @ f.np_table)
    return 1 / alpha, x, psi


def _lp_exact(f: BooleanFunction, monomials: list[int], eps: Fraction):
    """Exact Fraction-simplex witness, or None when the optimum exceeds eps."""
    size = 1 << f.arity
    nmono = len(monomials)
    A, b = [], []
    tab = f.table
    for x in range(size):
        inc = [1 if m & x == m else 0 for m in monomials]
        # variables: t, then (plus, minus) per monomial coefficient
        row_hi = [-1] + [v for pm in zip(inc, [-v for v in inc]) for v in pm]
        row_lo = [-1] + [v for pm in zip([-v for v in inc], inc) for v in pm]
        A.append(row_hi)
        b.append(tab[x])
        A.append(row_lo)
        b.append(-tab[x])
    c = [1] + [0] * (2 * nmono)
    status, value, x = simplex.solve_min(A, b, c, early_stop=lambda v: v <= eps)
    if status != simplex.OPTIMAL and status != "stopped":
        raise simplex.SimplexError(f"unexpected LP status {status}")
    if value > eps:
        return None
    coeffs = {m: x[1 + 2 * j] - x[2 + 2 * j] for j, m in enumerate(monomials)}
    return {m: c for m, c in coeffs.items() if c}


def _degree_witness(f: BooleanFunction, k: int, eps: Fraction) -> ApproxWitness | None:
    """A certified degree-k witness, or None when degree k provably fails.

    The side the float optimum points to is certified first, then the
    other.  When neither certifies, the exact simplex decides at arity <=
    EXACT_LP_ARITY_CAP, and CertificateError is raised above it.
    """
    monomials = _monomials_up_to(f.arity, k)
    value, x, psi = _lp_float(f, monomials)
    if value > eps and _certify_lower(f, k, psi, eps):
        return None
    witness = _certify_upper(f, k, monomials, x, eps)
    if witness is not None:
        return witness
    if value <= eps and _certify_lower(f, k, psi, eps):
        return None
    if f.arity > EXACT_LP_ARITY_CAP:
        raise CertificateError(
            f"degree {k} LP optimum {value:.9g} certified on neither side "
            f"at arity {f.arity} (exact fallback capped at {EXACT_LP_ARITY_CAP})"
        )
    coeffs = _lp_exact(f, monomials, eps)
    if coeffs is None:
        return None
    deviation = _max_deviation(f, coeffs)
    if deviation > eps:
        raise AssertionError(f"exact LP witness deviates by {deviation} > {eps}")
    return ApproxWitness(k, eps, coeffs, deviation)


def approx_polynomial(f: BooleanFunction, eps=DEFAULT_EPS) -> ApproxWitness:
    """Lowest-degree polynomial within eps of f pointwise, with witness.

    Degrees are tried upwards from 0.  Each degree is first checked against
    the spectral dual psi = 2f - 1 (the dual-polynomial method with its
    simplest witness): projected off the characters of degree <= k, its
    correlation with f above eps proves the degree fails, with no LP.  A
    degree it does not rule out is solved by HiGHS, and one side of the
    answer is certified exactly in integers: a rationalised primal whose
    exact deviation is <= eps (the degree suffices), or the LP's dual
    polynomial, projected the same way, whose correlation with f exceeds
    eps (the degree fails).  So the returned degree carries an upper
    certificate and every smaller degree a lower one.  If neither side
    certifies, the exact Fraction simplex decides that degree up to arity
    8; above it CertificateError is raised.  No LP runs at deg(f): the
    exact polynomial is its witness, with deviation 0.  At eps = 0 the
    spectral dual rules out every lower degree k, since its correlation
    with f is |P_{>k}(2f - 1)|^2 / 2 > 0.
    """
    eps = Fraction(eps)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    if f.arity > ARITY_CAP:
        raise CapExceeded(f"approximate degree capped at arity {ARITY_CAP}")
    exact = exact_polynomial(f)
    spectral = 2.0 * f.np_table - 1
    for k in range(exact.degree):
        if _certify_lower(f, k, spectral, eps):
            continue
        witness = _degree_witness(f, k, eps)
        if witness is not None:
            return witness
    coeffs = {m: Fraction(c) for m, c in exact.coeffs.items()}
    return ApproxWitness(exact.degree, eps, coeffs, Fraction(0))


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
    anysub = _butterflies(sens.copy(), n, _any)  # OR of sens over submasks
    has_proper = np.zeros(size, dtype=bool)
    ks = np.arange(size)
    for bit in range(n):
        b = 1 << bit
        sel = (ks & b).astype(bool)
        has_proper[sel] |= anysub[ks[sel] ^ b]
    minimal = sens & ~has_proper
    minimal[0] = False
    return [int(m) for m in np.nonzero(minimal)[0]]


def _max_disjoint(blocks: list[int], limit: int) -> int:
    """Size of the largest pairwise-disjoint subcollection, capped at limit:
    branch and bound that stops once it packs limit blocks."""
    blocks = sorted(blocks, key=lambda m: m.bit_count())
    nbl = len(blocks)
    best = 0

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if best >= limit or count + (nbl - i) <= best:
            return
        if not blocks[i] & used:
            rec(i + 1, used | blocks[i], count + 1)
        rec(i + 1, used, count)

    rec(0, 0, 0)
    return best


def block_sensitivity_at(f: BooleanFunction, index: int) -> int:
    if f.arity > ARITY_CAP:
        raise CapExceeded(f"block sensitivity capped at arity {ARITY_CAP}")
    return _max_disjoint(_minimal_sensitive_blocks(f, index), f.arity)


def block_sensitivity(f: BooleanFunction) -> int:
    """bs(f), by the sandwich s(f) <= bs(x) <= C(x) (Nisan 1989).

    The best packing starts at s(f).  Inputs are visited in decreasing
    certificate size, and the search stops at the first whose C(x) cannot
    beat the best; each packing stops once it reaches C(x).  When s(f) =
    max(C_0, C_1), no blocks are packed at all.
    """
    if f.arity > ARITY_CAP:
        raise CapExceeded(f"block sensitivity capped at arity {ARITY_CAP}")
    best = sensitivity(f)
    cert = _certificates(f)
    for x in np.argsort(-cert, kind="stable").tolist():
        if cert[x] <= best:
            break
        best = max(best, _max_disjoint(_minimal_sensitive_blocks(f, x), int(cert[x])))
    return best


# ---- subcube lattice -------------------------------------------------------


def _subcubes(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """(value, free count) of every subcube, as flat int8 arrays of 3^n.

    Subcube sum_a d_a * 3^(n-1-a) fixes variable a + 1 to d_a when d_a is 0
    or 1 and leaves it free when d_a = 2, so its all-fixed corner is f's
    table.  value is f's value on the subcube when f is constant there,
    else -1.
    """
    n = f.arity
    value = np.full(3**n, -1, dtype=np.int8)
    value.reshape([3] * n)[(slice(0, 2),) * n] = f.np_table.reshape([2] * n)
    _butterflies(value, n, _constant, radix=3)
    free = _butterflies(np.zeros(3**n, dtype=np.int8), n, _count_free, radix=3)
    return value, free


def _certificates(f: BooleanFunction) -> np.ndarray:
    """C(x) for every input x, as an int8 array indexed like f's table.

    C(x) is the least codimension of a constant subcube holding x.
    Constant subcubes start at their codimension and the rest at 127; a
    minimum over supersets, one pass per variable, leaves that least
    codimension at every input.
    """
    n = f.arity
    value, free = _subcubes(f)
    size = np.where(value >= 0, n - free, 127)
    _butterflies(size, n, _superset_min, radix=3)
    return size.reshape([3] * n)[(slice(0, 2),) * n].reshape(-1)


def certificate_complexity(f: BooleanFunction) -> tuple[int, int]:
    """(C_0, C_1): worst-case certificate sizes over each preimage."""
    if f.arity > ARITY_CAP:
        raise CapExceeded(f"certificate complexity capped at arity {ARITY_CAP}")
    cert = _certificates(f)
    tab = f.np_table
    return int(cert[tab == 0].max(initial=0)), int(cert[tab == 1].max(initial=0))


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
    """Exact decision-tree depth with an optimal witness tree.

    D(S) = 0 on a constant subcube S, else 1 + the least, over free
    variables i, of max(D(S with x_i = 0), D(S with x_i = 1)), filled in
    level by level in the number of free variables.  Each subcube queries
    the lowest-numbered i at that least value, and the witness tree makes
    those queries from the all-free subcube down.
    """
    n = f.arity
    if n > ARITY_CAP:
        raise CapExceeded(f"decision-tree depth capped at arity {ARITY_CAP}")
    value, free = _subcubes(f)
    depth = np.where(value >= 0, 0, 127).astype(np.int8)
    query = np.zeros(3**n, dtype=np.int8)  # 0-based variable queried
    steps = [3 ** (n - 1 - a) for a in range(n)]  # index weight of digit a
    for k in range(1, n + 1):
        idx = np.flatnonzero((free == k) & (value < 0))
        for a, step in enumerate(steps):
            sub = idx[idx // step % 3 == 2]  # variable a + 1 free; fix it to 0, 1
            cand = 1 + np.maximum(depth[sub - 2 * step], depth[sub - step])
            better = cand < depth[sub]  # strict, so the lowest i wins ties
            depth[sub[better]] = cand[better]
            query[sub[better]] = a

    def tree(i: int) -> DecisionTree:
        if value[i] >= 0:
            return TreeLeaf(int(value[i]))
        a = int(query[i])
        return TreeNode(a + 1, tree(i - 2 * steps[a]), tree(i - steps[a]))

    return int(depth[-1]), tree(3**n - 1)


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
    covers: column 3*o + k of an int32 output that is filled in place, one
    4-bit block at a time, from int32 and bool temporaries of at most three
    columns.
    """
    if d == 1:
        return base
    base = base.astype(np.int32)
    x = np.arange(1 << 16, dtype=np.int32)
    shifts = range(12, -1, -4)  # 4-bit block j sits at bits 4 * (3 - j)
    pattern = np.zeros(1 << 16, dtype=np.int32)
    for shift in shifts:
        pattern = pattern << 1 | f.np_table[(x >> shift) & 15]
    outer = base[pattern]  # (N, outer block)
    del pattern
    masks = np.zeros((1 << 16, 9), dtype=np.int32)
    for j, shift in enumerate(shifts):
        inner = base[(x >> shift) & 15]  # (N, inner block)
        inner <<= shift
        for o in range(3):
            covered = ((outer[:, o] >> (3 - j)) & 1 == 1)[:, None]
            row = masks[:, 3 * o : 3 * o + 3]
            np.bitwise_or(row, inner, out=row, where=covered)
    return masks


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
    used = np.zeros(1 << n, dtype=masks.dtype)
    bad = np.zeros(1 << n, dtype=bool)
    for mask in masks.T:
        bad |= (mask & used != 0) | (tab[xs ^ mask] == tab)
        used |= mask
    if bad.any():
        raise AssertionError(f"block certificate failed at input {np.argmax(bad)}")
    del masks, used

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


def compute_report(f: BooleanFunction, eps=DEFAULT_EPS, *, skip=()) -> ComplexityReport:
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
        rep.c0, rep.c1 = certificate_complexity(f)
    if "D" not in skip:
        rep.d_depth = det_complexity(f)[0]
    return rep
