"""Exact sums of radicals (p_1*sqrt(u_1) + ... + p_k*sqrt(u_k)) / q.

Adversary weight schemes mix rationals with square roots (sqrt(2), sqrt(39)
and friends), and the loads and bounds they produce must be compared
exactly.  Arithmetic and comparison are exact.  A sign is decided by
refining integer square-root intervals, which terminates because the square
roots of distinct squarefree integers are linearly independent over the
rationals (Besicovitch 1940).  `sqrt` is exact on rationals; any other
square root is a Root, which keeps the exact square.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

TRIAL_DIVISION_LIMIT = 10**6


def squarefree_split(n: int) -> tuple[int, int]:
    """Factor n > 0 as s*s*u with u squarefree; returns (s, u).

    Trial division stops at d**3 > m, which leaves m = 1, p, p*q or p*p,
    or past TRIAL_DIVISION_LIMIT.  A cofactor left there at or above d**3
    may hide a square factor, so unless it is itself a square the split
    raises ValueError rather than guess.
    """
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    s, u, m, d = 1, 1, n, 2
    while d * d * d <= m and d <= TRIAL_DIVISION_LIMIT:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                u *= d
        d += 1 if d == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return s * r, u
    if m >= d * d * d:
        raise ValueError(
            f"cannot find the squarefree part of {n}: its cofactor {m} has no "
            f"factor below {d} and may still hide a square"
        )
    return s, u * m


def _coprime_base(radicands) -> list[int]:
    """Pairwise coprime b > 1 whose products give the squarefree radicands."""
    base: list[int] = []
    for a in radicands:
        refined = []
        for c in base:
            g = math.gcd(a, c)
            refined += [g, c // g]
            a //= g
        base = [c for c in refined + [a] if c > 1]
    return base


_WEIGHT_RE = re.compile(
    r"^\s*(-)?\s*(?:(\d+)\s*(?:/\s*(\d+))?)?\s*(?:\*?\s*sqrt\(\s*(\d+)\s*(?:/\s*(\d+))?\s*\))?\s*$"
)


class ExactWeight:
    """Canonical sum of (p_u/q)*sqrt(u) over distinct squarefree u, q > 0.

    One term keeps ints p, q and u >= 1 (zero is p = 0, u = 1) for integer
    fast paths; a sum of more has u = 0 and p = ((u, p_u), ...) sorted by u.
    The constructor takes one nonnegative term; arithmetic makes the rest.
    """

    __slots__ = ("p", "q", "u", "_hash")

    def __init__(self, p, q=1, u=1):
        if isinstance(p, float) or isinstance(q, float) or isinstance(u, float):
            raise TypeError("ExactWeight takes exact operands, not floats")
        if isinstance(p, Fraction):
            p, q = p.numerator, p.denominator * q
        if isinstance(q, Fraction):
            p, q = p * q.denominator, q.numerator
        if isinstance(u, Fraction):
            # sqrt(a/b) = sqrt(a*b)/b
            p, q, u = p, q * u.denominator, u.numerator * u.denominator
        if q == 0:
            raise ZeroDivisionError("zero denominator")
        if p < 0 or q < 0 or u <= 0:
            raise ValueError(f"negative or zero parts: p={p} q={q} u={u}")
        if p == 0:
            q, u = 1, 1
        else:
            s, u = squarefree_split(u)
            p *= s
            g = math.gcd(p, q)
            p //= g
            q //= g
        self.p, self.q, self.u = p, q, u
        self._hash = hash((p, q, u))

    @classmethod
    def _raw(cls, p: int, q: int, u: int) -> "ExactWeight":
        """Build from parts already coprime/squarefree (internal fast path)."""
        self = object.__new__(cls)
        self.p, self.q, self.u = p, q, u
        self._hash = hash((p, q, u))
        return self

    @classmethod
    def of(cls, value) -> "ExactWeight":
        """A nonnegative weight, given as an ExactWeight or a rational."""
        if isinstance(value, ExactWeight):
            if value._sign() < 0:
                raise ValueError(f"negative weight {value}")
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt_of(cls, value) -> "ExactWeight":
        """Exact square root of a nonnegative rational."""
        fr = Fraction(value)
        if fr < 0:
            raise ValueError("square root of a negative value")
        if fr == 0:
            return _ZERO
        return cls(1, 1, fr)

    # ---- queries ----------------------------------------------------

    @property
    def rational(self) -> Fraction:
        """The value as a Fraction; only valid when u == 1."""
        if self.u != 1:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.q)

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    def squared(self) -> Fraction:
        return (self * self).rational

    def __float__(self) -> float:
        return sum(p / self.q * math.sqrt(u) for u, p in self._terms())

    def _terms(self) -> tuple:
        """((u, p_u), ...) over the common denominator q."""
        return ((self.u, self.p),) if self.u else self.p

    def _sign(self) -> int:
        if self.u:
            return (self.p > 0) - (self.p < 0)
        k = 32
        while True:  # sqrt(u) * 2^k lies in [r, r + 1) for r = isqrt(u * 4^k)
            lo = hi = 0
            for u, p in self.p:
                r = math.isqrt(u << 2 * k)
                lo += min(p * r, p * (r + 1))
                hi += max(p * r, p * (r + 1))
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            k *= 2

    # ---- arithmetic -------------------------------------------------

    def __mul__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if self.p == 0 or other.p == 0:
            return _ZERO
        if self.u and other.u:
            g = math.gcd(self.u, other.u)
            p = self.p * other.p * g
            q = self.q * other.q
            d = math.gcd(p, q)
            return ExactWeight._raw(p // d, q // d, (self.u // g) * (other.u // g))
        acc: dict[int, int] = {}
        for u1, p1 in self._terms():
            for u2, p2 in other._terms():
                g = math.gcd(u1, u2)
                u = (u1 // g) * (u2 // g)
                acc[u] = acc.get(u, 0) + p1 * p2 * g
        return _collect(acc, self.q * other.q)

    def __truediv__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if other.p == 0:
            raise ZeroDivisionError("division by zero weight")
        if not other.u:
            # the conjugate sqrt(b) -> -sqrt(b) clears b from the divisor
            for b in _coprime_base(u for u, _ in other.p):
                flip = {u: -p if u % b == 0 else p for u, p in other._terms()}
                conj = _collect(flip, other.q)
                self, other = self * conj, other * conj
        # 1/sqrt(u) = sqrt(u)/u, with the sign moved to the numerator
        s = -1 if other.p < 0 else 1
        inv = ExactWeight._raw(s * other.q, s * other.p * other.u, other.u)
        return self * inv

    def __add__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if self.p == 0:
            return other
        if other.p == 0:
            return self
        if self.u and self.u == other.u:
            p = self.p * other.q + other.p * self.q
            if p == 0:
                return _ZERO
            q = self.q * other.q
            d = math.gcd(p, q)
            return ExactWeight._raw(p // d, q // d, self.u)
        q = self.q * other.q // math.gcd(self.q, other.q)
        acc: dict[int, int] = {}
        for x in (self, other):
            for u, p in x._terms():
                acc[u] = acc.get(u, 0) + p * (q // x.q)
        return _collect(acc, q)

    def __neg__(self) -> "ExactWeight":
        return _collect({u: -p for u, p in self._terms()}, self.q)

    def __sub__(self, other: "ExactWeight") -> "ExactWeight":
        return self + -other

    def __pow__(self, n: int) -> "ExactWeight":
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self) -> "ExactWeight | Root":
        """Exact square root of a rational; a Root of any other value."""
        if self._sign() < 0:
            raise ValueError("square root of a negative value")
        if self.u != 1:
            return Root(self)
        return ExactWeight.sqrt_of(Fraction(self.p, self.q))

    # ---- comparison (exact) ------------------------------------------

    def _cmp(self, other: "ExactWeight") -> int:
        if self.u and other.u:
            # t -> t*|t| keeps order, and maps p*sqrt(u)/q to p*|p|*u/q^2
            lhs = self.p * abs(self.p) * self.u * other.q * other.q
            rhs = other.p * abs(other.p) * other.u * self.q * self.q
            return (lhs > rhs) - (lhs < rhs)
        return (self - other)._sign()

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactWeight):
            return (self.p, self.q, self.u) == (other.p, other.q, other.u)
        if isinstance(other, (int, Fraction)):
            return self.u == 1 and Fraction(self.p, self.q) == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "ExactWeight") -> bool:
        return self._cmp(_coerce(other)) < 0

    def __le__(self, other: "ExactWeight") -> bool:
        return self._cmp(_coerce(other)) <= 0

    def __gt__(self, other: "ExactWeight") -> bool:
        return self._cmp(_coerce(other)) > 0

    def __ge__(self, other: "ExactWeight") -> bool:
        return self._cmp(_coerce(other)) >= 0

    # ---- text form ---------------------------------------------------

    def __str__(self) -> str:
        if not self.u:
            text = " + ".join(str(_collect({u: p}, self.q)) for u, p in self.p)
            return text.replace("+ -", "- ")
        if self.p < 0:
            return f"-{-self}"
        if self.p == 0:
            return "0"
        rat = str(self.p) if self.q == 1 else f"{self.p}/{self.q}"
        if self.u == 1:
            return rat
        if self.p == 1 and self.q == 1:
            return f"sqrt({self.u})"
        return f"{rat}*sqrt({self.u})"

    def __repr__(self) -> str:
        return f"ExactWeight({self})"

    def decimal(self, places: int = 6) -> str:
        return f"{float(self):.{places}f}"

    @classmethod
    def parse(cls, text: str) -> "ExactWeight":
        """Parse what str prints: 'p/q', 'p/q*sqrt(u/v)', 'sqrt(u)' and obvious
        variants, joined by + and -; a negative total is refused."""
        terms = text.replace("-", "+-").split("+")  # each term keeps its minus
        if len(terms) > 1 and not terms[0].strip():
            terms = terms[1:]  # the first term is signed
        total = _ZERO
        for term in terms:
            m = _WEIGHT_RE.match(term)
            if not m or (m.group(2) is None and m.group(4) is None):
                raise ValueError(f"not a weight literal: {text!r}")
            p = int(m.group(2)) if m.group(2) else 1
            q = int(m.group(3)) if m.group(3) else 1
            un = int(m.group(4)) if m.group(4) else 1
            ud = int(m.group(5)) if m.group(5) else 1
            if q == 0 or ud == 0:
                raise ValueError(f"zero denominator in weight literal: {text!r}")
            w = cls(p, q, Fraction(un, ud))
            total = total - w if m.group(1) else total + w
        if total._sign() < 0:
            raise ValueError(f"negative weight literal: {text!r}")
        return total


_ZERO = ExactWeight(0)
_ONE = ExactWeight(1)

ZERO = _ZERO
ONE = _ONE


def _collect(acc: dict, q: int) -> ExactWeight:
    """The canonical value of sum(acc[u] * sqrt(u)) / q, for q > 0."""
    terms = sorted((u, p) for u, p in acc.items() if p)
    if not terms:
        return _ZERO
    g = math.gcd(q, *(p for _, p in terms))
    if len(terms) == 1:
        return ExactWeight._raw(terms[0][1] // g, q // g, terms[0][0])
    return ExactWeight._raw(tuple((u, p // g) for u, p in terms), q // g, 0)


class Root:
    """sqrt(square) for a positive ExactWeight square that is not rational.

    `loads` gives v_max and the bound as Roots when v_A * v_B is not
    rational; the square stays exact and prints as sqrt(<square>).
    """

    __slots__ = ("square",)

    def __init__(self, square: ExactWeight):
        self.square = square

    def __float__(self) -> float:
        return math.sqrt(float(self.square))

    def __pow__(self, n: int) -> "ExactWeight | Root":
        return self.square ** (n // 2) if n % 2 == 0 else (self.square**n).sqrt()

    def __eq__(self, other) -> bool:
        if isinstance(other, Root):
            return self.square == other.square
        if isinstance(other, ExactWeight):
            return other >= _ZERO and other * other == self.square
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("sqrt", self.square))

    def __str__(self) -> str:
        return f"sqrt({self.square})"

    def __repr__(self) -> str:
        return f"Root({self})"


def coefficients(values) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """Integer coefficients of ExactWeights over one basis and denominator.

    Returns (radicands, q, rows) with values[k] equal to
    sum(rows[k][b] * sqrt(radicands[b])) / q, so sums of the values are
    integer sums of their rows.  `from_coefficients` inverts it.
    """
    radicands = sorted({u for v in values for u, _ in v._terms()})
    q = math.lcm(*(v.q for v in values))
    col = {u: b for b, u in enumerate(radicands)}
    rows = []
    for v in values:
        row = [0] * len(radicands)
        for u, p in v._terms():
            row[col[u]] = p * (q // v.q)
        rows.append(row)
    return tuple(radicands), q, rows


def from_coefficients(radicands, q: int, row) -> ExactWeight:
    """The canonical value of sum(row[b] * sqrt(radicands[b])) / q (ints)."""
    return _collect(dict(zip(radicands, row)), q)


def _coerce(value) -> ExactWeight:
    if isinstance(value, ExactWeight):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactWeight(Fraction(value))
    raise TypeError(f"cannot compare ExactWeight with {type(value).__name__}")


def exact_sum(values):
    """Sum ExactWeights exactly.

    Repeated values are counted before summing, which keeps large sweeps
    over heavily shared weight objects cheap.
    """
    counts: dict[ExactWeight, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = _ZERO
    for v, c in counts.items():
        # a positive int is already canonical: no squarefree split or gcd
        total = total + (v if c == 1 else v * ExactWeight._raw(c, 1, 1))
    return total
