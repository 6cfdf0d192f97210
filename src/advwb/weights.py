"""Exact nonnegative numbers of the form (p/q)*sqrt(u).

Adversary weight schemes mix rationals with square roots (sqrt(2), sqrt(39)
and friends), and the load bounds they produce must be compared exactly.
ExactWeight keeps a canonical triple (p, q, u): p/q in lowest terms and a
squarefree integer radicand u.  Multiplication, division and comparison are
always exact.  Addition is exact between like radicands; summing mixed
radicands is the caller's cue to fall back to floats.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class MixedRadicandError(ArithmeticError):
    """Raised when adding values whose radicands differ."""


def squarefree_split(n: int) -> tuple[int, int]:
    """Factor n > 0 as s*s*u with u squarefree; returns (s, u)."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    s, u, m, d = 1, 1, n, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                u *= d
        d += 1 if d == 2 else 2
    if m > 1:
        u *= m  # leftover factor is prime
    return s, u


_WEIGHT_RE = re.compile(
    r"^\s*(?:(\d+)\s*(?:/\s*(\d+))?)?\s*(?:\*?\s*sqrt\(\s*(\d+)\s*(?:/\s*(\d+))?\s*\))?\s*$"
)


class ExactWeight:
    """Canonical (p/q)*sqrt(u) with p >= 0, q > 0, u squarefree."""

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
        """Rational value as an ExactWeight."""
        if isinstance(value, ExactWeight):
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt_of(cls, value) -> "ExactWeight":
        """Exact square root of a nonnegative rational."""
        fr = Fraction(value)
        if fr < 0:
            raise ValueError("square root of a negative value")
        return cls(1, 1, fr)

    # ---- queries ----------------------------------------------------

    @property
    def rational(self) -> Fraction:
        """The value as a Fraction; only valid when u == 1."""
        if self.u != 1:
            raise MixedRadicandError(f"{self} is irrational")
        return Fraction(self.p, self.q)

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    def squared(self) -> Fraction:
        return Fraction(self.p * self.p * self.u, self.q * self.q)

    def __float__(self) -> float:
        return self.p / self.q * math.sqrt(self.u)

    # ---- arithmetic -------------------------------------------------

    def __mul__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if self.p == 0 or other.p == 0:
            return _ZERO
        g = math.gcd(self.u, other.u)
        p = self.p * other.p * g
        q = self.q * other.q
        d = math.gcd(p, q)
        return ExactWeight._raw(p // d, q // d, (self.u // g) * (other.u // g))

    def __truediv__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if other.p == 0:
            raise ZeroDivisionError("division by zero weight")
        # 1/sqrt(u) = sqrt(u)/u
        inv = ExactWeight._raw(other.q, other.p * other.u, other.u)
        return self * inv

    def __add__(self, other: "ExactWeight") -> "ExactWeight":
        if not isinstance(other, ExactWeight):
            return NotImplemented
        if self.p == 0:
            return other
        if other.p == 0:
            return self
        if self.u != other.u:
            raise MixedRadicandError(
                f"cannot add sqrt({self.u}) and sqrt({other.u}) terms exactly"
            )
        p = self.p * other.q + other.p * self.q
        q = self.q * other.q
        d = math.gcd(p, q)
        return ExactWeight._raw(p // d, q // d, self.u)

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

    def sqrt(self) -> "ExactWeight":
        """Exact square root; defined only for rational values."""
        if self.u != 1:
            raise MixedRadicandError(f"sqrt({self}) is not of the form q*sqrt(u)")
        return ExactWeight(1, 1, Fraction(self.p, self.q))

    # ---- comparison (exact, via squared cross-multiplication) -------

    def _cmp(self, other: "ExactWeight") -> int:
        lhs = self.p * self.p * self.u * other.q * other.q
        rhs = other.p * other.p * other.u * self.q * self.q
        return (lhs > rhs) - (lhs < rhs)

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
        """Parse 'p/q', 'p/q*sqrt(u/v)', 'sqrt(u)' and obvious variants."""
        m = _WEIGHT_RE.match(text)
        if not m or (m.group(1) is None and m.group(3) is None):
            raise ValueError(f"not a weight literal: {text!r}")
        p = int(m.group(1)) if m.group(1) else 1
        q = int(m.group(2)) if m.group(2) else 1
        un = int(m.group(3)) if m.group(3) else 1
        ud = int(m.group(4)) if m.group(4) else 1
        if q == 0 or ud == 0:
            raise ValueError(f"zero denominator in weight literal: {text!r}")
        return cls(p, q, Fraction(un, ud))


_ZERO = ExactWeight(0)
_ONE = ExactWeight(1)

ZERO = _ZERO
ONE = _ONE


def _coerce(value) -> ExactWeight:
    if isinstance(value, ExactWeight):
        return value
    if isinstance(value, (int, Fraction)):
        return ExactWeight(Fraction(value))
    raise TypeError(f"cannot compare ExactWeight with {type(value).__name__}")


def exact_sum(values):
    """Sum ExactWeights, degrading to float when radicands mix.

    Repeated values are counted before summing, which keeps large sweeps
    over heavily shared weight objects cheap.
    """
    counts: dict[ExactWeight, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = _ZERO
    for v, c in counts.items():
        term = v if c == 1 else v * ExactWeight(c)
        if isinstance(total, float):
            total += float(term)
        else:
            try:
                total = total + term
            except MixedRadicandError:
                total = float(total) + float(term)
    return total
