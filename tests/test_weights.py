"""Exact radical-weight arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from advwb.weights import ONE, ZERO, ExactWeight, Root, exact_sum, squarefree_split

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 30), max_value=Fraction(50), max_denominator=30
)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 13, 39])


@st.composite
def sums(draw):
    """A signed sum of a few (a/b)*sqrt(u) terms, possibly zero."""
    total = ZERO
    for a, u in draw(st.lists(st.tuples(rationals, radicands), max_size=4)):
        term = ExactWeight(abs(a.numerator), a.denominator, u)
        total = total - term if a < 0 else total + term
    return total


def w(p, q=1, u=1):
    return ExactWeight(p, q, u)


def test_canonical_form():
    assert w(4, 8) == w(1, 2)
    assert str(w(4, 8)) == "1/2"
    assert str(w(3)) == "3"
    assert str(w(1, 2, 39)) == "1/2*sqrt(39)"
    assert str(w(1, 1, 2)) == "sqrt(2)"
    assert str(ZERO) == "0"


def test_radicand_squarefree_reduction():
    # sqrt(8) = 2 sqrt(2); the constructor normalizes through Fraction input
    assert ExactWeight.sqrt_of(Fraction(8)) == w(2, 1, 2)
    assert ExactWeight.sqrt_of(Fraction(9, 4)) == w(3, 2)
    assert ExactWeight.sqrt_of(Fraction(9, 2)) == w(3, 2, 2)
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(1) == (1, 1)


@pytest.mark.parametrize(
    "n, want",
    [
        (1000003, (1, 1000003)),
        (1000003**2, (1000003, 1)),
        (1000003 * 1000033, (1, 1000003 * 1000033)),
        (12 * 1000033**2, (2 * 1000033, 3)),
        (10**18 + 3, (1, 10**18 + 3)),
        ((10**9 + 7) ** 2, (10**9 + 7, 1)),
    ],
)
def test_squarefree_split_of_large_primes(n, want):
    # trial division up to the cube root leaves p, p*p or p*q, told apart exactly
    assert squarefree_split(n) == want


def test_multiplication_merges_radicands():
    assert w(1, 1, 2) * w(1, 1, 2) == w(2)
    assert w(1, 1, 2) * w(1, 1, 3) == w(1, 1, 6)
    assert w(2, 3, 2) * w(3, 4, 6) == w(1, 1, 3)
    assert w(5, 2) * ZERO == ZERO


def test_division_and_pow():
    assert w(3, 2, 2) / w(1, 1, 2) == w(3, 2)
    assert (w(5, 2) ** 5) == w(3125, 32)
    assert (w(1, 1, 2) ** 2) == w(2)
    with pytest.raises(ZeroDivisionError):
        w(1) / ZERO


def test_addition_is_exact_across_radicands():
    assert w(1, 3, 2) + w(2, 3, 2) == w(1, 1, 2)
    assert w(1, 2) + w(1, 2) == ONE
    assert ZERO + w(7, 1, 5) == w(7, 1, 5)
    mixed = w(1, 1, 2) + w(1, 2, 3)
    assert str(mixed) == "sqrt(2) + 1/2*sqrt(3)"
    assert mixed - w(1, 1, 2) == w(1, 2, 3)
    assert str(ONE - w(1, 1, 2)) == "1 - sqrt(2)"
    assert str(w(1, 1, 2) - w(3)) == "-3 + sqrt(2)"
    with pytest.raises(ValueError):  # weights are nonnegative
        ExactWeight.of(ONE - w(1, 1, 2))
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2), and division undoes it
    one_r2 = ONE + w(1, 1, 2)
    assert one_r2 * one_r2 == w(3) + w(2, 1, 2)
    assert (w(3) + w(2, 1, 2)) / one_r2 == one_r2
    assert ONE / (w(1, 1, 2) + w(1, 1, 3) + w(1, 1, 5)) * (
        w(1, 1, 2) + w(1, 1, 3) + w(1, 1, 5)
    ) == ONE


def test_comparison_crosses_radicands():
    # sqrt(2) < 3/2 < sqrt(3), decided by squaring, not floats
    assert w(1, 1, 2) < w(3, 2) < w(1, 1, 3)
    assert w(2, 39, 39) == ExactWeight.sqrt_of(Fraction(4, 39))
    assert not w(5, 2) < w(5, 2)
    assert w(5, 2) <= w(5, 2)
    # sums within 1e-11 of each other: convergents of sqrt(2) from both sides
    below, above = w(275807, 195025), w(665857, 470832)
    assert ONE + below < ONE + w(1, 1, 2) < ONE + above
    assert (below - w(1, 1, 2)) * (above - w(1, 1, 2)) < ZERO


def test_parse_round_trip():
    for s in ["0", "3", "5/2", "1/2*sqrt(39)", "sqrt(2)", "100000/243"]:
        assert str(ExactWeight.parse(s)) == s
    for s in ["1 + sqrt(2)", "2 - sqrt(2)", "-1 + sqrt(2)", "1/2 + sqrt(2) + 1/3*sqrt(6)"]:
        assert str(ExactWeight.parse(s)) == s
    assert ExactWeight.parse(str(ONE + ExactWeight.sqrt_of(2))) == ONE + w(1, 1, 2)
    for bad in ["banana", "1/0", "1 +", "+", "1 - -1", "1 + + 2", "sqrt(2)sqrt(3)"]:
        with pytest.raises(ValueError, match="weight literal"):
            ExactWeight.parse(bad)
    for negative in ["-1", "- sqrt(2)", "1 - sqrt(2)", "-1/2*sqrt(3) + 1/2*sqrt(2)"]:
        with pytest.raises(ValueError, match="^negative weight literal"):
            ExactWeight.parse(negative)


@given(sums())
def test_parse_reads_what_str_prints(x):
    if x < ZERO:
        with pytest.raises(ValueError, match="^negative weight literal"):
            ExactWeight.parse(str(x))
    else:
        assert ExactWeight.parse(str(x)) == x


def test_squared_and_rational():
    assert w(3, 2, 2).squared() == Fraction(9, 2)
    assert w(5, 3).rational == Fraction(5, 3)
    with pytest.raises(ValueError):
        _ = w(1, 1, 2).rational
    with pytest.raises(ValueError):
        _ = (ONE + w(1, 1, 2)).squared()


def test_sqrt_is_exact_or_a_root():
    assert w(9, 2).sqrt() == w(3, 2, 2)
    root = (ONE + w(1, 1, 2)).sqrt()
    assert isinstance(root, Root) and str(root) == "sqrt(1 + sqrt(2))"
    assert root.square == ONE + w(1, 1, 2)
    assert root == Root(ONE + w(1, 1, 2)) and root != ONE
    assert Root(w(3) + w(2, 1, 2)) == ONE + w(1, 1, 2)
    assert abs(float(root) - (1 + 2**0.5) ** 0.5) < 1e-12
    assert root**2 == ONE + w(1, 1, 2) and root**3 == Root((ONE + w(1, 1, 2)) ** 3)
    with pytest.raises(ValueError):
        (ONE - w(1, 1, 2)).sqrt()


def test_decimal_places():
    assert w(5, 2).decimal(6) == "2.500000"
    assert w(1, 2, 39).decimal(6) == "3.122499"


@given(positive_rationals, positive_rationals, radicands)
def test_mul_div_round_trip(a, b, u):
    x = ExactWeight(a.numerator, a.denominator, u)
    y = ExactWeight(b.numerator, b.denominator)
    assert (x * y) / y == x
    assert (x / y) * y == x


@given(positive_rationals, positive_rationals, radicands, radicands)
def test_order_matches_floats(a, b, u1, u2):
    x = ExactWeight(a.numerator, a.denominator, u1)
    y = ExactWeight(b.numerator, b.denominator, u2)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)


@given(positive_rationals, radicands)
def test_sqrt_of_squared_is_identity(a, u):
    x = ExactWeight(a.numerator, a.denominator, u)
    assert ExactWeight.sqrt_of(x.squared()) == x


@given(st.lists(st.tuples(positive_rationals, radicands), min_size=1, max_size=12))
def test_exact_sum_matches_float_sum(items):
    vals = [ExactWeight(a.numerator, a.denominator, u) for a, u in items]
    total = exact_sum(vals)
    assert abs(float(total) - sum(float(v) for v in vals)) < 1e-9


def test_exact_sum_counts_duplicates_exactly():
    vals = [w(2, 3)] * 1000 + [w(1, 3)] * 500
    assert exact_sum(vals) == w(2500, 3)
    mixed = [w(1, 1, 2)] * 4 + [w(1, 1, 3)] * 9
    assert exact_sum(mixed) == w(4, 1, 2) + w(9, 1, 3)
    assert str(exact_sum(mixed)) == "4*sqrt(2) + 9*sqrt(3)"


def test_zero_and_one_constants():
    assert ZERO.is_zero and not ONE.is_zero
    assert ONE * w(7, 3, 5) == w(7, 3, 5)


def test_sqrt_of_zero_is_zero():
    assert ExactWeight.sqrt_of(0) == ZERO
    assert ExactWeight.sqrt_of(Fraction(0, 7)).is_zero
    with pytest.raises(ValueError):
        ExactWeight.sqrt_of(Fraction(-1, 4))


@given(sums(), sums())
def test_sum_arithmetic_round_trips(x, y):
    assert x - x == ZERO
    assert (x + y) - y == x
    if not y.is_zero:
        assert (x / y) * y == x
        assert (x * y) / y == x


@given(sums(), sums())
def test_sum_order_matches_floats(x, y):
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
    assert (x <= y) != (x > y)
    # exact ties: (x + y)^2 against its expansion
    square, expanded = (x + y) * (x + y), x * x + ExactWeight(2) * x * y + y * y
    assert square == expanded and square <= expanded and not square < expanded


@given(sums(), sums())
def test_equal_sums_hash_equally(x, y):
    assert hash(x * y) == hash(y * x) and x * y == y * x
    assert hash(x + y) == hash(y + x) and x + y == y + x
    assert hash((x + y) - y) == hash(x)
