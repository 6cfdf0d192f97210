"""Generated valid schemes as an oracle for verify, files, balance and sweeps.

The strategy builds an ExplicitScheme with rational weights on a random
function of arity 2-4: a relation between some 0- and some 1-inputs, and
directional weights that meet w'(x,y,i) * w'(y,x,i) >= w^2 either with
equality (tight) or with room to spare (slack).  The first pair is always
tight, so every scheme has a constraint that halving one weight breaks.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from advwb.adversary import (
    ExplicitScheme,
    balance,
    load_scheme,
    loads,
    save_scheme,
    verify,
)
from advwb.boolfn import BooleanFunction, var_bit
from advwb.weights import ExactWeight
from scheme_records import assert_rescaled, assert_sides_agree, pair_table

# Small rationals: `loads` takes exact square roots by trial-division
# factoring (`weights.squarefree_split`), which does not finish on weights
# with large prime factors, such as a 19-digit prime.
weights = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
slacks = st.fractions(min_value=1, max_value=4, max_denominator=6)


@st.composite
def schemes(draw) -> ExplicitScheme:
    n = draw(st.integers(min_value=2, max_value=4))
    size = 1 << n
    # any table with at least one 0-input and one 1-input
    bits = format(draw(st.integers(min_value=1, max_value=(1 << size) - 2)), f"0{size}b")
    f = BooleanFunction.from_bits(bits)
    zeros = [x for x in range(size) if bits[x] == "0"]
    ones = [y for y in range(size) if bits[y] == "1"]
    relation = draw(
        st.lists(
            st.tuples(st.sampled_from(zeros), st.sampled_from(ones)),
            min_size=1,
            max_size=16,
            unique=True,
        )
    )
    pairs = []
    for k, (x, y) in enumerate(relation):
        w = draw(weights)
        tight = k == 0 or draw(st.booleans())
        wp = {}
        for i in range(1, n + 1):
            if (x ^ y) & var_bit(n, i):
                fwd = draw(weights)
                slack = 1 if tight else draw(slacks)
                wp[i] = (fwd, w * w / fwd * slack)
        pairs.append((x, y, w, wp))
    return ExplicitScheme(f, pairs)


@settings(max_examples=100, deadline=None)
@given(schemes())
def test_generated_scheme_properties(scheme):
    assert verify(scheme) == []

    # pair_count equals the records swept on each side, and the two sides
    # sweep the same pairs with the same weights
    table = assert_sides_agree(scheme)
    for side in "ab":
        assert sum(len(records) for _, records in scheme.sweep_pairs(side)) == scheme.pair_count

    # records on both sides survive a file round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.scheme.json"
        save_scheme(scheme, path)
        back = load_scheme(path)
    assert back.f == scheme.f
    for side in "ab":
        assert pair_table(back, side) == pair_table(scheme, side)

    # balance keeps the bound, every w and every fwd * bwd; with rational
    # loads the factor sqrt(v_B / v_A) has one radicand, so all stays exact
    rep = loads(scheme, keep_maps=False)
    bal = balance(scheme, rep)
    after = loads(bal, keep_maps=False)
    assert after.v_a == after.v_b == rep.v_max
    assert after.bound == rep.bound
    assert verify(bal) == []
    assert_rescaled(scheme, bal)

    # halving the forward weight of one tight constraint makes verify fail
    # there and nowhere else
    x, y, i = next(
        (x, y, i)
        for (x, y), (w, coords) in table.items()
        for i, (fwd, bwd) in coords.items()
        if fwd * bwd == w * w
    )
    broken = []
    for (a, b), (w, coords) in table.items():
        wp = dict(coords)
        if (a, b) == (x, y):
            fwd, bwd = wp[i]
            wp[i] = (fwd * ExactWeight(1, 2), bwd)
        broken.append((a, b, w, wp))
    violations = verify(ExplicitScheme(scheme.f, broken))
    assert [(v.kind, v.x, v.y, v.i) for v in violations] == [("constraint", x, y, i)]
