"""Generated valid schemes as an oracle for verify, files, loads, balance and sweeps.

The strategy builds an ExplicitScheme on a random function of arity 2-4: a
relation between some 0- and some 1-inputs, and directional weights that
meet w'(x,y,i) * w'(y,x,i) >= w^2 either with equality (tight) or with room
to spare (slack).  Weights are rationals, some multiplied by sqrt(2), sqrt(3)
or sqrt(6), so one source's sums can mix radicands.  The first pair is always
tight, so every scheme has a constraint that halving one weight breaks.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from advwb.adversary import (
    ExplicitScheme,
    LoadReport,
    SchemeError,
    balance,
    load_scheme,
    loads,
    save_scheme,
    verify,
)
from advwb.boolfn import BooleanFunction, var_bit
from advwb.weights import ONE, ZERO, ExactWeight, Root
from loads_reference import assert_loads_match
from scheme_records import assert_rescaled, assert_sides_agree, pair_table

# `loads` and `balance` take exact square roots, which factor radicands by
# trial division up to their cube root; that stays fast for numerators and
# denominators up to about 10^18, far above what these draws multiply to.
rationals = st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6)
radicals = st.sampled_from([1, 1, 2, 3, 6]).map(lambda u: ExactWeight(1, 1, u))
weights = st.builds(lambda r, s: ExactWeight.of(r) * s, rationals, radicals)
slacks = st.fractions(min_value=1, max_value=4, max_denominator=6).map(ExactWeight.of)


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
                slack = ONE if tight else draw(slacks)
                wp[i] = (fwd, w * w / fwd * slack)
        pairs.append((x, y, w, wp))
    return ExplicitScheme(f, pairs)


def reference_loads(scheme) -> LoadReport:
    """`loads` as plain sums, quotients and maxima over the swept records.

    v_max and bound are left out: they are checked through their squares.
    """
    wt, v, side_max = {}, {}, {}
    for side in "ab":
        for x, records in scheme.sweep_pairs(side):
            wt[x] = ZERO
            for _, w, diffs in records:
                wt[x] += w
                for i, fwd, _ in diffs:
                    v[(x, i)] = v.get((x, i), ZERO) + fwd
            load = max(v[(x, i)] / wt[x] for i in range(1, scheme.f.arity + 1) if (x, i) in v)
            side_max[side] = max(side_max.get(side, load), load)
    return LoadReport(
        v_a=side_max["a"],
        v_b=side_max["b"],
        v_max=None,
        bound=None,
        wt_min=min(wt.values()),
        wt_max=max(wt.values()),
        v_lo=min(v.values()),
        v_hi=max(v.values()),
        wt=wt,
        v=v,
    )


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

    # every loads field matches the record-level sums, exactly
    rep = loads(scheme, keep_maps=True)
    want = reference_loads(scheme)
    assert rep.v_max**2 == rep.v_a * rep.v_b
    assert rep.bound**2 * rep.v_a * rep.v_b == ONE
    want.v_max, want.bound = rep.v_max, rep.bound
    assert rep == want
    # and the per-source loop `loads` ran before its array view, key order too
    assert_loads_match(scheme)

    # balance keeps the bound, every w and every fwd * bwd when the factor
    # sqrt(v_B / v_A) is exact, which needs a rational v_B / v_A
    if isinstance((rep.v_b / rep.v_a).sqrt(), Root):
        with pytest.raises(SchemeError, match="no exact square root"):
            balance(scheme, rep)
    else:
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
