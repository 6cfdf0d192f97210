"""The array view of a scheme's records, and `loads` and `verify` on it.

`slice_table` must hand out the same objects on every call, a composed
scheme having built each side once, and `loads` must equal the per-source
reference loop of `loads_reference`, on builtin, composed and generated
schemes, on both its int64 and its object-dtype paths.  A composed
scheme's rows must follow the slice keys of `compose_reference`, and its
slices, built in batches, must equal the per-entry loop there, with the
same errors, and read back from its file it must verify, weigh and share
as it does.  The batch's id packing must not wrap on int32 ids.  A
scheme's sides are its tables' sources, the same read-only arrays, and
its pair count is the number of records on each side.
Every scheme is one class, `ExplicitScheme`, and `balance` rescales its
argument's tables in place of rebuilding them from pairs.  On every kind
of scheme a side's slices name their entries by number: every number is
in range and named, and the entries are distinct by value.
"""

import operator
import random
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

import test_generated_schemes as generated
from advwb import adversary
from advwb.adversary import (
    SCHEME_NAMES,
    ExplicitScheme,
    SchemeError,
    balance,
    builtin_scheme,
    loads,
    minimax_probabilities,
    upper_certificate,
    verify,
)
from advwb.boolfn import f4, h6, nae3, or_n, parity
from advwb.compose import _Pool, _TemplateBuilder, check_corollary, compose_scheme
from advwb.weights import ONE, ExactWeight, Root
from compose_reference import assert_rows_follow_their_keys, assert_templates_match, reference_slices
from loads_reference import assert_loads_match
from scheme_records import assert_round_trips


def _every_kind(tmp_path) -> dict:
    """A scheme of each kind: builtin, unit, loaded, balanced and composed."""
    f4_base, nae3_base = balance(builtin_scheme("f4")), builtin_scheme("nae3")
    cases = {name: builtin_scheme(name) for name in ("f4", "nae3", "h6")}
    cases["balanced h6"] = balance(builtin_scheme("h6"))
    adversary.save_scheme(builtin_scheme("h6"), tmp_path / "h6.json")
    cases["loaded h6"] = adversary.load_scheme(tmp_path / "h6.json")
    cases["unit"] = adversary.unit_scheme(parity(2), (0, 3), (1, 2), [(0, 1), (3, 1), (3, 2)])
    cases["nae3 squared"] = compose_scheme(nae3_base, nae3_base)
    cases["f4 squared"] = compose_scheme(f4_base, f4_base)
    return cases


# distinct entries per side of each kind
ENTRIES = {
    "f4": 12,
    "nae3": 6,
    "h6": 21,
    "balanced h6": 21,
    "loaded h6": 21,
    "unit": 2,
    "nae3 squared": 252,
    "f4 squared": 1136,
}


def test_slices_name_distinct_entries_by_number(tmp_path):
    for name, s in _every_kind(tmp_path).items():
        for side in "ab":
            _, ids, slices, entries = s.slice_table(side)
            assert all(isinstance(sl, tuple) and sl for sl in slices), (name, side)
            # every entry number is in range and named by some slice
            assert {e for sl in slices for e in sl} == set(range(len(entries))), (name, side)
            assert len(set(entries)) == len(entries) == ENTRIES[name], (name, side)
            assert set(ids.ravel().tolist()) - {-1} == set(range(len(slices))), (name, side)
        if name == "f4 squared":
            assert [sum(map(len, s.slice_table(side)[2])) for side in "ab"] == [16896] * 2


def test_sides_are_the_table_sources(tmp_path):
    for name, s in _every_kind(tmp_path).items():
        for side, xs in (("a", s.a_side), ("b", s.b_side)):
            assert xs is s.slice_table(side)[0], (name, side)
            assert xs.dtype == np.int64 and not xs.flags.writeable, (name, side)
            assert len(xs) and (np.diff(xs) > 0).all(), (name, side)
            # the pair count is read off the A table, and every pair is one
            # record on each side
            records = sum(len(recs) for _, recs in s.sweep_pairs(side))
            assert s.pair_count == records, (name, side)


def test_f4_squared_table_is_slices_of():
    g = balance(builtin_scheme("f4"))
    c = compose_scheme(g, g)
    assert_rows_follow_their_keys(c)
    assert [len(c.slice_table(side)[2]) for side in "ab"] == [1152, 1152]


def test_nae3_squared_table_is_slices_of():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    assert_rows_follow_their_keys(c)
    assert [len(c.slice_table(side)[2]) for side in "ab"] == [144, 144]
    with pytest.raises(ValueError):
        c.slice_table("c")


@pytest.mark.parametrize(
    "build",
    [lambda: builtin_scheme("nae3"), lambda: compose_scheme(*[builtin_scheme("nae3")] * 2)],
    ids=["explicit", "composed"],
)
def test_slice_table_hands_out_the_same_objects(build):
    s = build()
    for side in "ab":
        first = s.slice_table(side)
        again = s.slice_table(side)
        assert all(a is b for a, b in zip(first, again))


def test_every_scheme_is_one_class(tmp_path):
    for name, s in _every_kind(tmp_path).items():
        assert isinstance(s, ExplicitScheme), name
        assert type(s).slice_table is ExplicitScheme.slice_table, name
        assert type(s).sweep_pairs is ExplicitScheme.sweep_pairs, name
        for side in "ab":
            first = s.slice_table(side)
            assert all(s.slice_table(side) is first for _ in range(3)), (name, side)
        assert s.a_side is s.slice_table("a")[0], name
        with pytest.raises(ValueError, match=r"^side must be 'a' or 'b', not 'c'$"):
            s.slice_table("c")


def _refuse(self, *args):
    raise AssertionError("ExplicitScheme.__init__ called")


def assert_balanced_on_tables(scheme) -> ExplicitScheme:
    """balance(scheme) keeps the scheme's sources, ids and slices objects
    and rescales each entry's triples in a new entry list by s = sqrt(v_B
    / v_A), without the pair constructor."""
    rep = loads(scheme)
    s = (rep.v_b / rep.v_a).sqrt()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExplicitScheme, "__init__", _refuse)
        bal = balance(scheme, rep)
    assert bal is not scheme and (bal.f, bal.pair_count) == (scheme.f, scheme.pair_count)
    rescale = {
        "a": lambda i, fwd, bwd: (i, fwd * s, bwd / s),
        "b": lambda i, fwd, bwd: (i, fwd / s, bwd * s),
    }
    for side in "ab":
        sources, ids, slices, entries = scheme.slice_table(side)
        got_sources, got_ids, got_slices, got_entries = bal.slice_table(side)
        assert got_sources is sources and got_ids is ids and got_slices is slices
        assert got_entries is not entries
        want = [(xor, w, tuple(rescale[side](*t) for t in diffs)) for xor, w, diffs in entries]
        assert got_entries == want, side
    after = loads(bal)
    assert after.v_a == after.v_b == rep.v_max and verify(bal) == []
    return bal


def test_balance_rescales_h6_tables():
    h6_scheme = builtin_scheme("h6")
    bal = assert_balanced_on_tables(h6_scheme)
    # the B side keeps h6's own record order, whose partners are not in the
    # increasing order that a regrouping of the A side's records gives
    order = [(y, [x for x, _, _ in recs]) for y, recs in h6_scheme.sweep_pairs("b")]
    assert [(y, [x for x, _, _ in recs]) for y, recs in bal.sweep_pairs("b")] == order
    assert order[0] == (1, [0, 41, 37, 21, 19, 11])


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated.schemes())
def test_balance_rescales_generated_tables(scheme):
    rep = loads(scheme)
    assume(rep.v_a != rep.v_b and not isinstance((rep.v_b / rep.v_a).sqrt(), Root))
    assert_balanced_on_tables(scheme)


def test_f4_squared_builds_each_side_once(monkeypatch):
    # construction builds the A side, then the B side, and verify, loads
    # and the corollary checks read those two tables
    calls = []
    build = _TemplateBuilder.build

    def counted(self, keys, blocks):
        calls.append(len(keys))
        return build(self, keys, blocks)

    monkeypatch.setattr(_TemplateBuilder, "build", counted)
    g = balance(builtin_scheme("f4"))
    c = compose_scheme(g, g)
    assert verify(c) == []
    assert loads(c, keep_maps=False).bound == ExactWeight(25, 4)
    sample = random.Random(1).sample(range(1 << 16), 4096)
    assert all(check_corollary(c, x) for x in sample)
    assert calls == [1152, 1152]


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_builtin_loads_match_the_reference(name):
    s = builtin_scheme(name)
    assert_loads_match(s)
    assert_loads_match(balance(s))
    assert_loads_match(s, keep_maps=False)


def test_nae3_squared_loads_match_the_reference():
    g = builtin_scheme("nae3")
    rep = assert_loads_match(compose_scheme(g, g))
    assert rep.bound == ExactWeight(9, 2)


def test_f4_squared_loads_match_the_reference():
    g = balance(builtin_scheme("f4"))
    rep = assert_loads_match(compose_scheme(g, g), keep_maps=False)
    assert rep.bound == ExactWeight(25, 4)


_R2, _R3 = ExactWeight.sqrt_of(2), ExactWeight.sqrt_of(3)
# a balanced base whose sums mix sqrt(2) and sqrt(3)
_ROOTS_BASE = ExplicitScheme(
    parity(2),
    [
        (0, 1, _R2, {2: (_R2, _R2)}),
        (0, 2, _R2 * ExactWeight(3), {1: (_R2 * ExactWeight(3), _R2 * ExactWeight(3))}),
        (3, 1, _R3, {1: (_R3, _R3)}),
    ],
)


# Bases of arity 2 and 3 only: a 4-bit base squares to 16 bits and up to
# 2^16 sources, seconds per example in the reference loop; f4 squared
# covers 16 bits above.  Most drawn schemes have no exact balancing factor
# and are skipped, which is the draw, not a failure.
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(generated.schemes().filter(lambda s: s.f.arity <= 3))
@example(_ROOTS_BASE)
def test_composed_generated_schemes(scheme):
    rep = loads(scheme, keep_maps=True)
    assume(not isinstance((rep.v_b / rep.v_a).sqrt(), Root))
    g = balance(scheme)
    c = compose_scheme(g, g)
    assert verify(c) == []
    assert_rows_follow_their_keys(c)
    assert_templates_match(c)
    assert_loads_match(c)
    with tempfile.TemporaryDirectory() as tmp:
        assert_round_trips(c, Path(tmp) / "c.scheme.json")


@pytest.mark.parametrize("name", ["nae3", "f4"])
def test_squared_templates_match_the_reference(name):
    g = balance(builtin_scheme(name))
    c = compose_scheme(g, g)
    assert_templates_match(c)


# primes just below 2^31: a common denominator of four of them needs ~124 bits
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)


def _pair(x: int, y: int, w: ExactWeight, scale: ExactWeight) -> tuple:
    """(x, y) with forward weights scale * w and backward weights w / scale."""
    wp = {i: (w * scale, w / scale) for i in range(1, 4) if (x ^ y) & (1 << (3 - i))}
    return x, y, w, wp


def _wide_coefficients() -> ExplicitScheme:
    """A perfect matching on 3-bit parity, one pair weight 1/p per prime.

    Forward weights are 2w and backward w/2, so v_A = 2 and v_B = 1/2 with
    exact square roots, but every lowered coefficient is a product of
    three primes, far past int64.
    """
    return ExplicitScheme(
        parity(3),
        [
            _pair(x, x ^ 1, ExactWeight(Fraction(1, p)), ExactWeight(2))
            for x, p in zip((0b000, 0b011, 0b101, 0b110), PRIMES)
        ],
    )


def _wide_sums() -> ExplicitScheme:
    """Pair weights 1/p over three primes, so each coefficient fits int64
    (below p * p' < 2^62), but 000 adds three of 1/p_0 in one slice."""
    w = [ExactWeight(Fraction(1, p)) for p in PRIMES[:3]]
    pairs = [_pair(0b000, y, w[0], ExactWeight(1)) for y in (0b001, 0b010, 0b100)]
    pairs += [_pair(0b011, 0b111, w[1], ExactWeight(1)), _pair(0b101, 0b111, w[2], ExactWeight(1))]
    return ExplicitScheme(parity(3), pairs)


@pytest.mark.parametrize(
    ("build", "v_a", "v_b"),
    [(_wide_coefficients, ExactWeight(2), ExactWeight(1, 2)), (_wide_sums, ONE, ONE)],
)
def test_loads_takes_the_object_path_past_int64(monkeypatch, build, v_a, v_b):
    dtypes = []

    class Spy(adversary._Lowered):
        def __init__(self, *args):
            super().__init__(*args)
            dtypes.append(self.rows.dtype)

    monkeypatch.setattr(adversary, "_Lowered", Spy)
    s = build()
    assert verify(s) == []
    rep = assert_loads_match(s)
    assert dtypes == [object]
    assert (rep.v_a, rep.v_b) == (v_a, v_b)
    assert_loads_match(s, keep_maps=False)
    # the builtins stay on int64
    loads(builtin_scheme("nae3"), keep_maps=True)
    assert dtypes[-1] == "int64"


@pytest.mark.parametrize(
    ("name", "f", "bound"),
    [("f4", f4(), ExactWeight(5, 2)), ("nae3", nae3(), ExactWeight(3, 2, 2))],
)
def test_upper_certificate_meets_the_builtin_bound(name, f, bound):
    cert = upper_certificate(f, minimax_probabilities(name))
    assert cert == bound
    assert cert == loads(builtin_scheme(name), keep_maps=False).bound


def test_upper_certificate_bounds_every_scheme_of_its_function():
    # a weaker scheme for the same function stays below the certificate
    g = builtin_scheme("nae3")
    pairs = [
        (x, y, w, {i: (fwd, bwd) for i, fwd, bwd in diffs})
        for x, records in g.sweep_pairs("a")
        for y, w, diffs in records
        if (x ^ y).bit_count() == 1
    ]
    weaker = ExplicitScheme(g.f, pairs)
    assert verify(weaker) == []
    cert = upper_certificate(nae3(), minimax_probabilities("nae3"))
    assert loads(weaker, keep_maps=True).bound <= cert


def test_upper_certificate_refuses_bad_probabilities():
    p = minimax_probabilities("f4")
    p[5] = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 10), Fraction(2, 10)]
    with pytest.raises(SchemeError, match="input 5: probabilities sum to 11/10, past 1"):
        upper_certificate(f4(), p)
    p[5] = [Fraction(-1, 10)] + [Fraction(1, 10)] * 3
    with pytest.raises(SchemeError, match="negative probability -1/10"):
        upper_certificate(f4(), p)
    with pytest.raises(SchemeError, match="exact"):
        upper_certificate(f4(), [[0.25] * 4] * 16)
    with pytest.raises(SchemeError, match="each of the 16 inputs"):
        upper_certificate(f4(), minimax_probabilities("f4")[:8])
    with pytest.raises(SchemeError, match="no finite bound"):
        upper_certificate(h6(), [[1, 0, 0, 0, 0, 0]] * 64)


def _mixed_ratios() -> ExplicitScheme:
    """A balanced or2 scheme (v_A = v_B = 1) with fwd/bwd ratios 1, 2 and
    sqrt(2).

    Composing it with itself multiplies sqrt(2) by 1 or 2 in some
    templates, a ratio product with no exact square root.  Outer pairs
    differ in one block or in two, so one batch mixes both kinds of
    template: on the A side the first template, a two-block one, fails on
    sqrt(2), and the first one-block template on 2*sqrt(2).
    """
    return ExplicitScheme(
        or_n(2),
        [
            (0b00, 0b11, ONE, {1: (ONE, ONE), 2: (ExactWeight(1, 1, 2), ONE)}),
            (0b00, 0b10, ONE, {1: (ExactWeight(2), ONE)}),
            (0b00, 0b01, ONE, {2: (ONE, ONE)}),
        ],
    )


def _error(build) -> str | None:
    """The message of the SchemeError build() raises, or None."""
    try:
        build()
    except SchemeError as exc:
        return str(exc)
    return None


def test_template_errors_match_the_reference():
    s = _mixed_ratios()
    rep = loads(s, keep_maps=True)
    assert (rep.v_a, rep.v_b) == (ONE, ONE)
    # construction builds the A side first, and a composed pair's ratio
    # products on the B side are the reciprocals of its A-side ones, so the
    # B side fails exactly when the A side does and is never reached
    factors = types.SimpleNamespace(n=s.f.arity, m=s.f.arity, outer=s, inner=s)
    want = _error(lambda: reference_slices(factors, "a"))
    assert want is not None and "has no exact square root" in want
    assert _error(lambda: compose_scheme(s, s)) == want


def test_pool_packs_narrow_ids_in_int64():
    # int32 ids shifted by 32 in their own type would wrap: (3, 1) and (0, 1)
    # would share one key and one product
    pools = []
    for dtype in (np.int64, np.int32):
        pool = _Pool()
        for k in range(1, 7):
            pool.id(ExactWeight(k))
        a = np.array([3, 0, 5, 2, 3], dtype=dtype)
        b = np.array([1, 1, 4, 2, 1], dtype=dtype)
        out = pool.apply(operator.mul, a, b)
        pools.append([pool.values[k] for k in out.tolist()])
    assert pools[0] == pools[1] == [ExactWeight(k) for k in (8, 2, 30, 9, 8)]


def test_number_rows_packs_narrow_columns_in_int64():
    # 2048 * 2^21 wraps to 0 in int32, which would merge the two rows
    first = np.array([2048, 0], dtype=np.int32)
    second = np.array([0, 0], dtype=np.int32)
    ids, _ = adversary._number_rows([first, second], [4096, 1 << 21])
    assert ids.tolist() == [1, 0]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_number_rows_matches_np_unique(dtype):
    rng = np.random.default_rng(3)
    # few distinct values, so most rows tie with an earlier one
    cols = [rng.integers(0, r, 5000).astype(dtype) for r in (7, 3, 5)]
    ids, first = adversary._number_rows(cols, [7, 3, 5])
    code = (cols[0].astype(np.int64) * 3 + cols[1]) * 5 + cols[2]
    _, want_first, want_ids = np.unique(code, return_index=True, return_inverse=True)
    assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first)
    assert ids.dtype == want_ids.dtype and first.dtype == want_first.dtype
    # renumbered between columns: 2^40 * 2^40 does not fit the int64 code
    wide = [rng.integers(0, 1 << 40, 5000) >> 37, rng.integers(0, 9, 5000).astype(dtype)]
    ids, first = adversary._number_rows(wide, [1 << 40, 1 << 40])
    _, want_first, want_ids = np.unique(wide[0] * 9 + wide[1], return_index=True, return_inverse=True)
    assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first)
    # a first column of Python ints, as `_distinct` passes coefficients past int64
    big = np.array([10**30, 5, 10**30, -(10**30), 5, 7], dtype=object)
    ids, first = adversary._number_rows([big], [1 << 62])
    assert ids.tolist() == [3, 1, 3, 0, 1, 2] and first.tolist() == [3, 1, 5, 0]
