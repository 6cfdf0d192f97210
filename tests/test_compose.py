"""Composed schemes for iterated functions."""

import random
import re
from collections import OrderedDict

import pytest

from advwb import cli, compose, qsim
from advwb.adversary import (
    VIOLATION_CAP,
    LoadReport,
    SchemeError,
    TableSweeps,
    Violation,
    _Lowered,
    balance,
    builtin_scheme,
    load_scheme,
    loads,
    save_scheme,
    unit_scheme,
    verify,
)
from advwb.boolfn import ArityError, f4, iterate, nae3, or_n, var_bit
from advwb.compose import (
    ComposedScheme,
    block_index,
    check_claim1,
    check_claim2,
    check_corollary,
    compose_scheme,
    predicted_bound,
)
from advwb.weights import ONE, ZERO, ExactWeight, exact_sum
from scheme_records import assert_round_trips, assert_sides_agree, pair_table, source_slices


def test_block_index():
    assert block_index(1, 4, 2) == (1, 1)
    assert block_index(4, 4, 2) == (1, 4)
    assert block_index(5, 4, 2) == (2, 1)
    assert block_index(16, 4, 2) == (4, 4)
    assert block_index(7, 3, 2) == (3, 1)
    with pytest.raises(ValueError):
        block_index(0, 4, 2)
    with pytest.raises(ValueError):
        block_index(17, 4, 2)
    with pytest.raises(ValueError):
        block_index(1, 4, 0)


def test_compose_rejects_mismatched_schemes():
    with pytest.raises(SchemeError):
        compose_scheme(builtin_scheme("f4"), builtin_scheme("nae3"))
    with pytest.raises(SchemeError):
        compose_scheme(builtin_scheme("nae3"), builtin_scheme("f4"))


def test_compose_rejects_unbalanced_input():
    from advwb.adversary import ExplicitScheme
    from advwb.weights import ONE

    lopsided = ExplicitScheme(nae3(), [(0, 1, ONE, {3: (ExactWeight(2), ONE)})])
    assert verify(lopsided) == []
    with pytest.raises(SchemeError, match="balance"):
        compose_scheme(lopsided, lopsided)


def test_compose_rejects_zero_directional_weights():
    from advwb.adversary import ExplicitScheme

    pairs = [
        (0, 1, 1, {3: (1, 0)}),
        (0, 2, 1, {2: (1, 1)}),
        (7, 6, 1, {3: (1, 1)}),
        (7, 5, 1, {2: (1, 1)}),
        (7, 1, 1, {1: (1, 1), 2: (1, 1)}),
    ]
    b = balance(ExplicitScheme(nae3(), pairs))
    rep = loads(b, keep_maps=True)
    assert rep.v_a == rep.v_b
    assert [(v.kind, v.x, v.y, v.i) for v in verify(b)] == [("directional", 0, 1, 3)]
    # refused as the outer factor and as the inner one
    message = "pair (0, 1) has a zero directional weight at coordinate 3"
    g = balance(builtin_scheme("nae3"))
    for outer, inner in ((b, b), (b, g), (g, b)):
        with pytest.raises(SchemeError, match=f"^{re.escape(message)}$"):
            compose_scheme(outer, inner)


def test_compose_arity_cap():
    bal = balance(builtin_scheme("h6"))
    with pytest.raises(ArityError):
        compose_scheme(bal, bal)  # 36 variables


def test_nae3_squared_full():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    assert c.depth == 2
    assert c.arity == 9
    assert c.f == iterate(nae3(), 2)
    assert len(c.a_side) == 224 and len(c.b_side) == 288
    assert c.pair_count == 4896
    assert c.pair_count == sum(len(records) for _, records in c.sweep_pairs("a"))
    assert_sides_agree(c)
    assert verify(c) == []
    rep = loads(c, keep_maps=False)
    assert rep.bound == ExactWeight(9, 2)
    assert rep.bound == predicted_bound(g, 2)
    assert c.predicted_bound == ExactWeight(9, 2)


def _nae3_pattern(x: int) -> int:
    tab = nae3().table
    return (tab[(x >> 6) & 7] << 2) | (tab[(x >> 3) & 7] << 1) | tab[x & 7]


def test_nae3_squared_claims():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    for x in c.a_side.tolist() + c.b_side.tolist():
        assert check_corollary(c, x)


def test_corollary_reads_the_swept_templates():
    from advwb.adversary import Slice

    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    assert verify(c) == []
    slices = c.slice_table("a")[2]
    doubled = tuple((xor, w * ExactWeight(2), diffs) for xor, w, diffs in slices[0].entries)
    slices[0] = Slice(doubled)
    assert not all(check_corollary(c, x) for x in c.a_side.tolist() + c.b_side.tolist())
    assert verify(c)


def _all_slices(c: ComposedScheme) -> list:
    return c.slice_table("a")[2] + c.slice_table("b")[2]


@pytest.mark.parametrize("name", ["nae3", "f4"])
def test_slice_sums_match_their_records(name):
    g = balance(builtin_scheme(name))
    c = compose_scheme(g, g)
    slices = _all_slices(c)
    assert len(slices) == {"nae3": 288, "f4": 2304}[name]
    # loads' integer sums of each slice, wt in column 0 and v(i) in column i
    low = _Lowered(slices, c.arity, 1)
    for k, sl in enumerate(slices):
        wt, v = ZERO, {}
        for _, w, diffs in sl.entries:
            wt = wt + w
            for i, fwd, _ in diffs:
                v[i] = v.get(i, ZERO) + fwd
        assert sl.wt == wt
        assert low.value(low.rows[k, 0]) == wt
        lowered = {i: low.value(low.rows[k, i]) for i in low.coords[k]}
        assert lowered == v and list(lowered) == list(v)
        assert [i for i in range(1, c.arity + 1) if low.terms[k, i]] == sorted(v)


def test_loads_matches_a_record_level_reference():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    wt, v, side_max = {}, {}, {}
    for side in ("a", "b"):
        side_max[side] = ZERO
        for x, records in c.sweep_pairs(side):
            wt[x] = ZERO
            for _, w, diffs in records:
                wt[x] += w
                for i, fwd, _ in diffs:
                    v[(x, i)] = v.get((x, i), ZERO) + fwd
            for i in range(1, c.arity + 1):
                if (x, i) in v:
                    side_max[side] = max(side_max[side], v[(x, i)] / wt[x])
    v_max = (side_max["a"] * side_max["b"]).sqrt()
    want = LoadReport(
        v_a=side_max["a"],
        v_b=side_max["b"],
        v_max=v_max,
        bound=ONE / v_max,
        wt_min=min(wt.values()),
        wt_max=max(wt.values()),
        v_lo=min(v.values()),
        v_hi=max(v.values()),
        wt=wt,
        v=v,
    )
    assert loads(c, keep_maps=True) == want
    assert want.bound == ExactWeight(9, 2)


def _reference_violations(scheme) -> list:
    """verify's pair checks as a plain loop over the swept records."""
    out = []
    for x, records in scheme.sweep_pairs("a"):
        for y, w, diffs in records:
            if w.is_zero:
                out.append(Violation("weight", x, y, None, "pair weight is zero"))
                continue
            for i, fwd, bwd in diffs:
                if fwd * bwd < w * w or fwd.is_zero or bwd.is_zero:
                    kind = "directional" if fwd.is_zero or bwd.is_zero else "constraint"
                    message = f"w'*w' = {fwd * bwd} < w^2 = {w * w}"
                    out.append(Violation(kind, x, y, i, message))
            if sum(var_bit(scheme.arity, i) for i, _, _ in diffs) != x ^ y:
                message = "directional weights do not cover exactly the differing coordinates"
                out.append(Violation("coverage", x, y, None, message))
    return out


@pytest.mark.parametrize("corruption", ["scale", "drop"])
def test_verify_reports_what_a_record_level_check_reports(corruption):
    from advwb.adversary import Slice

    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    assert verify(c) == [] == _reference_violations(c)
    slices = c.slice_table("a")[2]
    (xor, w, diffs), *rest = slices[0].entries
    if corruption == "scale":
        # nae3 squared is tight, so a halved forward weight breaks w'*w' >= w^2
        i, fwd, bwd = diffs[0]
        diffs = ((i, fwd * ExactWeight(1, 2), bwd),) + diffs[1:]
    else:
        diffs = diffs[1:]
    slices[0] = Slice(((xor, w, diffs), *rest))
    want = _reference_violations(c)
    kind = "constraint" if corruption == "scale" else "coverage"
    assert want and {v.kind for v in want} == {kind}
    assert verify(c, limit=len(want) + 1) == want
    assert verify(c) == want[:VIOLATION_CAP]
    assert verify(c, limit=1) == want[:1]


def _ratio_tables(scheme) -> dict:
    """source -> partner -> (w, {i: fwd / bwd}), from both sides' records."""
    out: dict = {}
    for side in "ab":
        for (x, y), (w, coords) in pair_table(scheme, side).items():
            ratios = {i: fwd / bwd for i, (fwd, bwd) in coords.items()}
            out.setdefault(x, {})[y] = (w, ratios)
    return out


class _Reference:
    """Composed pair records rebuilt from the outer and inner schemes' records.

    For a pair (x, y) with block patterns (p, z): w = the outer w(p, z)
    times the inner w of the blocks where p and z differ times the inner
    wt of the blocks where they agree.  At coordinate (j, i2) the forward
    weight is w * sqrt(r1 * r2) and the backward weight w / sqrt(r1 * r2),
    with r1 the outer fwd/bwd ratio at j and r2 the inner one at i2.
    """

    def __init__(self, c: ComposedScheme):
        self.n, self.m, self.table = c.n, c.m, c.inner.f.table
        self.outer, self.inner = _ratio_tables(c.outer), _ratio_tables(c.inner)
        self.inner_wt = {
            u: exact_sum([w for w, _ in partners.values()])
            for u, partners in self.inner.items()
        }

    def blocks(self, x: int) -> list[int]:
        mask = (1 << self.m) - 1
        return [(x >> ((self.n - 1 - j) * self.m)) & mask for j in range(self.n)]

    def pattern(self, x: int) -> int:
        return sum(self.table[u] << (self.n - 1 - j) for j, u in enumerate(self.blocks(x)))

    def record(self, x: int, y: int):
        """(w, {i: (fwd, bwd)}) of the composed pair (x, y)."""
        w, r_outer = self.outer[self.pattern(x)][self.pattern(y)]
        roots = {}
        for j, (u, v) in enumerate(zip(self.blocks(x), self.blocks(y)), start=1):
            if j not in r_outer:
                assert u == v, f"pair ({x}, {y}) differs where its patterns agree"
                w = w * self.inner_wt[u]
                continue
            w_inner, r_inner = self.inner[u][v]
            w = w * w_inner
            for i2, r2 in r_inner.items():
                roots[(j - 1) * self.m + i2] = (r_outer[j] * r2).sqrt()
        return w, {i: (w * s, w / s) for i, s in roots.items()}


def _swept(c: ComposedScheme, sources) -> dict:
    """(x, y) -> (w, {i: (fwd, bwd)}) over the pairs of the given sources,
    read from both sides' sweeps."""
    wanted = set(sources)
    out = {}
    for side in "ab":
        for x, slices in source_slices(c, side):
            if x in wanted:
                for sl in slices:
                    for xor, w, diffs in sl.entries:
                        out[(x, x ^ xor)] = (w, {i: (fwd, bwd) for i, fwd, bwd in diffs})
    return out


def _sample_pairs(c: ComposedScheme, ref: _Reference, rng: random.Random, count: int):
    """(x, z, y): a composed pair built from the outer and inner relations,
    with z the block pattern of y."""
    n, m = c.n, c.m
    out = []
    for x in rng.sample(c.a_side.tolist() + c.b_side.tolist(), count):
        p = ref.pattern(x)
        z = rng.choice(list(ref.outer[p]))
        y = 0
        for j, u in enumerate(ref.blocks(x)):
            differs = (p ^ z) >> (n - 1 - j) & 1
            y = (y << m) | (rng.choice(list(ref.inner[u])) if differs else u)
        out.append((x, z, y))
    return out


@pytest.mark.parametrize("name", ["nae3", "f4"])
def test_claim2_sampled(name):
    g = balance(builtin_scheme(name))
    c = compose_scheme(g, g)
    ref = _Reference(c)
    sample = _sample_pairs(c, ref, random.Random(7), 50)
    swept = _swept(c, [x for x, _, _ in sample])
    for x, z, y in sample:
        # a pair of the composed relation, with the weights the factors give
        assert swept[(x, y)] == ref.record(x, y)
        for i in range(1, c.arity + 1):
            if (x ^ y) & var_bit(c.arity, i):
                assert check_claim2(c, x, z, i)


def _claim2_unmemoized(c: ComposedScheme, x: int, z: int, i: int) -> bool:
    """check_claim2 without its memo: the groups of the slice, every call."""
    p, _, slices = compose._source(c, x, z)
    i1, _ = block_index(i, c.n, c.depth)
    r1 = dict(c._o_pairs[(p, z)][1]).get(i1)
    if r1 is None:
        raise SchemeError(f"patterns agree in block {i1}")
    outside = ~(((1 << c.m) - 1) << ((c.n - i1) * c.m))
    groups: dict = {}
    for xor, w, diffs in slices[z].entries:
        v_terms, w_terms = groups.setdefault(xor & outside, ([], []))
        w_terms.append(w)
        v_terms.extend(fwd for j, fwd, _ in diffs if j == i)
    bound_factor = c.inner_vmax * compose._sqrt_product(r1, ONE)
    for v_terms, w_terms in groups.values():
        if v_terms and exact_sum(v_terms) > bound_factor * exact_sum(w_terms):
            return False
    return True


@pytest.mark.parametrize("name", ["nae3", "f4"])
def test_claim2_memo_matches_an_unmemoized_check(name):
    g = balance(builtin_scheme(name))
    c = compose_scheme(g, g)
    rng = random.Random(3)
    sources = rng.sample(c.a_side.tolist(), 24) + rng.sample(c.b_side.tolist(), 24)
    for _ in range(2):  # the second round reads the memo
        for x in sources:
            for z in compose._source(c, x)[2]:
                for i in range(1, c.arity + 1):
                    try:
                        want = _claim2_unmemoized(c, x, z, i)
                    except SchemeError as exc:
                        with pytest.raises(SchemeError, match=f"^{re.escape(str(exc))}$"):
                            check_claim2(c, x, z, i)
                    else:
                        assert check_claim2(c, x, z, i) is want
    assert c._claim2 and all(c._claim2.values())


def test_claim_checks_reject_non_partners():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    for x in c.a_side.tolist() + c.b_side.tolist():
        with pytest.raises(SchemeError):
            check_claim1(c, x, _nae3_pattern(x))  # own pattern is never a partner
    # every coordinate in a block where the patterns agree is rejected
    rejected = 0
    for side in "ab":
        for x, y in pair_table(c, side):
            z = _nae3_pattern(y)
            for j in (1, 2, 3):
                if not (x ^ y) & (0b111 << (3 * (3 - j))):
                    for i in range(3 * (j - 1) + 1, 3 * j + 1):
                        with pytest.raises(SchemeError):
                            check_claim2(c, x, z, i)
                        rejected += 1
    assert rejected


@pytest.mark.parametrize("x", [0b1111, 0b0011])
def test_claim_checks_reject_inputs_outside_the_relation(x):
    s = unit_scheme(or_n(2), (0,), (1,), [(0, 1)])
    c = compose_scheme(s, s)
    for check in (
        lambda: check_corollary(c, x),
        lambda: check_claim1(c, x, 0b01),
        lambda: check_claim2(c, x, 0b01, 4),
    ):
        with pytest.raises(SchemeError, match=f"^input {x} is not a source of the composed"):
            check()


@pytest.mark.parametrize("i", [0, 10, -3])
def test_claim2_rejects_coordinates_outside_the_arity(i):
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    x = c.a_side[0]
    z = next(_nae3_pattern(y) for y, _, _ in next(c.sweep_pairs("a"))[1])
    with pytest.raises(ValueError, match=f"coordinate {i} outside \\[1, 9\\]"):
        check_claim2(c, x, z, i)


def test_composed_constraint_holds_with_equality():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    for side in "ab":
        for (x, y), (w, coords) in pair_table(c, side).items():
            assert sum(var_bit(9, i) for i in coords) == x ^ y
            for fwd, bwd in coords.values():
                assert fwd * bwd == w * w
    assert_sides_agree(c)


def test_sweep_matches_a_reference_from_the_factors():
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    ref = _Reference(c)
    for side in "ab":
        table = pair_table(c, side)
        assert len(table) == c.pair_count
        for (x, y), record in table.items():
            assert record == ref.record(x, y)


def test_f4_squared_construction():
    s = builtin_scheme("f4")
    c = compose_scheme(s, s)
    assert c.arity == 16
    assert c.f == iterate(f4(), 2)
    assert len(c.a_side) == 32768 and len(c.b_side) == 32768
    assert c.pair_count == 1310720
    assert c.predicted_bound == ExactWeight(25, 4)
    assert predicted_bound(s, 5) == ExactWeight(5, 2) ** 5

    # one source of each side against the records rebuilt from the factors
    ref = _Reference(c)
    for side in "ab":
        source, records = next(iter(c.sweep_pairs(side)))
        assert exact_sum([r[1] for r in records]) == ExactWeight(10, 3) ** 5
        assert len(records) == 40
        for partner, w, diffs in records:
            want_w, want_coords = ref.record(source, partner)
            assert w == want_w
            assert {i: (fwd, bwd) for i, fwd, bwd in diffs} == want_coords


def test_predicted_bound_validations():
    with pytest.raises(ValueError):
        predicted_bound(builtin_scheme("f4"), 0)


def test_composed_scheme_round_trips_through_files(tmp_path):
    g = builtin_scheme("nae3")
    c = compose_scheme(g, g)
    path = tmp_path / "nae3sq.scheme.json"
    save_scheme(c, path)
    back = load_scheme(path)
    assert back.f == c.f
    assert back.pair_count == c.pair_count
    assert verify(back) == []
    assert loads(back, keep_maps=False).bound == ExactWeight(9, 2)
    assert_round_trips(c, path)


def _pattern(c: ComposedScheme, y: int) -> int:
    """The block pattern of y: the inner function's value on each block."""
    blocks = [(y >> (c.n - 1 - j) * c.m) & ((1 << c.m) - 1) for j in range(c.n)]
    return sum(c.inner.f.table[u] << (c.n - 1 - j) for j, u in enumerate(blocks))


def test_the_package_reads_tables_not_sweeps(monkeypatch, tmp_path, capsys):
    """With `sweep_pairs` raising, composing, verifying, weighing, the claim
    checks, balance, the file round trip, the simulator and the CLI run."""

    def no_sweep(self, side):
        raise AssertionError("sweep_pairs called")

    monkeypatch.setattr(TableSweeps, "sweep_pairs", no_sweep)
    monkeypatch.setattr(cli, "_checked_schemes", OrderedDict())
    for name, bound in (("nae3", ExactWeight(9, 2)), ("f4", ExactWeight(25, 4))):
        g = balance(builtin_scheme(name))
        c = compose_scheme(g, g)
        tables = [c.slice_table(side) for side in "ab"]
        assert sum(len(slices) for _, _, slices in tables) == {"nae3": 288, "f4": 2304}[name]
        assert verify(c) == []
        assert loads(c, keep_maps=False).bound == bound == c.predicted_bound
        for sources, ids, slices in tables:
            for r in (0, len(sources) // 2, len(sources) - 1):
                x = int(sources[r])
                assert check_corollary(c, x)
                y = x ^ slices[ids[r, 0]].entries[0][0]
                assert check_claim1(c, x, _pattern(c, y))
                for i in range(1, c.arity + 1):
                    if (x ^ y) & var_bit(c.arity, i):
                        assert check_claim2(c, x, _pattern(c, y), i)
    h6 = balance(builtin_scheme("h6"))
    rep = loads(h6, keep_maps=True)
    assert rep.v_a == rep.v_b and rep.bound == ExactWeight(1, 2, 39)
    path = tmp_path / "nae3sq.scheme.json"
    c = compose_scheme(builtin_scheme("nae3"), builtin_scheme("nae3"))
    save_scheme(c, path)
    back = load_scheme(path)
    assert back.pair_count == c.pair_count
    assert loads(back, keep_maps=True).bound == ExactWeight(9, 2)
    trace = qsim.progress_trace(qsim.random_algorithm(3, 2, seed=1), builtin_scheme("nae3"))
    assert len(trace.values) == 3
    assert cli.main(["compose", "--base", "g", "--depth", "2"]) == 0
    assert cli.main(["simulate", "random", "--scheme", "h"]) == 0
    out, err = capsys.readouterr()
    assert "measured bound = 9/2" in out and "note: scheme balanced before tracing" in out
    assert err == ""
