"""Weight schemes: verification, loads, balancing, and files."""

import random
from fractions import Fraction

import numpy as np
import pytest

from advwb.adversary import (
    ExplicitScheme,
    SchemeError,
    balance,
    builtin_scheme,
    load_scheme,
    loads,
    relation_bound,
    save_scheme,
    sensitive_partition,
    unit_scheme,
    verify,
)
from advwb.boolfn import f4, h6, nae3, or_n, parity, save_table
from advwb.weights import ONE, ZERO, ExactWeight
from scheme_records import assert_rescaled, pair_table


def test_f4_scheme_values():
    s = builtin_scheme("f4")
    assert s.pair_count == 32
    assert verify(s) == []
    rep = loads(s, keep_maps=True)
    ten_thirds = ExactWeight(10, 3)
    assert rep.wt_min == ten_thirds and rep.wt_max == ten_thirds
    assert rep.v_lo == ExactWeight(4, 3) and rep.v_hi == ExactWeight(4, 3)
    assert rep.v_a == ExactWeight(2, 5) and rep.v_b == ExactWeight(2, 5)
    assert rep.v_max == ExactWeight(2, 5)
    assert rep.bound == ExactWeight(5, 2)
    assert all(rep.wt[x] == ten_thirds for x in s.a_side.tolist() + s.b_side.tolist())
    assert all(v == ExactWeight(4, 3) for v in rep.v.values())
    # equal side loads: balancing is a no-op
    assert balance(s, rep) is s


def test_nae3_scheme_values():
    s = builtin_scheme("nae3")
    assert s.pair_count == 12
    assert verify(s) == []
    rep = loads(s, keep_maps=True)
    assert all(rep.wt[x] == ExactWeight(9) for x in s.a_side)
    assert all(rep.wt[y] == ExactWeight(3) for y in s.b_side)
    assert rep.v_lo == ExactWeight(1, 1, 2)
    assert rep.v_hi == ExactWeight(3, 1, 2)
    assert rep.v_max == ExactWeight(1, 3, 2)
    assert rep.bound == ExactWeight(3, 2, 2)


def test_h6_scheme_values():
    s = builtin_scheme("h6")
    assert s.pair_count == 36
    assert verify(s) == []
    rep = loads(s, keep_maps=True)
    assert rep.wt_min == ExactWeight(3, 8)
    assert rep.wt_max == ExactWeight(6)
    assert rep.v_a == ExactWeight(1, 6)
    assert rep.v_b == ExactWeight(8, 13)
    assert rep.v_max == ExactWeight(2, 39, 39)
    assert rep.bound == ExactWeight(1, 2, 39)
    assert rep.bound.decimal(6) == "3.122499"


def test_balance_h6_preserves_invariants():
    base = builtin_scheme("h6")
    before = loads(base, keep_maps=True)
    bal = balance(base)
    assert isinstance(bal, ExplicitScheme)
    after = loads(bal, keep_maps=True)
    assert after.v_a == after.v_b == before.v_max
    assert after.v_max == before.v_max
    assert after.bound == before.bound
    # every pair weight and directional product survives the rescaling
    assert_rescaled(base, bal)
    # delegation
    assert bal.f == base.f
    assert np.array_equal(bal.a_side, base.a_side) and np.array_equal(bal.b_side, base.b_side)
    assert bal.pair_count == base.pair_count


def test_scheme_construction_errors():
    g = nae3()
    ok = (0, 1, ONE, {3: (ONE, ONE)})
    agrees = (
        "pair (0, 1) agrees at coordinate 1; "
        "directional weights apply only where the pair differs"
    )
    cases = [
        ([], "a scheme needs at least one pair"),
        ([(0, 0, ONE, {})], "pair (0, 0) relates an input to itself"),
        ([(0, 9, ONE, {})], "pair (0, 9) out of range for arity 3"),
        ([(-1, 1, ONE, {})], "pair (-1, 1) out of range for arity 3"),
        ([ok, ok], "duplicate pair (0, 1)"),
        ([ok, (1, 0, ONE, {3: (ONE, ONE)})], "duplicate pair (1, 0)"),
        # coordinate 1 agrees on the pair (000, 001)
        ([(0, 1, ONE, {1: (ONE, ONE)})], agrees),
        # within a pair: range, then self-pair, then duplicate, then coordinates
        ([(9, 9, ONE, {1: (ONE, ONE)})], "pair (9, 9) out of range for arity 3"),
        ([(1, 1, ONE, {1: (ONE, ONE)})], "pair (1, 1) relates an input to itself"),
        ([ok, (1, 0, ONE, {1: (ONE, ONE)})], "duplicate pair (1, 0)"),
        # across pairs the first failing pair decides, whatever its kind
        ([ok, (0, 9, ONE, {}), ok], "pair (0, 9) out of range for arity 3"),
        ([ok, (2, 2, ONE, {}), (9, 0, ONE, {})], "pair (2, 2) relates an input to itself"),
        ([ok, (1, 0, ONE, {}), (3, 3, ONE, {})], "duplicate pair (1, 0)"),
        ([(0, 1, ONE, {1: (ONE, ONE)}), ok], agrees),
    ]
    for pairs, message in cases:
        with pytest.raises(SchemeError) as err:
            ExplicitScheme(g, pairs)
        assert str(err.value) == message, pairs
    # one wp object met again with another pair is checked for that pair
    shared = {1: (ONE, ONE)}
    with pytest.raises(SchemeError) as err:
        ExplicitScheme(g, [(0, 4, ONE, shared), (0, 1, ONE, shared)])
    assert str(err.value) == agrees


def test_verify_reports_violations():
    g = nae3()
    # product of directional weights below the squared pair weight
    bad = ExplicitScheme(g, [(0, 1, ExactWeight(2), {3: (ONE, ONE)})])
    kinds = {v.kind for v in verify(bad)}
    assert "constraint" in kinds

    zero_w = ExplicitScheme(g, [(0, 1, 0, {3: (ONE, ONE)})])
    assert {v.kind for v in verify(zero_w)} == {"weight"}

    # (000, 011) differ at coordinates 2 and 3 but only 2 is weighted
    missing = ExplicitScheme(g, [(0, 3, ONE, {2: (ONE, ONE)})])
    assert "directional" in {v.kind for v in verify(missing)}

    sides = ExplicitScheme(g, [(1, 2, ONE, {2: (ONE, ONE), 3: (ONE, ONE)})])
    assert "side" in {v.kind for v in verify(sides)}


def test_verify_respects_limit():
    g = nae3()
    pairs = [(0, y, ExactWeight(5), {i: (ONE, ONE) for i in (1, 2, 3) if (0 ^ y) & (1 << (3 - i))}) for y in (1, 2, 3, 4, 5, 6)]
    bad = ExplicitScheme(g, pairs)
    assert len(verify(bad, limit=3)) == 3


def test_relation_bound_matches_unit_scheme():
    f = parity(2)
    a, b = (0, 3), (1, 2)
    relation = [(0, 1), (0, 2), (3, 1), (3, 2)]
    rb = relation_bound(f, a, b, relation)
    assert (rb.m, rb.m_prime, rb.l, rb.l_prime) == (2, 2, 1, 1)
    assert rb.bound == ExactWeight(2)
    unit = unit_scheme(f, a, b, relation)
    assert verify(unit) == []
    assert loads(unit, keep_maps=True).bound == rb.bound


def test_relation_bound_of_an_unpartnered_input_is_zero():
    # input 3 is declared on side A but has no partner: m = 0
    rb = relation_bound(parity(2), (0, 3), (1, 2), [(0, 1), (0, 2)])
    assert (rb.m, rb.m_prime, rb.l, rb.l_prime) == (0, 1, 1, 1)
    assert rb.bound == ZERO


def test_relation_bound_input_checks():
    f = parity(2)
    with pytest.raises(SchemeError):
        relation_bound(f, (1,), (2,), [(1, 2)])  # 1 is a 1-input
    with pytest.raises(SchemeError):
        relation_bound(f, (0,), (1,), [])
    with pytest.raises(SchemeError):
        relation_bound(f, (0,), (1,), [(3, 1)])  # 3 not on the declared side


def reference_relation_bound(f, a, b, relation):
    """(m, m', l, l') counted pair by pair with plain dicts."""
    deg_a = {x: 0 for x in a}
    deg_b = {y: 0 for y in b}
    cnt_a, cnt_b = {}, {}
    for x, y in relation:
        deg_a[x] += 1
        deg_b[y] += 1
        for i in range(f.arity):
            if (x ^ y) >> i & 1:
                cnt_a[x, i] = cnt_a.get((x, i), 0) + 1
                cnt_b[y, i] = cnt_b.get((y, i), 0) + 1
    return (
        min(deg_a.values()),
        min(deg_b.values()),
        max(cnt_a.values()),
        max(cnt_b.values()),
    )


@pytest.mark.parametrize("seed", range(8))
def test_relation_bound_matches_dict_reference(seed):
    rng = random.Random(seed)
    f = (f4(), nae3(), h6(), parity(3), parity(5))[seed % 5]
    n = f.arity
    zeros = [x for x in range(1 << n) if f.table[x] == 0]
    ones = [x for x in range(1 << n) if f.table[x] == 1]
    a = rng.sample(zeros, rng.randint(1, len(zeros)))
    b = rng.sample(ones, rng.randint(1, len(ones)))
    # every side input gets a partner, and pairs repeat
    relation = [(x, rng.choice(b)) for x in a] + [(rng.choice(a), y) for y in b]
    relation += [(rng.choice(a), rng.choice(b)) for _ in range(rng.randint(0, 60))]
    rng.shuffle(relation)
    m, m_prime, l, l_prime = reference_relation_bound(f, a, b, relation)
    for rel in (relation, np.array(relation, dtype=np.int64)):
        rb = relation_bound(f, a, b, rel)
        assert (rb.m, rb.m_prime, rb.l, rb.l_prime) == (m, m_prime, l, l_prime)
        assert rb.bound == ExactWeight.sqrt_of(Fraction(m * m_prime, l * l_prime))


def test_relation_bound_names_first_pair_off_the_sides():
    f = parity(2)
    relation = [(0, 1), (3, 2), (0, 2), (3, 0), (1, 1)]
    for rel in (relation, np.array(relation)):
        with pytest.raises(SchemeError) as info:
            relation_bound(f, (0, 3), (1, 2), rel)
        assert str(info.value) == "pair (3, 0) leaves the declared sides"
    with pytest.raises(SchemeError, match=r"^pair \(0, 9\) leaves the declared sides$"):
        relation_bound(f, (0, 3), (1, 2), [(0, 1), (0, 9)])
    with pytest.raises(SchemeError) as info:
        relation_bound(f, (1, 0), (2, 3), [(0, 1)])
    assert str(info.value) == (
        "side membership violated: [1] not 0-inputs, [3] not 1-inputs"
    )


def test_sensitive_partition():
    f = f4()
    sens, insens = sensitive_partition(f, 0)
    assert sens == (1, 2) and insens == (3, 4)
    for x in range(16):
        s, ins = sensitive_partition(f, x)
        assert len(s) == 2 and len(ins) == 2
        assert sorted(s + ins) == [1, 2, 3, 4]


@pytest.mark.parametrize("name", ["f4", "nae3", "h6"])
def test_scheme_file_round_trip(name, tmp_path):
    s = builtin_scheme(name)
    path = tmp_path / f"{name}.scheme.json"
    save_scheme(s, path)
    back = load_scheme(path)
    assert back.f == s.f
    assert np.array_equal(back.a_side, s.a_side) and np.array_equal(back.b_side, s.b_side)
    assert back.pair_count == s.pair_count
    for side in "ab":
        assert pair_table(back, side) == pair_table(s, side)
    # files keep the A-side sweep order
    assert list(pair_table(back, "a")) == list(pair_table(s, "a"))
    before, after = loads(s, keep_maps=True), loads(back, keep_maps=True)
    assert (before.bound, before.v_max) == (after.bound, after.v_max)


def test_scheme_file_with_external_table(tmp_path):
    import json

    s = builtin_scheme("f4")
    path = tmp_path / "f4.scheme.json"
    save_scheme(s, path)
    doc = json.loads(path.read_text())
    del doc["table"]
    doc["path"] = "f4.tbl"
    path.write_text(json.dumps(doc))
    save_table(f4(), tmp_path / "f4.tbl")
    back = load_scheme(path)
    assert back.f == f4()
    assert loads(back, keep_maps=True).bound == ExactWeight(5, 2)


def test_scheme_file_with_a_sum_weight(tmp_path):
    one_root2 = ONE + ExactWeight(1, 1, 2)
    pairs = [(0, 1, one_root2, {2: (one_root2, one_root2)}), (0, 2, ONE, {1: (ONE, ONE)})]
    s = ExplicitScheme(or_n(2), pairs)
    path = tmp_path / "or2.scheme.json"
    save_scheme(s, path)
    assert '"w": "1 + sqrt(2)"' in path.read_text()
    back = load_scheme(path)
    assert pair_table(back, "a") == pair_table(s, "a")
    assert verify(back) == []
    assert loads(back, keep_maps=True) == loads(s, keep_maps=True)


def loaded_weights(scheme) -> list:
    """Every weight object the A side holds, pair and directional."""
    return [
        v
        for _, records in scheme.sweep_pairs("a")
        for _, w, diffs in records
        for v in (w, *(u for _, fwd, bwd in diffs for u in (fwd, bwd)))
    ]


def test_load_scheme_parses_each_literal_once(tmp_path):
    import json

    zeros = [x for x in range(64) if not parity(6).table[x]]
    unit = unit_scheme(parity(6), zeros, [x ^ 1 for x in zeros], [(x, x ^ 1) for x in zeros])
    path = tmp_path / "unit.scheme.json"
    save_scheme(unit, path)
    weights = loaded_weights(load_scheme(path))
    assert len(weights) == 3 * 32 and all(w is weights[0] for w in weights)
    assert weights[0] == ONE

    path = tmp_path / "h6bal.scheme.json"
    save_scheme(balance(builtin_scheme("h6")), path)
    literals = {
        text
        for rec in json.loads(path.read_text())["pairs"]
        for text in (rec["w"], *(t for fb in rec["wp"].values() for t in fb))
    }
    assert len({id(w) for w in loaded_weights(load_scheme(path))}) == len(literals) > 1


@pytest.mark.parametrize(
    "literal, message",
    [("x1", "not a weight literal: 'x1'"), ("-1", "negative weight literal: '-1'")],
)
def test_load_scheme_bad_literal_after_good_ones(tmp_path, literal, message):
    import json

    path = tmp_path / "f4.scheme.json"
    save_scheme(builtin_scheme("f4"), path)
    doc = json.loads(path.read_text())
    rec = doc["pairs"][-1]
    rec["wp"][next(iter(rec["wp"]))][0] = literal
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_scheme(path)
    assert str(err.value) == message


def test_load_scheme_rejects_stray_pairs(tmp_path):
    import json

    s = builtin_scheme("f4")
    path = tmp_path / "bad.scheme.json"
    save_scheme(s, path)
    doc = json.loads(path.read_text())
    doc["a"] = doc["a"][1:]  # first source is no longer declared
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemeError):
        load_scheme(path)


def test_balanced_scheme_saves_and_loads(tmp_path):
    bal = balance(builtin_scheme("h6"))
    path = tmp_path / "h6bal.scheme.json"
    save_scheme(bal, path)
    back = load_scheme(path)
    rep = loads(back, keep_maps=True)
    assert rep.v_a == rep.v_b == ExactWeight(2, 39, 39)
    assert rep.bound == ExactWeight(1, 2, 39)


def whole_document(scheme) -> str:
    """The scheme file as one json.dumps of the whole document."""
    import json

    pairs = [
        {
            "x": source,
            "y": partner,
            "w": str(w),
            "wp": {str(i): [str(fwd), str(bwd)] for i, fwd, bwd in diffs},
        }
        for source, records in scheme.sweep_pairs("a")
        for partner, w, diffs in records
    ]
    doc = {
        "arity": scheme.f.arity,
        "table": "".join(str(b) for b in scheme.f.table),
        "a": scheme.a_side.tolist(),
        "b": scheme.b_side.tolist(),
        "pairs": pairs,
    }
    return json.dumps(doc, indent=1)


def test_saved_scheme_is_the_whole_document_dump(tmp_path):
    from types import SimpleNamespace

    from advwb.compose import compose_scheme

    one_root2 = ONE + ExactWeight(1, 1, 2)
    roots = ExplicitScheme(
        parity(2),
        [
            (0, 1, ExactWeight(1, 1, 2), {2: (ExactWeight(1, 2, 2), ExactWeight(2, 1, 2))}),
            (3, 1, ExactWeight(3, 5, 6), {1: (one_root2, ExactWeight(3, 5, 6))}),
        ],
    )
    schemes = [builtin_scheme(name) for name in ("f4", "nae3", "h6")]
    schemes += [balance(builtin_scheme("h6")), roots]
    schemes.append(compose_scheme(builtin_scheme("nae3"), builtin_scheme("nae3")))
    # a scheme object with no pairs at all: the header alone
    empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 1), dtype=np.int64), [])
    schemes.append(
        SimpleNamespace(
            f=f4(),
            a_side=empty[0],
            b_side=empty[0],
            sweep_pairs=lambda side: iter(()),
            slice_table=lambda side: empty,
        )
    )
    path = tmp_path / "s.scheme.json"
    for s in schemes:
        save_scheme(s, path)
        assert path.read_text() == whole_document(s)
