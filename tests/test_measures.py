"""Classical complexity measures and their certified values."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import measures_reference as reference
from advwb import measures, simplex
from advwb.boolfn import (
    ArityError,
    BooleanFunction,
    and_n,
    builtin,
    f4,
    h6,
    iterate,
    nae3,
    or_n,
    parity,
    var_bit,
)
from advwb.measures import (
    TreeLeaf,
    TreeNode,
    CapExceeded,
    CertificateError,
    approx_degree,
    approx_polynomial,
    block_sensitivity,
    block_sensitivity_at,
    certificate_complexity,
    compute_report,
    degree,
    det_complexity,
    exact_polynomial,
    iterated_certificates,
    run_tree,
    sensitivity,
    sensitivity_at,
    sensitivity_counts,
)


def random_functions(max_arity=6):
    return st.integers(min_value=1, max_value=max_arity).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=1), min_size=1 << n, max_size=1 << n
        ).map(lambda tbl: BooleanFunction(n, bytes(tbl)))
    )


@given(random_functions())
def test_exact_polynomial_round_trip(f):
    p = exact_polynomial(f)
    for x in range(1 << f.arity):
        assert p.evaluate(x) == f.table[x]


def test_exact_polynomial_parity2():
    p = exact_polynomial(parity(2))
    assert p.coefficient((1,)) == 1
    assert p.coefficient((2,)) == 1
    assert p.coefficient((1, 2)) == -2
    assert p.coefficient(()) == 0
    assert p.degree == 2


def test_degrees_of_builtins():
    assert degree(f4()) == 2
    assert degree(nae3()) == 2
    assert degree(h6()) == 3
    for n in (1, 3, 5):
        assert degree(parity(n)) == n
    assert degree(or_n(4)) == 4


def test_approx_degree_parity_is_full():
    assert approx_degree(parity(3)) == 3
    assert approx_degree(parity(4)) == 4


def test_approx_witness_properties():
    f = f4()
    w = approx_polynomial(f)
    assert w.degree <= degree(f)
    assert w.eps == Fraction(1, 3)
    for x in range(16):
        assert abs(w.evaluate(x) - f.table[x]) <= w.eps
    assert w.deviation <= w.eps


THIRD = Fraction(1, 3)


def exact_simplex_degree(f, eps=THIRD):
    """Approximate degree from the exact Fraction simplex alone."""
    n = f.arity
    return next(
        k
        for k in range(n + 1)
        if measures._lp_exact(f, measures._monomials_up_to(n, k), eps) is not None
    )


@pytest.fixture
def simplex_calls(monkeypatch):
    """Counts calls of the exact simplex, the fallback of approx_polynomial."""
    calls = []
    real = simplex.solve_min

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_min", counting)
    return calls


# The exact simplex's approximate degrees for the builtins on which it takes
# seconds (parity6 about 20 s), pinned instead of recomputed.
SLOW_BUILTIN_DEGREES = {"h6": 3, "parity5": 5, "parity6": 6, "or6": 2, "and6": 2}
FAST_BUILTINS = (
    ["f4", "nae3", "or5", "and5"]
    + [f"{family}{n}" for family in ("parity", "or", "and") for n in (2, 3, 4)]
)


@pytest.mark.parametrize("name", FAST_BUILTINS + sorted(SLOW_BUILTIN_DEGREES))
def test_approx_degree_matches_exact_simplex_on_builtins(name, simplex_calls):
    f = builtin(name)
    got = approx_polynomial(f)
    assert not simplex_calls, "the exact fallback ran"
    want = SLOW_BUILTIN_DEGREES.get(name)
    assert got.degree == (exact_simplex_degree(f) if want is None else want)
    assert isinstance(got.deviation, Fraction) and got.deviation <= THIRD


# Tables whose optimum at the approximate degree is exactly eps = 1/3: the
# primal vertex must be recovered exactly, and no dual can certify.
TIE_TABLES = (("00100011", 1), ("11011100", 1), ("0011011111001000", 2))


def random_tables(seed, arities, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(arities)
        yield BooleanFunction(n, bytes(rng.randint(0, 1) for _ in range(1 << n)))


@pytest.mark.parametrize("bits,want", TIE_TABLES)
def test_approx_degree_on_ties(bits, want, simplex_calls):
    f = BooleanFunction.from_bits(bits)
    w = approx_polynomial(f)
    assert not simplex_calls
    assert w.degree == want == exact_simplex_degree(f)
    assert w.deviation == THIRD


def test_approx_degree_matches_exact_simplex_on_random_tables(simplex_calls):
    tables = list(random_tables(8, (3, 4), 16)) + list(random_tables(9, (5,), 3))
    got = [approx_degree(f) for f in tables]
    assert not simplex_calls
    assert got == [exact_simplex_degree(f) for f in tables]


def test_fallback_decides_when_certifiers_fail(monkeypatch, simplex_calls):
    monkeypatch.setattr(measures, "_certify_upper", lambda *args: None)
    monkeypatch.setattr(measures, "_certify_lower", lambda *args: False)
    for bits, want in TIE_TABLES[:2]:
        w = approx_polynomial(BooleanFunction.from_bits(bits))
        assert (w.degree, w.deviation) == (want, THIRD)
    assert approx_degree(f4()) == 2
    assert approx_degree(or_n(4)) == 2
    assert simplex_calls


def test_no_fallback_above_the_exact_cap(monkeypatch, simplex_calls):
    monkeypatch.setattr(measures, "_certify_upper", lambda *args: None)
    monkeypatch.setattr(measures, "_certify_lower", lambda *args: False)
    with pytest.raises(CertificateError, match="degree 0 .* at arity 9"):
        approx_degree(or_n(9))
    assert not simplex_calls


def reference_deviation(f, coeffs):
    return max(
        abs(sum(c for m, c in coeffs.items() if m & x == m) - f.table[x])
        for x in range(1 << f.arity)
    )


def test_max_deviation_matches_per_input_reference():
    rng = random.Random(3)
    for f in random_tables(4, (1, 3, 5), 12):
        masks = rng.sample(range(1 << f.arity), rng.randint(0, 1 << f.arity))
        coeffs = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for m in masks}
        assert measures._max_deviation(f, coeffs) == reference_deviation(f, coeffs)


def test_tampered_witness_is_rejected():
    f, eps = or_n(4), THIRD
    monomials = measures._monomials_up_to(4, 2)
    value, x, _ = measures._lp_float(f, monomials)
    w = measures._certify_upper(f, 2, monomials, x, eps)
    assert w is not None and w.deviation == Fraction(1, 6)
    tampered = x.copy()
    tampered[monomials.index(0b0011)] += 0.2
    assert measures._certify_upper(f, 2, monomials, tampered, eps) is None
    # a shift that keeps the deviation within eps still certifies, exactly
    nudged = x.copy()
    nudged[0] += 0.125
    w = measures._certify_upper(f, 2, monomials, nudged, eps)
    assert w.deviation == Fraction(1, 6) + Fraction(1, 8)


def test_dual_at_or_below_eps_is_rejected():
    f = or_n(4)
    for k, certifies in ((1, True), (2, False)):
        _, _, psi = measures._lp_float(f, measures._monomials_up_to(4, k))
        assert measures._certify_lower(f, k, psi, THIRD) is certifies
    # at a tie the dual's correlation is exactly eps * |psi|_1: not above it
    f = BooleanFunction.from_bits(TIE_TABLES[2][0])
    _, _, psi = measures._lp_float(f, measures._monomials_up_to(4, 2))
    assert not measures._certify_lower(f, 2, psi, THIRD)


def test_dual_is_projected_off_low_degree():
    f = parity(3)
    chi = np.array([(-1) ** x.bit_count() for x in range(8)], dtype=float)
    low = np.array([(-1) ** (x & 1) for x in range(8)], dtype=float)
    # -chi has correlation 4 with parity3 and |-chi|_1 = 8: ratio 1/2
    assert measures._certify_lower(f, 2, -chi, THIRD)
    # a low-degree part is projected away; alone it certifies nothing
    assert measures._certify_lower(f, 2, -chi + 5 * low + 3, THIRD)
    assert not measures._certify_lower(f, 2, 5 * low + 3, THIRD)
    assert not measures._certify_lower(f, 3, -chi, THIRD)


def test_sensitivity_values():
    f = f4()
    counts = sensitivity_counts(f)
    assert list(counts) == [2] * 16
    assert sensitivity(f) == 2
    assert sensitivity_at(f, 0) == 2
    assert sensitivity(or_n(3)) == 3
    assert sensitivity(parity(5)) == 5
    assert sensitivity(nae3()) == 3  # every flip of 000 leaves the equal block


def test_block_sensitivity_values():
    f = f4()
    assert block_sensitivity(f) == 3
    assert all(block_sensitivity_at(f, x) == 3 for x in range(16))
    assert block_sensitivity(or_n(3)) == 3
    assert block_sensitivity(parity(4)) == 4
    assert block_sensitivity(nae3()) == 3


def test_certificate_values():
    assert certificate_complexity(or_n(3)) == (3, 1)
    assert certificate_complexity(and_n(3)) == (1, 3)
    assert certificate_complexity(parity(3)) == (3, 3)
    assert certificate_complexity(f4()) == (3, 3)


def test_certificate_cap_and_force():
    assert certificate_complexity(or_n(9)) == (9, 1)
    assert certificate_complexity(and_n(12)) == (1, 12)
    with pytest.raises(CapExceeded):
        certificate_complexity(or_n(13))
    with pytest.raises(TypeError):  # no knob lifts the cap
        certificate_complexity(or_n(9), force=True)


def test_det_complexity_and_run_tree():
    for f, want in ((f4(), 3), (nae3(), 3), (h6(), 6), (parity(4), 4), (or_n(3), 3)):
        depth, tree = det_complexity(f)
        assert depth == want
        for x in range(1 << f.arity):
            val, queries = run_tree(tree, x, f.arity)
            assert val == f.table[x]
            assert queries <= depth


@settings(max_examples=100, deadline=None)
@given(random_functions())
def test_subcube_lattice_matches_reference(f):
    assert det_complexity(f) == reference.det_complexity(f)
    assert certificate_complexity(f) == reference.certificate_complexity(f)


@pytest.mark.parametrize("density", [0.5, 0.1])
@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_depth_matches_reference_on_wide_tables(n, density):
    rng = random.Random(n)
    f = BooleanFunction(n, bytes(rng.random() < density for _ in range(1 << n)))
    assert det_complexity(f) == reference.det_complexity(f)


def test_caps_raise():
    assert measures.ARITY_CAP == 12
    for measure in (
        approx_degree,
        block_sensitivity,
        lambda f: block_sensitivity_at(f, 0),
        certificate_complexity,
        det_complexity,
    ):
        with pytest.raises(CapExceeded, match="capped at arity 12"):
            measure(parity(13))


def test_iterated_certificates_shallow():
    r1 = iterated_certificates(f4(), 1)
    assert (r1.s, r1.bs_lower, r1.depth_upper) == (2, 3, 3)
    assert r1.equal and r1.verified and r1.degree == 2

    r2 = iterated_certificates(f4(), 2)
    assert (r2.s, r2.bs_lower, r2.depth_upper) == (4, 9, 9)
    assert r2.equal and r2.verified and r2.degree == 4


def reference_blocks(f, x):
    """The nine sensitive blocks of one input of the 2-fold iterate."""
    base = measures._base_blocks(f)
    sub = [(x >> (4 * (4 - j))) & 15 for j in range(1, 5)]
    pattern = 0
    for b in sub:
        pattern = (pattern << 1) | f.table[b]
    out = []
    for outer_mask in base[pattern]:
        js = [j for j in range(1, 5) if outer_mask & var_bit(4, j)]
        for k in range(3):
            mask = 0
            for j in js:
                mask |= base[sub[j - 1]][k] << (4 * (4 - j))
            out.append(mask)
    return out


def test_iterated_blocks_match_scalar_reference():
    f = f4()
    base = np.array(measures._base_blocks(f), dtype=np.int64)
    assert np.array_equal(measures._iterated_blocks(f, base, 1), base)
    masks = measures._iterated_blocks(f, base, 2)
    assert masks.shape == (1 << 16, 9)
    for x in list(range(0, 1 << 16, 61)) + [(1 << 16) - 1]:
        assert masks[x].tolist() == reference_blocks(f, x)


def test_iterated_certificates_catch_overlapping_blocks(monkeypatch):
    real = measures._iterated_blocks

    def overlapping(f, base, d):
        masks = real(f, base, d).copy()
        masks[12345, 4] |= masks[12345, 3]
        return masks

    monkeypatch.setattr(measures, "_iterated_blocks", overlapping)
    failed = "block certificate failed at input 12345$"
    with pytest.raises(AssertionError, match=failed):
        iterated_certificates(f4(), 2)


def test_iterated_certificates_catch_a_wrong_tree(monkeypatch):
    real = measures._compose_tree
    tab = iterate(f4(), 2).table
    first_one = tab.index(1)
    monkeypatch.setattr(measures, "_compose_tree", lambda *args: TreeLeaf(0))
    failed = f"composed tree failed at input {first_one}$"
    with pytest.raises(AssertionError, match=failed):
        iterated_certificates(f4(), 2)

    def deeper(*args):
        # one extra query on top: too deep wherever the composed tree needs 9
        return TreeNode(1, real(*args), real(*args))

    monkeypatch.setattr(measures, "_compose_tree", deeper)
    tree = deeper(det_complexity(f4())[1], det_complexity(f4())[1], 4)
    first_deep = next(x for x in range(1 << 16) if run_tree(tree, x, 16)[1] > 9)
    failed = f"composed tree failed at input {first_deep}$"
    with pytest.raises(AssertionError, match=failed):
        iterated_certificates(f4(), 2)


def test_iterated_certificates_deep_unverified():
    r3 = iterated_certificates(f4(), 3)
    assert (r3.s, r3.bs_lower, r3.depth_upper) == (8, 27, 27)
    assert r3.equal and not r3.verified
    assert r3.degree is None


def test_iterated_certificates_reject_bad_base():
    with pytest.raises(ArityError):
        iterated_certificates(nae3(), 2)
    with pytest.raises(ValueError):
        iterated_certificates(parity(4), 2)  # sensitivity 4, not 2
    with pytest.raises(ValueError):
        iterated_certificates(f4(), 0)


def test_compute_report_f4():
    rep = compute_report(f4())
    d = rep.as_dict()
    assert d["deg"] == 2
    assert d["approx_deg"] == 2
    assert d["s"] == 2
    assert d["bs"] == 3
    assert d["c0"] == 3 and d["c1"] == 3
    assert d["d_depth"] == 3
    assert d["qe_lower"] == "1"
    assert d["q2_lower_poly"] == "1"


def test_compute_report_skip_and_errors():
    rep = compute_report(or_n(9), skip=("cert", "approx_deg", "D"))
    assert rep.c0 is None and rep.d_depth is None
    assert rep.s == 9
    with pytest.raises(ValueError):
        compute_report(f4(), skip=("nonsense",))
    rep = compute_report(or_n(12), skip=("approx_deg", "bs"))
    assert (rep.c0, rep.c1, rep.d_depth) == (12, 1, 12)
    capped = {
        "approx_deg": "approximate degree",
        "bs": "block sensitivity",
        "cert": "certificate complexity",
        "D": "decision-tree depth",
    }
    for token, name in capped.items():
        with pytest.raises(CapExceeded, match=f"^{name} capped at arity 12$"):
            compute_report(or_n(13), skip=set(capped) - {token})


@settings(max_examples=40, deadline=None)
@given(random_functions(max_arity=5))
def test_measure_inequalities(f):
    s = sensitivity(f)
    bs = block_sensitivity(f)
    depth = det_complexity(f)[0]
    c0, c1 = certificate_complexity(f)
    assert s <= bs <= max(c0, c1) <= depth
    assert degree(f) <= depth
