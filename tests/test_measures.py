"""Classical complexity measures and their certified values."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advwb import measures
from advwb.boolfn import (
    ArityError,
    BooleanFunction,
    and_n,
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
    with pytest.raises(CapExceeded):
        certificate_complexity(or_n(9))
    assert certificate_complexity(or_n(9), force=True) == (9, 1)


def test_det_complexity_and_run_tree():
    for f, want in ((f4(), 3), (nae3(), 3), (h6(), 6), (parity(4), 4), (or_n(3), 3)):
        depth, tree = det_complexity(f)
        assert depth == want
        for x in range(1 << f.arity):
            val, queries = run_tree(tree, x, f.arity)
            assert val == f.table[x]
            assert queries <= depth


def test_caps_raise():
    with pytest.raises(CapExceeded):
        block_sensitivity(parity(13))
    with pytest.raises(CapExceeded):
        det_complexity(parity(13))


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
    with pytest.raises(CapExceeded):
        compute_report(or_n(9))


@settings(max_examples=40, deadline=None)
@given(random_functions(max_arity=5))
def test_measure_inequalities(f):
    s = sensitivity(f)
    bs = block_sensitivity(f)
    depth = det_complexity(f)[0]
    c0, c1 = certificate_complexity(f)
    assert s <= bs <= max(c0, c1) <= depth
    assert degree(f) <= depth
