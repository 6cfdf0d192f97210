"""Acceptance suite: ten certified checks, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines with their runtimes.  Time budgets are asserted, so a
criterion that finishes too slowly fails its test.
"""

import gc
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from advwb.adversary import (
    balance,
    builtin_scheme,
    loads,
    relation_bound,
    unit_scheme,
    verify,
)
from advwb.boolfn import (
    BooleanFunction,
    H6_ZERO_TRIPLES,
    and_n,
    f4,
    h6,
    iterate,
    nae3,
    or_n,
    parity,
)
from advwb.compose import check_corollary, compose_scheme
from advwb.matchings import build_matchings, check_matchings, export_matchings
from advwb.measures import (
    approx_degree,
    block_sensitivity,
    block_sensitivity_at,
    certificate_complexity,
    degree,
    det_complexity,
    exact_polynomial,
    iterated_certificates,
    sensitivity,
    sensitivity_at,
    sensitivity_counts,
)
from advwb.qsim import (
    check_drop_bound,
    check_final_bound,
    identity_algorithm,
    parity2_algorithm,
    progress_trace,
    random_algorithm,
)
from advwb.weights import ExactWeight
from scheme_records import assert_rescaled

_shared: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _release_shared_state():
    # The composed scheme cached in _shared holds millions of small objects;
    # leaving it alive would slow every later garbage-collection pass.
    yield
    _shared.clear()
    gc.collect()


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\ncriterion {num:2d} ({desc}): FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        print(
            f"\ncriterion {num:2d} ({desc}): FAIL "
            f"({elapsed:.2f} s over the {budget:.0f} s budget)"
        )
        raise AssertionError(f"criterion {num} took {elapsed:.2f} s > {budget} s")
    print(f"\ncriterion {num:2d} ({desc}): PASS ({elapsed:.2f} s)")


def test_criterion_01_base_function_measures():
    with criterion(1, "base function measures", budget=5.0):
        f = f4()
        assert degree(f) == 2
        assert det_complexity(f)[0] == 3
        for x in range(16):
            assert sensitivity_at(f, x) == 2
            assert block_sensitivity_at(f, x) == 3
        g = nae3()
        assert degree(g) == 2
        assert det_complexity(g)[0] == 3
        h = h6()
        assert degree(h) == 3
        assert det_complexity(h)[0] == 6


def test_criterion_02_four_bit_scheme():
    with criterion(2, "4-bit scheme exact values", budget=1.0):
        s = builtin_scheme("f4")
        assert verify(s) == []
        rep = loads(s, keep_maps=True)
        wt = ExactWeight(10, 3)
        v = ExactWeight(4, 3)
        assert set(rep.wt) == set(s.a_side) | set(s.b_side)
        assert all(value == wt for value in rep.wt.values())
        assert all(value == v for value in rep.v.values())
        assert rep.bound == ExactWeight(5, 2)


def test_criterion_03_nae_scheme():
    with criterion(3, "3-bit scheme exact values"):
        s = builtin_scheme("nae3")
        assert verify(s) == []
        rep = loads(s, keep_maps=True)
        assert all(rep.wt[x] == ExactWeight(9) for x in s.a_side)
        assert all(rep.wt[y] == ExactWeight(3) for y in s.b_side)
        assert rep.v_lo == ExactWeight(1, 1, 2)
        assert rep.v_hi == ExactWeight(3, 1, 2)
        assert rep.v_max == ExactWeight(1, 3, 2)  # sqrt(2)/3
        assert rep.bound == ExactWeight(3, 2, 2)  # 3/sqrt(2)


def test_criterion_04_six_bit_scheme():
    with criterion(4, "6-bit scheme exact values"):
        s = builtin_scheme("h6")
        assert verify(s) == []
        rep = loads(s, keep_maps=False)
        assert rep.v_a == ExactWeight(1, 6)
        assert rep.v_b == ExactWeight(8, 13)
        assert rep.v_max == ExactWeight(2, 39, 39)  # 2/sqrt(39)
        assert rep.bound == ExactWeight(1, 2, 39)
        # the ten zero triples: every variable lies in exactly five of
        # them, and any second variable in exactly two of those five
        for i in range(1, 7):
            with_i = [t for t in H6_ZERO_TRIPLES if i in t]
            assert len(with_i) == 5
            for j in range(1, 7):
                if j != i:
                    assert sum(1 for t in with_i if j in t) == 2


def test_criterion_05_composed_scheme_full_verification():
    with criterion(5, "composed scheme over ~1.3M pairs", budget=60.0):
        s = builtin_scheme("f4")
        c = compose_scheme(s, s)
        _shared["f4_squared"] = c
        assert c.pair_count == 1310720
        assert verify(c) == []
        rep = loads(c, keep_maps=False)
        wt = ExactWeight(10, 3) ** 5
        assert rep.wt_min == wt and rep.wt_max == wt
        assert rep.v_a == ExactWeight(4, 25)
        assert rep.v_b == ExactWeight(4, 25)
        assert rep.bound == ExactWeight(25, 4)
        assert rep.bound == ExactWeight(5, 2) ** 2


def test_criterion_06_weight_identities_all_slices():
    with criterion(6, "weight identities on every input slice"):
        c = _shared.get("f4_squared")
        if c is None:
            s = builtin_scheme("f4")
            c = compose_scheme(s, s)
        for x in range(1 << 16):
            assert check_corollary(c, x)
        del c
        _shared.clear()
        gc.collect()


def test_criterion_07_iterated_certificates():
    with criterion(7, "iterated measure certificates", budget=60.0):
        f2 = iterate(f4(), 2)
        counts = sensitivity_counts(f2)
        assert counts.shape == (65536,)
        assert np.all(counts == 4)
        rep = iterated_certificates(f4(), 2)
        assert rep.bs_lower == 9
        assert rep.depth_upper == 9
        assert rep.equal and rep.verified
        assert exact_polynomial(f2).degree == 4


def test_criterion_08_matching_families(tmp_path):
    with criterion(8, "matching families at depths 1 and 2", budget=120.0):
        ms = build_matchings(1, 1)
        files = export_matchings(ms, tmp_path)
        expected = "0 8\n1 3\n2 10\n6 4\n9 11\n13 5\n14 12\n15 7\n"
        assert files[0].read_bytes() == expected.encode("ascii")
        for d in (1, 2):
            checks = check_matchings(d)
            one, two = checks[1], checks[2]
            assert (one.m, one.m_prime, one.l, one.l_prime) == (3**d, 3**d, 1, 2**d)
            assert (two.m, two.m_prime, two.l, two.l_prime) == (3**d, 3**d, 2**d, 1)
            want = ExactWeight.sqrt_of(Fraction(9, 2)) ** d
            assert one.bound == want and two.bound == want
            assert one.disjoint and two.disjoint


def test_criterion_09_simulator_properties():
    with criterion(9, "simulator progress bounds", budget=30.0):
        scheme = balance(builtin_scheme("f4"))
        v_max = loads(scheme, keep_maps=False).v_max
        for seed in range(100):
            alg = random_algorithm(4, 2, seed=seed)
            assert check_drop_bound(progress_trace(alg, scheme), v_max)

        exact = parity2_algorithm()
        punit = unit_scheme(
            parity(2), (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)]
        )
        trace = progress_trace(exact, punit)
        assert all(e <= 1e-12 for e in trace.errors.values())
        assert trace.values[1] <= 1e-9
        assert check_final_bound(trace, 0.0)

        for n, sch in ((4, scheme), (2, punit)):
            idle = progress_trace(identity_algorithm(n, 3), sch)
            assert all(d <= 1e-12 for d in idle.drops)


def test_criterion_10_invariant_suite():
    with criterion(10, "cross-module invariants", budget=60.0):
        # balancing preserves v_max and every directional product
        base = builtin_scheme("h6")
        before = loads(base, keep_maps=False)
        bal = balance(base)
        after = loads(bal, keep_maps=False)
        assert after.v_max == before.v_max
        assert after.v_a == after.v_b == before.v_max
        assert_rescaled(base, bal)

        # unweighted partner counting agrees with the unit scheme's bound
        # on relations whose partner counts are uniform
        f2bit = parity(2)
        rel = [(0, 1), (0, 2), (3, 1), (3, 2)]
        rb = relation_bound(f2bit, (0, 3), (1, 2), rel)
        assert rb.bound == loads(unit_scheme(f2bit, (0, 3), (1, 2), rel)).bound
        ms = build_matchings(1, 1)
        union = [p for t in range(3) for p in ms.pairs(t)]
        rb2 = relation_bound(ms.f, ms.a_side, ms.b_side, union)
        assert rb2.bound == loads(
            unit_scheme(ms.f, ms.a_side, ms.b_side, union)
        ).bound

        # measure inequalities on every built-in function
        functions = [f4(), nae3(), h6()]
        functions += [parity(n) for n in (2, 3, 4)]
        functions += [or_n(n) for n in (2, 3, 4)]
        functions += [and_n(n) for n in (2, 3, 4)]
        for fn in functions:
            depth = det_complexity(fn)[0]
            assert sensitivity(fn) <= block_sensitivity(fn) <= depth
            assert approx_degree(fn) <= degree(fn) <= depth
            c0, c1 = certificate_complexity(fn)
            assert block_sensitivity(fn) <= max(c0, c1) <= depth

        # coefficient transform round-trips on 1000 random functions
        rng = np.random.default_rng(20260818)
        for k in range(1000):
            arity = 1 + k % 10
            table = rng.integers(0, 2, size=1 << arity, dtype=np.uint8)
            fn = BooleanFunction(arity, table.tobytes())
            assert np.array_equal(exact_polynomial(fn).table(), fn.np_table)
