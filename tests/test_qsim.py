"""State-vector simulation of query algorithms and the progress argument."""

import json
import random
import tracemalloc

import numpy as np
import pytest

import qsim_reference
from advwb import qsim
from advwb.adversary import balance, builtin_scheme, loads, unit_scheme
from advwb.boolfn import BooleanFunction, parity
from advwb.qsim import (
    DIMENSION_CAP,
    QUERY_CAP,
    AlgorithmErrorTooLarge,
    QsimError,
    QueryAlgorithm,
    check_drop_bound,
    check_final_bound,
    identity_algorithm,
    load_algorithm,
    parity2_algorithm,
    progress_trace,
    query_lower_bound,
    random_algorithm,
    save_algorithm,
)


def parity2_scheme():
    f = parity(2)
    return unit_scheme(f, (0, 3), (1, 2), [(0, 1), (0, 2), (3, 1), (3, 2)])


def matching_scheme(n, seed):
    """Unit scheme on one seeded perfect matching of a balanced n-bit function:
    all 2^n inputs, each in one pair."""
    rng = random.Random(seed)
    order = list(range(1 << n))
    rng.shuffle(order)
    ones, zeros = sorted(order[: 1 << (n - 1)]), sorted(order[1 << (n - 1) :])
    partners = ones[:]
    rng.shuffle(partners)
    f = BooleanFunction.from_ones(n, ones)
    return unit_scheme(f, zeros, ones, list(zip(zeros, partners)))


def v_max(scheme):
    return loads(scheme, keep_maps=False).v_max


def phase_vector(alg, x):
    """Reference: the oracle diagonal for one input, built coordinate by
    coordinate: -1 on |i, z> with x_i = 1."""
    phases = np.ones(alg.dimension)
    for i in range(1, alg.n + 1):
        if (x >> (alg.n - i)) & 1:
            s = i * alg.work
            phases[s : s + alg.work] = -1.0
    return phases


def unitaries_one_by_one(n, queries, work, seed):
    """Reference: one Gaussian draw and one QR per unitary, in turn."""
    rng = np.random.default_rng(seed)
    dim = (n + 1) * work
    mats = []
    for _ in range(queries + 1):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        mats.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return mats


def dense_errors(alg, scheme):
    """Reference: one dense state vector per input, evolved on its own."""
    errors = {}
    for x in sorted(set(scheme.a_side.tolist()) | set(scheme.b_side.tolist())):
        state = np.zeros(alg.dimension, dtype=np.complex128)
        state[0] = 1.0
        phases = phase_vector(alg, x)
        for t, u in enumerate(alg.unitaries):
            state = u @ state
            if t < alg.queries:
                state = state * phases
        p = float(np.sum(np.abs(state[alg.accept_mask()]) ** 2))
        errors[x] = 1.0 - p if scheme.f.table[x] else p
    return errors


def test_parity2_algorithm_is_exact():
    alg = parity2_algorithm()
    assert alg.queries == 1
    assert alg.dimension == 6
    errors = progress_trace(alg, parity2_scheme()).errors
    assert sorted(errors) == [0, 1, 2, 3]
    for x in range(4):
        assert errors[x] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", ["f4", "nae3", "h6", "parity2"])
def test_trace_errors_match_dense_reference(name):
    if name == "parity2":
        scheme, algs = parity2_scheme(), [parity2_algorithm()]
    else:
        scheme = builtin_scheme(name)
        n = scheme.f.arity
        algs = [random_algorithm(n, q, work=w, seed=q) for q, w in ((1, 2), (3, 3))]
        algs.append(identity_algorithm(n, 2))
    for alg in algs:
        want = dense_errors(alg, scheme)
        got = progress_trace(alg, scheme).errors
        assert list(got) == list(want)
        assert list(got.values()) == pytest.approx(list(want.values()), abs=1e-12)


def test_parity2_trace_saturates_the_drop_bound():
    alg = parity2_algorithm()
    scheme = parity2_scheme()
    trace = progress_trace(alg, scheme)
    assert trace.values[0] == pytest.approx(4.0, abs=1e-12)
    assert trace.values[1] == pytest.approx(0.0, abs=1e-9)
    # one query kills all progress: the drop equals 2 * v_max * W_0 exactly
    assert trace.drops[0] == pytest.approx(2 * 0.5 * 4.0, abs=1e-9)
    assert check_drop_bound(trace, v_max(scheme))
    assert check_final_bound(trace, 0.0)
    assert all(e <= 1e-12 for e in trace.errors.values())
    # zero-error lower bound: 1/(2 v_max) = 1 query, which the algorithm meets
    assert query_lower_bound(0.0, 0.5) == pytest.approx(1.0)


def test_identity_algorithm_never_progresses():
    scheme = parity2_scheme()
    alg = identity_algorithm(2, 3)
    trace = progress_trace(alg, scheme)
    assert all(d == pytest.approx(0.0, abs=1e-12) for d in trace.drops)
    assert check_drop_bound(trace, v_max(scheme))
    with pytest.raises(AlgorithmErrorTooLarge) as err:
        check_final_bound(trace, 1.0 / 3.0)
    assert err.value.eps == pytest.approx(1.0 / 3.0)
    assert {x for x, _ in err.value.bad_inputs} == {1, 2}


def test_random_algorithm_obeys_drop_bound():
    scheme = builtin_scheme("f4")
    for seed in (0, 1, 2, 3):
        alg = random_algorithm(4, 2, seed=seed)
        trace = progress_trace(alg, scheme)
        # eight A-side sources, each carrying total weight 10/3
        assert trace.w0 == pytest.approx(8 * 10.0 / 3.0)
        assert check_drop_bound(trace, v_max(scheme))


def test_random_algorithm_is_reproducible():
    a = random_algorithm(3, 2, seed=42)
    b = random_algorithm(3, 2, seed=42)
    for ua, ub in zip(a.unitaries, b.unitaries):
        assert np.allclose(ua, ub, atol=0)
    c = random_algorithm(3, 2, seed=43)
    assert not np.allclose(a.unitaries[0], c.unitaries[0])


@pytest.mark.parametrize(
    "n, queries, work, seed",
    # the last two sit at DIMENSION_CAP
    [(1, 0, 1, 0), (4, 8, 4, 7), (6, 5, 2, 9), (11, 6, 5, 3), (3, 2, 16, 1), (31, 2, 2, 5)],
)
def test_random_algorithm_matches_one_by_one_draws(n, queries, work, seed):
    alg = random_algorithm(n, queries, work=work, seed=seed)
    want = unitaries_one_by_one(n, queries, work, seed)
    assert len(alg.unitaries) == len(want)
    assert all(np.array_equal(u, w) for u, w in zip(alg.unitaries, want))


def test_builders_check_shapes_before_drawing():
    for build in (
        lambda n, q, w: random_algorithm(n, q, work=w, seed=0),
        lambda n, q, w: identity_algorithm(n, q, work=w),
    ):
        with pytest.raises(QsimError, match="need n >= 1, got 0"):
            build(0, 2, 2)
        with pytest.raises(QsimError, match="need work >= 1, got -1"):
            build(4, 2, -1)
        with pytest.raises(QsimError, match="dimension 5000000000 exceeds cap"):
            build(4, 2, 10**9)  # refused before any matrix is allocated
        with pytest.raises(QsimError, match="dimension 65 exceeds cap"):
            build(4, -3, 13)
        with pytest.raises(QsimError, match="need at least one unitary"):
            build(4, -3, 2)


def test_builders_refuse_queries_over_the_cap():
    for build in (
        lambda q: random_algorithm(1, q, work=1, seed=0),
        lambda q: identity_algorithm(1, q, work=1),
    ):
        assert build(QUERY_CAP).queries == QUERY_CAP
        with pytest.raises(QsimError, match=f"^{QUERY_CAP + 1} queries exceed the cap"):
            build(QUERY_CAP + 1)
        # refused before (10^9 + 1) * 2 * 4 * 4 Gaussians are drawn
        with pytest.raises(QsimError, match=f"^1000000000 queries exceed the cap {QUERY_CAP}$"):
            build(10**9)


@pytest.mark.parametrize(
    "bad, defect",
    [(np.diag([1.0, 1, 1, 1, 1, 2]), "3.000e+00"), (np.full((6, 6), np.nan), "nan")],
    ids=["scaled", "nan"],
)
def test_unitarity_check_names_the_first_bad_matrix(bad, defect):
    eye = np.eye(6)
    later = 3.0 * eye  # also not unitary, but after matrix 2
    with pytest.raises(QsimError) as info:
        QueryAlgorithm(n=2, unitaries=(eye, eye, bad, later))
    assert str(info.value) == f"matrix 2 is not unitary (defect {defect} > 1e-09)"


def test_phase_rows_signs_and_involution():
    alg = identity_algorithm(2, 1)
    state = np.arange(1.0, 7.0, dtype=np.complex128)
    out = state * alg.phase_rows([0b10])[0]
    # x_1 = 1 flips the i = 1 block (indices 2, 3) and nothing else
    assert np.array_equal(out, np.array([1, 2, -3, -4, 5, 6], dtype=np.complex128))
    again = out * alg.phase_rows([0b10])[0]
    assert np.array_equal(again, state)
    # x_2 = 1 flips the i = 2 block; the i = 0 block never flips
    assert np.array_equal(alg.phase_rows([0b01])[0], [1, 1, 1, 1, -1, -1])
    assert np.array_equal(alg.phase_rows([0b11])[0], [1, 1, -1, -1, -1, -1])
    wide = identity_algorithm(3, 1, work=3)
    assert np.array_equal(wide.phase_rows([0b100])[0], [1] * 3 + [-1] * 3 + [1] * 6)


@pytest.mark.parametrize("n, work", [(6, 2), (6, 9), (12, 1), (12, 4)])
def test_phase_rows_match_the_per_input_loop(n, work):
    alg = identity_algorithm(n, 1, work=work)
    inputs = range(1 << n)
    rows = alg.phase_rows(inputs)
    assert rows.shape == (1 << n, alg.dimension)
    assert np.array_equal(rows, np.stack([phase_vector(alg, x) for x in inputs]))


def test_algorithm_validation():
    eye6 = np.eye(6)
    with pytest.raises(QsimError):
        QueryAlgorithm(n=2, unitaries=(eye6 * 2.0,))
    with pytest.raises(QsimError):
        QueryAlgorithm(n=2, unitaries=(np.eye(4),))
    with pytest.raises(QsimError):
        QueryAlgorithm(n=2, unitaries=())
    with pytest.raises(QsimError):
        QueryAlgorithm(n=0, unitaries=(np.eye(2),))
    with pytest.raises(QsimError):
        QueryAlgorithm(n=2, unitaries=(eye6,), work=0)
    with pytest.raises(QsimError):
        identity_algorithm(32, 1)  # dimension 66 exceeds the cap


def test_input_cap():
    f = parity(13)
    zeros = [x for x in range(1 << 13) if f.table[x] == 0]
    scheme = unit_scheme(f, zeros, [x ^ 1 for x in zeros], [(x, x ^ 1) for x in zeros])
    alg = identity_algorithm(13, 1)
    with pytest.raises(QsimError, match="cap"):
        progress_trace(alg, scheme)


def test_arity_mismatch():
    with pytest.raises(QsimError):
        progress_trace(parity2_algorithm(), builtin_scheme("f4"))


def test_selector_override():
    base = parity2_algorithm()
    flipped = QueryAlgorithm(
        n=2, unitaries=base.unitaries, work=2, selector=lambda i, z: z % 2 == 0
    )
    scheme = parity2_scheme()
    errors = progress_trace(base, scheme).errors
    flipped_errors = progress_trace(flipped, scheme).errors
    for x in range(4):
        assert errors[x] + flipped_errors[x] == pytest.approx(1.0, abs=1e-12)


def test_trace_ignores_trailing_unitary():
    scheme = parity2_scheme()
    base = random_algorithm(2, 2, seed=9)
    swapped = QueryAlgorithm(
        n=2, unitaries=base.unitaries[:-1] + (np.eye(6),), work=2
    )
    ta = progress_trace(base, scheme)
    tb = progress_trace(swapped, scheme)
    assert ta.values == pytest.approx(tb.values, abs=1e-12)


def test_algorithm_file_round_trip(tmp_path):
    alg = random_algorithm(2, 1, seed=17)
    path = tmp_path / "alg.json"
    save_algorithm(alg, path)
    back = load_algorithm(path)
    assert back.n == 2 and back.work == 2 and back.queries == 1
    for ua, ub in zip(alg.unitaries, back.unitaries):
        assert np.allclose(ua, ub, atol=1e-15)


def test_algorithm_file_accepts_capital_n(tmp_path):
    alg = parity2_algorithm()
    path = tmp_path / "alg.json"
    save_algorithm(alg, path)
    doc = json.loads(path.read_text())
    doc["N"] = doc.pop("n")
    path.write_text(json.dumps(doc))
    back = load_algorithm(path)
    assert back.n == 2


def test_algorithm_file_rejects_malformed(tmp_path):
    alg = parity2_algorithm()
    path = tmp_path / "alg.json"
    save_algorithm(alg, path)
    doc = json.loads(path.read_text())
    del doc["work"]
    path.write_text(json.dumps(doc))
    with pytest.raises(QsimError):
        load_algorithm(path)

    save_algorithm(alg, path)
    doc = json.loads(path.read_text())
    doc["unitaries"][0] = doc["unitaries"][0][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(QsimError):
        load_algorithm(path)

    save_algorithm(alg, path)
    doc = json.loads(path.read_text())
    doc["unitaries"][0][0] = [5.0, 0.0]  # breaks unitarity
    path.write_text(json.dumps(doc))
    with pytest.raises(QsimError):
        load_algorithm(path)

    # JSON booleans are no matrix entries, though Python's bool is an int:
    # this is no 2 x 2 identity
    doc = {"n": 1, "work": 1, "unitaries": [[[True, 0], [0, 0], [0, 0], [True, False]]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(QsimError, match="'unitaries' must be a list of lists of "):
        load_algorithm(path)


def test_eps_range_checks():
    with pytest.raises(ValueError):
        query_lower_bound(0.5, 0.5)
    with pytest.raises(ValueError):
        query_lower_bound(-0.1, 0.5)
    with pytest.raises(ValueError):
        check_final_bound(progress_trace(parity2_algorithm(), parity2_scheme()), 0.7)


def chain_scheme(n, lengths, seed):
    """Unit scheme on seeded chains of inputs, f alternating along each: one
    component of the pair relation per length, its inputs strewn over the
    rows."""
    rng = random.Random(seed)
    order = list(range(1 << n))
    rng.shuffle(order)
    half = 1 << (n - 1)
    f = BooleanFunction.from_ones(n, order[:half])
    ones, zeros = order[:half], order[half:]
    pairs = []
    for length in lengths:
        chain = [(zeros if k % 2 == 0 else ones).pop() for k in range(length)]
        links = zip(chain, chain[1:])
        pairs += [(x, y) if k % 2 == 0 else (y, x) for k, (x, y) in enumerate(links)]
    a, b = sorted({x for x, _ in pairs}), sorted({y for _, y in pairs})
    return unit_scheme(f, a, b, pairs)


# components of 2 to 9 rows: whichever would reach past a group's _BLOCK
# rows starts the next group
STRADDLING = [2 + k % 8 for k in range(160)]
# one component of 300 rows, larger than _BLOCK, among small ones
ONE_LARGE = [3] * 60 + [300] + [4] * 70


def _bit_identity_cases(name):
    """(scheme, algorithm) pairs: random, identity and parity2 algorithms."""
    if name == "parity2":
        yield parity2_scheme(), parity2_algorithm()
    elif name in ("straddling", "one_large"):
        scheme = chain_scheme(10, STRADDLING if name == "straddling" else ONE_LARGE, 7)
        for q, w in ((1, 2), (4, 5), (7, 3)):
            yield scheme, random_algorithm(10, q, work=w, seed=q)
    elif name == "long":
        # 1,024 inputs at dimension 55: a (201, 512) float history and a
        # group of 256 rows are more than the state array, so one group
        scheme = matching_scheme(10, 3)
        yield scheme, random_algorithm(10, 200, work=5, seed=3)
    elif name.startswith("unit"):
        # 10 bits: 1,024 inputs in four row blocks, 512 pairs in two blocks;
        # 12 bits at work 4: 4,096 inputs
        n = int(name[4:])
        scheme, work = matching_scheme(n, n), DIMENSION_CAP // (n + 1)
        yield scheme, random_algorithm(n, 3, work=work, seed=n)
        yield scheme, identity_algorithm(n, 2, work=work)
    else:
        scheme = builtin_scheme(name)
        n = scheme.f.arity
        for sch in (scheme, balance(scheme)):
            for q, w in ((1, 2), (3, 3), (8, 4)):
                yield sch, random_algorithm(n, q, work=w, seed=q * w)
            yield sch, identity_algorithm(n, 2)


@pytest.mark.parametrize(
    "name",
    ["f4", "nae3", "h6", "parity2", "unit10", "unit12", "straddling", "one_large", "long"],
)
def test_trace_is_bit_identical_to_the_batch_reference(name):
    for scheme, alg in _bit_identity_cases(name):
        got = progress_trace(alg, scheme)
        want = qsim_reference.progress_trace(alg, scheme)
        assert got.values == want.values
        assert got.drops == want.drops
        assert list(got.errors.items()) == list(want.errors.items())


def test_trace_holds_one_state_array():
    scheme = matching_scheme(12, 12)
    alg = random_algorithm(12, 8, work=4, seed=5)
    state_bytes = len(scheme.a_side.tolist() + scheme.b_side.tolist()) * alg.dimension * 16
    tracemalloc.start()
    try:
        progress_trace(alg, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the state, two blocks of rows beside it, the pair rows and the errors
    assert peak < 1.5 * state_bytes


def test_trace_holds_one_group_of_rows():
    scheme = matching_scheme(12, 12)
    alg = random_algorithm(12, 8, work=4, seed=5)
    progress_trace(alg, scheme)  # numpy's lazy imports happen outside the trace
    tracemalloc.start()
    try:
        progress_trace(alg, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding all 4,096 rows in one state array, the trace peaks at 4.36 MiB;
    # one group of 256 rows, the (9, 2048) history, the pair rows and the
    # errors stay under half of that
    assert peak < 2.18 * (1 << 20)


def test_row_groups_are_closed_under_the_pairs():
    scheme = chain_scheme(10, ONE_LARGE, 7)
    xs = np.union1d(scheme.a_side, scheme.b_side)
    xi, yi, _ = qsim._pair_rows(scheme, xs)
    groups = qsim._row_groups(len(xs), xi, yi, 5, 55)
    # every row in one group, every pair whole on its group's rows
    seen, pair_seen = np.zeros(len(xs), dtype=int), np.zeros(len(xi), dtype=int)
    for rows, ids, gx, gy in groups:
        seen[rows] += 1
        pair_seen[ids] += 1
        assert np.array_equal(rows[gx], xi[ids]) and np.array_equal(rows[gy], yi[ids])
    assert (seen == 1).all() and (pair_seen == 1).all()
    sizes = [len(rows) for rows, *_ in groups]
    # the 300-row component is a group of its own, the others fill groups
    assert 300 in sizes and all(s <= qsim._BLOCK for s in sizes if s != 300)
    # one block of rows, or a history too long beside the largest group
    pairs = np.arange(0, qsim._BLOCK, 2), np.arange(1, qsim._BLOCK, 2)
    assert qsim._row_groups(qsim._BLOCK, *pairs, 1, 64) is None
    scheme = matching_scheme(10, 3)
    xs = np.union1d(scheme.a_side, scheme.b_side)
    xi, yi, _ = qsim._pair_rows(scheme, xs)
    assert qsim._row_groups(len(xs), xi, yi, 201, 55) is None
    assert len(qsim._row_groups(len(xs), xi, yi, 9, 55)) == 4


def test_unitarity_check_in_blocks_names_the_first_bad_matrix():
    # 63 x 63 matrices go four to a block, so matrix 13 sits in the fourth
    mats = np.stack(random_algorithm(6, 19, work=9, seed=2).unitaries)
    mats[13, 5, 7] += 1e-3
    mats[17] *= 2.0
    gram = mats[13].conj().T @ mats[13] - np.eye(63)
    defect = np.abs(gram).max()
    with pytest.raises(QsimError) as info:
        QueryAlgorithm(n=6, unitaries=tuple(mats), work=9)
    assert str(info.value) == f"matrix 13 is not unitary (defect {defect:.3e} > 1e-09)"


def test_algorithm_accepts_a_stack_of_unitaries():
    want = random_algorithm(3, 4, work=3, seed=8)
    stack = np.stack(want.unitaries)
    alg = QueryAlgorithm(n=3, unitaries=stack, work=3)
    assert isinstance(alg.unitaries, tuple) and len(alg.unitaries) == 5
    assert all(u.shape == (12, 12) for u in alg.unitaries)
    assert all(np.array_equal(u, w) for u, w in zip(alg.unitaries, want.unitaries))
    assert alg.unitaries[0].base is stack  # a complex128 stack is not copied


def test_algorithm_from_a_tuple_holds_one_stack():
    unitaries = random_algorithm(6, 64, work=9, seed=4).unitaries
    stack_bytes = sum(u.nbytes for u in unitaries)
    unitaries = tuple(u.copy() for u in unitaries)  # no shared stack to reuse
    tracemalloc.start()
    try:
        QueryAlgorithm(n=6, unitaries=unitaries, work=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stack and one block of the unitarity check beside it
    assert peak < 1.5 * stack_bytes


def test_random_algorithm_holds_one_stack():
    tracemalloc.start()
    try:
        alg = random_algorithm(6, 64, work=9, seed=4)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack_bytes = sum(u.nbytes for u in alg.unitaries)
    assert kept < 1.1 * stack_bytes
    # the stack and one block of draws and factors beside it
    assert peak < 1.5 * stack_bytes
