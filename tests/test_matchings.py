"""Families of disjoint perfect matchings between the iterate's preimages."""

import tracemalloc

import numpy as np
import pytest

from advwb.boolfn import f4, iterate
from advwb.matchings import (
    MatchingCheck,
    MatchingError,
    MatchingSet,
    build_matchings,
    check_matchings,
    export_matchings,
)
from advwb.weights import ExactWeight

# depth-1 matchings of the first family, stored (0-input, 1-input)
M1_PAIRS = {
    (0b0000, 0b1000),
    (0b0001, 0b0011),
    (0b0010, 0b1010),
    (0b0110, 0b0100),
    (0b1001, 0b1011),
    (0b1101, 0b0101),
    (0b1110, 0b1100),
    (0b1111, 0b0111),
}
M2_PAIRS = {
    (0b0000, 0b0100),
    (0b0001, 0b0101),
    (0b0010, 0b0011),
    (0b0110, 0b0111),
    (0b1001, 0b1000),
    (0b1101, 0b1100),
    (0b1110, 0b1010),
    (0b1111, 0b1011),
}
M3_SET1_PAIRS = {
    (0b0000, 0b0011),
    (0b0001, 0b1000),
    (0b0010, 0b0100),
    (0b0110, 0b1010),
    (0b1001, 0b0101),
    (0b1101, 0b1011),
    (0b1110, 0b0111),
    (0b1111, 0b1100),
}


def sens_mask(f, x):
    n = f.arity
    return sum(
        1 << (n - i)
        for i in range(1, n + 1)
        if f.table[x ^ (1 << (n - i))] != f.table[x]
    )


def reference_maps(set_id):
    """The three depth-1 matchings of a family as 0-input -> 1-input dicts."""
    f = f4()
    zeros = [x for x in range(16) if f.table[x] == 0]
    ones = [x for x in range(16) if f.table[x] == 1]
    odd = {x: sens_mask(f, x) & 0b1010 for x in range(16)}
    even = {x: sens_mask(f, x) & 0b0101 for x in range(16)}
    m1 = {x: x ^ odd[x] for x in zeros}
    m2 = {x: x ^ even[x] for x in zeros}
    if set_id == 1:
        m3 = {y ^ sens_mask(f, y): y for y in ones}
    else:
        m3 = {x: x ^ sens_mask(f, x) for x in zeros}
    return (m1, m2, m3)


def reference_partners(d, set_id):
    """Partner arrays built input by input, as the scalar construction did."""
    own = reference_maps(set_id)
    zeros = sorted(own[0])
    if d == 1:
        return [np.array([m[x] for x in zeros]) for m in own]
    fwd = {s: reference_maps(s) for s in (1, 2)}
    inv = {s: tuple({y: x for x, y in m.items()} for m in ms) for s, ms in fwd.items()}
    tab2 = iterate(f4(), 2).table
    base_tab = f4().table
    a_side = [x for x in range(1 << 16) if tab2[x] == 0]
    b_side = [x for x in range(1 << 16) if tab2[x] == 1]
    a_pos = {x: i for i, x in enumerate(a_side)}
    sources = a_side if set_id == 1 else b_side
    partners = []
    for g in range(3):
        own_fwd = own[g]
        own_inv = {y: x for x, y in own_fwd.items()}
        for k in range(3):
            arr = np.full(len(a_side), -1, dtype=np.int64)
            for src in sources:
                blocks = [(src >> shift) & 15 for shift in (12, 8, 4, 0)]
                pattern = 0
                for b in blocks:
                    pattern = (pattern << 1) | base_tab[b]
                other = own_fwd[pattern] if set_id == 1 else own_inv[pattern]
                diff = pattern ^ other
                out = 0
                for j, u in enumerate(blocks):
                    if not (diff >> (3 - j)) & 1:
                        out = (out << 4) | u
                    elif set_id == 1:
                        # protect the 0-side: block family chosen by the
                        # 0-input's block value
                        v = fwd[1][k][u] if base_tab[u] == 0 else inv[2][k][u]
                        out = (out << 4) | v
                    else:
                        # protect the 1-side: chosen by the 1-input's block
                        v = inv[2][k][u] if base_tab[u] == 1 else fwd[1][k][u]
                        out = (out << 4) | v
                if set_id == 1:
                    arr[a_pos[src]] = out
                else:
                    arr[a_pos[out]] = src
            partners.append(arr)
    return partners


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("set_id", [1, 2])
def test_partners_match_scalar_reference(d, set_id):
    ms = build_matchings(d, set_id)
    want = reference_partners(d, set_id)
    assert len(ms.partners) == len(want) == 3**d
    for got, ref in zip(ms.partners, want):
        assert np.array_equal(got, ref)


def test_first_family_depth1_listing():
    ms = build_matchings(1, 1)
    assert ms.matching_count == 3
    assert ms.matching_size == 8
    assert set(ms.pairs(0)) == M1_PAIRS
    assert set(ms.pairs(1)) == M2_PAIRS
    assert set(ms.pairs(2)) == M3_SET1_PAIRS


def test_depth1_structure():
    f = f4()
    first = build_matchings(1, 1)
    second = build_matchings(1, 2)
    for ms in (first, second):
        for t in range(3):
            for x, y in ms.pairs(t):
                assert f.table[x] == 0 and f.table[y] == 1
    # matchings 1 and 2 flip a single sensitive variable: odd position
    # first (x_1 or x_3), even position second
    for ms in (first, second):
        for x, y in ms.pairs(0):
            d = x ^ y
            assert d.bit_count() == 1
            assert d in (0b1000, 0b0010)
            assert d & sens_mask(f, x)
        for x, y in ms.pairs(1):
            d = x ^ y
            assert d.bit_count() == 1
            assert d in (0b0100, 0b0001)
            assert d & sens_mask(f, x)
    # third matchings flip a full sensitive pair: the 1-input's pair in the
    # first family, the 0-input's pair in the second
    for x, y in first.pairs(2):
        assert x == y ^ sens_mask(f, y)
    for x, y in second.pairs(2):
        assert y == x ^ sens_mask(f, x)


def test_depth1_checked_parameters():
    checks = check_matchings(1)
    one, two = checks[1], checks[2]
    assert (one.m, one.m_prime, one.l, one.l_prime) == (3, 3, 1, 2)
    assert (two.m, two.m_prime, two.l, two.l_prime) == (3, 3, 2, 1)
    for c in (one, two):
        assert c.bound == ExactWeight.sqrt_of(ExactWeight(9, 2).rational)
        assert c.disjoint
        assert c.matching_count == 3 and c.matching_size == 8


def test_partner_lookup():
    ms = build_matchings(1, 1)
    assert ms.partner(0, 0b0001) == 0b0011
    with pytest.raises(MatchingError):
        ms.partner(0, 0b0011)  # a 1-input has no A-side row


def test_depth2_build():
    ms = build_matchings(2, 1)
    assert ms.matching_count == 9
    assert ms.matching_size == 32768
    f2 = iterate(f4(), 2)
    assert ms.f == f2
    assert len(ms.a_side) == 32768 and len(ms.b_side) == 32768
    # each matching is a bijection onto the 1-preimage
    b_sorted = np.sort(np.asarray(ms.b_side, dtype=np.int64))
    for t in (0, 4, 8):
        assert np.array_equal(np.sort(ms.partners[t]), b_sorted)
    # sampled pairs differ only inside blocks where the block values differ
    tab = f4().table
    for t in (0, 5):
        for x, y in ms.pairs(t)[:256]:
            assert f2.table[x] == 0 and f2.table[y] == 1
            for shift in (12, 8, 4, 0):
                bx, by = (x >> shift) & 15, (y >> shift) & 15
                if tab[bx] == tab[by]:
                    assert bx == by
    # two sampled matchings share no pair
    assert not np.any(ms.partners[0] == ms.partners[3])


def test_depth2_check_stays_within_its_memory_budget():
    # both families, each built, validated and counted, peak at about 10.7 MB
    # of traced allocations
    check_matchings(2)  # first-use caches stay out of the count
    tracemalloc.start()
    try:
        check_matchings(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 10**6


def test_depth_and_set_errors():
    with pytest.raises(MatchingError):
        build_matchings(3, 1)
    with pytest.raises(MatchingError):
        build_matchings(0, 1)
    with pytest.raises(MatchingError):
        build_matchings(1, 0)
    with pytest.raises(MatchingError):
        build_matchings(1, 3)


def test_export_files(tmp_path):
    ms = build_matchings(1, 2)
    files = export_matchings(ms, tmp_path)
    assert [p.name for p in files] == [
        "set2_d1_matching0.txt",
        "set2_d1_matching1.txt",
        "set2_d1_matching2.txt",
    ]
    for t, path in enumerate(files):
        lines = path.read_text().strip().split("\n")
        parsed = [tuple(int(v) for v in ln.split()) for ln in lines]
        assert parsed == ms.pairs(t)


def test_matching_check_of_single_set():
    ms = build_matchings(1, 1)
    check = MatchingCheck.of(ms)
    assert check.set_id == 1
    assert float(check.bound) == pytest.approx(2.1213203435596424)


def test_pair_array_is_the_union():
    ms = build_matchings(1, 2)
    union = [p for t in range(ms.matching_count) for p in ms.pairs(t)]
    assert ms.pair_array.shape == (24, 2)
    assert [tuple(p) for p in ms.pair_array.tolist()] == union


def test_matching_set_rejects_shared_pair():
    ms = build_matchings(1, 1)
    p0, p1, p2 = ms.partners
    mixed = p1.copy()
    mixed[3] = p0[3]  # pair (a_side[3], p0[3]) now in matchings 0 and 1
    mixed[np.flatnonzero(p1 == p0[3])] = p1[3]  # keep matching 1 a bijection
    with pytest.raises(MatchingError, match=r"pair \(6, 4\) appears in two matchings"):
        MatchingSet(1, 1, ms.f, ms.a_side, ms.b_side, (p0, mixed, p2))


def _share_column(partners, source, target, i):
    """Matching target takes matching source's partner in column i, and hands
    its own partner there to the column that held that value, so it stays a
    bijection."""
    moved = partners[target].copy()
    j = np.flatnonzero(moved == partners[source][i])
    moved[j], moved[i] = moved[i], partners[source][i]
    return partners[:target] + (moved,) + partners[target + 1 :]


def _repeats(a_side, partners):
    """(matching, column) of every pair seen in an earlier matching, in order."""
    seen, out = set(), []
    for t, arr in enumerate(partners):
        for i, pair in enumerate(zip(a_side, arr.tolist())):
            if pair in seen:
                out.append((t, i))
            seen.add(pair)
    return out


@pytest.mark.parametrize("d, early, late", [(1, 5, 1), (2, 20000, 7)])
def test_matching_set_names_the_first_shared_pair(d, early, late):
    # matching 1 repeats matching 0's pair in column `early`, matching 2
    # repeats it in the lower column `late`: the first pair in (t, i) order is
    # matching 1's, not the one a scan by column would reach first
    ms = build_matchings(d, 1)
    partners = _share_column(ms.partners, 0, 2, late)
    partners = _share_column(partners, 0, 1, early)
    repeats = _repeats(ms.a_side, partners)
    assert repeats[0] == (1, early) and (2, late) in repeats
    want = (int(ms.a_side[early]), int(ms.partners[0][early]))
    with pytest.raises(MatchingError) as info:
        MatchingSet(d, 1, ms.f, ms.a_side, ms.b_side, partners)
    assert str(info.value) == f"pair {want} appears in two matchings"


def test_matching_set_rejects_repeated_partner():
    ms = build_matchings(1, 1)
    p0, p1, p2 = ms.partners
    repeated = p2.copy()
    repeated[1] = repeated[0]
    with pytest.raises(MatchingError, match="matching 2 is not a bijection"):
        MatchingSet(1, 1, ms.f, ms.a_side, ms.b_side, (p0, p1, repeated))


def test_matching_set_rejects_partner_off_side():
    ms = build_matchings(1, 2)
    p0, p1, p2 = ms.partners
    off = p0.copy()
    off[0] = ms.a_side[0]  # a 0-input as partner
    with pytest.raises(MatchingError, match="matching 0 is not a bijection"):
        MatchingSet(1, 2, ms.f, ms.a_side, ms.b_side, (off, p1, p2))
    with pytest.raises(MatchingError, match="matching 1 is not a bijection"):
        MatchingSet(1, 2, ms.f, ms.a_side, ms.b_side, (p0, p1[:-1], p2))
