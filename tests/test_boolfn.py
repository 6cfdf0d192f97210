"""Truth-table functions, assignments, and table files."""

import pytest
from hypothesis import given, strategies as st

from advwb.boolfn import (
    Assignment,
    ArityError,
    BooleanFunction,
    TableFormatError,
    and_n,
    block_mask,
    builtin,
    compose,
    evaluate,
    f4,
    flip_block,
    format_table,
    h6,
    iterate,
    nae3,
    or_n,
    parity,
    parse_table,
    var_bit,
)


def test_var_bit_most_significant_first():
    assert var_bit(4, 1) == 8
    assert var_bit(4, 4) == 1
    with pytest.raises(ValueError):
        var_bit(4, 5)
    with pytest.raises(ValueError):
        var_bit(4, 0)


@pytest.mark.parametrize("table", [b"\x00\x01\x02\x01", b"0110", b"\x00\x01\x01\xff"])
def test_table_entries_must_be_bits(table):
    with pytest.raises(ValueError, match=r"^table entries must be 0 or 1$"):
        BooleanFunction(2, table)
    assert BooleanFunction(2, b"\x00\x01\x01\x00") == parity(2)


def test_block_mask():
    assert block_mask(4, (1, 2)) == 0b1100
    assert block_mask(4, ()) == 0
    assert block_mask(6, (6,)) == 1


def test_assignment_bits():
    a = Assignment.from_bits("0110")
    assert a.index == 0b0110
    assert a.bits == "0110"
    assert a.bit(2) == 1 and a.bit(1) == 0
    assert a.flip(1).index == 0b1110
    assert a.flip((2, 3)).index == 0
    assert str(a) == "0110"


@given(st.integers(min_value=1, max_value=8), st.data())
def test_flip_is_involution(n, data):
    idx = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    i = data.draw(st.integers(min_value=1, max_value=n))
    a = Assignment(n, idx)
    assert a.flip(i).flip(i) == a


def test_f4_table_frozen():
    f = f4()
    ones = {0b0011, 0b0100, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1100}
    for x in range(16):
        assert f.table[x] == (1 if x in ones else 0)
    # balanced, and invariant under complementing every input bit
    assert sum(f.table) == 8
    assert all(f.table[x] == f.table[x ^ 0b1111] for x in range(16))


def test_nae3_table():
    g = nae3()
    for x in range(8):
        assert g.table[x] == (0 if x in (0, 7) else 1)


def test_h6_structure():
    h = h6()
    by_weight = {}
    for x in range(64):
        by_weight.setdefault(x.bit_count(), []).append(h.table[x])
    assert set(by_weight[0]) == {0}
    assert set(by_weight[1]) == {1}
    assert set(by_weight[2]) == {1}
    assert set(by_weight[4]) == {0}
    assert set(by_weight[5]) == {0}
    assert set(by_weight[6]) == {1}
    assert by_weight[3].count(0) == 10  # ten chosen weight-3 zeros


def test_parity_or_and():
    assert [parity(2).table[x] for x in range(4)] == [0, 1, 1, 0]
    assert or_n(3).table[0] == 0 and all(or_n(3).table[x] == 1 for x in range(1, 8))
    assert and_n(3).table[7] == 1 and all(and_n(3).table[x] == 0 for x in range(7))


def test_builtin_lookup():
    assert builtin("f4") == f4()
    assert builtin("parity5").arity == 5
    assert builtin("or2") == or_n(2)
    with pytest.raises(KeyError):
        builtin("mystery9")


def test_evaluate_and_call():
    f = f4()
    assert f(0b0011) == 1
    assert f(Assignment.from_bits("0011")) == 1
    assert evaluate(f, Assignment(4, 0)) == 0
    with pytest.raises(ArityError):
        f(Assignment.from_bits("001"))


def test_flip_block():
    x = Assignment(4, 0)
    assert flip_block(x, (1, 2)).index == 0b1100
    assert flip_block(flip_block(x, (1, 2)), (1, 2)) == x


def test_compose_matches_direct_evaluation():
    f, g = f4(), nae3()
    c = compose(f, [g, g, g, g])
    assert c.arity == 12
    for x in (0, 1, 0b101010101010, 0b111000111000, (1 << 12) - 1):
        pattern = 0
        for shift in (9, 6, 3, 0):
            pattern = (pattern << 1) | g.table[(x >> shift) & 7]
        assert c.table[x] == f.table[pattern]


def test_compose_rejects_mismatched_inners():
    with pytest.raises(ValueError):
        compose(f4(), [nae3()] * 3)
    with pytest.raises(ArityError):
        compose(f4(), [nae3(), nae3(), nae3(), parity(2)])
    with pytest.raises(ArityError):
        compose(h6(), [h6()] * 6)  # 36 variables exceeds the table cap


def test_iterate_depths():
    f = f4()
    assert iterate(f, 1) == f
    f2 = iterate(f, 2)
    assert f2.arity == 16
    # every block of the all-ones input is 1111, which evaluates to 0,
    # so the outer pattern is 0000 and the composed value is f(0000) = 0
    assert f2.table[(1 << 16) - 1] == 0
    with pytest.raises(ValueError):
        iterate(f, 0)
    with pytest.raises(ArityError):
        iterate(f, 3)  # 64 variables exceeds the table cap


def test_table_text_round_trip():
    f = h6()
    text = format_table(f)
    assert parse_table(text) == f


def test_parse_table_errors_carry_position():
    with pytest.raises(TableFormatError) as err:
        parse_table("4\n0101\n")
    assert err.value.line == 2
    with pytest.raises(TableFormatError) as err:
        parse_table("2\n01x1\n")
    assert err.value.line == 2 and err.value.pos == 3
    with pytest.raises(TableFormatError):
        parse_table("banana\n0101\n")
    with pytest.raises(TableFormatError):
        parse_table("2\n0101\nextra\n")


def test_save_load_table(tmp_path):
    from advwb.boolfn import load_table, save_table

    path = tmp_path / "h6.tbl"
    save_table(h6(), path)
    assert load_table(path) == h6()


@given(st.integers(min_value=1, max_value=6), st.data())
def test_from_ones_round_trip(n, data):
    ones = data.draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=1 << n)
    )
    f = BooleanFunction.from_ones(n, ones)
    assert {x for x in range(1 << n) if f.table[x]} == ones
