"""Composed-scheme slices as a per-template, per-entry loop, for tests.

The loop `ComposedScheme` ran before it built its templates in batches:
for each distinct slice key that `slice_table` meets, in its order, take
the blocks of the first source with that key and expand the Cartesian
product of the inner records of the differing blocks one entry at a time,
multiplying exact weights as it goes.  `assert_templates_match` compares
every slice of both tables with it, entry by entry, in order and by exact
value, and `assert_rows_follow_their_keys` checks that every source's row
of slice ids follows the slice keys found here one source at a time, with
this module's own block split and pattern.
"""

import functools
import itertools
import operator

from advwb.compose import _sqrt_product

# the loop's memoized arithmetic: templates reuse a few dozen distinct values
mul = functools.cache(operator.mul)
div = functools.cache(operator.truediv)
sqrtp = functools.cache(_sqrt_product)


def reference_entries(c, blocks: tuple, p: int, z: int) -> tuple:
    """The entries of the slice of a source with these blocks towards z.

    Its base weight is the outer weight of (p, z) times the inner total
    weight of every block where p and z agree; each entry is (xor offset
    to apply to the source index, pair weight, diffs tuple).
    """
    m, n = c.m, c.n
    base, odiffs = c._o_pairs[(p, z)]
    for j, u in enumerate(blocks):
        if not (p ^ z) >> (n - 1 - j) & 1:
            base = mul(base, c._inner_wt[u])
    per_block = []
    for j, r1 in odiffs:
        u = blocks[j - 1]
        shift = (n - j) * m
        per_block.append(
            [((u ^ v) << shift, wv, j, r1, rdiffs) for v, wv, rdiffs in c._i_records[u]]
        )
    entries = []
    for combo in itertools.product(*per_block):
        xor = 0
        w = base
        for off, wv, _, _, _ in combo:
            xor |= off
            w = mul(w, wv)
        diffs = []
        for off, wv, j, r1, rdiffs in combo:
            col = (j - 1) * m
            for i2, r2 in rdiffs:
                s = sqrtp(r1, r2)
                diffs.append((col + i2, mul(w, s), div(w, s)))
        entries.append((xor, w, tuple(diffs)))
    return tuple(entries)


def blocks_of(c, x: int) -> tuple:
    """The n blocks of m bits of x, the first block highest."""
    mask = (1 << c.m) - 1
    return tuple((x >> (c.n - 1 - j) * c.m) & mask for j in range(c.n))


def pattern_of(c, blocks: tuple) -> int:
    """The block pattern: the inner function's value on each block."""
    p = 0
    for u in blocks:
        p = (p << 1) | c.inner.f.table[u]
    return p


def block_classes(c) -> dict:
    """Block value -> total-weight class, the classes numbered by first
    appearance of each inner total weight in the inner scheme's weight map."""
    number: dict = {}
    return {u: number.setdefault(wt, len(number)) for u, wt in c._inner_wt.items()}


def reference_keys(c, side: str) -> list[tuple]:
    """Per source of a side, in order: the key (p, z, classes, x & mask)
    of each of its slices, one per outer partner slot of its pattern p.
    Sources share a slice towards z exactly when their keys are equal."""
    out = []
    cls = block_classes(c)
    for x in c.a_side if side == "a" else c.b_side:
        blocks = blocks_of(c, x)
        p, classes = pattern_of(c, blocks), tuple(cls[u] for u in blocks)
        out.append([(p, z, classes, x & mask) for z, mask in c._o_partners[p]])
    return out


def reference_slices(c, side: str) -> list[tuple]:
    """The entries of each distinct slice of a side, in `slice_table` order.

    Walks block patterns, then outer partner slots, then the slot's
    distinct keys (total-weight classes, x & mask) in sorted order, the
    order of `slice_table`'s integer key code, and builds each slice from
    the first source with its key.
    """
    surroundings: dict = {}  # pattern -> [(x, blocks, classes)] in source order
    cls = block_classes(c)
    for x in c.a_side if side == "a" else c.b_side:
        blocks = blocks_of(c, x)
        classes = tuple(cls[u] for u in blocks)
        surroundings.setdefault(pattern_of(c, blocks), []).append((x, blocks, classes))
    out = []
    for p in sorted(surroundings):
        for z, mask in c._o_partners[p]:
            firsts: dict = {}
            for x, blocks, classes in surroundings[p]:
                firsts.setdefault((classes, x & mask), blocks)
            out += [reference_entries(c, firsts[key], p, z) for key in sorted(firsts)]
    return out


def assert_templates_match(c) -> None:
    """Both sides' slices equal the reference entries, in order."""
    for side in "ab":
        got = [sl.entries for sl in c.slice_table(side)[2]]
        assert got == reference_slices(c, side)


def assert_rows_follow_their_keys(c) -> None:
    """Each table row lists one slot per outer partner of its source's
    pattern, and two slots hold the same slice exactly when their
    reference keys are equal."""
    for side in "ab":
        sources, ids, slices = c.slice_table(side)
        assert sources.tolist() == list(c.a_side if side == "a" else c.b_side)
        id_of: dict = {}
        for row, keys in zip(ids.tolist(), reference_keys(c, side)):
            assert all(k >= 0 for k in row[: len(keys)])
            assert all(k == -1 for k in row[len(keys) :])
            for k, key in zip(row, keys):
                assert id_of.setdefault(key, k) == k
        assert sorted(id_of.values()) == list(range(len(slices)))
