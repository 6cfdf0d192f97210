"""Composed-scheme slices as a per-template, per-entry loop, for tests.

The loop `ComposedScheme` ran before it built its templates in batches:
for each distinct slice key that `slice_table` meets, in its order, take
the blocks of the first source with that key and expand the Cartesian
product of the inner records of the differing blocks one entry at a time,
multiplying exact weights as it goes.  What the loop needs of the two
factors, `Factors` rebuilds from their record view alone
(`scheme_records.pair_table` and `exact_sum`), never from the composed
scheme's own state.  `assert_templates_match` compares every slice of
both tables with the loop, entry by entry, in order and by exact value,
and `assert_rows_follow_their_keys` checks that every source's row of
slice ids follows the slice keys found here one source at a time, with
this module's own sides, block split and pattern.
"""

import functools
import itertools
import operator

from advwb.compose import _sqrt_product
from advwb.weights import exact_sum
from scheme_records import pair_table

# the loop's memoized arithmetic: templates reuse a few dozen distinct values
mul = functools.cache(operator.mul)
div = functools.cache(operator.truediv)
sqrtp = functools.cache(_sqrt_product)


def _records(scheme) -> dict:
    """side -> source -> [(partner, w, ((i, fwd / bwd), ...))], in the order
    each side's pair table lists the pairs."""
    out: dict = {}
    for side in "ab":
        for (x, y), (w, coords) in pair_table(scheme, side).items():
            ratios = tuple((i, div(fwd, bwd)) for i, (fwd, bwd) in coords.items())
            out.setdefault(side, {}).setdefault(x, []).append((y, w, ratios))
    return out


class Factors:
    """The outer pairs and ratios, the inner records and totals, the
    total-weight classes and the composed sides of a composed scheme c,
    from its factors' pair tables.

    Inner totals are numbered into classes in order of first appearance,
    over the A sources and then the B sources, each side sorted.
    """

    def __init__(self, c):
        self.n, self.m, self.table = c.n, c.m, c.inner.f.table
        outer, inner = _records(c.outer), _records(c.inner)
        self.inner = {**inner["a"], **inner["b"]}
        self.o_pairs = {
            (p, z): (w, ratios)
            for side in "ab"
            for p, recs in outer[side].items()
            for z, w, ratios in recs
        }
        # p -> (z, the mask of the blocks where p and z differ), in pair order
        block = (1 << self.m) - 1
        shifts = [(self.n - 1 - j) * self.m for j in range(self.n)]

        def mask(differ: int) -> int:
            return sum(block << t for t in shifts if differ >> t // self.m & 1)

        self.partners = {
            p: [(z, mask(p ^ z)) for z, _, _ in recs]
            for side in "ab"
            for p, recs in outer[side].items()
        }
        self.totals = {u: exact_sum([w for _, w, _ in recs]) for u, recs in self.inner.items()}
        number: dict = {}
        self.classes = {
            u: number.setdefault(self.totals[u], len(number))
            for side in "ab"
            for u in sorted(inner[side])
        }
        inner_a, inner_b = sorted(inner["a"]), sorted(inner["b"])
        self.sides = {
            side: sorted(x for p in outer[side] for x in self._inputs(p, inner_a, inner_b))
            for side in "ab"
        }

    def _inputs(self, p: int, inner_a: list, inner_b: list) -> list:
        """The inputs whose block j lies on the inner side that bit j of p names."""
        choices = [inner_b if p >> (self.n - 1 - j) & 1 else inner_a for j in range(self.n)]
        out = []
        for blocks in itertools.product(*choices):
            x = 0
            for u in blocks:
                x = (x << self.m) | u
            out.append(x)
        return out

    def blocks_of(self, x: int) -> tuple:
        """The n blocks of m bits of x, the first block highest."""
        mask = (1 << self.m) - 1
        return tuple((x >> (self.n - 1 - j) * self.m) & mask for j in range(self.n))

    def pattern_of(self, blocks: tuple) -> int:
        """The block pattern: the inner function's value on each block."""
        p = 0
        for u in blocks:
            p = (p << 1) | self.table[u]
        return p

    def entries(self, blocks: tuple, p: int, z: int) -> tuple:
        """The entries of the slice of a source with these blocks towards z.

        Its base weight is the outer weight of (p, z) times the inner total
        weight of every block where p and z agree; each entry is (xor
        offset to apply to the source index, pair weight, diffs tuple).
        """
        m, n = self.m, self.n
        base, odiffs = self.o_pairs[(p, z)]
        for j, u in enumerate(blocks):
            if not (p ^ z) >> (n - 1 - j) & 1:
                base = mul(base, self.totals[u])
        per_block = []
        for j, r1 in odiffs:
            u = blocks[j - 1]
            shift = (n - j) * m
            per_block.append(
                [((u ^ v) << shift, wv, j, r1, rdiffs) for v, wv, rdiffs in self.inner[u]]
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


def reference_keys(f: Factors, side: str) -> list[tuple]:
    """Per source of a side, in order: the key (p, z, classes, x & mask)
    of each of its slices, one per outer partner slot of its pattern p.
    Sources share a slice towards z exactly when their keys are equal."""
    out = []
    for x in f.sides[side]:
        blocks = f.blocks_of(x)
        p, classes = f.pattern_of(blocks), tuple(f.classes[u] for u in blocks)
        out.append([(p, z, classes, x & mask) for z, mask in f.partners[p]])
    return out


def reference_slices(c, side: str) -> list[tuple]:
    """The entries of each distinct slice of a side, in `slice_table` order.

    Walks block patterns, then outer partner slots, then the slot's
    distinct keys (total-weight classes, x & mask) in sorted order, the
    order of `slice_table`'s integer key code, and builds each slice from
    the first source with its key.
    """
    f = Factors(c)
    surroundings: dict = {}  # pattern -> [(x, blocks, classes)] in source order
    for x in f.sides[side]:
        blocks = f.blocks_of(x)
        classes = tuple(f.classes[u] for u in blocks)
        surroundings.setdefault(f.pattern_of(blocks), []).append((x, blocks, classes))
    out = []
    for p in sorted(surroundings):
        for z, mask in f.partners[p]:
            firsts: dict = {}
            for x, blocks, classes in surroundings[p]:
                firsts.setdefault((classes, x & mask), blocks)
            out += [f.entries(firsts[key], p, z) for key in sorted(firsts)]
    return out


def assert_templates_match(c) -> None:
    """Both sides' slices equal the reference entries, in order."""
    for side in "ab":
        got = [sl.entries for sl in c.slice_table(side)[2]]
        assert got == reference_slices(c, side)


def assert_rows_follow_their_keys(c) -> None:
    """Each side's sources are the reference side, each table row lists one
    slot per outer partner of its source's pattern, and two slots hold the
    same slice exactly when their reference keys are equal."""
    f = Factors(c)
    for side in "ab":
        sources, ids, slices = c.slice_table(side)
        assert sources.tolist() == f.sides[side]
        assert list(c.a_side if side == "a" else c.b_side) == f.sides[side]
        id_of: dict = {}
        for row, keys in zip(ids.tolist(), reference_keys(f, side)):
            assert all(k >= 0 for k in row[: len(keys)])
            assert all(k == -1 for k in row[len(keys) :])
            for k, key in zip(row, keys):
                assert id_of.setdefault(key, k) == k
        assert sorted(id_of.values()) == list(range(len(slices)))
