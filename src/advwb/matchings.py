"""Disjoint perfect matchings between preimages of the iterated 4-bit base.

Two families of 3^d perfect matchings between the 0- and 1-preimages of
the d-fold iterate of the 4-bit base function.  Taking one family's
union as a relation and running the unit-weight counting bound on it
yields sqrt(9/2)^d, which is what the weighted schemes are measured
against.

Every input of the base function has exactly two sensitive variables,
one at an odd position and one at an even position, and flipping both
at once also changes the value.  The three base matchings flip,
respectively, the odd-position sensitive variable, the even-position
one, and the sensitive pair of one chosen endpoint; the two families
differ only in which endpoint (the 1-input for the first family, the
0-input for the second) donates its pair to the third matching.  That
choice is what keeps the per-coordinate pair count at 1 on the family's
protected side.

Both families read one (3, 16) partner table: row g sends a 0-input to
its partner in the first family's matching g, and a 1-input to its
partner in the second family's.  The first family starts from the
0-inputs of the iterate, the second from the 1-inputs.  Matching
t = g*K + k sends a source's block pattern to its partner under row g,
and moves each block whose value that changes to its partner under row
k of the block level's table: the partner table itself at depth 2
(K = 3), the bit flip at depth 1, where the blocks are single bits
(K = 1).  Each step runs over all sources of a family at once, as int32
numpy arrays.

A family checks itself when it is built.  Matching t pairs the i-th
0-input with entry i of partner row t, so a pair can repeat only within
one column of the (3^d, S) partner stack; disjointness is checked column
by column, with no key array over the whole union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .adversary import RelationBound, relation_bound
from .boolfn import BooleanFunction, f4, iterate, var_bit
from .weights import ExactWeight

MAX_MATCHING_DEPTH = 2


class MatchingError(ValueError):
    """A matching failed to be a bijection, or a depth is unsupported."""


@dataclass(frozen=True, eq=False)
class MatchingSet:
    """One family of 3^d perfect matchings for the depth-d iterate.

    Pairs are stored 0-input first: matching t maps a_side[i] to
    partners[t][i].  The sides are the sorted preimages as int32 arrays.
    set_id records which family (1 protects the 0-preimage side, 2 the
    1-preimage side).  Construction checks that every matching is a
    bijection onto the 1-preimage and that no pair lies in two matchings,
    and keeps the union as pair_array, an (N, 2) int32 array.
    """

    d: int
    set_id: int
    f: BooleanFunction
    a_side: np.ndarray
    b_side: np.ndarray
    partners: tuple[np.ndarray, ...]
    pair_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pair_array", _validate(self))

    @property
    def matching_count(self) -> int:
        return len(self.partners)

    @property
    def matching_size(self) -> int:
        return len(self.a_side)

    def pairs(self, t: int) -> list[tuple[int, int]]:
        """The ordered (0-input, 1-input) pairs of matching t."""
        return list(zip(self.a_side.tolist(), self.partners[t].tolist()))

    def partner(self, t: int, x: int) -> int:
        """Partner of 0-input x in matching t."""
        i = self._a_pos.get(x)
        if i is None:
            raise MatchingError(f"{x} is not a 0-input")
        return int(self.partners[t][i])

    @cached_property
    def _a_pos(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.a_side.tolist())}


def _sensitive_mask(f: BooleanFunction, x: int) -> tuple[int, int, int]:
    """(odd-position bit, even-position bit, both) for a base input."""
    fx = f.table[x]
    odd = even = 0
    for i in range(1, f.arity + 1):
        bit = var_bit(f.arity, i)
        if f.table[x ^ bit] != fx:
            if i % 2:
                if odd:
                    raise MatchingError(
                        f"input {x} has two odd-position sensitive variables"
                    )
                odd = bit
            else:
                if even:
                    raise MatchingError(
                        f"input {x} has two even-position sensitive variables"
                    )
                even = bit
    if not odd or not even:
        raise MatchingError(f"input {x} lacks an odd/even sensitive variable split")
    return odd, even, odd | even


def _base_maps(f: BooleanFunction, set_id: int) -> np.ndarray:
    """(3, 16) lookup: row g maps a 0-input to its 1-input in matching g, else -1."""
    zeros = [x for x in range(16) if f.table[x] == 0]
    ones = [x for x in range(16) if f.table[x] == 1]
    masks = {x: _sensitive_mask(f, x) for x in range(16)}
    maps = np.full((3, 16), -1, dtype=np.int64)
    for x in zeros:
        maps[0, x] = x ^ masks[x][0]
        maps[1, x] = x ^ masks[x][1]
        if set_id == 2:
            maps[2, x] = x ^ masks[x][2]
    if set_id == 1:
        for y in ones:
            maps[2, y ^ masks[y][2]] = y
    for row in maps:
        if sorted(row[zeros].tolist()) != ones:
            raise MatchingError("base matching is not a bijection between preimages")
    return maps


def _partner_table(f: BooleanFunction) -> np.ndarray:
    """(3, 16) partner table: the first family's maps on 0-inputs, and the
    inverses of the second family's maps on 1-inputs."""
    fwd1, fwd2 = _base_maps(f, 1), _base_maps(f, 2)
    zeros = np.flatnonzero(f.np_table == 0)
    table = fwd1.copy()
    for g in range(3):
        table[g, fwd2[g, zeros]] = zeros
    return table


def build_matchings(d: int, set_id: int) -> MatchingSet:
    """Construct family set_id (1 or 2) of 3^d matchings at depth d."""
    if set_id not in (1, 2):
        raise MatchingError(f"set_id must be 1 or 2, not {set_id}")
    if not 1 <= d <= MAX_MATCHING_DEPTH:
        raise MatchingError(
            f"depth {d} not materializable (supported: 1..{MAX_MATCHING_DEPTH})"
        )
    base = f4()
    table = _partner_table(base).astype(np.int32)
    fd = iterate(base, d)
    tab = fd.np_table
    # inputs stay below 2^16 at MAX_MATCHING_DEPTH, so int32 holds them
    a_side = np.flatnonzero(tab == 0).astype(np.int32)
    b_side = np.flatnonzero(tab == 1).astype(np.int32)
    sources = a_side if set_id == 1 else b_side
    if d == 1:
        # the blocks are the bits, with their values as they are and the
        # flip as their one matching
        width, block_tab = 1, np.array([0, 1], dtype=np.uint8)
        block_table = np.array([[1, 0]], dtype=np.int32)
    else:
        width, block_tab, block_table = 4, base.np_table, table
    order = np.arange(3, -1, -1, dtype=np.int32)  # block j sits at bits width * (3 - j)
    blocks = (sources[:, None] >> width * order) & ((1 << width) - 1)
    pattern = (block_tab[blocks].astype(np.int32) << order).sum(axis=1, dtype=np.int32)
    # per pattern-level matching g: where a block's value changes
    changed = [((pattern ^ table[g, pattern])[:, None] >> order) & 1 == 1 for g in range(3)]
    del pattern
    partners = np.empty((3 * len(block_table), sources.size), dtype=np.int32)
    for k, row in enumerate(block_table):
        # the xor that moves each block to its partner under block-level
        # matching k, made once and dropped after its three matchings; the
        # blocks occupy disjoint bits, so the sum over blocks is their union
        move = (blocks ^ row[blocks]) << width * order
        for g in range(3):
            out = sources ^ np.where(changed[g], move, 0).sum(axis=1, dtype=np.int32)
            partners[g * len(block_table) + k] = out
    del blocks, changed, move
    if set_id == 2:
        for t, out in enumerate(partners):
            # out are 0-inputs: list the sources by their partner
            by_partner = np.argsort(out)
            if not np.array_equal(out[by_partner], a_side):
                raise MatchingError(f"matching {t} is not a bijection onto the 0-preimage")
            partners[t] = sources[by_partner]
    return MatchingSet(d, set_id, fd, a_side, b_side, tuple(partners))


def _validate(ms: MatchingSet) -> np.ndarray:
    """Bijection per matching, disjointness per column; the pair array.

    Matching t pairs a_side[i] with partners[t][i], so a pair can repeat only
    within column i of the (3^d, S) partner stack: a copy of the stack is
    sorted along its columns and neighbours compared, and dropped before the
    pair array is made.  A repeat names the first pair, in (t, i) order,
    that an earlier matching already holds.  The union is returned as an
    (N, 2) int32 array, matching t's pairs in rows t*S .. (t+1)*S - 1.
    """
    n = ms.f.arity
    size = 1 << n
    count, length = ms.matching_count, ms.matching_size
    in_b = np.zeros(size, dtype=bool)
    in_b[np.asarray(ms.b_side)] = True
    for t, arr in enumerate(ms.partners):
        inside = arr.size == 0 or (arr.min() >= 0 and arr.max() < size)
        if (
            arr.shape != (length,)
            or not inside
            or not in_b[arr].all()
            or np.bincount(arr, minlength=size).max(initial=0) > 1
        ):
            raise MatchingError(f"matching {t} is not a bijection onto the 1-preimage")
    columns = np.array(ms.partners).reshape(count, length)
    columns.sort(axis=0)
    repeated = (columns[1:] == columns[:-1]).any(axis=0)
    del columns
    if repeated.any():
        i = np.flatnonzero(repeated)
        ys = np.stack([arr[i] for arr in ms.partners])
        # a stable sort keeps equal partners in matching order, so each entry
        # equal to its predecessor is a repeat, in matching order[k]
        order = np.argsort(ys, axis=0, kind="stable")
        ys = np.take_along_axis(ys, order, axis=0)
        first = np.where(ys[1:] == ys[:-1], order[1:], count).min(axis=0)
        c = int(np.argmin(first))  # the lowest column among the earliest matchings
        x, y = int(ms.a_side[i[c]]), int(ms.partners[first[c]][i[c]])
        raise MatchingError(f"pair {(x, y)} appears in two matchings")
    pair_array = np.empty((count, length, 2), dtype=np.int32)
    pair_array[:, :, 0] = ms.a_side
    for t, arr in enumerate(ms.partners):
        pair_array[t, :, 1] = arr
    return pair_array.reshape(-1, 2)


@dataclass(frozen=True)
class MatchingCheck:
    """Exhaustively counted relation parameters for one family's union."""

    set_id: int
    m: int
    m_prime: int
    l: int
    l_prime: int
    bound: ExactWeight
    disjoint: bool
    matching_count: int
    matching_size: int

    @classmethod
    def of(cls, ms: MatchingSet) -> MatchingCheck:
        rb: RelationBound = relation_bound(ms.f, ms.a_side, ms.b_side, ms.pair_array)
        return cls(
            set_id=ms.set_id,
            m=rb.m,
            m_prime=rb.m_prime,
            l=rb.l,
            l_prime=rb.l_prime,
            bound=rb.bound,
            # MatchingSet construction rejects a pair lying in two matchings
            disjoint=True,
            matching_count=ms.matching_count,
            matching_size=ms.matching_size,
        )


def check_matchings(d: int) -> dict[int, MatchingCheck]:
    """Build both families at depth d and count their relation parameters."""
    return {s: MatchingCheck.of(build_matchings(d, s)) for s in (1, 2)}


def export_matchings(ms: MatchingSet, directory: str | Path) -> list[Path]:
    """Write one text file per matching, one "x_index y_index" line per pair."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    width = len(str(ms.matching_count - 1))
    out = []
    for t in range(ms.matching_count):
        path = directory / f"set{ms.set_id}_d{ms.d}_matching{t:0{width}d}.txt"
        lines = [f"{x} {y}" for x, y in ms.pairs(t)]
        path.write_text("\n".join(lines) + "\n")
        out.append(path)
    return out
