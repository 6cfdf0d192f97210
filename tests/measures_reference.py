"""Brute-force decision-tree depth, certificate and block sensitivity, for tests.

Depth and certificates walk subcubes one at a time as (fixed mask, fixed
values) pairs of table-index bits: depth by a memoised recursion that
queries the lowest-numbered variable among those at the minimum,
certificates by trying every fixed set of each size at each input.  Block
sensitivity packs minimal sensitive blocks at every input with no bound
from sensitivity or certificates.
"""

import itertools

from advwb.boolfn import var_bit
from advwb.measures import TreeLeaf, TreeNode


def constant_value(f, fixed_mask: int, fixed_vals: int) -> int | None:
    """f's value on the subcube, or None when f is not constant there."""
    free = ((1 << f.arity) - 1) ^ fixed_mask
    first = f.table[fixed_vals]
    sub = free
    while sub:
        if f.table[fixed_vals | sub] != first:
            return None
        sub = (sub - 1) & free
    return first


def det_complexity(f):
    """(depth, witness tree) by recursion over subcubes."""
    n = f.arity
    memo = {}

    def rec(fixed_mask: int, fixed_vals: int):
        key = (fixed_mask, fixed_vals)
        if key in memo:
            return memo[key]
        cv = constant_value(f, fixed_mask, fixed_vals)
        if cv is not None:
            best = (0, TreeLeaf(cv))
        else:
            best = None
            for i in range(1, n + 1):
                b = var_bit(n, i)
                if fixed_mask & b:
                    continue
                d0, t0 = rec(fixed_mask | b, fixed_vals)
                d1, t1 = rec(fixed_mask | b, fixed_vals | b)
                if best is None or 1 + max(d0, d1) < best[0]:
                    best = (1 + max(d0, d1), TreeNode(i, t0, t1))
        memo[key] = best
        return best

    return rec(0, 0)


def certificate_at(f, index: int) -> int:
    """Fewest fixed variables forcing f to f(index) on the whole subcube."""
    n = f.arity
    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            mask = sum(var_bit(n, i) for i in combo)
            if constant_value(f, mask, index & mask) is not None:
                return size
    return n


def certificate_complexity(f) -> tuple[int, int]:
    """(C_0, C_1) as the largest certificate over each preimage."""
    c = [0, 0]
    for x in range(1 << f.arity):
        c[f.table[x]] = max(c[f.table[x]], certificate_at(f, x))
    return c[0], c[1]


def minimal_sensitive_blocks(f, index: int) -> list[int]:
    """Sensitive blocks at index with no sensitive proper sub-block."""
    sensitive = [
        b for b in range(1, 1 << f.arity) if f.table[index ^ b] != f.table[index]
    ]
    minimal = []
    for b in sorted(sensitive, key=int.bit_count):
        if not any(m & b == m for m in minimal):
            minimal.append(b)
    return minimal


def block_sensitivity_at(f, index: int) -> int:
    """Most disjoint sensitive blocks at index, memoised on the used variables."""
    blocks = minimal_sensitive_blocks(f, index)
    memo = {}

    def pack(used: int) -> int:
        if used not in memo:
            memo[used] = max(
                (1 + pack(used | b) for b in blocks if not b & used), default=0
            )
        return memo[used]

    return pack(0)


def block_sensitivity(f) -> int:
    return max(block_sensitivity_at(f, x) for x in range(1 << f.arity))
