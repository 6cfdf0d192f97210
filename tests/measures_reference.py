"""Brute-force decision-tree depth and certificate complexity, for tests.

Both walk subcubes one at a time as (fixed mask, fixed values) pairs of
table-index bits: depth by a memoised recursion that queries the
lowest-numbered variable among those at the minimum, certificates by
trying every fixed set of each size at each input.
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
