"""Truth-table Boolean functions.

Assignments are indexed so that x_1 is the most significant bit: the input
x_1 x_2 ... x_N written as a bit string, read as binary, is its table index.
Variables are numbered 1..N throughout the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MAX_TABLE_ARITY = 24


class ArityError(ValueError):
    """A table or composition would exceed the materialization cap."""


class TableFormatError(ValueError):
    """Malformed truth-table text; carries line and position."""

    def __init__(self, message: str, line: int, pos: int = 0):
        super().__init__(f"line {line}, pos {pos}: {message}")
        self.line = line
        self.pos = pos


def var_bit(arity: int, i: int) -> int:
    """Index bit for variable i (1-based, x_1 most significant)."""
    if not 1 <= i <= arity:
        raise ValueError(f"variable {i} out of range 1..{arity}")
    return 1 << (arity - i)


def block_mask(arity: int, vars_: tuple[int, ...] | frozenset[int]) -> int:
    m = 0
    for i in vars_:
        m |= var_bit(arity, i)
    return m


@dataclass(frozen=True)
class Assignment:
    """One input to an arity-N function, stored as its table index."""

    arity: int
    index: int

    def __post_init__(self):
        if not 0 < self.arity <= MAX_TABLE_ARITY:
            raise ArityError(f"arity {self.arity} outside 1..{MAX_TABLE_ARITY}")
        if not 0 <= self.index < (1 << self.arity):
            raise ValueError(f"index {self.index} out of range for arity {self.arity}")

    @classmethod
    def from_bits(cls, bits: str) -> "Assignment":
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bit string expected, got {bits!r}")
        return cls(len(bits), int(bits, 2))

    @property
    def bits(self) -> str:
        return format(self.index, f"0{self.arity}b")

    def bit(self, i: int) -> int:
        return (self.index >> (self.arity - i)) & 1

    def flip(self, vars_) -> "Assignment":
        if isinstance(vars_, int):
            vars_ = (vars_,)
        return Assignment(self.arity, self.index ^ block_mask(self.arity, vars_))

    def __str__(self) -> str:
        return self.bits


class BooleanFunction:
    """Immutable arity-N function given by its full truth table."""

    __slots__ = ("arity", "table", "_np")

    def __init__(self, arity: int, table: bytes):
        if not 0 < arity <= MAX_TABLE_ARITY:
            raise ArityError(f"arity {arity} outside 1..{MAX_TABLE_ARITY}")
        table = bytes(table)
        if len(table) != 1 << arity:
            raise ValueError(f"table length {len(table)} != 2^{arity}")
        if table.translate(None, b"\x00\x01"):  # bytes other than 0 and 1 remain
            raise ValueError("table entries must be 0 or 1")
        self.arity = arity
        self.table = table
        self._np = None

    @classmethod
    def from_bits(cls, bits: str) -> "BooleanFunction":
        n = (len(bits) - 1).bit_length()
        return cls(n, bytes(int(c) for c in bits))

    @classmethod
    def from_ones(cls, arity: int, ones) -> "BooleanFunction":
        tbl = bytearray(1 << arity)
        for one in ones:
            idx = int(one, 2) if isinstance(one, str) else int(one)
            tbl[idx] = 1
        return cls(arity, bytes(tbl))

    @property
    def np_table(self) -> np.ndarray:
        if self._np is None:
            self._np = np.frombuffer(self.table, dtype=np.uint8)
        return self._np

    def value(self, index: int) -> int:
        return self.table[index]

    def __call__(self, x) -> int:
        if isinstance(x, Assignment):
            if x.arity != self.arity:
                raise ArityError(f"assignment arity {x.arity} != function arity {self.arity}")
            return self.table[x.index]
        return self.table[int(x)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.arity, self.table))

    def __repr__(self) -> str:
        if self.arity <= 4:
            return f"BooleanFunction({self.arity}, {''.join(map(str, self.table))})"
        return f"BooleanFunction(arity={self.arity})"


def evaluate(f: BooleanFunction, x: Assignment) -> int:
    return f(x)


def flip_block(x: Assignment, vars_) -> Assignment:
    """Flip the given variables (an involution)."""
    return x.flip(tuple(vars_) if not isinstance(vars_, int) else vars_)


def compose(outer: BooleanFunction, inners: list[BooleanFunction]) -> BooleanFunction:
    """outer applied to the values of the inner functions on contiguous blocks.

    Block j feeds variable j of the outer function; all inner functions must
    share one arity m, and the composed arity n*m must stay materializable.
    """
    n = outer.arity
    if len(inners) != n:
        raise ValueError(f"expected {n} inner functions, got {len(inners)}")
    m = inners[0].arity
    if any(g.arity != m for g in inners):
        raise ArityError("inner functions must share one arity")
    big = n * m
    if big > MAX_TABLE_ARITY:
        raise ArityError(f"composed arity {big} exceeds cap {MAX_TABLE_ARITY}")
    size = 1 << big
    blockmask = (1 << m) - 1
    out = np.empty(size, dtype=np.uint8)
    inner_tabs = [g.np_table for g in inners]
    outer_tab = outer.np_table
    chunk = 1 << 20
    for lo in range(0, size, chunk):
        ks = np.arange(lo, min(lo + chunk, size), dtype=np.int64)
        acc = np.zeros(len(ks), dtype=np.int64)
        for j in range(n):
            block = (ks >> ((n - 1 - j) * m)) & blockmask
            acc = (acc << 1) | inner_tabs[j][block]
        out[lo : lo + len(ks)] = outer_tab[acc]
    return BooleanFunction(big, out.tobytes())


def iterate(f: BooleanFunction, d: int) -> BooleanFunction:
    """d-fold self-composition; arity f.arity**d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if f.arity**d > MAX_TABLE_ARITY:
        raise ArityError(f"arity {f.arity}^{d} exceeds cap {MAX_TABLE_ARITY}")
    cur = f
    for _ in range(d - 1):
        cur = compose(f, [cur] * f.arity)
    return cur


# ---- built-in functions ----------------------------------------------

F4_ONES = ("0011", "0100", "0101", "0111", "1000", "1010", "1011", "1100")

# weight-3 inputs of the 6-bit base that evaluate to 0, as variable triples
H6_ZERO_TRIPLES = (
    (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2),
    (1, 3, 6), (1, 4, 6), (2, 4, 6), (2, 5, 6), (3, 5, 6),
)


def f4() -> BooleanFunction:
    """The 4-bit iteration base: every input has sensitivity 2 and block
    sensitivity 3, and the function has degree 2."""
    return BooleanFunction.from_ones(4, F4_ONES)


def nae3() -> BooleanFunction:
    """Not-all-equal on 3 bits: 0 iff x_1 = x_2 = x_3."""
    return BooleanFunction(3, bytes(0 if k in (0, 7) else 1 for k in range(8)))


def h6() -> BooleanFunction:
    """6-bit function of degree 3 with decision-tree depth 6.

    Value 0 on inputs of weight 0, 4, 5 and on ten special weight-3 inputs;
    value 1 on weights 1, 2, 6 and the remaining weight-3 inputs.
    """
    zero_triples = {block_mask(6, t) for t in H6_ZERO_TRIPLES}
    tbl = bytearray(64)
    for k in range(64):
        w = k.bit_count()
        if w in (1, 2, 6):
            tbl[k] = 1
        elif w == 3 and k not in zero_triples:
            tbl[k] = 1
    return BooleanFunction(6, bytes(tbl))


def parity(n: int) -> BooleanFunction:
    return BooleanFunction(n, bytes(k.bit_count() & 1 for k in range(1 << n)))


def or_n(n: int) -> BooleanFunction:
    return BooleanFunction(n, bytes(int(k != 0) for k in range(1 << n)))


def and_n(n: int) -> BooleanFunction:
    full = (1 << n) - 1
    return BooleanFunction(n, bytes(int(k == full) for k in range(1 << n)))


_BUILTIN_RE = re.compile(r"^(parity|or|and)(\d+)$")


def builtin(name: str) -> BooleanFunction:
    """Look up a built-in function: f4, nae3, h6, parityN, orN, andN."""
    fixed = {"f4": f4, "nae3": nae3, "h6": h6}
    if name in fixed:
        return fixed[name]()
    m = _BUILTIN_RE.match(name)
    if m:
        n = int(m.group(2))
        family = {"parity": parity, "or": or_n, "and": and_n}[m.group(1)]
        return family(n)
    raise KeyError(f"unknown builtin {name!r}")


BUILTIN_NAMES = ("f4", "nae3", "h6", "parityN", "orN", "andN")


# ---- truth-table text format ------------------------------------------
# line 1: decimal arity; line 2: exactly 2^N characters over {0,1}

def parse_table(text: str) -> BooleanFunction:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise TableFormatError("expected two lines (arity, table)", len(lines) or 1)
    if len(lines) > 2:
        raise TableFormatError("trailing content after table line", 3)
    try:
        arity = int(lines[0].strip())
    except ValueError:
        raise TableFormatError(f"arity line is not an integer: {lines[0]!r}", 1) from None
    if not 0 < arity <= MAX_TABLE_ARITY:
        raise TableFormatError(f"arity {arity} outside 1..{MAX_TABLE_ARITY}", 1)
    row = lines[1]
    if len(row) != 1 << arity:
        raise TableFormatError(f"table has {len(row)} entries, expected {1 << arity}", 2, len(row))
    for pos, c in enumerate(row):
        if c not in "01":
            raise TableFormatError(f"invalid character {c!r}", 2, pos + 1)
    return BooleanFunction(arity, bytes(int(c) for c in row))


def format_table(f: BooleanFunction) -> str:
    return f"{f.arity}\n{''.join(map(str, f.table))}\n"


def load_table(path) -> BooleanFunction:
    with open(path, "r", encoding="ascii") as fh:
        return parse_table(fh.read())


def save_table(f: BooleanFunction, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_table(f))
