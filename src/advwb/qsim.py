"""Exact small-dimension simulator for the phase-oracle query model.

An algorithm is a sequence of unitaries interleaved with an
input-dependent oracle that flips the sign of basis state |i, z> when
the i-th input variable is 1 (the i = 0 states are left alone).  A trace
evolves the state vectors of every input a scheme's pairs touch, once:
after each oracle call it reads the weighted sum W_t of pairwise inner
products, and after the last unitary it measures the designated output
bit for each input's error.  The checks then read that trace alone: each
query may move W by at most 2 * v_max * W_0, and an eps-error algorithm
must finish with it below 2 sqrt(eps(1-eps)) * W_0.  The simulator needs
only the scheme's records (`f`, its sides and the A side's
`slice_table`); v_max is the caller's, from the scheme's loads.

A pair only ever reads the states of its own connected component of the
scheme's pairs, so a trace evolves groups of rows closed under the pairs,
one group at a time through every unitary: consecutive components packed
into groups of at most 256 rows, a larger component held whole.  Each
pair's overlap per step goes into a (T + 1, pairs) history, and W_t dots
the weights with row t.  When all inputs fit one block, or when the
history would cost more than it saves, the trace holds one (inputs,
dimension) state array and reads W_t as it is made.  Inside a group,
unitaries, the oracle, pair overlaps and acceptance go through the state
a block of rows at a time, and each row and pair is reduced as in a
whole-batch pass, so no value depends on the grouping or the blocking.
Set-up works on whole arrays: the pairs come off the slice table with
each distinct slice entry read once and each distinct pair weight made a
float once (a scheme file's weights are one object per distinct weight
string, parsed once per file), and `random_algorithm` draws and factors
its unitaries only after the dimension and query caps have been checked.
That draw, and the unitarity check of every algorithm, run in batches
over blocks of one stack of matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIMENSION_CAP = 64
INPUT_CAP = 4096
QUERY_CAP = 1024
UNITARY_TOL = 1e-9
CHECK_TOL = 1e-9
_BLOCK = 256  # state rows, or pairs, per block of a trace
_MATRIX_BLOCK_BYTES = 1 << 18  # bytes of matrices per block of a draw or unitarity check


class QsimError(ValueError):
    """Bad algorithm data: dimensions, unitarity, or cap violations."""


class AlgorithmErrorTooLarge(QsimError):
    """The algorithm misses the allowed error on some inputs.

    Raised by the final-bound check when its precondition fails; carries
    the offending inputs so the caller can report them.
    """

    def __init__(self, bad_inputs: list[tuple[int, float]], eps: float):
        self.bad_inputs = bad_inputs
        self.eps = eps
        shown = ", ".join(f"x={x} err={e:.6f}" for x, e in bad_inputs[:8])
        more = "" if len(bad_inputs) <= 8 else f" (+{len(bad_inputs) - 8} more)"
        super().__init__(
            f"algorithm exceeds error {eps} on {len(bad_inputs)} inputs: {shown}{more}"
        )


def _default_selector(i: int, z: int) -> bool:
    """Accept when the rightmost bit of the work label is 1."""
    return z % 2 == 1


def _checked_dimension(n: int, work: int) -> int:
    """The dimension (n+1)*work, once n, work and the cap allow it."""
    if n < 1:
        raise QsimError(f"need n >= 1, got {n}")
    if work < 1:
        raise QsimError(f"need work >= 1, got {work}")
    dim = (n + 1) * work
    if dim > DIMENSION_CAP:
        raise QsimError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    return dim


def _matrices_per_block(dim: int) -> int:
    """The dim x dim complex128 matrices that fill _MATRIX_BLOCK_BYTES, at least one."""
    return max(1, _MATRIX_BLOCK_BYTES // (16 * dim * dim))


def _check_queries(queries: int) -> None:
    """A builder's query count: 0 up to the cap, checked before any matrix."""
    if queries < 0:
        raise QsimError("need at least one unitary")
    if queries > QUERY_CAP:
        raise QsimError(f"{queries} queries exceed the cap {QUERY_CAP}")


@dataclass(frozen=True, eq=False)
class QueryAlgorithm:
    """T-query algorithm: unitaries U_0..U_T on the (n+1)*work space.

    Basis states are |i, z> with query label i in 0..n and work label
    z in 0..work-1, laid out as index i*work + z.  The selector marks
    accepting basis labels; by default the rightmost bit of z.  The
    unitaries may come as a sequence of matrices or as one (T + 1, dim,
    dim) stack; they are kept as a tuple of complex128 matrices, views of
    the stack when it is complex128 already.
    """

    n: int
    unitaries: tuple[np.ndarray, ...]
    work: int = 2
    selector: object = _default_selector
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        dim = _checked_dimension(self.n, self.work)
        if len(self.unitaries) == 0:
            raise QsimError("need at least one unitary")
        for t, u in enumerate(self.unitaries):
            shape = np.shape(u)
            if shape != (dim, dim):
                raise QsimError(f"unitary {t} has shape {shape}, expected {(dim, dim)}")
        mats = np.asarray(self.unitaries, dtype=np.complex128)  # no copy of a stack
        step = _matrices_per_block(dim)
        for lo in range(0, len(mats), step):
            block = mats[lo : lo + step]
            # U_t^H U_t for each t of the block; huge entries overflow to inf
            # or nan, which the defect test rejects, so numpy need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                gram = block.conj().transpose(0, 2, 1) @ block
            gram -= np.eye(dim)
            defects = np.abs(gram).max(axis=(1, 2))
            bad = np.flatnonzero(~(defects <= UNITARY_TOL))  # NaN entries fail too
            if bad.size:
                t = bad[0]
                raise QsimError(
                    f"matrix {lo + t} is not unitary "
                    f"(defect {defects[t]:.3e} > {UNITARY_TOL})"
                )
        object.__setattr__(self, "unitaries", tuple(mats))

    @property
    def dimension(self) -> int:
        return (self.n + 1) * self.work

    @property
    def queries(self) -> int:
        return len(self.unitaries) - 1

    def accept_mask(self) -> np.ndarray:
        sel = self.selector
        return np.array(
            [bool(sel(i, z)) for i in range(self.n + 1) for z in range(self.work)]
        )

    def phase_rows(self, inputs) -> np.ndarray:
        """Oracle diagonals, one row per input x: -1 on |i, z> with x_i = 1."""
        xs = np.asarray(inputs, dtype=np.int64)
        # bit n - i of x is x_i; label 0 reads bit n, which is 0
        bits = (xs[:, None] >> np.arange(self.n, -1, -1)) & 1
        return np.where(bits, -1.0, 1.0).repeat(self.work, axis=1)


@dataclass(frozen=True, eq=False)
class ProgressTrace:
    """Weighted inner-product sums W_0..W_T, their per-step drops, and the
    algorithm's error on each input the scheme's pairs touch, by input."""

    values: tuple[float, ...]
    drops: tuple[float, ...]
    errors: dict[int, float]

    @property
    def w0(self) -> float:
        return self.values[0]

    @property
    def final(self) -> float:
        return self.values[-1]


def _blocks(count: int) -> list[slice]:
    """Consecutive slices of range(count), near-equal and at most _BLOCK long.

    From count >= 2 rows on, no block has a single row: numpy multiplies a
    one-row block as a vector, with other rounding than the batch.
    """
    k = -(-count // _BLOCK)
    cuts = [count * j // k for j in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _pair_rows(scheme, inputs: np.ndarray):
    """State rows of each pair's source and partner, and its float weight.

    The pairs come in source, slot and entry order, read off the A-side
    slice table: every filled slot of a row contributes its slice's
    entries, with partner source ^ xor.  Each distinct slice entry is
    read once, and each distinct weight becomes a float once.
    """
    sources, ids, slices = scheme.slice_table("a")
    floats: dict = {}  # each distinct pair weight -> its float
    xors, ws, lens = [], [], []
    for sl in slices:
        lens.append(len(sl.entries))
        for xor, w, _ in sl.entries:
            f = floats.get(w)
            if f is None:
                f = floats[w] = float(w)
            xors.append(xor)
            ws.append(f)
    lens = np.array(lens)
    filled = ids >= 0
    cell = ids[filled]
    counts = lens[cell]
    ends = counts.cumsum()
    # entry j of a cell's slice sits at the slice's start + j in the flat lists
    shift = (lens.cumsum() - lens)[cell] - (ends - counts)
    entry = np.arange(ends[-1]) + shift.repeat(counts)
    x = sources[filled.nonzero()[0]].repeat(counts)
    y = x ^ np.array(xors)[entry]
    return inputs.searchsorted(x), inputs.searchsorted(y), np.array(ws)[entry]


def _row_groups(count: int, xi: np.ndarray, yi: np.ndarray, steps: int, dim: int):
    """Groups of state rows closed under the pairs, or None for one group.

    Each group is (rows, ids, gx, gy): its rows, the indices of the pairs
    whose source row is among them, and those pairs' source and partner
    rows within the group.  The rows split into the connected components
    of the pairs, and consecutive components are packed into groups of at
    most _BLOCK rows; a larger component is a group of its own.  Every row
    is in a pair (a scheme's sides are its pairs' ends), so no group has a
    single row, which numpy would multiply as a vector.  There is one
    group when all rows fit one block, and when a (steps, pairs) float
    history plus the largest group would not be smaller than the whole
    (count, dim) state array.
    """
    state_bytes, history_bytes = count * dim * 16, steps * len(xi) * 8
    if count <= _BLOCK or history_bytes >= state_bytes:
        return None
    # label each row with the least row of its component: label[r] <= r is
    # a row of r's component, and a row with label[r] == r a root.  Each
    # round hooks every root to the least root across its pairs, then
    # points every row at its root; int32 labels, as count <= INPUT_CAP
    label = np.arange(count, dtype=np.int32)
    while True:
        lx, ly = label[xi], label[yi]
        if np.array_equal(lx, ly):
            break
        low = np.minimum(lx, ly)
        np.minimum.at(label, lx, low)
        np.minimum.at(label, ly, low)
        del lx, ly, low
        while not np.array_equal(up := label[label], label):
            label = up
    order = np.argsort(label, kind="stable")  # the rows, component by component
    cuts, prev = [0], 0
    for end in (np.flatnonzero(np.diff(label[order])) + 1).tolist() + [count]:
        if end - cuts[-1] > _BLOCK and prev > cuts[-1]:
            cuts.append(prev)
        prev = end
    cuts.append(count)
    sizes = np.diff(cuts)
    if history_bytes + int(sizes.max()) * dim * 16 >= state_bytes:
        return None
    group, local = np.empty((2, count), dtype=np.int64)
    group[order] = np.arange(len(sizes)).repeat(sizes)
    local[order] = np.arange(count) - np.repeat(cuts[:-1], sizes)
    by_group = np.argsort(group[xi], kind="stable")
    pair_cuts = np.bincount(group[xi], minlength=len(sizes)).cumsum().tolist()
    out = []
    for lo, hi, plo, phi in zip(cuts, cuts[1:], [0] + pair_cuts, pair_cuts):
        ids = by_group[plo:phi]
        out.append((order[lo:hi], ids, local[xi[ids]], local[yi[ids]]))
    return out


def _evolve(alg: QueryAlgorithm, inputs: np.ndarray, groups, record) -> np.ndarray:
    """Every input's acceptance probability after one evolution of its state.

    Each group (rows, ids, xi, yi) is a set of rows of inputs, an index
    array or a slice, closed under the pairs whose source and partner sit
    at its rows xi and yi; the groups evolve one at a time through every
    unitary.  record(t, ids, inner) sees the overlaps |<psi_x|psi_y>| of a
    group's pairs right after the t-th oracle call (t = 0 before any).  A
    group's states are the leading rows of one (rows, dim) array made once
    for the largest group, with their oracle diagonals, float +-1 rows, and
    two blocks of rows beside it.  Each unitary goes through the first
    block a block of rows at a time, and the oracle multiplies the rows on
    the way back.  The overlaps are summed in blocks of pairs, the source
    rows in the first block and the partner rows in the second.  Every row
    and every pair is reduced as in one whole-batch pass, so no value
    depends on the grouping or the blocking.
    """
    dim = alg.dimension
    most = max(len(inputs[rows]) for rows, *_ in groups)
    pairs = max(len(xi) for _, _, xi, _ in groups)
    held = np.empty((most, dim), dtype=np.complex128)
    left = np.empty((min(max(most, pairs), _BLOCK), dim), dtype=np.complex128)
    right = np.empty((min(pairs, _BLOCK), dim), dtype=np.complex128)
    overlap = np.empty(pairs)
    last, mask = alg.unitaries[-1].T, alg.accept_mask()
    accept = np.empty(len(inputs))
    for group, ids, xi, yi in groups:
        xs = inputs[group]
        phases = alg.phase_rows(xs)
        states = held[: len(xs)]
        states[...] = 0.0
        states[:, 0] = 1.0
        inner = overlap[: len(xi)]
        # per block of rows: its slice, its state rows, as many buffer rows
        # and its oracle rows
        rows = [
            (b, states[b], left[: b.stop - b.start], phases[b])
            for b in _blocks(len(xs))
        ]
        blocks = []
        for b in _blocks(len(xi)):
            m = b.stop - b.start
            blocks.append((xi[b], yi[b], left[:m], right[:m], inner[b]))

        def overlaps(t: int) -> None:
            for xb, yb, sx, sy, out in blocks:
                states.take(xb, axis=0, out=sx, mode="clip")
                np.conjugate(sx, out=sx)
                states.take(yb, axis=0, out=sy, mode="clip")
                np.multiply(sx, sy, out=sx)
                np.abs(np.add.reduce(sx, axis=1), out=out)
            record(t, ids, inner)

        overlaps(0)
        for t, u in enumerate(alg.unitaries[:-1], 1):
            ut = u.T
            for _, here, block, phase in rows:
                np.matmul(here, ut, out=block)
                np.multiply(block, phase, out=here)
            overlaps(t)
        probs = np.empty(len(xs))
        for b, here, block, _ in rows:
            np.matmul(here, last, out=block)
            probs[b] = np.sum(np.abs(block[:, mask]) ** 2, axis=1)
        accept[group] = probs
    return accept


def progress_trace(alg: QueryAlgorithm, scheme) -> ProgressTrace:
    """One evolution of every input's state against the scheme's pairs.

    W_t is read right after the t-th oracle call: the unitary that follows
    leaves pairwise inner products unchanged.  U_T is applied once at the
    end, and each input's acceptance probability gives its error.

    The inputs evolve in groups of rows closed under the pairs
    (`_row_groups`), one group at a time through every unitary
    (`_evolve`), each pair's overlap at step t written into a (T + 1,
    pairs) history at the pair's index; W_t then dots the weights with
    row t.  When there is one group, W_t is read as it is made and no
    history is kept.  Either way each W_t dots the same overlaps in the
    same pair order, so the values do not depend on the grouping.
    """
    if scheme.f.arity != alg.n:
        raise QsimError(
            f"scheme arity {scheme.f.arity} does not match algorithm n = {alg.n}"
        )
    # np.union1d's result; a bare np.unique would import numpy.ma
    xs = np.unique(np.concatenate((scheme.a_side, scheme.b_side)), return_index=True)[0]
    if len(xs) > INPUT_CAP:
        raise QsimError(f"{len(xs)} inputs exceed the cap {INPUT_CAP}")
    xi, yi, w = _pair_rows(scheme, xs)
    groups = _row_groups(len(xs), xi, yi, len(alg.unitaries), alg.dimension)
    if groups is None:
        values = []
        accept = _evolve(
            alg,
            xs,
            [(slice(None), None, xi, yi)],
            lambda t, _, inner: values.append(float(np.dot(w, inner))),
        )
    else:
        history = np.empty((len(alg.unitaries), len(w)))
        accept = _evolve(
            alg, xs, groups, lambda t, ids, inner: history[t].put(ids, inner)
        )
        values = [float(np.dot(w, h)) for h in history]
    table = scheme.f.table
    errors = {
        x: 1.0 - p if table[x] else p for x, p in zip(xs.tolist(), accept.tolist())
    }
    drops = tuple(
        abs(values[t] - values[t - 1]) for t in range(1, len(values))
    )
    return ProgressTrace(values=tuple(values), drops=drops, errors=errors)


def check_drop_bound(trace: ProgressTrace, v_max) -> bool:
    """Every per-query change obeys |W_t - W_(t-1)| <= 2 v_max W_0."""
    limit = 2.0 * float(v_max) * trace.w0 + CHECK_TOL
    return all(d <= limit for d in trace.drops)


def check_final_bound(trace: ProgressTrace, eps: float) -> bool:
    """W_T <= 2 sqrt(eps(1-eps)) W_0 for an algorithm meeting error eps.

    Raises AlgorithmErrorTooLarge when the traced error exceeds eps on
    some input (the inequality's precondition, not a violation of the
    inequality itself).
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    bad = [(x, e) for x, e in trace.errors.items() if e > eps + CHECK_TOL]
    if bad:
        raise AlgorithmErrorTooLarge(bad, eps)
    limit = 2.0 * float(np.sqrt(eps * (1.0 - eps))) * trace.w0 + CHECK_TOL
    return trace.final <= limit


def query_lower_bound(eps: float, v_max) -> float:
    """Queries any eps-error algorithm needs: (1 - 2 sqrt(eps(1-eps))) / (2 v_max)."""
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    return (1.0 - 2.0 * float(np.sqrt(eps * (1.0 - eps)))) / (2.0 * float(v_max))


def random_algorithm(
    n: int, queries: int, *, work: int = 2, seed: int | None = None
) -> QueryAlgorithm:
    """Seeded algorithm with Haar-ish unitaries (QR of complex Gaussians).

    The matrices are drawn and factored a block at a time into one stack:
    the same numbers as one batch, with one block of temporaries beside it.
    """
    dim = _checked_dimension(n, work)
    _check_queries(queries)
    rng = np.random.default_rng(seed)
    q = np.empty((queries + 1, dim, dim), dtype=np.complex128)
    step = _matrices_per_block(dim)
    for lo in range(0, queries + 1, step):
        # real then imaginary part of each matrix in turn
        g = rng.standard_normal((min(step, queries + 1 - lo), 2, dim, dim))
        qb, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        # fix the phase convention so the factorization is unique
        diag = np.diagonal(r, axis1=1, axis2=2)
        q[lo : lo + len(g)] = qb * (diag / np.abs(diag))[:, None, :]
    return QueryAlgorithm(n=n, unitaries=q, work=work, seed=seed)


def identity_algorithm(n: int, queries: int, *, work: int = 2) -> QueryAlgorithm:
    """Does nothing: every unitary is the identity."""
    dim = _checked_dimension(n, work)
    _check_queries(queries)
    return QueryAlgorithm(
        n=n, unitaries=tuple(np.eye(dim) for _ in range(queries + 1)), work=work
    )


def parity2_algorithm() -> QueryAlgorithm:
    """One query decides the parity of two bits exactly.

    Splits the start state over the two query labels, queries, and
    recombines so the relative sign lands in the output bit.
    """
    s = 1.0 / np.sqrt(2.0)
    u0 = np.zeros((6, 6))
    u0[2, 0] = u0[4, 0] = s  # |0,0> -> (|1,0> + |2,0>)/sqrt(2)
    u0[2, 2], u0[4, 2] = s, -s
    u0[0, 4] = 1.0
    u0[1, 1] = u0[3, 3] = u0[5, 5] = 1.0
    u1 = np.zeros((6, 6))
    u1[0, 2], u1[1, 2] = s, s  # |1,0> -> (|0,0> + |0,1>)/sqrt(2)
    u1[0, 4], u1[1, 4] = s, -s
    u1[2, 0] = 1.0
    u1[4, 1] = 1.0
    u1[3, 3] = u1[5, 5] = 1.0
    return QueryAlgorithm(n=2, unitaries=(u0, u1), work=2)


def save_algorithm(alg: QueryAlgorithm, path: str | Path) -> None:
    """Write the algorithm as JSON (unitaries as row-major [re, im] pairs)."""
    doc = {
        "n": alg.n,
        "work": alg.work,
        "unitaries": [
            [[float(v.real), float(v.imag)] for v in u.ravel(order="C")]
            for u in alg.unitaries
        ],
    }
    Path(path).write_text(json.dumps(doc))


def _is_flat_matrix(flat) -> bool:
    """A list of [re, im] number pairs, as `save_algorithm` writes one unitary.

    JSON true and false are no numbers here, though Python's bool is an int.
    """
    return isinstance(flat, list) and all(
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)
        for v in flat
    )


def load_algorithm(path: str | Path) -> QueryAlgorithm:
    """Read an algorithm from JSON, rejecting non-unitary matrices."""
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:
        raise QsimError(f"malformed algorithm file {path}: JSON nests too deep") from None
    if not isinstance(doc, dict):
        raise QsimError(f"malformed algorithm file {path}: not a JSON object")
    try:
        n = doc.get("n", doc.get("N"))
        work = doc["work"]
        raw = doc["unitaries"]
    except KeyError as exc:
        raise QsimError(f"malformed algorithm file {path}: {exc}") from None
    for key, value in (("n", n), ("work", work)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise QsimError(
                f"malformed algorithm file {path}: {key!r} must be an integer, "
                f"not {type(value).__name__}"
            )
    if not isinstance(raw, list) or not all(map(_is_flat_matrix, raw)):
        raise QsimError(
            f"malformed algorithm file {path}: 'unitaries' must be a list of "
            "lists of [re, im] number pairs"
        )
    dim = _checked_dimension(n, work)
    mats = []
    for t, flat in enumerate(raw):
        if len(flat) != dim * dim:
            raise QsimError(
                f"unitary {t} has {len(flat)} entries, expected {dim * dim}"
            )
        vals = np.array([complex(re, im) for re, im in flat])
        mats.append(vals.reshape(dim, dim))
    return QueryAlgorithm(n=n, unitaries=tuple(mats), work=work)
