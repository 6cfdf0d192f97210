"""Exact small-dimension simulator for the phase-oracle query model.

An algorithm is a sequence of unitaries interleaved with an
input-dependent oracle that flips the sign of basis state |i, z> when
the i-th input variable is 1 (the i = 0 states are left alone).  A trace
evolves the state vectors of every input a scheme's pairs touch, once
and as one batch: after each oracle call it reads the weighted sum W_t
of pairwise inner products, and after the last unitary it measures the
designated output bit for each input's error.  The checks then read
that trace alone: each query may move W by at most 2 * v_max * W_0, and
an eps-error algorithm must finish with it below 2 sqrt(eps(1-eps)) * W_0.
The simulator needs only the scheme's records (`f`, its sides and
`sweep_pairs`); v_max is the caller's, from the scheme's loads.

Set-up works on whole arrays: every input's oracle row comes from its
bits in one pass, each distinct pair weight becomes a float once (a
scheme file's weights are one object per distinct weight string, parsed
once per file), and `random_algorithm` draws and factors all its
unitaries in one batch, after the dimension cap has been checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIMENSION_CAP = 64
INPUT_CAP = 4096
UNITARY_TOL = 1e-9
CHECK_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class QueryAlgorithm:
    """T-query algorithm: unitaries U_0..U_T on the (n+1)*work space.

    Basis states are |i, z> with query label i in 0..n and work label
    z in 0..work-1, laid out as index i*work + z.  The selector marks
    accepting basis labels; by default the rightmost bit of z.
    """

    n: int
    unitaries: tuple[np.ndarray, ...]
    work: int = 2
    selector: object = _default_selector
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        dim = _checked_dimension(self.n, self.work)
        if not self.unitaries:
            raise QsimError("need at least one unitary")
        mats = []
        for t, u in enumerate(self.unitaries):
            m = np.asarray(u, dtype=np.complex128)
            if m.shape != (dim, dim):
                raise QsimError(
                    f"unitary {t} has shape {m.shape}, expected {(dim, dim)}"
                )
            defect = np.abs(m.conj().T @ m - np.eye(dim)).max()
            if not defect <= UNITARY_TOL:  # NaN entries fail too
                raise QsimError(
                    f"matrix {t} is not unitary (defect {defect:.3e} > {UNITARY_TOL})"
                )
            mats.append(m)
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
        bits = (xs[:, None] >> np.arange(self.n - 1, -1, -1)) & 1  # x_1 .. x_n
        signs = np.ones((len(xs), self.n + 1))
        signs[:, 1:] -= 2.0 * bits
        return np.repeat(signs, self.work, axis=1)


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


def progress_trace(alg: QueryAlgorithm, scheme) -> ProgressTrace:
    """One batched evolution against the scheme's weighted pair relation.

    W_t is read right after the t-th oracle call: the unitary that follows
    leaves pairwise inner products unchanged.  U_T is applied once at the
    end, and each input's acceptance probability gives its error.
    """
    if scheme.f.arity != alg.n:
        raise QsimError(
            f"scheme arity {scheme.f.arity} does not match algorithm n = {alg.n}"
        )
    inputs = sorted(set(scheme.a_side) | set(scheme.b_side))
    if len(inputs) > INPUT_CAP:
        raise QsimError(f"{len(inputs)} inputs exceed the cap {INPUT_CAP}")
    pos = {x: r for r, x in enumerate(inputs)}
    code: dict = {}  # each distinct pair weight, numbered in order of first use
    rows = [
        (pos[x], pos[y], code.setdefault(w, len(code)))
        for x, records in scheme.sweep_pairs("a")
        for y, w, _ in records
    ]
    xi, yi, wi = (np.array(col) for col in zip(*rows))
    w_arr = np.array([float(w) for w in code])[wi]

    def weighted_overlap(states: np.ndarray) -> float:
        inner = np.abs(np.sum(states[xi].conj() * states[yi], axis=1))
        return float(np.dot(w_arr, inner))

    states = np.zeros((len(inputs), alg.dimension), dtype=np.complex128)
    states[:, 0] = 1.0
    phases = alg.phase_rows(inputs)
    values = [weighted_overlap(states)]
    for u in alg.unitaries[:-1]:
        states = (states @ u.T) * phases
        values.append(weighted_overlap(states))
    states = states @ alg.unitaries[-1].T
    accept = np.sum(np.abs(states[:, alg.accept_mask()]) ** 2, axis=1)
    table = scheme.f.table
    errors = {
        x: 1.0 - float(p) if table[x] else float(p) for x, p in zip(inputs, accept)
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
    """Seeded algorithm with Haar-ish unitaries (QR of complex Gaussians)."""
    dim = _checked_dimension(n, work)
    if queries < 0:
        raise QsimError("need at least one unitary")
    rng = np.random.default_rng(seed)
    # real then imaginary part of each matrix in turn, one draw for all
    g = rng.standard_normal((queries + 1, 2, dim, dim))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    # fix the phase convention so the factorization is unique
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return QueryAlgorithm(n=n, unitaries=tuple(q), work=work, seed=seed)


def identity_algorithm(n: int, queries: int, *, work: int = 2) -> QueryAlgorithm:
    """Does nothing: every unitary is the identity."""
    dim = _checked_dimension(n, work)
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
    """A list of [re, im] number pairs, as `save_algorithm` writes one unitary."""
    return isinstance(flat, list) and all(
        isinstance(v, list) and len(v) == 2 and all(isinstance(c, (int, float)) for c in v)
        for v in flat
    )


def load_algorithm(path: str | Path) -> QueryAlgorithm:
    """Read an algorithm from JSON, rejecting non-unitary matrices."""
    doc = json.loads(Path(path).read_text())
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
    dim = (n + 1) * work
    mats = []
    for t, flat in enumerate(raw):
        if len(flat) != dim * dim:
            raise QsimError(
                f"unitary {t} has {len(flat)} entries, expected {dim * dim}"
            )
        vals = np.array([complex(re, im) for re, im in flat])
        mats.append(vals.reshape(dim, dim))
    return QueryAlgorithm(n=n, unitaries=tuple(mats), work=work)
