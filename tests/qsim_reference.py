"""`progress_trace` as one batch, for tests.

The trace `qsim.progress_trace` ran before it evolved and overlapped the
states in row blocks: the pairs come from `sweep_pairs("a")` through a
position dict, every step builds the whole product, phase array and pair
overlap at once.  Its values, drops and errors are the ones the blocked
trace must reproduce bit for bit.
"""

import numpy as np

from advwb.qsim import INPUT_CAP, ProgressTrace, QsimError, QueryAlgorithm


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
