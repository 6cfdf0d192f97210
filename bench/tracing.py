"""Spans around the public functions of each advwb layer, from outside.

A Tracer replaces module attributes (and two ComposedScheme methods) with
timing wrappers.  Every name a module imported directly is patched too, so
`qsim.loads`, `compose.loads`, `compose.compose_tables`,
`adversary.exact_sum` and `matchings.relation_bound` are traced like the
originals.  Each span stores its name, start, end, parent span and
operation id in flat arrays kept in memory; `dump` writes them out at the
end and `layer_metrics` turns a dump into per-layer self times and counts.

Self time is a span's duration minus the durations of its direct child
spans.  Generator methods (`ComposedScheme.sweep_pairs`) get one span per
`next()` call, so the consumer's work between items is not charged to them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute); every module attribute bound to the same
# function object is replaced by the wrapper.
FUNCTION_SPANS = (
    ("weights.exact_sum", "advwb.weights", "exact_sum"),
    ("adversary.loads", "advwb.adversary", "loads"),
    ("adversary.verify", "advwb.adversary", "verify"),
    ("adversary.balance", "advwb.adversary", "balance"),
    ("adversary.builtin_scheme", "advwb.adversary", "builtin_scheme"),
    ("adversary.load_scheme", "advwb.adversary", "load_scheme"),
    ("adversary.relation_bound", "advwb.adversary", "relation_bound"),
    ("compose.check_corollary", "advwb.compose", "check_corollary"),
    ("matchings.build", "advwb.matchings", "build_matchings"),
    ("matchings.check", "advwb.matchings", "check_matchings"),
    ("boolfn.iterate", "advwb.boolfn", "iterate"),
    ("boolfn.compose", "advwb.boolfn", "compose"),
    ("measures.approx", "advwb.measures", "approx_polynomial"),
    ("measures.lp_exact", "advwb.simplex", "solve_min"),
    ("measures.lp_float", "scipy.optimize", "linprog"),
    ("measures.det_complexity", "advwb.measures", "det_complexity"),
    ("measures.block_sensitivity", "advwb.measures", "block_sensitivity"),
    ("measures.certificate", "advwb.measures", "certificate_complexity"),
    ("measures.iterated_certificates", "advwb.measures", "iterated_certificates"),
    ("qsim.progress_trace", "advwb.qsim", "progress_trace"),
    ("qsim.random_algorithm", "advwb.qsim", "random_algorithm"),
    ("qsim.check_final_bound", "advwb.qsim", "check_final_bound"),
    ("cli.main", "advwb.cli", "main"),
)

# Reported in this order by a traced run; (name, unit).
PER_LAYER = (
    ("weights.exact_sum.calls", "count"),
    ("weights.exact_sum.s", "s"),
    ("adversary.loads.calls", "count"),
    ("adversary.loads.s", "s"),
    ("adversary.loads.pairs", "count"),
    ("adversary.verify.s", "s"),
    ("adversary.verify.pairs", "count"),
    ("adversary.balance.s", "s"),
    ("adversary.builtin_scheme.s", "s"),
    ("adversary.load_scheme.s", "s"),
    ("adversary.relation_bound.s", "s"),
    ("adversary.relation_bound.pairs", "count"),
    ("compose.construct.s", "s"),
    ("compose.sweep.s", "s"),
    ("compose.check_corollary.calls", "count"),
    ("compose.check_corollary.s", "s"),
    ("compose.bare_sweep.s", "s"),
    ("matchings.build.calls", "count"),
    ("matchings.build.s", "s"),
    ("matchings.check.s", "s"),
    ("boolfn.iterate.calls", "count"),
    ("boolfn.iterate.s", "s"),
    ("boolfn.compose.s", "s"),
    ("measures.approx.calls", "count"),
    ("measures.approx.s", "s"),
    ("measures.lp_exact.calls", "count"),
    ("measures.lp_exact.s", "s"),
    ("measures.lp_float.calls", "count"),
    ("measures.lp_float.s", "s"),
    ("measures.lp_useful_ratio", "1"),
    ("measures.deadline_failed", "count"),
    ("measures.det_complexity.s", "s"),
    ("measures.block_sensitivity.s", "s"),
    ("measures.certificate.s", "s"),
    ("measures.iterated_certificates.s", "s"),
    ("qsim.progress_trace.calls", "count"),
    ("qsim.progress_trace.s", "s"),
    ("qsim.trace_loads.s", "s"),
    ("qsim.random_algorithm.s", "s"),
    ("qsim.check_final_bound.s", "s"),
    ("qsim.evolve.flop_computed", "flop"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.exit_nonzero", "count"),
    ("trace.overhead_frac", "1"),
)

def _pairs(scheme, *args, **kwargs) -> int:
    return scheme.pair_count


def _relation_pairs(f, a, b, relation) -> int:
    return len(relation)


def _evolve_flops(alg, scheme, **kwargs) -> int:
    """Real flops of the batched evolution, 8 * inputs * dim^2 per query."""
    inputs = len(set(scheme.a_side) | set(scheme.b_side))
    return 8 * inputs * alg.dimension**2 * alg.queries


# Counters kept beside the spans: span name -> (counter, amount), where the
# amount is computed from the call's arguments, or from its result.
ARG_COUNTERS = {
    "adversary.loads": ("adversary.loads.pairs", _pairs),
    "adversary.verify": ("adversary.verify.pairs", _pairs),
    "adversary.relation_bound": ("adversary.relation_bound.pairs", _relation_pairs),
    "qsim.progress_trace": ("qsim.evolve.flop_computed", _evolve_flops),
}
RESULT_COUNTERS = {
    "measures.approx": ("measures.approx.returned", lambda witness: 1),
    "cli.main": ("cli.exit_nonzero", lambda code: int(code != 0)),
}


class Tracer:
    """In-memory span recorder; `install` patches the layers in place."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        if name not in ARG_COUNTERS and name not in RESULT_COUNTERS:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        else:
            counts = self.counts
            arg_key, arg_amount = ARG_COUNTERS.get(name, (None, None))
            result_key, result_amount = RESULT_COUNTERS.get(name, (None, None))

            def wrapper(*args, **kwargs):
                if arg_key is not None:
                    counts[arg_key] += arg_amount(*args, **kwargs)
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if result_key is not None:
                    counts[result_key] += result_amount(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, genfn):
        """One span per next() call of the generator genfn returns."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            try:
                while True:
                    idx = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item
            finally:
                gen.close()

        wrapper.__wrapped__ = genfn
        return wrapper

    def install(self) -> None:
        """Patch every traced function and method of the loaded layers."""
        import advwb.cli  # noqa: F401  (loads every advwb module)
        from advwb.compose import ComposedScheme

        scopes = [m for n, m in sys.modules.items() if n.split(".")[0] == "advwb"]
        for name, module_name, attr in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for scope in scopes + [module]:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, key, wrapper)
        ComposedScheme.__init__ = self.wrap("compose.construct", ComposedScheme.__init__)
        ComposedScheme.sweep_pairs = self.wrap_generator(
            "compose.sweep", ComposedScheme.sweep_pairs
        )

    def bare_sweep(self, composed) -> None:
        """Consume both sides of the unwrapped sweep, doing nothing per record."""
        sweep = type(composed).sweep_pairs.__wrapped__
        for side in ("a", "b"):
            with self.span("compose.bare_sweep"):
                for _ in sweep(composed, side):
                    pass

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            meta=np.array(json.dumps({"names": self.names, "counts": self.counts})),
        )


def layer_metrics(paths) -> dict[str, float]:
    """Per-layer self times and counts from one or more span dumps."""
    import numpy as np

    totals: Counter = Counter()
    for path in paths:
        with np.load(path) as doc:
            meta = json.loads(str(doc["meta"]))
            name, parent = doc["name"], doc["parent"]
            dur = doc["end"] - doc["start"]
        names = meta["names"]
        totals.update(meta["counts"])
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - child_time
        for nid, label in enumerate(names):
            sel = name == nid
            totals[label + ".calls"] += int(sel.sum())
            totals[label + ".s"] += float(self_time[sel].sum())
        if "qsim.progress_trace" in names and "adversary.loads" in names:
            # inclusive time of loads calls made while a trace is open
            trace_id = names.index("qsim.progress_trace")
            under = np.zeros(len(dur), dtype=bool)
            par = np.where(child, parent, 0)
            while True:
                nxt = child & ((name[par] == trace_id) | under[par])
                if np.array_equal(nxt, under):
                    break
                under = nxt
            sel = under & (name == names.index("adversary.loads"))
            totals["qsim.trace_loads.s"] += float(dur[sel].sum())
    solves = totals["measures.lp_exact.calls"] + totals["measures.lp_float.calls"]
    totals["measures.lp_useful_ratio"] = (
        totals["measures.approx.returned"] / solves if solves else 0.0
    )
    return {name: totals[name] for name, _ in PER_LAYER}
