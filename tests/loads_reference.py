"""`loads` as a per-source loop, for tests.

The loop `adversary.loads` ran before it summed slices as integer arrays:
walk each source's slices one source at a time (`source_slices`), add the
exact per-slice sums (`Slice.wt` and `slice_v`) through memoized value
numbers, and group each side's distinct v(x, i) by wt(x).  `assert_loads_match` compares every
`LoadReport` field with it, exactly and as printed, and the key order of
the wt and v maps.
"""

from dataclasses import fields

from advwb.adversary import LoadReport, SchemeError, loads
from advwb.weights import ONE, exact_sum
from scheme_records import source_slices


def slice_v(sl) -> dict:
    """Coordinate i -> the exact sum of a slice's forward weights at i, in
    the order the entries first name i."""
    per_i: dict[int, list] = {}
    for _, _, diffs in sl.entries:
        for i, fwd, _ in diffs:
            per_i.setdefault(i, []).append(fwd)
    return {i: exact_sum(vals) for i, vals in per_i.items()}


class _Sums:
    """Distinct values numbered 0, 1, ...; addition memoized on the numbers."""

    def __init__(self):
        self.values: list = []
        self._ids: dict = {}
        self._sums: dict = {}
        self._slices: dict = {}

    def id(self, value) -> int:
        k = self._ids.get(value)
        if k is None:
            k = self._ids[value] = len(self.values)
            self.values.append(value)
        return k

    def add(self, a: int, b: int) -> int:
        k = self._sums.get((a, b))
        if k is None:
            k = self._sums[(a, b)] = self.id(self.values[a] + self.values[b])
        return k

    def source(self, slices) -> tuple[int, dict]:
        """wt(x) and i -> v(x, i) of a source, as numbers, from its slices."""
        agg = self._slices
        first, *rest = slices
        wt, v = agg.get(first) or self._slice(first)
        if rest:
            v = dict(v)
            for sl in rest:
                swt, sv = agg.get(sl) or self._slice(sl)
                wt = self.add(wt, swt)
                for i, term in sv.items():
                    v[i] = self.add(v[i], term) if i in v else term
        return wt, v

    def _slice(self, sl) -> tuple[int, dict]:
        v = slice_v(sl)
        out = self._slices[sl] = (self.id(sl.wt), {i: self.id(t) for i, t in v.items()})
        return out


def reference_loads(scheme, *, keep_maps: bool = True) -> LoadReport:
    if not len(scheme.a_side) or not len(scheme.b_side):
        raise SchemeError("loads need a nonempty relation on both sides")
    wt_map: dict | None = {} if keep_maps else None
    v_map: dict | None = {} if keep_maps else None
    sums = _Sums()
    value = sums.values
    side_best = {}
    wts: dict = {}
    vs: dict = {}
    for side in ("a", "b"):
        by_wt: dict = {}  # wt -> distinct v(x, i) of the sources x with that wt
        for source, slices in source_slices(scheme, side):
            if not slices:
                continue
            wt, v = sums.source(slices)
            by_wt.setdefault(wt, {}).update(dict.fromkeys(v.values()))
            if wt_map is not None:
                wt_map[source] = value[wt]
                for i, term in v.items():
                    v_map[(source, i)] = value[term]
        if not by_wt:
            raise SchemeError(f"side {side!r} has no pairs")
        side_best[side] = max(
            max(value[k] for k in group) / value[wt] for wt, group in by_wt.items()
        )
        wts.update(dict.fromkeys(by_wt))
        for group in by_wt.values():
            vs.update(group)
    v_a, v_b = side_best["a"], side_best["b"]
    if v_a.is_zero or v_b.is_zero:
        raise SchemeError("degenerate scheme: a side load is zero")
    if v_a == v_b:
        v_max, bound = v_a, ONE / v_a
    else:
        v_max, bound = (v_a * v_b).sqrt(), (ONE / (v_a * v_b)).sqrt()
    return LoadReport(
        v_a=v_a,
        v_b=v_b,
        v_max=v_max,
        bound=bound,
        wt_min=min(value[k] for k in wts),
        wt_max=max(value[k] for k in wts),
        v_lo=min(value[k] for k in vs),
        v_hi=max(value[k] for k in vs),
        wt=wt_map,
        v=v_map,
    )


def assert_loads_match(scheme, *, keep_maps: bool = True) -> LoadReport:
    """`loads` equals the reference field for field; returns the report."""
    got = loads(scheme, keep_maps=keep_maps)
    want = reference_loads(scheme, keep_maps=keep_maps)
    for field in fields(LoadReport):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        assert mine == theirs, field.name
        if isinstance(theirs, dict):
            assert list(mine) == list(theirs), f"key order of {field.name}"
            assert list(map(str, mine.values())) == list(map(str, theirs.values()))
        else:
            assert str(mine) == str(theirs), field.name
    return got
