"""A scheme's swept records as plain dicts, its slices by source, and its
file round trip, for exact comparisons in tests."""

from advwb.adversary import load_scheme, loads, save_scheme, verify


def source_slices(scheme, side: str):
    """(source, slices) per row of a side's `slice_table`, in row order."""
    sources, ids, slices = scheme.slice_table(side)
    for source, row in zip(sources.tolist(), ids.tolist()):
        yield source, [slices[k] for k in row if k >= 0]


def pair_table(scheme, side: str) -> dict:
    """(source, partner) -> (w, {i: (fwd, bwd)}), from one sweep of a side.

    Keys come in sweep order, so comparing `list(table)` also compares the
    order in which the side yields its pairs.
    """
    table = {}
    for source, records in scheme.sweep_pairs(side):
        for partner, w, diffs in records:
            coords = {i: (fwd, bwd) for i, fwd, bwd in diffs}
            assert len(coords) == len(diffs), "a coordinate repeats in one record"
            assert (source, partner) not in table, "a pair repeats in one sweep"
            table[(source, partner)] = (w, coords)
    return table


def flipped(table: dict) -> dict:
    """The same pairs seen from the other side."""
    return {
        (y, x): (w, {i: (bwd, fwd) for i, (fwd, bwd) in coords.items()})
        for (x, y), (w, coords) in table.items()
    }


def assert_sides_agree(scheme) -> dict:
    """Both sides sweep the same pairs and weights; returns the A-side table."""
    a = pair_table(scheme, "a")
    assert pair_table(scheme, "b") == flipped(a)
    assert len(a) == scheme.pair_count
    return a


def assert_rescaled(base, scaled) -> None:
    """`scaled` is `base` with each side's forward weights times one factor.

    Every pair, pair weight and product fwd * bwd must be unchanged, on
    both sides, and the A side must keep its sweep order.
    """
    for side in "ab":
        want, got = pair_table(base, side), pair_table(scaled, side)
        assert got.keys() == want.keys()
        factors = set()
        for key, (w, coords) in want.items():
            got_w, got_coords = got[key]
            assert got_w == w and got_coords.keys() == coords.keys()
            for i, (fwd, bwd) in coords.items():
                got_fwd, got_bwd = got_coords[i]
                assert got_fwd * got_bwd == fwd * bwd
                factors.add(got_fwd / fwd)
        assert len(factors) == 1
        if side == "a":
            assert list(got) == list(want)
    assert_sides_agree(scaled)


def distinct_entries(scheme, side: str) -> int:
    """How many entry tuples the slices of a side's `slice_table` hold."""
    return len({id(entry) for sl in scheme.slice_table(side)[2] for entry in sl.entries})


def assert_round_trips(scheme, path) -> None:
    """The scheme read back from its file verifies and weighs as it does,
    and shares as much: as many distinct entries on each side."""
    save_scheme(scheme, path)
    back = load_scheme(path)
    assert back.f == scheme.f and back.pair_count == scheme.pair_count
    assert verify(back) == verify(scheme)
    assert loads(back) == loads(scheme)
    for side in "ab":
        assert distinct_entries(back, side) == distinct_entries(scheme, side)
