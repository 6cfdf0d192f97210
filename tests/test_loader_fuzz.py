"""Generated scheme, algorithm and truth-table files: the CLI exits 0, 1 or 2,
never raises."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from advwb.adversary import builtin_scheme, save_scheme
from advwb.cli import main
from advwb.qsim import identity_algorithm, save_algorithm

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _valid_docs() -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        scheme_path = Path(tmp) / "nae3.scheme.json"
        alg_path = Path(tmp) / "identity.json"
        save_scheme(builtin_scheme("nae3"), scheme_path)
        save_algorithm(identity_algorithm(3, 1), alg_path)
        return json.loads(scheme_path.read_text()), json.loads(alg_path.read_text())


VALID_SCHEME, VALID_ALGORITHM = _valid_docs()


def _replaced(base: dict, paths: list[tuple]):
    """Strategy: `base` with the value at one of `paths` (key or index
    sequences) set to a generated JSON value."""

    def put(path, value):
        doc = json.loads(json.dumps(base))
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return doc

    return st.builds(put, st.sampled_from(paths), json_values)


scheme_docs = json_values | _replaced(
    VALID_SCHEME,
    [("arity",), ("table",), ("a",), ("b",), ("pairs",), ("path",)]
    + [("pairs", 0, key) for key in ("x", "y", "w", "wp")]
    + [("pairs", 0)],
)
algorithm_docs = json_values | _replaced(
    VALID_ALGORITHM,
    [("n",), ("N",), ("work",), ("unitaries",)]
    + [("unitaries", 0), ("unitaries", 0, 0), ("unitaries", 0, 0, 1)],
)


# Truth-table text: free text, and the two-line "arity / row" format with
# each part perturbed.
table_texts = st.text(max_size=24) | st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["3", " 3 ", "03", "1_0", "0", "-3", "17", "x", ""])
    | st.integers(min_value=-2, max_value=6).map(str),
    st.sampled_from(["\n", "\r\n", "", " "]),
    st.sampled_from(["01111110", "0111111", "011111100", "0111 1110", "01111112"])
    | st.text(alphabet="01", max_size=70),
    st.sampled_from(["", "\n", "\n\n", "\n01"]),
)


def _exit_code(doc, argv: list[str]) -> int:
    """Exit code of `main(argv)`, with "FILE" in argv naming a file holding doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return main([str(path) if a == "FILE" else a for a in argv])


@settings(max_examples=200, deadline=None)
@given(
    scheme_docs,
    st.sampled_from(
        [["verify-scheme", "FILE"], ["simulate", "identity", "--scheme", "FILE"]]
    ),
)
def test_generated_scheme_files_never_raise(doc, argv):
    assert _exit_code(doc, argv) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(algorithm_docs)
def test_generated_algorithm_files_never_raise(doc):
    assert _exit_code(doc, ["simulate", "FILE", "--scheme", "g"]) in (0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(table_texts)
def test_generated_table_files_never_raise(text):
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "f.tbl"
        table.write_text(text, encoding="utf-8")
        doc = {key: value for key, value in VALID_SCHEME.items() if key not in ("arity", "table")}
        doc["path"] = str(table)
        assert _exit_code(doc, ["verify-scheme", "FILE"]) in (0, 1, 2)


# `measures` on generated 1-5 bit tables and the table texts above, with
# generated --eps strings: fractions in and out of [0, 1/2), decimals and
# free text.
eps_texts = (
    st.fractions(min_value=-1, max_value=1, max_denominator=40).map(str)
    | st.decimals(min_value=-1, max_value=1, allow_nan=False, places=3).map(str)
    | st.sampled_from(["0", "1/3", "0.49", "1/2", "1e-3", "-0", "nan", "inf", "1/0", " 1/4 "])
    | st.text(max_size=6)
)
small_tables = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.text(alphabet="01", min_size=1 << n, max_size=1 << n).map(
        lambda row: f"{n}\n{row}\n"
    )
)


@settings(max_examples=60, deadline=None)
@given(small_tables | table_texts, eps_texts)
def test_generated_measures_arguments_never_raise(text, eps):
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "f.tbl"
        table.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            assert main(["measures", str(table), f"--eps={eps}"]) in (0, 1, 2)
