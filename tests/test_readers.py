"""The three JSON file readers of the CLI on hostile input.

`equik validate`, `equik linalg snf` and `equik rep ring` read a report,
a matrix and a fusion table through one reader.  Whatever a file holds,
each command exits 0, 1, 2 or 3 with no traceback, and a nonzero exit
writes one line to stderr.  The fuzz test draws arbitrary JSON, deep
nesting, and near-miss matrices, fusion tables and reports whose sizes
and parameters reach 10^12.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equik.cli import main
from equik.errors import decimal
from equik.reports import CONSTRUCTIONS

COMMANDS = {"report": ("validate",), "matrix": ("linalg", "snf"), "fusion": ("rep", "ring")}


def run_on_file(command, text):
    """(exit code, stdout, stderr) of the command on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*COMMANDS[command], str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_deeply_nested_file_exits_2_with_one_line(command):
    code, out, err = run_on_file(command, "[" * 100_000)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse {command} file ")
    assert err.count("\n") == 1


@given(st.integers(-(10**30), 10**30))
def test_decimal_reads_what_str_writes(n):
    assert decimal(str(n)) == n


@given(st.one_of(st.text("0123456789-+_ ٣", max_size=6), st.text(max_size=4)))
def test_decimal_text_has_one_spelling(text):
    try:
        n = decimal(text)
    except ValueError:
        return
    assert str(n) == text


@pytest.mark.parametrize(
    "text", ["007", " 5", "5 ", "0_2", "+1", "٣", "-0", "", "-", "1e3"], ids=repr
)
def test_decimal_refuses_other_spellings(text):
    with pytest.raises(ValueError):
        decimal(text)


# Decimal strings int() reads but that are not canonical: before, linalg
# read ["007", " 5"] as the row 7 5.
@pytest.mark.parametrize("text", ["007", " 5", "0_2", "+1", "٣"], ids=repr)
@pytest.mark.parametrize(
    "command,doc",
    [
        ("matrix", lambda t: {"rows": "1", "cols": "2", "entries": [t, "1"]}),
        ("matrix", lambda t: {"rows": t, "cols": "0", "entries": []}),
        ("fusion", lambda t: {"labels": ["1"], "dims": [t], "fusion": [[[["0", "1"]]]]}),
        ("fusion", lambda t: {"labels": ["1"], "dims": ["1"], "fusion": [[[["0", t]]]]}),
    ],
    ids=["matrix-entry", "matrix-rows", "fusion-dim", "fusion-multiplicity"],
)
def test_non_canonical_decimal_in_file_exits_2(command, doc, text):
    code, out, err = run_on_file(command, json.dumps(doc(text)))
    assert (code, out) == (2, "")
    assert err.startswith("error: expected decimal ") and err.count("\n") == 1


HUGE_INTS = st.one_of(st.integers(-3, 6), st.integers(0, 10**12), st.just(10**12))
# Integers as JSON ints or decimal strings, with near misses.
NUMBERS = st.one_of(
    HUGE_INTS,
    HUGE_INTS.map(str),
    st.sampled_from(["", " 1", "+2", "1.0", "0x3", "true"]),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)
MATRICES = st.fixed_dictionaries(
    {"rows": NUMBERS, "cols": NUMBERS, "entries": st.lists(NUMBERS, max_size=9)}
)
_CELLS = st.lists(st.one_of(st.lists(NUMBERS, max_size=3), JSON_VALUES), max_size=3)
FUSION_TABLES = st.fixed_dictionaries(
    {
        "labels": st.one_of(st.lists(st.text(max_size=2), max_size=3), JSON_VALUES),
        "dims": st.one_of(st.lists(NUMBERS, max_size=3), JSON_VALUES),
        "fusion": st.one_of(st.lists(st.lists(_CELLS, max_size=3), max_size=3), JSON_VALUES),
    }
)
REPORTS = st.one_of(
    [
        st.fixed_dictionaries(
            {
                "construction": st.just(name),
                "parameters": st.one_of(
                    st.fixed_dictionaries({a.name: NUMBERS.map(str) for a in c.arguments}),
                    JSON_VALUES,
                ),
            },
            optional={"lower": NUMBERS, "certificates": JSON_VALUES},
        )
        for name, c in sorted(CONSTRUCTIONS.items())
    ]
)
CONTENTS = st.one_of(
    [
        st.tuples(
            st.just(kind),
            st.one_of(
                st.one_of(shaped, JSON_VALUES).map(json.dumps),
                st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth),
                st.integers(1, 5000).map(lambda depth: '{"a":' * depth),
                st.text(max_size=12),
            ),
        )
        for kind, shaped in (("report", REPORTS), ("matrix", MATRICES), ("fusion", FUSION_TABLES))
    ]
)


# 150 examples, about 2 s on a 2-vCPU VM; each runs the command in process.
@given(CONTENTS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_readers_exit_cleanly_on_arbitrary_json(case):
    code, _, err = run_on_file(*case)
    assert_clean_exit(code, err)
