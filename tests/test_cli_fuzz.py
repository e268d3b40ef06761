"""``involute analyze`` on arbitrary files: every input ends in exit 0, 2 or
3 with a one-line message, never in an exception."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from involute.cli import main

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

_small_ints = st.integers(min_value=-1, max_value=3)

#: documents shaped like table files, so that most reach validation and some the analysis
_table_docs = st.fixed_dictionaries(
    {"table": st.lists(st.lists(_small_ints, min_size=1, max_size=3), min_size=1, max_size=3)},
    optional={
        "n": _small_ints,
        "identity": st.none() | _small_ints,
        "names": st.lists(st.text(max_size=2), max_size=3) | _json_values,
    },
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _assert_analyze_is_clean(path: Path, content: bytes):
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "--json"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


@settings(max_examples=20, deadline=None)
@given(content=st.binary(max_size=48))
def test_analyze_survives_random_bytes(input_path, content):
    _assert_analyze_is_clean(input_path, content)


@settings(max_examples=40, deadline=None)
@given(doc=_json_values | _table_docs)
def test_analyze_survives_random_json_documents(input_path, doc):
    _assert_analyze_is_clean(input_path, json.dumps(doc).encode())
