"""``involute analyze`` on arbitrary files and flags, ``verify`` on arbitrary
flags, ``construct`` and ``factor`` on arbitrary sizes and ``trace`` on
arbitrary words: every input ends in exit 0, 1 (a failed check), 2 or 3 with
at most a one-line message, never in an exception, and a size far past a
limit is refused before anything of that size is built."""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from involute.cli import _FAMILIES, main

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


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean(argv):
    code, err = _run(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err
    assert (code == 0) == (err == ""), argv
    assert err.count("\n") == (code != 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "z2^k", "100000000"],
        ["construct", "sym", "8"],
        ["construct", "alt", "7"],
        ["construct", "transformation", "5"],
        ["construct", "frucht", "100000000", "0-1"],
        ["construct", "frucht", "GRAPH_FILE"],
        ["factor", "(0 1000000000)"],
        ["factor", "(0 1)", "--degree", "1000000000"],
    ],
)
def test_huge_sizes_are_refused_at_once(argv, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 10**8, "edges": [[0, 1]]}))
    argv = [str(graph) if a == "GRAPH_FILE" else a for a in argv]
    start = time.perf_counter()
    code, err = _run(argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "construct":
        assert err == "error: the requested table exceeds the limit of 1024 elements\n"


_sizes = st.integers(min_value=0, max_value=12) | st.integers(min_value=10**6, max_value=10**12)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES) + ["frucht"]), sizes=st.lists(_sizes, max_size=3))
def test_construct_survives_random_sizes(family, sizes):
    _assert_clean(["construct", family, *map(str, sizes)])


@settings(max_examples=30, deadline=None)
@given(points=st.lists(_sizes, max_size=3), degree=st.none() | _sizes)
def test_factor_survives_random_sizes(points, degree):
    argv = ["factor", "(" + " ".join(map(str, points)) + ")"]
    _assert_clean(argv + ([] if degree is None else ["--degree", str(degree)]))


_words = st.text(alphabet="abc(", max_size=4)
_edges = st.lists(st.text(alphabet="abcd", max_size=3), max_size=2).map(",".join)
_letter_cycles = st.sampled_from(["id", "", "()"]) | st.lists(
    st.text(alphabet="abd ", max_size=3), max_size=2
).map(lambda bodies: "".join(f"({b})" for b in bodies))


@settings(max_examples=30, deadline=None)
@given(
    action=st.sampled_from(["nf", "eq", "map"]),
    words=st.tuples(_words, _words),
    kind=st.sampled_from(["gamma", "delta"]),
    cycles=_letter_cycles,
    edges=st.none() | _edges,
    alphabet=st.none() | st.text(alphabet="abcd", max_size=4),
)
@example(action="eq", words=("a", ""), kind="gamma", cycles="id", edges=None, alphabet=None)
@example(action="nf", words=("abc", ""), kind="gamma", cycles="id", edges=None, alphabet="")
def test_trace_survives_random_words(action, words, kind, cycles, edges, alphabet):
    argv = ["trace", action]
    if action == "map":
        argv += [kind, cycles, words[0]]
    else:
        argv += list(words[:2 if action == "eq" else 1])
    if edges is not None:
        argv += ["--edges", edges]
    if alphabet is not None:
        argv += ["--alphabet", alphabet]
    _assert_clean(argv)


_junk = st.integers(-3, 10**7).map(str) | st.sampled_from(["", "abc", "-1", "1e3", " 3", "0x10"])
_budgets = st.lists(st.tuples(st.sampled_from(["--budget-nodes", "--budget-order"]), _junk),
                    max_size=2).map(lambda pairs: [a for pair in pairs for a in pair])


def _assert_clean_or_usage(argv):
    """As :func:`_assert_clean`, with exit 1 (a failed check) allowed, and
    argparse's refusal of a malformed argv (its usage line, then one error
    line, and exit 2) taken as clean."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    assert (code in (0, 1)) == (err == ""), argv
    assert sum("error" in line for line in err.splitlines()) <= 1, err


@settings(max_examples=40, deadline=None)
@given(json_flag=st.booleans(), budgets=_budgets, missing=st.booleans())
def test_analyze_survives_random_flags(input_path, json_flag, budgets, missing):
    input_path.write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    path = str(input_path) + ".missing" if missing else str(input_path)
    _assert_clean_or_usage(["analyze", path, *(["--json"] if json_flag else []), *budgets])


@settings(max_examples=40, deadline=None)
@given(
    only=st.lists(st.sampled_from(["klein", "two_involution_factorization", "nope", ""]),
                  min_size=1, max_size=2).map(",".join),
    flags=st.lists(st.sampled_from(["--json", "--stretch"]), unique=True),
    budgets=_budgets,
)
def test_verify_survives_random_flags(only, flags, budgets):
    _assert_clean_or_usage(["verify", "--only", only, *flags, *budgets])
