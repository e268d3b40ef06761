"""``load_table`` reads a table file's text straight into its int32 array
when it can, and through ``json`` otherwise; either way it gives what
``from_json_dict(read_json(path))`` gives, the reference route.  Both read
a file's bytes once, within one byte bound, and refuse a bad file with one
set of messages."""

import contextlib
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TABLE_FILE_EDITS, relabelled, table_file
from involute import semigroups
from involute.cli import main
from involute.errors import AlgebraError, InputFormatError, OrderBudgetExceededError
from involute.families import (
    cyclic_group,
    doubled_semigroup,
    full_transformation_monoid,
    klein_four,
    rectangular_band,
    sym_group_table,
    zero_semigroup,
)
from involute.semigroups import TABLE_CAP, from_json_dict, load_table, read_json

_SEMIGROUPS = [cyclic_group(1), cyclic_group(5), cyclic_group(12), rectangular_band(2, 3),
               zero_semigroup(4), full_transformation_monoid(2), klein_four(), sym_group_table(3),
               doubled_semigroup(rectangular_band(1, 2))]


@st.composite
def _documents(draw) -> dict:
    """A table document with n <= 12: a relabelled semigroup or random
    entries (some out of range), with or without "n", "names" (any text)
    and "identity", right or wrong, its keys in any order."""
    if draw(st.booleans()):
        s = draw(st.sampled_from(_SEMIGROUPS))
        n, table = s.n, relabelled(s.np_table, draw(st.permutations(range(s.n)))).tolist()
    else:
        n = draw(st.integers(1, 12))
        row = st.lists(st.integers(0, n), min_size=n, max_size=n)
        table = draw(st.lists(row, min_size=n, max_size=n))
    doc = {"table": table}
    if draw(st.booleans()):
        doc["n"] = draw(st.sampled_from([n, n + 1]))
    if draw(st.booleans()):
        doc["names"] = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    if draw(st.booleans()):
        doc["identity"] = draw(st.none() | st.integers(0, n))
    return {key: doc[key] for key in draw(st.permutations(list(doc)))}


def _spaced(doc, rnd, ascii_only: bool) -> bytes:
    """``doc`` as JSON with random JSON whitespace around every token."""
    def space():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.choice((0, 0, 1, 3))))

    def render(value):
        if isinstance(value, list):
            return "[" + ",".join(space() + render(x) + space() for x in value) + space() + "]"
        if isinstance(value, dict):
            return "{" + ",".join(space() + render(key) + space() + ":" + space() + render(x) + space()
                                  for key, x in value.items()) + "}"
        return json.dumps(value, ensure_ascii=ascii_only)

    return (space() + render(doc) + space()).encode()


def _outcome(load, path) -> tuple:
    try:
        s = load(path)
    except AlgebraError as exc:
        return type(exc), str(exc)
    return s.np_table.dtype, s.np_table.tolist(), s.names, s.identity


def test_the_reader_agrees_with_json_load(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    read = semigroups._read_table_document
    taken = {True: 0, False: 0}

    def counted(data):
        doc = read(data)
        taken[doc is not None] += 1
        return doc

    monkeypatch.setattr(semigroups, "_read_table_document", counted)

    @settings(max_examples=150, deadline=None)
    @given(doc=_documents(), layout=st.sampled_from(["compact", "dump", "spaced"]),
           rnd=st.randoms(use_true_random=False), ascii_only=st.booleans(),
           edit=st.none() | st.sampled_from(sorted(TABLE_FILE_EDITS)), k=st.integers(0, 10**4),
           block_bytes=st.sampled_from([1, 64, semigroups._BLOCK_BYTES]))
    def check(doc, layout, rnd, ascii_only, edit, k, block_bytes):
        monkeypatch.setattr(semigroups, "_BLOCK_BYTES", block_bytes)  # one row a block, a few, all
        if layout == "spaced":
            data = _spaced(doc, rnd, ascii_only)
        else:
            data = table_file(doc.pop("table"), layout, **doc)
        path.write_bytes(data if edit is None else TABLE_FILE_EDITS[edit](data, k))
        assert _outcome(load_table, path) == _outcome(lambda p: from_json_dict(read_json(p)), path)

    check()
    assert taken[True] and taken[False], taken


@pytest.mark.parametrize("block_bytes", [1, 64, semigroups._BLOCK_BYTES])
def test_each_edit_is_read_as_json_reads_it(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(semigroups, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "table.json"
    s = full_transformation_monoid(2)
    for layout in ("compact", "dump"):
        data = table_file(s.np_table.tolist(), layout, names=list(s.names))
        for edit, k in itertools.product(sorted(TABLE_FILE_EDITS), (0, 1, 5, 11)):
            path.write_bytes(TABLE_FILE_EDITS[edit](data, k))
            assert _outcome(load_table, path) == _outcome(lambda p: from_json_dict(read_json(p)), path), edit


@pytest.mark.parametrize("layout", ["compact", "dump"])
def test_a_bom_is_refused_as_json_refuses_it(layout, tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(TABLE_FILE_EDITS["UTF-8 BOM"](table_file([[0]], layout), 0))
    assert main(["analyze", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path} is not valid JSON: Unexpected UTF-8 BOM")


class _AtValidate(Exception):
    pass


def test_reading_a_table_file_holds_its_bytes_and_one_block_beside_the_array(tmp_path, monkeypatch):
    n = 1024
    table = relabelled(np.add.outer(np.arange(n), np.arange(n)) % n, np.random.default_rng(0).permutation(n))
    path = tmp_path / "z1024.json"
    path.write_bytes(table_file(table.tolist(), "compact"))
    size = path.stat().st_size
    seen = {}

    def at_validate(arr, names=None):
        seen["table"] = arr
        seen["current"], seen["peak"] = tracemalloc.get_traced_memory()
        raise _AtValidate

    monkeypatch.setattr(semigroups, "validate", at_validate)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(_AtValidate):
            load_table(path)
    finally:
        tracemalloc.stop()
    assert np.array_equal(seen["table"], table)
    # reading: the file, the array and at most 1 MiB of one block's scans
    assert seen["peak"] - before <= size + 4 * n * n + 2**20
    # the file's bytes are freed before validate runs
    assert seen["current"] - before <= 4 * n * n + 2**20


@contextlib.contextmanager
def _input(tmp_path, data: bytes, pipe: bool):
    """A path that reads as ``data``: a regular file, or the read end of a
    pipe holding ``data`` with its write end closed."""
    if not pipe:
        path = tmp_path / "input.json"
        path.write_bytes(data)
        yield str(path)
        return
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


@pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
@pytest.mark.parametrize("read", [load_table, read_json])
def test_an_input_at_the_byte_bound_is_read_and_one_byte_past_it_is_refused(tmp_path, monkeypatch,
                                                                            read, pipe):
    s = cyclic_group(5)
    data = table_file(s.np_table.tolist(), "compact")
    monkeypatch.setattr(semigroups, "INPUT_BYTES", len(data))
    with _input(tmp_path, data, pipe) as path:
        got = read(path)
        assert np.array_equal(got.np_table if read is load_table else got["table"], s.np_table)
    monkeypatch.setattr(semigroups, "INPUT_BYTES", len(data) - 1)
    with _input(tmp_path, data, pipe) as path:
        with pytest.raises(InputFormatError) as exc:
            read(path)
        assert str(exc.value) == f"{path} is larger than the input limit of {len(data) - 1} bytes"


def test_a_pipe_is_read_in_memory_that_grows_with_what_it_holds(tmp_path):
    # a read sized by the bound would hold INPUT_BYTES (64 MiB) for a few bytes
    data = table_file(cyclic_group(5).np_table.tolist(), "compact")
    with _input(tmp_path, data, pipe=True) as path:
        tracemalloc.start()
        try:
            doc = read_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert doc["table"] == cyclic_group(5).np_table.tolist() and peak <= 2**21


def test_a_first_row_past_the_cap_is_refused_before_json_reads_the_file(tmp_path, monkeypatch):
    path = tmp_path / "big.json"
    calls = []
    decode = semigroups._json_document
    monkeypatch.setattr(semigroups, "_json_document", lambda data, p: calls.append(p) or decode(data, p))
    n = 1100
    path.write_bytes(table_file(np.zeros((n, n), int).tolist(), "compact"))
    with pytest.raises(OrderBudgetExceededError) as exc:
        load_table(path)
    assert (exc.value.limit, calls) == (TABLE_CAP, [])
    # the spy sits on the route: a document the reader declines reaches it
    path.write_bytes(TABLE_FILE_EDITS["key after the table"](table_file([[0]], "compact"), 0))
    assert load_table(path).n == 1 and calls == [path]


def test_a_long_first_row_under_a_key_ending_in_table_is_read_as_json_reads_it(tmp_path):
    # the outermost last key is 'x"table', so the long row is not the table's
    path = tmp_path / "t.json"
    path.write_text('{"table": [[0]], "x\\"table": [[' + ",".join(["0"] * (TABLE_CAP + 1)) + "]]}")
    assert _outcome(load_table, path) == _outcome(lambda p: from_json_dict(read_json(p)), path)
    assert load_table(path).n == 1


_T2_FILE = table_file(full_transformation_monoid(2).np_table.tolist(), "compact", names=["a"] * 4)

#: bytes that are no JSON document, or no file, and a fragment of the one
#: message both readers give for them
_BAD_INPUTS = {
    "UTF-8 BOM": (TABLE_FILE_EDITS["UTF-8 BOM"](_T2_FILE, 0), "is not valid JSON: Unexpected UTF-8 BOM"),
    "UTF-16": (TABLE_FILE_EDITS["UTF-16"](_T2_FILE, 0), "is not valid JSON: 'utf-8' codec can't decode"),
    "bad UTF-8": (_T2_FILE.replace(b'"a"', b'"\xff"', 1), "is not valid JSON: 'utf-8' codec can't decode"),
    "truncated": (_T2_FILE[:-5], "is not valid JSON: Expecting"),
    "nested too deeply": (b'{"names": ' + b"[" * 10**5 + b"]" * 10**5 + b', "table": [[0]]}',
                          "is nested too deeply to read"),
    "empty": (b"", "is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "directory": (None, "Is a directory"),
    "missing": (None, "No such file or directory"),
    "past INPUT_BYTES": (_T2_FILE, f"is larger than the input limit of {len(_T2_FILE) - 1} bytes"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_a_bad_table_file_and_a_bad_graph_file_get_one_message(case, tmp_path, monkeypatch, capsys):
    data, fragment = _BAD_INPUTS[case]
    if case == "past INPUT_BYTES":
        monkeypatch.setattr(semigroups, "INPUT_BYTES", len(data) - 1)
    errors = []
    for path, argv in ((tmp_path / "table", ["analyze"]), (tmp_path / "graph.json", ["construct", "frucht"])):
        if case == "directory":
            path.mkdir()
        elif case != "missing":
            path.write_bytes(data)
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and fragment in err
        errors.append(err.replace(str(path), "F"))
    assert errors[0] == errors[1] and errors[0].startswith("error: ") and errors[0].count("\n") == 1
