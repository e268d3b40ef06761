"""``report.write_json``, the one JSON renderer of the report document,
against ``json.dumps(doc, sort_keys=True, indent=2, default=list)`` as the
oracle: a ``MorphismSet`` lists its mapping tuples."""

import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involute.cli import main
from involute.families import (
    cyclic_group,
    doubled_semigroup,
    full_transformation_monoid,
    partition_monoid,
    rectangular_band,
    sym_group_table,
    zero_semigroup,
)
from involute.morphisms import MorphismSet, find_anti_isomorphism
from involute.report import BLOCK, analyze, report_to_text, write_json
from involute.semigroups import dump_table, validate


def _oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2, default=list) + "\n"


def _written(doc):
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


@pytest.fixture(scope="module")
def zero6_doc():
    return analyze(zero_semigroup(6), name="zero6.json")


def test_write_json_equals_json_dumps_on_zero_6(zero6_doc):
    assert len(zero6_doc["morphisms"]["automorphisms"]) == 720  # 11 full blocks and a part
    assert _written(zero6_doc) == _oracle(zero6_doc)


@pytest.mark.parametrize(
    "build, empty",
    [
        (lambda: full_transformation_monoid(4), {"antiAutomorphisms", "involutions"}),
        (lambda: validate([[0]]), {"involutions"}),
        (lambda: rectangular_band(3, 3), set()),
        (lambda: sym_group_table(3), set()),
    ],
    ids=["t4", "one_element", "band3x3", "sym3"],
)
def test_write_json_equals_json_dumps(build, empty):
    doc = analyze(build(), name="table.json")
    assert {k for k, maps in doc["morphisms"].items() if not maps} == empty
    assert _written(doc) == _oracle(doc)


def test_write_json_escapes_the_input_name_as_json_does():
    name = 'Grüße "€" \\ back\nslash  \x00.json'
    doc = analyze(sym_group_table(3), name=name)
    text = _written(doc)
    assert text == _oracle(doc)
    assert json.loads(text)["input"] == name


@pytest.mark.parametrize("build", [lambda: zero_semigroup(6), lambda: full_transformation_monoid(4)],
                         ids=["zero6", "t4"])
@pytest.mark.parametrize("render", [lambda doc: write_json(doc, io.StringIO()), report_to_text],
                         ids=["json", "text"])
def test_rendering_builds_no_mapping_tuples(build, render):
    doc = analyze(build(), name="table.json")
    render(doc)
    assert all(isinstance(maps, MorphismSet) and "elements" not in vars(maps)
               for maps in doc["morphisms"].values())


_KEYS = ("automorphisms", "antiAutomorphisms", "involutions")


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(840), lambda: full_transformation_monoid(4), lambda: partition_monoid(3),
    lambda: doubled_semigroup(full_transformation_monoid(3)),
], ids=["Z_840", "T_4", "P_3", "doubled_T_3"])
def test_analysis_builds_no_tuple_table(build):
    # FiniteSemigroup.table, every row as a tuple, is n^2 Python entries; the
    # searches, the laws and the report read the int32 array
    s = build()
    write_json(analyze(s), io.StringIO())
    assert "table" not in s.__dict__
    t = s.dual()
    assert find_anti_isomorphism(s, t) is not None
    assert "table" not in s.__dict__ and "table" not in t.__dict__


@st.composite
def _documents(draw):
    """Documents shaped like the report: scalar keys on both sides of
    ``morphisms`` and three sets of maps of one degree, up to two-digit
    points, each a ``MorphismSet`` from an int32 array or from tuples."""
    degree = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lengths = draw(st.tuples(*[st.integers(0, 3 * BLOCK + 1)] * 3))
    from_array = draw(st.tuples(*[st.booleans()] * 3))
    morphisms = {}
    for key, length, as_array in zip(_KEYS, lengths, from_array):
        maps = {tuple(rng.sample(range(degree), degree)) for _ in range(length)}
        rows = np.array(sorted(maps), dtype=np.int32).reshape(len(maps), degree)
        shuffled = rows[rng.sample(range(len(rows)), len(rows))]  # sorted by MorphismSet
        morphisms[key] = MorphismSet(degree, shuffled if as_array else maps)
    return {
        "input": draw(st.text(max_size=8)),
        "counts": {key: len(maps) for key, maps in morphisms.items()},
        "identity": draw(st.none() | st.integers(0, degree - 1)),
        "size": degree,
        "morphisms": morphisms,
    }


@settings(max_examples=25, deadline=None)
@given(_documents())
def test_write_json_equals_json_dumps_on_synthetic_documents(doc):
    assert _written(doc) == _oracle(doc)


class _Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_cli_analyze_json_writes_in_blocks(tmp_path, monkeypatch, zero6_doc):
    dump_table(zero_semigroup(6), tmp_path / "zero6.json")
    monkeypatch.chdir(tmp_path)
    out = _Recorder()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["analyze", "zero6.json", "--json"]) == 0
    assert "".join(out.writes) == _oracle(zero6_doc)
    blocks = sum(-(-len(maps) // BLOCK) for maps in zero6_doc["morphisms"].values())
    assert blocks == 26
    # one write before the lists, one to open and one to close each, one after
    assert len(out.writes) <= blocks + 8
    one_map = "      [\n" + ",\n".join(["        0"] * 7) + "\n      ]"
    assert max(map(len, out.writes)) <= BLOCK * (len(one_map) + 2)
