import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import involute
from involute.cli import _FAMILIES, main
from involute.errors import SearchBudgetExceededError
from involute.families import (
    cyclic_group,
    direct_product_table,
    doubled_semigroup,
    elementary_abelian_two_group,
    full_transformation_monoid,
    klein_four,
    rectangular_band,
    sym_group_table,
    zero_semigroup,
)
from involute.graphs import frucht_semigroup, path_graph
from involute.morphisms import enumerate_anti_automorphisms, enumerate_automorphisms
from involute.permgroups import c_group, closure, g_group, group_fingerprint
from involute.report import _catalog_for_order, analyze, identify_group, report_to_text
from involute.semigroups import TABLE_CAP, dump_table, load_table, validate


def test_analyze_klein_report(klein):
    r = analyze(klein, name="klein")
    counts, groups = r["counts"], r["groups"]
    assert (counts["automorphisms"], counts["involutions"], groups["C"]["order"]) == (6, 3, 6)
    assert r["identification"]["Sym(3)"] is True
    # commutative: the sets coincide
    assert groups["signedAut"]["order"] == counts["automorphisms"]
    assert not r["properInvolutionExists"]


def test_analyze_fingerprints_c_once(klein, monkeypatch):
    from involute import report

    degrees = []
    real = report.group_fingerprint

    def counting(g):
        degrees.append(g.degree)
        return real(g)

    monkeypatch.setattr(report, "group_fingerprint", counting)
    r = report.analyze(klein)
    # once, for C on the 4 elements: catalog candidates are not fingerprinted
    assert degrees.count(4) == 1 and r["groups"]["C"]["order"] == 6


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic_group(12),
        klein_four,
        lambda: elementary_abelian_two_group(3),
        lambda: zero_semigroup(5),
        lambda: frucht_semigroup(path_graph(3)),
        lambda: sym_group_table(3),
        lambda: rectangular_band(2, 2),
        lambda: full_transformation_monoid(3),
    ],
)
def test_analyze_g_is_g_group(build, monkeypatch):
    """analyze reuses C(S) as G(S) on a commutative S; its G has the
    elements and the generators of g_group on every table."""
    from involute import report

    seen = []
    real = report.involution_laws

    def spying(s, invs, j_set, c, g):
        seen.append(g)
        return real(s, invs, j_set, c, g)

    monkeypatch.setattr(report, "involution_laws", spying)
    r = report.analyze(build())
    expected = g_group(build())
    (g,) = seen
    assert g.elements == expected.elements
    assert g.generators == expected.generators
    assert r["groups"]["G"]["order"] == expected.order


def _left_regular_group(table):
    """The rows of a group table, which form a group isomorphic to it."""
    return closure(table.table, degree=table.n)


#: catalog entries of one order that name the same group
_SAME_GROUP = [{"Z_2^2", "Z_2 x Sym(2)"}, {"Sym(3)", "D_3"}, {"Z_2 x Sym(3)", "D_6"}]


def test_identify_group_matches_each_catalog_group_to_its_own_class():
    for m in range(1, 49):
        for name, _, build in _catalog_for_order(m):
            same = next((names for names in _SAME_GROUP if name in names), {name})
            verdicts = identify_group(_left_regular_group(build()))
            assert {n for n, ok in verdicts if ok} == same, (m, name)


def _table_order_histogram(table):
    """The element orders of a group table as sorted (order, count) pairs:
    all powers x^k are stepped together, x^k = x^(k-1) x, until each
    element has met the identity."""
    arr, xs = table.np_table, np.arange(table.n)
    power = np.full(table.n, table.identity)
    order = np.zeros(table.n, dtype=np.int64)
    k = 0
    while not order.all():
        k += 1
        power = arr[power, xs]
        order[(power == table.identity) & (order == 0)] = k
    return tuple(sorted(Counter(order.tolist()).items()))


def _assert_catalog_histograms_match_the_tables(orders):
    for m in orders:
        for name, hist, build in _catalog_for_order(m):
            assert hist == _table_order_histogram(build()), (m, name)


def test_catalog_histograms_are_those_of_the_built_tables():
    _assert_catalog_histograms_match_the_tables(range(1, 49))


@pytest.mark.stretch
def test_catalog_histograms_are_those_of_the_built_tables_up_to_the_table_cap():
    _assert_catalog_histograms_match_the_tables(range(49, TABLE_CAP + 1))


def _z4_semidirect_z4():
    """Z_4 x| Z_4, (a, b)(c, d) = (a + (-1)^b c, b + d): non-abelian, with
    the element orders of Z_4 x Z_4."""
    elems = [(a, b) for a in range(4) for b in range(4)]
    prod = {(x, y): ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4)
            for x in elems for y in elems}
    return validate([[elems.index(prod[x, y]) for y in elems] for x in elems])


def test_identify_group_decides_equal_element_orders_by_a_budgeted_search(monkeypatch):
    from involute import report

    c = _left_regular_group(direct_product_table(cyclic_group(4), cyclic_group(4)))
    cand = _z4_semidirect_z4()
    fc, fd = group_fingerprint(c), group_fingerprint(_left_regular_group(cand))
    assert fc.element_order_histogram == fd.element_order_histogram
    assert fc.abelian and not fd.abelian
    entry = ("Z_4 x| Z_4", fd.element_order_histogram, lambda: cand)
    monkeypatch.setattr(report, "_catalog_for_order", lambda m: [entry])
    assert identify_group(c) == [("Z_4 x| Z_4", False)]
    with pytest.raises(SearchBudgetExceededError):
        identify_group(c, budget=1)


def test_a_node_budget_error_names_its_layer():
    with pytest.raises(SearchBudgetExceededError) as exc:
        analyze(sym_group_table(4), budget=5)
    assert str(exc.value) == "Aut(S) search exceeded the node budget of 5"
    # a search already cached does no work, so the budget reaches the next one
    s = sym_group_table(4)
    enumerate_automorphisms(s)
    with pytest.raises(SearchBudgetExceededError) as exc:
        enumerate_anti_automorphisms(s, budget=1)
    assert str(exc.value) == "Aut⁻(S) search exceeded the node budget of 1"
    with pytest.raises(SearchBudgetExceededError) as exc:
        identify_group(c_group(s), budget=1)  # Z_2 x Sym(4): its table is searched
    assert str(exc.value) == "identification search exceeded the node budget of 1"


@pytest.mark.stretch
def test_analyze_sym6_c_invariants():
    c = analyze(sym_group_table(6), name="Sym6")["groups"]["C"]
    assert (c["order"], c["centerOrder"], c["derivedOrder"], c["exponent"]) == (2880, 2, 360, 120)


def test_analyze_t3_report():
    r = analyze(full_transformation_monoid(3), name="T3")
    counts = r["counts"]
    assert (counts["automorphisms"], counts["antiAutomorphisms"], r["groups"]["C"]["order"]) == (6, 0, 1)
    assert r["identification"]["trivial"] is True


def test_analyze_square_band_report():
    r = analyze(rectangular_band(3, 3), name="B3")
    groups = r["groups"]
    assert (r["counts"]["automorphisms"], groups["signedAut"]["order"], groups["C"]["order"]) == (
        36, 72, 36)
    assert r["properInvolutionExists"]
    assert r["checks"]["splitLaw"] is True


def test_report_serialization_is_deterministic(klein):
    r = analyze(klein, name="klein")
    d1 = json.dumps(r, sort_keys=True)
    d2 = json.dumps(analyze(klein, name="klein"), sort_keys=True)
    assert d1 == d2
    text = report_to_text(r)
    assert "|C(S)|:" in text and "6" in text


def test_cli_analyze_roundtrip(tmp_path, klein, capsys):
    path = tmp_path / "klein.json"
    dump_table(klein, path)
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["involutions"] == 3
    assert doc["groups"]["C"]["order"] == 6
    assert doc["identification"]["Sym(3)"] is True


def test_cli_analyze_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"table": [[0, 0], [1, 0]]}')
    assert main(["analyze", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["analyze", str(missing)]) == 2


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe",                                       # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,                   # nested past the recursion limit
        b'{"table": [[' + b"1" * 5000 + b"]]}",             # an integer too long to convert
    ],
    ids=["not-utf8", "deep", "long-int"],
)
def test_cli_analyze_rejects_unreadable_json_without_a_traceback(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["construct", "frucht", str(path)]) == 2


def test_cli_refuses_an_oversized_table_file_as_bad_input(tmp_path):
    path = tmp_path / "big.json"
    row = "[" + ",".join(["0"] * (TABLE_CAP + 1)) + "]"
    path.write_text('{"table": [' + ",".join([row] * (TABLE_CAP + 1)) + "]}")
    env = dict(os.environ, PYTHONPATH=str(Path(involute.__file__).resolve().parents[1]))
    for argv in (["analyze", str(path)], ["construct", "file", str(path)]):
        proc = subprocess.run([sys.executable, "-m", "involute", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: the requested table exceeds the limit of {TABLE_CAP} elements\n")


def test_cli_construct_reports_an_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["construct", "cyclic", "1", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("only", ["", ",", "klein,"])
def test_cli_verify_rejects_an_empty_check_name(only, capsys):
    assert main(["verify", "--only", only]) == 2
    assert "unknown check name" in capsys.readouterr().err


def test_cli_construct(tmp_path, capsys):
    out = tmp_path / "z6.json"
    assert main(["construct", "cyclic", "6", "-o", str(out)]) == 0
    s = load_table(out)
    assert s.n == 6 and s.identity == 0
    assert main(["construct", "doubled", "band", "2", "3"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["n"] == 13
    assert main(["construct", "nonsense"]) == 2
    assert main(["construct", "band", "2"]) == 2


#: every family ``construct`` knows, with its smallest valid arguments
_SMALLEST_FAMILY_ARGS = {
    "cyclic": ["1"], "zn": ["1"], "klein": [], "sym": ["1"], "alt": ["1"],
    "transformation": ["1"], "tn": ["1"], "inverse": ["1"], "dual-inverse": ["1"],
    "partition": ["1"], "band": ["1", "1"], "zero": ["1"], "dihedral": ["1"],
    "quaternion": [], "z2^k": ["0"],
}


def test_cli_construct_cases_cover_every_family():
    assert set(_SMALLEST_FAMILY_ARGS) == set(_FAMILIES)


@pytest.mark.parametrize("family", sorted(_SMALLEST_FAMILY_ARGS))
def test_cli_construct_builds_each_family(family, capsys):
    assert main(["construct", family, *_SMALLEST_FAMILY_ARGS[family]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == len(doc["table"]) >= 1


def test_cli_construct_frucht(capsys):
    assert main(["construct", "frucht", "3", "0-1,1-2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 5


@pytest.mark.parametrize(
    "spec",
    [
        ["cyclic", "0"],
        ["band", "0", "2"],
        ["z2^k", "-1"],
        ["frucht", "x", "0-1"],
        ["frucht", "3", "0-a"],
        ["frucht", "3", "--", "-1-2"],
        ["sym", "0"],
        ["alt", "0"],
        ["transformation", "0"],
        ["partition", "-1"],
        ["inverse", "-1"],
        ["dual-inverse", "-1"],
        ["sym", "8"],
        ["product", "sym", "5", "sym", "5"],
        ["frucht", {"n": 2.9, "edges": [[0, 1]]}],
        ["frucht", {"n": 2, "edges": [[0.7, 1]]}],
        ["frucht", {"n": 2, "edges": [["0", "1"]]}],
        ["frucht", {"n": 2, "edges": [[True, 0]]}],
        ["frucht", {"n": 3, "edges": [[0, 1, 2]]}],
        ["frucht", {"n": 3, "edges": [5]}],
        ["frucht", {"n": 3, "edges": 7}],
        ["dual"] * 1200 + ["cyclic", "2"],
        ["zero", "100000000"],
        ["band", "10000", "10000"],
    ],
)
def test_cli_construct_rejects_bad_arguments_without_a_traceback(spec, tmp_path, capsys):
    argv = ["construct"]
    for arg in spec:
        if isinstance(arg, dict):  # the contents of a graph file
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_construct_dual_output_is_unchanged(capsys):
    assert main(["construct", "dual", "band", "2", "3"]) == 0
    assert capsys.readouterr().out == (
        '{"n": 6, "names": ["(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)"], '
        '"table": [[0, 0, 0, 3, 3, 3], [1, 1, 1, 4, 4, 4], [2, 2, 2, 5, 5, 5], '
        '[0, 0, 0, 3, 3, 3], [1, 1, 1, 4, 4, 4], [2, 2, 2, 5, 5, 5]]}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "klein", "--jobs", "2"],
        ["factor", "(0 1)", "--budget-nodes", "5"],
        ["trace", "nf", "ab", "--budget-order", "5"],
        ["verify", "--scale", "full"],
        ["analyze", "x.json", "--jobs", "2"],
        ["verify", "--jobs", "2"],
        ["trace", "map", "gamma", "(ab)", "abab", "--bound", "1"],
    ],
)
def test_cli_rejects_removed_flags(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "x.json", "--jobs", "-1"],
        ["analyze", "x.json", "--budget-nodes", "-5"],
        ["analyze", "x.json", "--budget-order", "-1"],
        ["verify", "--jobs", "-2"],
        ["verify", "--budget-nodes", "-1"],
        ["verify", "--budget-order", "-7"],
        ["trace", "nf", "ab", "--bound", "-1"],
        ["factor", "id", "--degree", "-3"],
        ["factor", "()", "--degree", "-3"],
    ],
)
def test_cli_rejects_negative_counts(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"table": [[0, 1.5], [1, 0]]},
        {"table": 5},
        {"table": [[0]], "names": 7},
        {"table": [[False]]},
        {"table": [["0"]]},
        {"table": [[0, 0], [0, 0]], "names": [1, {"x": 2}]},
    ],
)
def test_cli_analyze_rejects_non_integer_tables(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


#: sha256 of ``analyze NAME.json --json`` on five small tables; the report is
#: meant to stay byte-identical unless a change says why it moves.
GOLDEN_ANALYZE = {
    "z12": (
        lambda: cyclic_group(12),
        "934c09e0b9e5a79d74b9d5a73b2a238e6a97fc6b5425e232b4fb3de304c4e231",
    ),
    "band2x3": (
        lambda: rectangular_band(2, 3),
        "068ef3d3113d91caad710943780a2f04caf56b0a6519c459dd8f7c4512e14913",
    ),
    "t3": (
        lambda: full_transformation_monoid(3),
        "25fd58e214f7b56381bbc977c5b761b4050447da8281315fb5466d621cf80ea2",
    ),
    "doubled_lz2": (
        lambda: doubled_semigroup(validate([[0, 0], [1, 1]])),
        "eae1787e4f676df34f61bd86b8ec6035221879ab6d2f2b9feb40356482fdbaef",
    ),
    "sym3": (
        lambda: sym_group_table(3),
        "c3bb6128dc5e0af07754a4ca37d5f8e95abf13ad1fa1d1f0332b06781bd0978b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_cli_analyze_json_is_pinned(tmp_path, monkeypatch, capsys, name):
    build, digest = GOLDEN_ANALYZE[name]
    monkeypatch.chdir(tmp_path)
    dump_table(build(), f"{name}.json")
    assert main(["analyze", f"{name}.json", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: sha256 of ``analyze NAME.json``, the text report, on the same tables.
GOLDEN_TEXT = {
    "z12": "6bc8244a2d049422f17c25d94ab7ab129b467bbd5c78bdefa0398b6fbd637c13",
    "band2x3": "a15f6db68341e9fd1cc19992818f0d0e311f229e52a715875a24d2ecbe89b034",
    "t3": "c96eb4c3b6d8343fc2590595d9cfa5016cc93653f40fc10f14b3e0a0adb8aba7",
    "doubled_lz2": "458dc651d0d8066b8c8ca974226e6c69c85a8f30a9b97b8eaabe5f2d6e658f2c",
    "sym3": "b0af4bb123dea72edfdd4bae4097254a582968f910dd5500ee6e6837d7104845",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
def test_cli_analyze_text_is_pinned(tmp_path, monkeypatch, capsys, name):
    build, _ = GOLDEN_ANALYZE[name]
    monkeypatch.chdir(tmp_path)
    dump_table(build(), f"{name}.json")
    assert main(["analyze", f"{name}.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_TEXT[name]


#: the exact output of ``factor`` and ``trace map``
GOLDEN_MAPS = [
    (["factor", "(0 1 2 3)(4 5)"],
     "pi    = (0 1 2 3)(4 5)\nsigma = (1 3)\ntau   = (0 3)(1 2)(4 5)\n"
     "check: sigma^2 = tau^2 = id and sigma∘tau = pi: OK\n"),
    (["factor", "(0 2)(1 3 5 4 6)", "--degree", "9"],
     "pi    = (0 2)(1 3 5 4 6)\nsigma = (3 6)(4 5)\ntau   = (0 2)(1 6)(3 4)\n"
     "check: sigma^2 = tau^2 = id and sigma∘tau = pi: OK\n"),
    (["factor", "id"],
     "pi    = ()\nsigma = ()\ntau   = ()\ncheck: sigma^2 = tau^2 = id and sigma∘tau = pi: OK\n"),
    (["trace", "map", "delta", "(ab)", "abc", "--edges", "ab"], "cab\n"),
    (["trace", "map", "gamma", "id", "abc"], "abc\n"),
    (["trace", "map", "gamma", "(a b)", "ab"], "ba\n"),
]


@pytest.mark.parametrize("argv, out", GOLDEN_MAPS, ids=[" ".join(a) for a, _ in GOLDEN_MAPS])
def test_cli_factor_and_trace_map_are_pinned(argv, out, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize(
    "m, names",
    [
        (1, ["trivial"]),
        (2, ["Z_2"]),
        (4, ["Z_4", "Z_2^2", "Z_2 x Sym(2)"]),
        (6, ["Z_6", "Sym(3)", "D_3"]),
        (8, ["Z_8", "Z_2^3", "D_4"]),
        (12, ["Z_12", "Z_2 x Sym(3)", "D_6"]),
        (24, ["Z_24", "Sym(4)", "D_12"]),
        (48, ["Z_48", "Z_2 x Sym(4)", "D_24"]),
        (120, ["Z_120", "Sym(5)", "D_60"]),
        (240, ["Z_240", "Z_2 x Sym(5)", "D_120"]),
        (720, ["Z_720", "Sym(6)", "D_360"]),
        (1024, ["Z_1024", "Z_2^10", "D_512"]),
    ],
)
def test_catalog_names_and_their_order(m, names):
    catalog = _catalog_for_order(m)
    assert [name for name, _, _ in catalog] == names
    assert all(build().n == m for _, _, build in catalog)


@pytest.mark.parametrize(
    "spec, order",
    [
        (["zero", "12"], 479001600),
        (["band", "1", "12"], 479001600),
        (["z2^k", "5"], 9999360),
        (["z2^k", "6"], 20158709760),
    ],
)
def test_cli_analyze_refuses_a_huge_aut_before_listing_it(tmp_path, capsys, spec, order):
    path = tmp_path / "s.json"
    assert main(["construct", *spec, "-o", str(path)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["analyze", str(path), "--json"]) == 3
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"budget exceeded: Aut(S) has order {order}, past the cap of 1000000\n"


def test_cli_analyze_caps_the_signed_group(tmp_path, capsys):
    # band 3x3: |Aut| = |Aut-| = |C| = 36 fit a cap of 36, |Aut+-| = 72 does not
    path = tmp_path / "band.json"
    assert main(["construct", "band", "3", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), "--budget-order", "36"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exceeded: Aut±(S) has order 72, past the cap of 36\n"
    assert main(["analyze", str(path), "--budget-order", "72"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines if line.startswith("|Aut+-(S)|:")] == ["72"]


def test_cli_analyze_names_the_c_layer_past_the_cap(tmp_path, capsys):
    # Sym(5): |Aut| = |Aut-| = 120 fit a cap of 120, |C| = 240 does not
    path = tmp_path / "sym5.json"
    assert main(["construct", "sym", "5", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), "--json", "--budget-order", "120"]) == 3
    assert capsys.readouterr() == ("", "budget exceeded: C(S) has order 240, past the cap of 120\n")


@pytest.mark.parametrize(
    "build, automorphisms, involutions, c_order",
    [
        (lambda: zero_semigroup(8), 40320, 763, 40320),
        (lambda: rectangular_band(3, 3), 36, 6, 36),
        (klein_four, 6, 3, 6),  # C is matched against the catalog's Sym(3)
    ],
    ids=["zero8", "band3x3", "klein"],
)
def test_cli_analyze_json_counts(build, automorphisms, involutions, c_order, tmp_path, capsys):
    s = build()
    path = tmp_path / "s.json"
    dump_table(s, path)
    assert main(["analyze", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f'\n  "size": {s.n}\n}}\n')
    doc = json.loads(out)
    assert (doc["counts"]["automorphisms"], doc["counts"]["involutions"]) == (automorphisms, involutions)
    assert doc["groups"]["C"]["order"] == c_order


def test_cli_factor(capsys):
    assert main(["factor", "(0 1 2 3)"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert main(["factor", "(0 1"]) == 2
    assert main(["factor", "(0 1 1)"]) == 2  # a repeated point, not the transposition


@pytest.mark.parametrize("perm", ["(+1 2)", "(1_0 2)", "(\u0663 1)", "(0,,1)", "(0 1,)", "(,)"])
def test_cli_factor_refuses_points_that_are_not_ascii_digits(perm, capsys):
    assert main(["factor", perm]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a cycle point of ")


@pytest.mark.parametrize("count", ["\u0663", "+3", "1_0", " 3x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "cyclic", "{}"],
        ["construct", "band", "2", "{}"],
        ["construct", "frucht", "{}", "0-1"],
    ],
)
def test_cli_construct_refuses_integers_that_are_not_ascii_digits(argv, count, capsys):
    assert main([arg.format(count) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "must be a whole number in ASCII digits" in err


@pytest.mark.parametrize("count", ["\u0663", "+3", "1_0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "(0 1)", "--degree"],
        ["trace", "nf", "ab", "--bound"],
        ["analyze", "x.json", "--budget-nodes"],
        ["verify", "--budget-order"],
    ],
)
def test_cli_refuses_counts_that_are_not_ascii_digits(argv, count, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, count])
    assert exc.value.code == 2
    assert "must be a whole number in ASCII digits" in capsys.readouterr().err


def test_cli_accepts_whitespace_around_ascii_digits(capsys):
    assert main(["construct", "cyclic", " 3 "]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert main(["factor", "(0 1)", "--degree", " 3"]) == 0
    assert capsys.readouterr().out.startswith("pi    = (0 1)\n")


def test_cli_trace(capsys):
    assert main(["trace", "nf", "ba", "--edges", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "ab"
    assert main(["trace", "eq", "xy", "yx", "--alphabet", "xy"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["trace", "map", "delta", "id", "abc"]) == 0
    assert capsys.readouterr().out.strip() == "cba"
    assert main(["trace", "map", "gamma", "(ab)", "ab", "--edges", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "ba"
    assert main(["trace", "nf", "a" * 20, "--edges", ""]) == 3  # length budget
    assert main(["trace", "nf", "abab", "--bound", "1"]) == 3
    assert main(["trace", "eq", "ab", "ba", "--bound", "1"]) == 3
    assert main(["trace", "map", "gamma", "(ab)", "abc", "--edges", "bc"]) == 2  # breaks an edge


@pytest.mark.parametrize(
    "perm, out",
    [("(ab)", "bac"), ("(a b)", "bac"), (" ( a b ) ", "bac"), ("(ab)()", "bac"),
     ("(ab)(c)", "bac"), ("id", "abc"), ("()", "abc"), ("", "abc")],
)
def test_cli_trace_map_reads_letter_cycles(perm, out, capsys):
    assert main(["trace", "map", "gamma", perm, "abc"]) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eq", "ab", "ba", "--alphabet", "abb", "--edges", "ab"],
        ["map", "gamma", "(ab", "ab"],
        ["map", "gamma", "a)b(", "ab"],
        ["map", "delta", "(ab)c", "abc"],
    ],
)
def test_cli_trace_rejects_a_repeated_letter_and_broken_cycles(argv, capsys):
    assert main(["trace", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["eq", "a", ""], "a trace word needs at least one letter"),
        (["eq", "ab", "", "--edges", "ab"], "a trace word needs at least one letter"),
        (["nf", ""], "a trace word needs at least one letter"),
        (["map", "gamma", "id", ""], "a trace word needs at least one letter"),
        (["nf", "abc", "--alphabet", ""], "--alphabet is empty"),
    ],
)
def test_cli_trace_rejects_an_empty_word_or_alphabet(argv, err, capsys):
    assert main(["trace", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_cli_verify_single_check(capsys):
    assert main(["verify", "--only", "klein"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] klein" in out
    assert main(["verify", "--only", "definitely_not_a_check"]) == 2


def test_cli_verify_only_runs_the_stretch_checks_it_names(capsys):
    assert main(["verify", "--only", "t4_stretch", "--json"]) == 0
    assert [r["name"] for r in json.loads(capsys.readouterr().out)] == ["t4_stretch"]
    assert main(["verify", "--only", "klein,t4_stretch"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] t4_stretch" in out and out.endswith("2/2 checks passed\n")
    # --stretch adds the stretch checks to a full run only
    assert main(["verify", "--only", "klein", "--stretch", "--json"]) == 0
    assert [r["name"] for r in json.loads(capsys.readouterr().out)] == ["klein"]


def test_cli_verify_reports_failure_with_exit_one(capsys):
    # an unreachable order budget turns the check into an honest failure
    assert main(["verify", "--only", "klein", "--budget-order", "2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] klein" in out


def test_import_leaves_out_process_pools():
    src = str(Path(involute.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, involute; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_verify_json(capsys):
    assert main(["verify", "--only", "two_involution_factorization", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["name"] == "two_involution_factorization"
    assert doc[0]["passed"] is True
