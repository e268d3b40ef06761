"""The column-filled Cayley tables against every product computed.

``cayley_table`` computes only the generator columns with the product and
gathers the rest, which is right only for an associative product.  The n^2
builder below is the reference: on every family, at the sizes the tests use,
the two tables must be equal.
"""

import hashlib
import random
import time

import numpy as np
import pytest

from involute import battery, families, graphs, permgroups, semigroups
from involute.cli import _FAMILIES, main
from involute.errors import OrderBudgetExceededError
from involute.graphs import SimpleGraph, frucht_semigroup
from involute.perms import compose
from involute.permgroups import c_group, to_cayley_table
from involute.semigroups import TABLE_CAP, cayley_table, validate


def n2_table(elems, mult, names=None):
    """The table with every one of its n^2 products computed by ``mult``."""
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[mult(a, b)] for b in elems] for a in elems]
    return validate(table, names=None if names is None else list(names))


FAMILY_CASES = [
    *[(families.cyclic_group, (n,)) for n in (1, 2, 12, 200)],
    (families.klein_four, ()),
    *[(families.sym_group_table, (n,)) for n in range(1, 7)],
    *[(families.alternating_group_table, (n,)) for n in range(1, 6)],
    *[(families.full_transformation_monoid, (n,)) for n in range(1, 5)],
    *[(families.symmetric_inverse_monoid, (n,)) for n in range(1, 5)],
    *[(families.dual_symmetric_inverse_monoid, (n,)) for n in range(1, 4)],
    *[(families.partition_monoid, (n,)) for n in range(1, 4)],
    *[(families.rectangular_band, pq) for pq in ((1, 1), (2, 3), (3, 3), (1, 7), (4, 1))],
    *[(families.zero_semigroup, (k,)) for k in (1, 5, 8)],
    *[(families.dihedral_group, (k,)) for k in (1, 2, 4, 12)],
    (families.quaternion_group, ()),
    *[(families.elementary_abelian_two_group, (k,)) for k in range(6)],
    (lambda: families.doubled_semigroup(families.full_transformation_monoid(3)), ()),
    (lambda: families.doubled_semigroup(validate([[0, 0], [1, 1]])), ()),
    (lambda: families.doubled_semigroup(families.rectangular_band(2, 3)), ()),
    (lambda: families.direct_product_table(
        families.cyclic_group(2), families.sym_group_table(4)), ()),
    (lambda: families.direct_product_table(
        families.rectangular_band(2, 2), families.zero_semigroup(3)), ()),
    (lambda: frucht_semigroup(SimpleGraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]])), ()),
    (lambda: frucht_semigroup(SimpleGraph(3, [[0, 1], [1, 2]])), ()),
    *[(lambda seed=seed: battery._random_transformation_semigroup(random.Random(seed)), ())
      for seed in range(20)],
]


@pytest.mark.parametrize("build, args", FAMILY_CASES)
def test_column_fill_equals_every_product_computed(build, args, monkeypatch):
    s = build(*args)
    for module in (families, graphs, battery):
        monkeypatch.setattr(module, "cayley_table", n2_table)
    ref = build(*args)
    assert s.table == ref.table
    assert s.names == ref.names
    assert s.identity == ref.identity


@pytest.mark.parametrize("build, args", FAMILY_CASES)
def test_validate_reads_an_array_as_it_reads_rows(build, args):
    s = build(*args)
    names = None if s.names is None else list(s.names)
    rows = [list(row) for row in s.table]
    from_rows, from_array = validate(rows, names), validate(np.array(rows), names)
    assert np.array_equal(from_rows.np_table, s.np_table)
    assert np.array_equal(from_array.np_table, s.np_table)
    assert from_rows.np_table.dtype == from_array.np_table.dtype == np.int32
    assert from_rows.table == from_array.table == s.table
    assert from_rows.identity == from_array.identity == s.identity
    assert from_rows.names == from_array.names == s.names


def test_trusted_builders_hand_validate_an_array(monkeypatch):
    seen = []

    def spy(table, names=None):
        seen.append(type(table))
        return validate(table, names)

    group = c_group(families.klein_four())
    monkeypatch.setattr(semigroups, "validate", spy)
    monkeypatch.setattr(permgroups, "validate", spy)
    families.sym_group_table(3)
    to_cayley_table(group)
    assert seen == [np.ndarray, np.ndarray]


@pytest.mark.parametrize(
    "group",
    [
        *[lambda n=n: c_group(families.sym_group_table(n)) for n in (3, 4, 5)],
        lambda: c_group(families.rectangular_band(3, 3)),
        lambda: c_group(families.klein_four()),
    ],
)
def test_group_tables_equal_every_product_computed(group):
    g = group()
    assert to_cayley_table(g).table == n2_table(g.elements, compose).table


def test_only_generator_columns_are_computed():
    calls = []

    def add(i, j):
        calls.append((i, j))
        return (i + j) % 12

    assert cayley_table(range(12), add).table == families.cyclic_group(12).table
    # 0 and then 1 are the greedy generators; the other ten columns are gathered
    assert sorted({j for _, j in calls}) == [0, 1] and len(calls) == 24


@pytest.mark.parametrize(
    "build, n, products",
    [
        (families.sym_group_table, 6, 4_320),                # of 518,400
        (families.partition_monoid, 3, 6_496),               # of 41,209
        (families.full_transformation_monoid, 4, 9_216),     # of 65,536
    ],
)
def test_products_computed_per_family(build, n, products, monkeypatch):
    calls = []

    def counted(elems, mult, names=None):
        def product(a, b):
            calls.append(None)
            return mult(a, b)

        return cayley_table(elems, product, names)

    monkeypatch.setattr(families, "cayley_table", counted)
    build(n)
    assert len(calls) == products


def test_cayley_table_refuses_a_product_outside_the_elements():
    with pytest.raises(ValueError, match="not closed"):
        cayley_table([0, 1], lambda a, b: a + b)
    with pytest.raises(ValueError, match="not distinct"):
        cayley_table([0, 0], lambda a, b: a)


def test_cayley_table_refuses_a_large_table_before_any_product():
    def never(a, b):
        raise AssertionError("no product may be computed")

    for elems in (range(TABLE_CAP + 1), list(range(TABLE_CAP + 1)), range(2**100)):
        with pytest.raises(OrderBudgetExceededError):
            cayley_table(elems, never)


def test_construct_sym_7_is_refused_promptly(capsys):
    start = time.perf_counter()
    assert main(["construct", "sym", "7"]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        f"error: the requested table exceeds the limit of {TABLE_CAP} elements\n"
    )


#: sha256 of ``construct SPEC`` for each family and combinator, recorded
#: before the tables were filled column by column.
CONSTRUCT_DIGESTS = {
    "cyclic": (["cyclic", "12"], "67b8a20e0efe76c67907306f47f3e4755dadbc0adf443b607ab9ec1e9489a295"),
    "zn": (["zn", "7"], "c0b76fcea870bf83e05980a23d28287bed737d32fb8c7e6c63eac3c49de4bbc4"),
    "klein": (["klein"], "6274c22f727e0676cb5cd515ad52f0fda028fba7029c180c7c8c54dbd8791aee"),
    "sym": (["sym", "4"], "d936350ad00f47fae430d8bb2089cc43cc400d291305c480b27993907d35960f"),
    "alt": (["alt", "4"], "90fd8212cdd993012b286d53adc8fa2c03fe1a37c8432666ce947e92f13f48cb"),
    "transformation": (
        ["transformation", "2"],
        "d8e65cb5f008bb16f24756b5302601013a7f6aec03cd7656fb32bf6a9141765c",
    ),
    "tn": (["tn", "3"], "3bf2b1c9bb8d8b02ecd0172f9e4e4329cc8f24c62d541a05ba535e0e866115c3"),
    "inverse": (["inverse", "3"], "8de2c3268067f21437a6af79bd795ba41c9ae132f938e649baf3dbcf12edf910"),
    "dual-inverse": (
        ["dual-inverse", "3"],
        "a71d9da1ce6edee1f181b9d3220196b741db16f68f6b76766e63533d8255ec7e",
    ),
    "partition": (
        ["partition", "2"],
        "deda22b7ad2e24864133ad5aeab852e3d74902034e701c2d5673ee8792ccb880",
    ),
    "band": (["band", "2", "3"], "6eea8c72f59e4db5d340e5e5838eb7abf93873019617d46dbf49dae17b0a8fb7"),
    "zero": (["zero", "4"], "5728566011c119ce86b47eb5bc1c37231a9b8c6c68aed94604d394a2ebd9f489"),
    "dihedral": (["dihedral", "5"], "e8a9179e2f0d75b23f889ce0baaf8d4ed2f7772da6f0a02c64dc5bcf3c0984c4"),
    "quaternion": (["quaternion"], "98d74f693418c633e3ab4296aaec5fc23a48a1d6e0f7c63399074470d086e501"),
    "z2^k": (["z2^k", "3"], "eb25e55a08d0534df30dcff2959b4bfadef936ac712f7ae59593e865e2eebc59"),
    "doubled": (
        ["doubled", "tn", "2"],
        "cf0ce836eceffaea7f725b6cf9be4faecbefbceec9c976b03fae0931b5e7eff7",
    ),
    "dual": (["dual", "tn", "3"], "b25ecaf7a8bfe28220c55ac3bb07974b7ab39415eb7c142e5873ede84b2a6a3a"),
    "product": (
        ["product", "cyclic", "2", "sym", "3"],
        "74ab794d28d672d52a29b449226ec89acf7180b21875d7c4119d0f259fa4306c",
    ),
    "frucht": (
        ["frucht", "4", "0-1,1-2,2-3"],
        "c2ace001fc9cdc41f9475213e7e7b198b26856f6651ca86525636f4e1ace0ad4",
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCT_DIGESTS))
def test_construct_output_is_pinned(name, capsys):
    spec, digest = CONSTRUCT_DIGESTS[name]
    assert main(["construct", *spec]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_construct_digests_cover_every_family():
    assert set(_FAMILIES) <= set(CONSTRUCT_DIGESTS)
