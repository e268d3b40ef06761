import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from involute.errors import (
    IndexOutOfRangeError,
    InputFormatError,
    NotAssociativeError,
    OrderBudgetExceededError,
)
from involute.families import (
    cyclic_group,
    direct_product_table,
    doubled_semigroup,
    full_transformation_monoid,
    partition_monoid,
    rectangular_band,
    zero_semigroup,
)
from involute.graphs import complete_graph, frucht_semigroup
from involute.semigroups import (
    TABLE_CAP,
    atoms,
    close_under,
    closure_of_subset,
    from_json_dict,
    generating_set,
    index_and_period,
    load_table,
    to_json_dict,
    validate,
)


def test_validate_z2():
    s = validate([[0, 1], [1, 0]])
    assert s.identity == 0
    assert s.n == 2


def test_validate_nonassociative_witness():
    with pytest.raises(NotAssociativeError) as exc:
        validate([[0, 0], [1, 0]])
    i, j, k = exc.value.witness
    t = [[0, 0], [1, 0]]
    assert t[t[i][j]][k] != t[i][t[j][k]]


def test_validate_left_zero_has_no_identity(left_zero_2):
    assert left_zero_2.identity is None


def test_validate_rejects_bad_entries():
    with pytest.raises(IndexOutOfRangeError):
        validate([[0, 2], [1, 0]])
    with pytest.raises(InputFormatError):
        validate([[0, 1], [1]])
    with pytest.raises(InputFormatError):
        validate([])


def _is_associative(t) -> bool:
    n = len(t)
    return all(
        t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n)
    )


def _light_test_corpus():
    """Random 2-4-element tables, plus relabelled associative tables of those
    sizes and their one-entry mutations, which fail associativity narrowly."""
    rng = random.Random(2024)
    bases = [
        [list(row) for row in s.table]
        for s in (
            cyclic_group(2), cyclic_group(3), cyclic_group(4),
            direct_product_table(cyclic_group(2), cyclic_group(2)),
            rectangular_band(1, 2), rectangular_band(2, 2), rectangular_band(1, 4),
            zero_semigroup(2), zero_semigroup(3), full_transformation_monoid(2),
        )
    ]
    bases += [[[0, 0, 0], [0, 1, 1], [0, 1, 2]], [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]]
    tables = []
    for _ in range(600):
        n = rng.randint(2, 4)
        tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    for base in bases:
        n = len(base)
        for _ in range(20):
            sigma = rng.sample(range(n), n)
            inv = sorted(range(n), key=sigma.__getitem__)
            t = [[sigma[base[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
            tables.append(t)
            bad = [row[:] for row in t]
            bad[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            tables.append(bad)
    return tables


def test_light_test_agrees_with_the_triple_loop():
    verdicts = []
    for t in _light_test_corpus():
        expected = _is_associative(t)
        try:
            validate(t)
            verdicts.append(True)
            assert expected, t
        except NotAssociativeError as exc:
            verdicts.append(False)
            assert not expected, t
            x, a, y = exc.witness
            assert t[t[x][a]][y] != t[x][t[a][y]], (t, exc.witness)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 500


def test_rows_and_arrays_get_one_verdict():
    rng = random.Random(18)
    verdicts = []
    for _ in range(500):
        n = rng.randint(1, 4)
        t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        outcomes = []
        for table in (t, np.array(t)):
            try:
                outcomes.append(validate(table).np_table.tolist())
            except NotAssociativeError as exc:
                x, a, y = exc.witness
                assert t[t[x][a]][y] != t[x][t[a][y]], (t, exc.witness)
                outcomes.append(exc.witness)
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == t) == _is_associative(t), t
        verdicts.append(outcomes[0] == t)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 300


@pytest.mark.parametrize(
    "table, error",
    [
        (np.array([[False]]), InputFormatError),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), InputFormatError),
        (np.array([0]), InputFormatError),
        (np.zeros((1, 1, 1), dtype=int), InputFormatError),
        (np.zeros((2, 3), dtype=int), InputFormatError),
        (np.zeros((0, 0), dtype=int), InputFormatError),
        (np.array([[0, 2**31], [1, 0]], dtype=np.int64), IndexOutOfRangeError),
        (np.array([[0, 2**32 + 1], [1, 0]], dtype=np.int64), IndexOutOfRangeError),
        (np.array([[0, -1], [1, 0]], dtype=np.int8), IndexOutOfRangeError),
    ],
)
def test_validate_refuses_arrays_as_it_refuses_rows(table, error):
    with pytest.raises(error):
        validate(table)


def test_validate_keeps_a_c_contiguous_int32_array():
    a = np.array([[0, 1], [1, 0]], dtype=np.int32)
    assert validate(a).np_table is a
    assert validate(a.astype(np.int64)).np_table.dtype == np.int32


class _Unrowed(np.ndarray):
    """An array whose rows cannot be iterated over."""

    def __iter__(self):
        raise AssertionError("the rows of an array were walked")


def test_validate_reads_an_arrays_shape_not_its_rows():
    t = cyclic_group(6).np_table.copy()
    assert validate(t.view(_Unrowed)).np_table.tolist() == t.tolist()
    with pytest.raises(InputFormatError, match="not square"):
        validate(t[:, :5].view(_Unrowed))


def test_a_validated_array_cannot_be_written():
    a = np.array([[0, 1], [1, 0]], dtype=np.int32)
    s = validate(a)
    with pytest.raises(ValueError):
        a[0, 0] = 1
    with pytest.raises(ValueError):
        s.dual().np_table[0, 0] = 1
    assert s.table == ((0, 1), (1, 0)) and s.np_table.tolist() == [[0, 1], [1, 0]]


def test_validate_refuses_a_large_array():
    with pytest.raises(OrderBudgetExceededError):
        validate(np.zeros((TABLE_CAP + 1, TABLE_CAP + 1), dtype=np.int32))


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1.5], [1, 0]],
        [[0.0]],
        [[False]],
        [[0, True], [True, 0]],
        [["0"]],
        [[None]],
        5,
        "00",
        [5],
        [(0,), {0}],
    ],
)
def test_validate_rejects_non_integer_input(table):
    with pytest.raises(InputFormatError):
        validate(table)


def test_validate_rejects_huge_entries_and_bad_names():
    with pytest.raises(IndexOutOfRangeError):
        validate([[2**70]])
    for past_int32 in (2**31, 2**32, -(2**31) - 1):  # none may wrap into range
        with pytest.raises(IndexOutOfRangeError):
            validate([[0, past_int32], [1, 0]])
    with pytest.raises(InputFormatError):
        validate([[0]], names=7)
    with pytest.raises(InputFormatError):
        validate([[0]], names="e")
    assert validate(((0, 1), (1, 0)), names=("e", "a")).names == ("e", "a")


def test_commutativity():
    assert cyclic_group(5).is_commutative
    assert not validate([[0, 0], [1, 1]]).is_commutative
    assert not rectangular_band(2, 2).is_commutative


def test_atoms_examples():
    s = frucht_semigroup(complete_graph(3))
    assert atoms(s) == frozenset({0, 1, 2})
    assert atoms(cyclic_group(2)) == frozenset({1})
    assert atoms(cyclic_group(5)) == frozenset()


def test_atoms_against_brute_force_on_random_tables():
    rng = random.Random(11)
    found = 0
    while found < 25:
        n = rng.choice((2, 3))
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        try:
            s = validate(table)
        except Exception:
            continue
        found += 1
        e = s.identity
        others = [x for x in range(n) if x != e]
        brute = {
            a
            for a in range(n)
            if a != e and all(table[b][c] != a for b in others for c in others)
        }
        assert atoms(s) == brute


def test_green_rectangular_band():
    g = rectangular_band(2, 3).green
    assert sorted(len(c) for c in g.r_classes) == [3, 3]
    assert sorted(len(c) for c in g.l_classes) == [2, 2, 2]
    assert len(g.h_classes) == 6
    assert len(g.d_classes) == 1
    assert g.d_classes == g.j_classes


def test_green_t2_rank_classes():
    g = full_transformation_monoid(2).green
    # constants {[0 0], [1 1]} and bijections {id, swap}
    assert sorted(sorted(c) for c in g.d_classes) == [[0, 3], [1, 2]]


def test_green_group_is_a_single_class():
    g = cyclic_group(6).green
    for part in (g.r_classes, g.l_classes, g.h_classes, g.d_classes, g.j_classes):
        assert len(part) == 1


def test_generating_set_examples():
    assert generating_set(cyclic_group(6)) == [1]
    t3 = full_transformation_monoid(3)
    gens = generating_set(t3)
    assert closure_of_subset(t3, gens) == frozenset(range(27))
    z = zero_semigroup(3)
    assert sorted(generating_set(z)) == [0, 1, 2]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_generating_set_generates_cyclic(n):
    s = cyclic_group(n)
    assert closure_of_subset(s, generating_set(s)) == frozenset(range(n))


def test_generating_set_is_pinned():
    # the greedy order decides the search's branching order downstream
    assert generating_set(full_transformation_monoid(3)) == [15, 7, 1]
    assert generating_set(partition_monoid(2)) == [8, 10, 0]
    assert generating_set(cyclic_group(12)) == [1]


def _all_pairs_closure(s, seed):
    """Reference: saturate under every product of two members, both orders."""
    members = set(seed)
    work = list(members)
    t = s.table
    while work:
        x = work.pop()
        row = t[x]
        for y in tuple(members):
            for p in (row[y], t[y][x]):
                if p not in members:
                    members.add(p)
                    work.append(p)
    return frozenset(members)


def _subtable(s, members):
    order = sorted(members)
    index = {x: i for i, x in enumerate(order)}
    return validate([[index[s.table[a][b]] for b in order] for a in order])


def test_closure_of_subset_matches_the_all_pairs_reference():
    rng = random.Random(0xC105E)
    t3 = full_transformation_monoid(3)
    tables = [
        t3,
        cyclic_group(7),
        rectangular_band(2, 3),
        zero_semigroup(4),
        doubled_semigroup(full_transformation_monoid(2)),
        direct_product_table(rectangular_band(2, 2), cyclic_group(3)),
    ]
    tables += [
        _subtable(t3, _all_pairs_closure(t3, rng.sample(range(27), rng.randint(1, 3))))
        for _ in range(20)
    ]
    assert sum(s.identity is None for s in tables) >= 5
    for s in tables:
        for _ in range(8):
            seed = rng.sample(range(s.n), rng.randint(0, min(4, s.n)))
            expected = _all_pairs_closure(s, seed)
            assert closure_of_subset(s, seed) == expected


def test_close_under_raises_exactly_past_the_cap():
    t = full_transformation_monoid(3).table
    rng = random.Random(7)
    for _ in range(30):
        seed = rng.sample(range(27), rng.randint(1, 3))
        size = len(close_under(seed, seed, lambda x, g: t[x][g]))
        assert len(close_under(seed, seed, lambda x, g: t[x][g], cap=size)) == size
        with pytest.raises(OrderBudgetExceededError):
            close_under(seed, seed, lambda x, g: t[x][g], cap=size - 1)
    with pytest.raises(OrderBudgetExceededError):
        close_under([0], [], lambda x, g: x, cap=0)
    assert close_under([], [1], lambda x, g: x + g, cap=0) == set()


def test_fingerprint_examples():
    z6 = cyclic_group(6)
    fps = z6.fingerprints
    assert fps[0].is_idempotent and (fps[0].index, fps[0].period) == (1, 1)
    assert (fps[1].index, fps[1].period) == (1, 6)
    t3 = full_transformation_monoid(3)
    const = t3.fingerprints[0]  # the map sending everything to 0
    assert const.is_idempotent
    assert const.right_mult_rank == 1


def test_index_and_period_bounds():
    t3 = full_transformation_monoid(3)
    for x in range(27):
        i, p = index_and_period(t3, x)
        assert 1 <= i and 1 <= p and i + p - 1 <= 3


def test_closure_and_index_refuse_what_is_not_an_element():
    s = cyclic_group(6)
    for bad in (-1, 6, True, False, 1.0, "1", None):
        with pytest.raises(IndexOutOfRangeError):
            index_and_period(s, bad)
        with pytest.raises(IndexOutOfRangeError):
            closure_of_subset(s, [2, bad])
    assert index_and_period(s, 5) == (1, 6)
    assert closure_of_subset(s, iter([2])) == {0, 2, 4}
    assert closure_of_subset(s, []) == frozenset()


def test_json_roundtrip(tmp_path, klein):
    doc = to_json_dict(klein)
    back = from_json_dict(json.loads(json.dumps(doc)))
    assert back.table == klein.table
    assert back.identity == 0
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(doc))
    assert load_table(path).table == klein.table


def _load_z300(tmp_path):
    path = tmp_path / "z300.json"
    path.write_text(json.dumps(to_json_dict(cyclic_group(300))))
    return load_table(path)


def test_load_table_builds_no_rows(tmp_path):
    # the rows are built after the JSON lists are freed, not beside them
    assert "table" not in _load_z300(tmp_path).__dict__


def test_rows_read_from_json_share_one_int_per_element(tmp_path):
    s = _load_z300(tmp_path)
    assert len({id(x) for row in s.table for x in row}) == 300


def test_json_rejects_inconsistencies():
    with pytest.raises(InputFormatError):
        from_json_dict({"n": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(InputFormatError):
        from_json_dict({"table": [[0, 1], [1, 0]], "identity": 1})
    with pytest.raises(InputFormatError):
        from_json_dict([1, 2, 3])
    for doc in (
        {"table": 5},
        {"table": [[0]], "names": 7},
        {"table": [[0]], "n": True},
        {"table": [[0]], "n": 1.0},
        {"table": [[0]], "identity": True},
        {"table": [[0]], "identity": 0.0},
    ):
        with pytest.raises(InputFormatError):
            from_json_dict(doc)
    assert from_json_dict({"table": [[0]], "n": 1, "identity": 0}).identity == 0
