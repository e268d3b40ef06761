"""The numpy Green's relations and fingerprint kernels against pure-Python
references: principal ideals as sets, the element-by-element fingerprints
the kernels replaced (which take each element's index and period from
``index_and_period``), and the generator order built from them."""

import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Fingerprint, Green, fingerprints, green_classes, relabelled
from involute import semigroups
from involute.battery import _completeness_corpus, run_battery
from involute.cli import main
from involute.errors import NotAssociativeError
from involute.families import (
    cyclic_group,
    direct_product_table,
    doubled_semigroup,
    full_transformation_monoid,
    partition_monoid,
    rectangular_band,
    sym_group_table,
    symmetric_inverse_monoid,
    zero_semigroup,
)
from involute.morphisms import enumerate_anti_automorphisms, find_anti_isomorphism
from involute.perms import compose
from involute.semigroups import (
    _SWAPPED,
    close_under,
    generating_set,
    greedy_generators,
    index_and_period,
    validate,
)


def _canonical_partition(class_of: dict) -> tuple:
    groups: dict = {}
    for x, key in class_of.items():
        groups.setdefault(key, []).append(x)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def reference_green(s) -> Green:
    """Principal ideals as Python sets, J as the union of the R ideals over
    each L ideal, D by union-find over elements."""
    n, t = s.n, s.table
    rideal = [frozenset(row) | {x} for x, row in enumerate(t)]
    lideal = [frozenset(col) | {y} for y, col in enumerate(zip(*t))]
    jcache: dict = {}
    jideal = [
        jcache.get(lm) or jcache.setdefault(lm, frozenset().union(*(rideal[y] for y in lm)))
        for lm in lideal
    ]
    r_part = _canonical_partition(dict(enumerate(rideal)))
    l_part = _canonical_partition(dict(enumerate(lideal)))
    h_part = _canonical_partition({x: (rideal[x], lideal[x]) for x in range(n)})
    j_part = _canonical_partition(dict(enumerate(jideal)))

    # D = R v L via union-find over the two partitions
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in (r_part, l_part):
        for cls in part:
            it = iter(cls)
            root = find(next(it))
            for other in it:
                parent[find(other)] = root
    d_part = _canonical_partition({x: find(x) for x in range(n)})
    assert d_part == j_part, "D != J on a finite semigroup: computation bug"
    return Green(r_part, l_part, h_part, d_part, j_part)


def reference_fingerprints(s, green) -> tuple:
    n, t = s.n, s.table
    cols = list(zip(*t))
    size_of = {}
    for attr, slot in (("r_classes", 0), ("l_classes", 1), ("d_classes", 2)):
        for cls in getattr(green, attr):
            for x in cls:
                size_of.setdefault(x, [0, 0, 0])[slot] = len(cls)
    out = []
    for x in range(n):
        rcs, lcs, dcs = size_of[x]
        idx, per = index_and_period(s, x)
        out.append(
            Fingerprint(
                is_idempotent=t[x][x] == x,
                index=idx,
                period=per,
                r_class_size=rcs,
                l_class_size=lcs,
                d_class_size=dcs,
                left_mult_rank=len(set(cols[x])),
                right_mult_rank=len(set(t[x])),
            )
        )
    return tuple(out)


def _random_transformation_semigroups(seed, count, cap=120):
    """Seeded subsemigroups of T_m, m <= 5, of 4..cap elements, each
    generated by one to three random maps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        maps = [tuple(rng.randrange(m) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        elems = close_under(maps, maps, compose)
        if not 4 <= len(elems) <= cap:
            continue
        order = sorted(elems)
        index = {f: i for i, f in enumerate(order)}
        out.append(validate([[index[compose(f, g)] for g in order] for f in order]))
    return out


NAMED_TABLES = {
    **{f"sym{k}": (sym_group_table, k) for k in range(3, 7)},
    "t3": (full_transformation_monoid, 3),
    "t4": (full_transformation_monoid, 4),
    "p2": (partition_monoid, 2),
    "p3": (partition_monoid, 3),
    "i3": (symmetric_inverse_monoid, 3),
    "i4": (symmetric_inverse_monoid, 4),
    "band3x3": (rectangular_band, 3, 3),
    "zero5": (zero_semigroup, 5),
    "doubled_t3": (lambda: doubled_semigroup(full_transformation_monoid(3)),),
    "z2_x_sym4": (lambda: direct_product_table(cyclic_group(2), sym_group_table(4)),),
    "z840": (cyclic_group, 840),
}


def reference_order(fps) -> list[int]:
    """The preference order of ``generating_set``, from a tuple of
    :data:`~conftest.Fingerprint`s."""
    class_size = Counter(fps)
    orbit = [fp.index + fp.period - 1 for fp in fps]
    spread = [fp.left_mult_rank + fp.right_mult_rank for fp in fps]
    return sorted(range(len(fps)), key=lambda x: (-orbit[x], -spread[x], class_size[fps[x]], x))


def reference_generating_set(s, fps) -> list[int]:
    return list(greedy_generators(reference_order(fps), lambda x, g: s.table[x][g]))


def _assert_matches_reference(s):
    green = reference_green(s)
    assert green_classes(s) == green
    fps = reference_fingerprints(s, green)
    assert fingerprints(s) == fps
    assert generating_set(s) == reference_generating_set(s, fps)


def _assert_dual_matches_the_reference(s):
    """The dual's fingerprints, read off ``s``, agree with those of the
    transposed table validated afresh and with the references."""
    d = s.dual()
    assert np.array_equal(d.fingerprint_rows, validate(s.np_table.T.copy()).fingerprint_rows)
    _assert_matches_reference(d)


def test_kernels_match_the_reference_on_the_completeness_corpus():
    for s in _completeness_corpus(random.Random(0xCA11)):
        _assert_matches_reference(s)
        _assert_dual_matches_the_reference(s)


def test_kernels_match_the_reference_on_cyclic_groups():
    for k in range(1, 200):
        _assert_matches_reference(cyclic_group(k))


@pytest.mark.parametrize("name", sorted(NAMED_TABLES))
def test_kernels_match_the_reference_on_named_tables(name, monkeypatch):
    picks = []
    real = semigroups.greedy_generators

    def spy(candidates, product):
        picks.append([])
        for a in real(candidates, product):
            picks[-1].append(a)
            yield a

    monkeypatch.setattr(semigroups, "greedy_generators", spy)
    build, *args = NAMED_TABLES[name]
    s = build(*args)
    monkeypatch.undo()
    # the last pick is validate's, for Light's test
    assert picks[-1] == reference_generating_set(s, reference_fingerprints(s, reference_green(s)))
    _assert_matches_reference(s)
    _assert_dual_matches_the_reference(s)


def _monogenic(index, period):
    """<x | x^(index+period) = x^index> on x^1..x^(index+period-1), x^k at k-1."""
    m = index + period - 1
    k = np.arange(1, m + 1)
    power = k[:, None] + k                  # x^a x^b = x^(a+b), reduced past x^m
    return validate(np.where(power <= m, power, index + (power - index) % period) - 1)


def test_kernels_match_the_reference_on_monogenic_semigroups():
    for index in range(1, 9):
        for period in range(1, 9):
            s = _monogenic(index, period)
            assert index_and_period(s, 0) == (index, period)
            _assert_matches_reference(s)


def _powers_by_rows(s, x):
    """x's index and period from its powers in a dict, read off the tuple table."""
    t, seen, y = s.table, {}, x
    while y not in seen:
        seen[y] = len(seen) + 1
        y = t[y][x]
    return seen[y], len(seen) + 1 - seen[y]


def _assert_powers_match(s):
    index, period = semigroups._indices_and_periods(s.np_table)
    expected = [index_and_period(s, x) for x in range(s.n)]
    assert list(zip(index.tolist(), period.tolist())) == expected
    assert expected == [_powers_by_rows(s, x) for x in range(s.n)]


def test_the_power_walk_matches_on_long_monogenic_semigroups():
    # past _LOCKSTEP_POWERS, x and its powers are ended by the walk
    assert semigroups._LOCKSTEP_POWERS < 40
    for index in range(1, 41):
        for period in range(1, 41):
            s = _monogenic(index, period)
            assert index_and_period(s, 0) == (index, period)
            _assert_powers_match(s)


def test_the_power_walk_matches_on_relabelled_cyclic_groups_and_their_products():
    for n in range(1, 201):
        sigma = list(range(n))
        random.Random(n).shuffle(sigma)
        z_n = np.add.outer(np.arange(n), np.arange(n)) % n
        _assert_powers_match(validate(relabelled(z_n, sigma)))
    for a, b in ((2, 2), (2, 12), (4, 6), (6, 10), (12, 15), (5, 30)):
        _assert_powers_match(direct_product_table(cyclic_group(a), cyclic_group(b)))


#: tables whose elements the walk ends, in several cyclic parts
_WALKED = {
    "monogenic 5+30": lambda: _monogenic(5, 30),
    "monogenic 23+12": lambda: _monogenic(23, 12),
    "Z_90": lambda: cyclic_group(90),
    "Z_6 x Z_20": lambda: direct_product_table(cyclic_group(6), cyclic_group(20)),
    "Z_18 x monogenic 3+4": lambda: direct_product_table(cyclic_group(18), _monogenic(3, 4)),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_power_walk_matches_under_any_relabelling(data):
    # the walk takes the open elements in label order, so the labels decide
    # which element of a cyclic part is walked and which are met as its powers
    base = _WALKED[data.draw(st.sampled_from(sorted(_WALKED)))]()
    sigma = data.draw(st.permutations(range(base.n)))
    _assert_powers_match(validate(relabelled(base.np_table, sigma)))


def test_kernels_match_the_reference_on_random_transformation_semigroups():
    tables = _random_transformation_semigroups(seed=11, count=40)
    assert sum(s.identity is None for s in tables) >= 20  # most have no identity
    for s in tables:
        _assert_matches_reference(s)


def test_a_dual_reads_its_green_structure_off_the_original():
    s = full_transformation_monoid(3)
    g = green_classes(s)
    d = s.dual()
    assert green_classes(d) == Green(g.l_classes, g.r_classes, g.h_classes, g.d_classes, g.j_classes)
    assert np.array_equal(d.fingerprint_rows, s.fingerprint_rows[:, _SWAPPED])
    # _SWAPPED trades the R and L class sizes and the two translation ranks
    assert [Fingerprint._fields[i] for i in _SWAPPED] == [
        "is_idempotent", "index", "period", "l_class_size", "r_class_size", "d_class_size",
        "right_mult_rank", "left_mult_rank"]


def test_a_broken_d_join_fails_the_fingerprints(monkeypatch):
    s = rectangular_band(2, 2)              # one D class of four elements
    monkeypatch.setattr(semigroups, "_join", lambda r, l: np.arange(len(r)))
    with pytest.raises(AssertionError, match="D != J"):
        rectangular_band(2, 2)
    with pytest.raises(AssertionError, match="D != J"):
        validate(s.np_table.T)
    with pytest.raises(AssertionError, match="D != J"):
        s.dual()


#: a non-associative table whose D and J labels differ
D_NOT_J = [[2, 0, 1], [0, 1, 1], [1, 2, 1]]


def test_a_table_with_d_not_j_is_not_associative():
    r, l, d, _, _, j = semigroups._green_labels(np.array(D_NOT_J))
    assert not np.array_equal(d, j)
    rng = random.Random(24)
    tables = [D_NOT_J]
    for _ in range(400):
        n = rng.randint(2, 4)
        tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    refused = 0
    for t in tables:
        r, l, d, _, _, j = semigroups._green_labels(np.array(t))
        if not np.array_equal(d, j):
            with pytest.raises(NotAssociativeError):
                validate(t)
            refused += 1
    assert refused >= 100


def test_analyze_refuses_a_table_with_d_not_j_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "d_not_j.json"
    path.write_text(json.dumps({"table": D_NOT_J}))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: (0*0)*2 != 0*(0*2)\n")


def test_t4_validates_with_three_generators():
    s = full_transformation_monoid(4)
    assert len(validate(s.np_table).generators) == 3
    assert generating_set(s) == list(s.generators) == [108, 114, 6]


def test_validate_picks_once_and_cayley_table_twice(monkeypatch):
    picks = []
    real = semigroups.greedy_generators

    def spy(candidates, product):
        picks.append(candidates)
        return real(candidates, product)

    monkeypatch.setattr(semigroups, "greedy_generators", spy)
    s = sym_group_table(4)
    assert generating_set(s) == list(s.generators)
    assert len(picks) == 2                  # cayley_table's columns, then Light's set
    for t in (s.np_table, s.table, s.np_table.T):
        picks.clear()
        u = validate(t)
        assert generating_set(u) == list(u.generators)
        assert len(picks) == 1              # Light's set is the generating set


@pytest.fixture(scope="module")
def battery_work():
    """One pass of the battery: every table it builds, with the number of
    greedy picks made since the table before it and the generators the last
    one kept, and the tables each occurrence-mask pass ran on."""
    work = {"tables": [], "masks": [], "picks": []}
    real_masks = semigroups._occurrence_masks
    real_pick = semigroups.greedy_generators

    def masks(arr):
        work["masks"].append(arr)
        return real_masks(arr)

    def pick(candidates, product):
        kept: list = []
        work["picks"].append(kept)
        for a in real_pick(candidates, product):
            kept.append(a)
            yield a

    real_init = semigroups.FiniteSemigroup.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        work["tables"].append((self, len(work["picks"]), work["picks"][-1]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroups.FiniteSemigroup, "__init__", init)
        mp.setattr(semigroups, "_occurrence_masks", masks)
        mp.setattr(semigroups, "greedy_generators", pick)
        assert all(r.passed for r in run_battery())
    return work


def test_each_table_runs_the_occurrence_masks_once(battery_work):
    passes = Counter(map(id, battery_work["masks"]))
    tables = [s for s, *_ in battery_work["tables"]]
    # once, in validate, for the labels and the fingerprints
    assert len(battery_work["masks"]) == len(tables) >= 300
    assert all(passes[id(s.np_table)] == 1 for s in tables)


def test_an_anti_search_constructs_no_instance(monkeypatch):
    band, co_band, right_zero = rectangular_band(2, 3), rectangular_band(3, 2), rectangular_band(1, 6)
    # the tables with their numbers of anti-automorphisms
    counts = {band: 0, full_transformation_monoid(3): 0, sym_group_table(3): 6,
              symmetric_inverse_monoid(3): 6, rectangular_band(3, 3): 36}
    made = []
    real_init = semigroups.FiniteSemigroup.__init__

    def init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(semigroups.FiniteSemigroup, "__init__", init)
    for s, count in counts.items():
        assert len(enumerate_anti_automorphisms(s)) == count
        assert (find_anti_isomorphism(s, s) is None) == (count == 0)
    assert find_anti_isomorphism(band, co_band) is not None
    assert find_anti_isomorphism(band, right_zero) is None
    assert made == []


def test_each_table_picks_its_generating_set_once(battery_work):
    made = 0
    for s, picks, kept in battery_work["tables"]:
        # validate's pick, after cayley_table's on a built table
        assert picks - made in (1, 2)
        assert s.generators == tuple(kept)
        made = picks
    s = battery_work["tables"][0][0]
    gens = generating_set(s)
    gens.append(-1)
    gens[0] = -1
    assert generating_set(s) == list(s.generators) != gens
    assert isinstance(s.generators, tuple)
