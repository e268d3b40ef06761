"""The greedy closure :func:`greedy_generators` against the two loops it
replaced, kept here as the reference: a pick that closes its generators
afresh after each one, and a group grown one generator at a time from the
products of its old members.  Generator lists, group elements and derived
subgroups must agree, and the pick must stay quadratic."""

import random
from itertools import combinations

import pytest

from conftest import fingerprints
from involute import semigroups
from involute.battery import _completeness_corpus
from involute.errors import OrderBudgetExceededError
from involute.families import (
    cyclic_group,
    dihedral_group,
    direct_product_table,
    doubled_semigroup,
    full_transformation_monoid,
    partition_monoid,
    rectangular_band,
    sym_group_table,
    symmetric_inverse_monoid,
    zero_semigroup,
)
from involute.morphisms import involutions, order_two_automorphisms
from involute.perms import compose, identity_tuple, invert
from involute.permgroups import closure, derived_subgroup
from involute.semigroups import (
    DEFAULT_ORDER_BUDGET,
    close_under,
    generating_set,
    greedy_generators,
    validate,
)
from test_green_kernels import reference_order


def restarting_generators(rows, order, n):
    """The next element of ``order`` outside the right closure of those taken
    so far, that closure computed afresh after each one."""
    gens: list = []
    have: set = set()
    for x in order:
        if x in have:
            continue
        yield x
        gens.append(x)
        have = close_under(gens, gens, lambda u, g: rows[u][g])
        if len(have) == n:
            return


class Growing:
    """A group <gens> as mapping tuples, grown one generator at a time."""

    def __init__(self, degree, cap=None):
        self.cap = DEFAULT_ORDER_BUDGET if cap is None else cap
        self.degree = degree
        self.members = close_under([identity_tuple(degree)], [], compose, cap=self.cap)
        self.gens: list = []

    def adjoin(self, g) -> bool:
        if g in self.members:
            return False
        self.gens.append(g)
        seeds = [compose(h, g) for h in self.members]
        close_under(seeds, self.gens, compose, cap=self.cap, members=self.members)
        return True


def reference_closure(gens, degree) -> Growing:
    grown = Growing(degree)
    for g in gens:
        grown.adjoin(g)
    return grown


def reference_derived(g) -> Growing:
    grown = Growing(g.degree)
    for a, b in combinations(g.generators, 2):
        grown.adjoin(compose(compose(a, b), invert(compose(b, a))))
    conjugators = [(x, invert(x)) for x in g.generators]
    for k in grown.gens:
        for x, x_inv in conjugators:
            grown.adjoin(compose(compose(x, k), x_inv))
    return grown


_FAMILIES = [
    lambda: cyclic_group(12),
    lambda: sym_group_table(4),
    lambda: sym_group_table(5),
    lambda: dihedral_group(6),
    lambda: full_transformation_monoid(3),
    lambda: symmetric_inverse_monoid(3),
    lambda: partition_monoid(2),
    lambda: rectangular_band(3, 3),
    lambda: zero_semigroup(5),
    lambda: doubled_semigroup(full_transformation_monoid(2)),
    lambda: direct_product_table(cyclic_group(2), sym_group_table(3)),
]


def _random_transformation_semigroups(seed, count):
    """Subsemigroups of T_m, m <= 5, of 4..120 elements, each generated by
    one to three random maps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        maps = [tuple(rng.randrange(m) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        elems = close_under(maps, maps, compose)
        if 4 <= len(elems) <= 120:
            order = sorted(elems)
            index = {f: i for i, f in enumerate(order)}
            out.append(validate([[index[compose(f, g)] for g in order] for f in order]))
    return out


@pytest.fixture(scope="module")
def corpus():
    return (
        _completeness_corpus(random.Random(0xCA11))
        + [build() for build in _FAMILIES]
        + _random_transformation_semigroups(0x6E4, 12)
    )


def test_validate_and_generating_set_pick_what_the_restarting_loop_picks(corpus, monkeypatch):
    picks = []
    real = semigroups.greedy_generators

    def spy(candidates, product):
        candidates = list(candidates)
        kept: list = []
        picks.append((candidates, kept))
        for a in real(candidates, product):
            kept.append(a)
            yield a

    monkeypatch.setattr(semigroups, "greedy_generators", spy)
    for s in corpus:
        picks.clear()
        t = validate(s.table)
        assert generating_set(t) == picks[-1][1]
        assert len(picks) == 1                  # validate's pick is generating_set's
        ((candidates, kept),) = picks
        assert candidates == reference_order(fingerprints(t))
        assert kept == list(restarting_generators(s.table, candidates, s.n))


def test_closure_and_derived_subgroup_match_the_one_generator_at_a_time_group(corpus):
    for s in corpus:
        for gens in (involutions(s).elements, order_two_automorphisms(s).elements):
            g = closure(gens, degree=s.n)
            ref = reference_closure(gens, s.n)
            assert list(g.generators) == ref.gens
            assert set(g.elements) == ref.members
            d = derived_subgroup(g)
            ref_d = reference_derived(g)
            assert d.order == len(ref_d.members)
            assert list(d.generators) == ref_d.gens


def test_closure_cap_counts_the_identity():
    swap = (1, 0)
    with pytest.raises(OrderBudgetExceededError):
        closure([swap], cap=1)
    with pytest.raises(OrderBudgetExceededError):
        closure([], degree=3, cap=0)
    assert closure([swap], cap=2).order == 2


@pytest.mark.stretch
def test_c_of_sym6_keeps_7_of_its_112_involutions():
    s = sym_group_table(6)
    invs = involutions(s).elements
    g = closure(invs, degree=s.n)
    assert (len(invs), g.order, len(g.generators)) == (112, 2880, 7)
    ref = reference_closure(invs, s.n)
    assert list(g.generators) == ref.gens
    assert derived_subgroup(g).order == len(reference_derived(g).members) == 360


class CountedRows:
    """A table whose row lookups are counted."""

    def __init__(self, rows):
        self.rows = rows
        self.lookups = 0

    def __getitem__(self, x):
        self.lookups += 1
        return self.rows[x]


def test_the_greedy_pick_is_quadratic_on_a_table_of_generators():
    # every non-zero element of a zero semigroup is a generator
    s = zero_semigroup(200)
    n = s.n
    rows = CountedRows(s.table)
    gens = list(greedy_generators(range(n), lambda x, g: rows[x][g]))
    assert gens == list(range(n - 1))
    # each member meets each generator once: |S| |A| lookups
    assert rows.lookups == n * (n - 1) <= 2 * n * n
    # the restarting loop makes about n^3 / 3 (67 n^2 at this n); shown on a
    # smaller table to keep the test fast
    small = zero_semigroup(40)
    rows = CountedRows(small.table)
    assert list(restarting_generators(rows, range(small.n), small.n)) == list(range(40))
    assert rows.lookups > small.n ** 3 // 4
