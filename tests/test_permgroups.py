import random
from itertools import permutations

import pytest

from involute.errors import NotAGroupError, OrderBudgetExceededError
from involute.families import (
    cyclic_group,
    direct_product_table,
    full_transformation_monoid,
    klein_four,
    rectangular_band,
    sym_group_table,
)
from involute.morphisms import enumerate_automorphisms, find_isomorphism
from involute.perms import Permutation
from involute.permgroups import (
    c_group,
    closure,
    derived_subgroup,
    g_group,
    group_fingerprint,
    k_group,
    signed_aut_group,
    to_cayley_table,
    two_involution_factorization,
)
from involute.semigroups import validate


def test_closure_examples():
    assert closure([], degree=4).order == 1
    assert closure([Permutation((1, 0, 2)), Permutation((0, 2, 1))]).order == 6
    kl = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    assert kl.order == 4


def test_closure_budget():
    with pytest.raises(OrderBudgetExceededError):
        closure([Permutation((1, 2, 3, 4, 0))], cap=3)


def test_closure_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(0x5E17)
    for _ in range(40):
        degree = rng.randint(1, 7)
        gens = [rng.sample(range(degree), degree) for _ in range(rng.randint(1, 3))]
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g) for g in gens]
        ).order()
        assert closure([Permutation(g) for g in gens]).order == expected


def test_closure_idempotence():
    g = closure([Permutation((1, 2, 0)), Permutation((1, 0, 2))])
    again = closure(g.elements, degree=g.degree)
    assert again == g


def test_c_group_examples(klein):
    assert c_group(klein).order == 6
    assert c_group(full_transformation_monoid(3)).order == 1
    assert c_group(rectangular_band(3, 3)).order == 36


def test_g_group_examples():
    assert g_group(sym_group_table(3)).order == 6
    assert g_group(cyclic_group(8)).order == 4
    assert g_group(validate([[0]])).order == 1


def test_signed_aut_group_orders(klein):
    assert signed_aut_group(cyclic_group(12)).order == 4
    assert signed_aut_group(sym_group_table(4)).order == 48
    assert signed_aut_group(rectangular_band(2, 2)).order == 8
    # commutative: the two sets coincide rather than doubling
    assert signed_aut_group(klein).order == 6


def test_derived_subgroup_examples():
    s3 = closure([Permutation((1, 0, 2)), Permutation((1, 2, 0))])
    assert derived_subgroup(s3).order == 3
    abelian = closure([Permutation((1, 2, 3, 0))])
    assert derived_subgroup(abelian).order == 1
    s4 = closure([Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))])
    der = derived_subgroup(s4)
    assert der.order == 12
    assert all(p.parity() == 0 for p in der)  # exactly the even permutations


def test_lagrange_style_invariants():
    for gens in (
        [Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))],
        [Permutation((1, 2, 0))],
        [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))],
    ):
        g = closure(gens)
        fp = group_fingerprint(g)
        assert g.order % fp.derived_order == 0
        assert g.order % fp.center_order == 0
        assert sum(c for _, c in fp.element_order_histogram) == g.order


def test_k_group_examples():
    assert k_group(cyclic_group(2)).elements == frozenset({(0, 0), (1, 1)})
    assert k_group(sym_group_table(3)).order == 18
    for m in (3, 4, 5, 6):
        kg = k_group(cyclic_group(m))
        assert kg.order == m
        assert all((a + b) % m == 0 for a, b in kg.elements)


def test_k_group_is_extension_of_g_by_derived():
    for table in (sym_group_table(4), klein_four(), cyclic_group(9)):
        g = closure([Permutation(row) for row in table.table], degree=table.n)
        kg = k_group(table)
        assert kg.order == table.n * derived_subgroup(g).order


def test_k_group_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        k_group(full_transformation_monoid(2))
    with pytest.raises(NotAGroupError):
        k_group(rectangular_band(2, 2))


def test_factorization_examples():
    ident = Permutation.identity(5)
    s, t = two_involution_factorization(ident)
    assert s.is_identity() and t.is_identity()
    s, t = two_involution_factorization(Permutation((1, 2, 0)))
    assert s.mapping == (0, 2, 1) and t.mapping == (2, 1, 0)
    s, t = two_involution_factorization(Permutation((1, 0, 3, 2)))
    assert s.is_identity() and t.mapping == (1, 0, 3, 2)


def test_factorization_exhaustive_to_degree_5():
    for n in range(1, 6):
        for m in permutations(range(n)):
            pi = Permutation(m)
            s, t = two_involution_factorization(pi)
            assert (s * s).is_identity() and (t * t).is_identity()
            assert s * t == pi


def test_group_fingerprint_z2_x_sym3():
    table = direct_product_table(cyclic_group(2), sym_group_table(3))
    g = closure([Permutation(row) for row in table.table], degree=12)
    fp = group_fingerprint(g)
    assert fp.order == 12
    assert fp.element_order_histogram == ((1, 1), (2, 7), (3, 2), (6, 2))


def test_group_fingerprint_klein_and_sym4():
    kl = closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    fp = group_fingerprint(kl)
    assert fp.abelian and fp.exponent == 2
    assert fp.element_order_histogram == ((1, 1), (2, 3))
    s4 = closure([Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))])
    fp4 = group_fingerprint(s4)
    assert (fp4.order, fp4.center_order, fp4.derived_order) == (24, 1, 12)


def test_to_cayley_table_examples():
    assert to_cayley_table(closure([], degree=3)).n == 1
    z4ish = to_cayley_table(closure([Permutation((1, 2, 3, 0))]))
    assert find_isomorphism(z4ish, cyclic_group(4)) is not None
    c12 = c_group(cyclic_group(12))
    assert find_isomorphism(to_cayley_table(c12), klein_four()) is not None


def test_to_cayley_table_budget():
    g = closure([Permutation((1, 2, 0, 4, 3))])
    with pytest.raises(OrderBudgetExceededError):
        to_cayley_table(g, cap=5)


def test_split_law_on_sym4():
    s4 = sym_group_table(4)
    c = c_group(s4)
    auts = set(enumerate_automorphisms(s4).elements)
    inside = sum(1 for p in c if p in auts)
    assert c.order == 2 * inside
    assert signed_aut_group(s4).order == 2 * len(auts)
