import pytest

from involute import families
from involute.errors import OrderBudgetExceededError
from involute.families import (
    alternating_group_table,
    cyclic_group,
    dihedral_group,
    direct_product_table,
    dual_symmetric_inverse_monoid,
    doubled_semigroup,
    elementary_abelian_two_group,
    full_transformation_monoid,
    klein_four,
    partition_monoid,
    quaternion_group,
    r_of_n,
    rectangular_band,
    star_map,
    sym_group_table,
    symmetric_inverse_monoid,
    zero_semigroup,
)
from involute.morphisms import (
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    find_isomorphism,
    is_anti_homomorphism,
)
from involute.permgroups import c_group
from involute.perms import is_involution
from involute.semigroups import TABLE_CAP, validate


def test_cyclic_group():
    assert cyclic_group(1).n == 1
    assert cyclic_group(2).table == ((0, 1), (1, 0))
    assert cyclic_group(12).identity == 0
    assert len(enumerate_automorphisms(cyclic_group(12))) == 4


def test_r_of_n_formula_examples():
    assert r_of_n(12) == 2
    assert r_of_n(8) == 2
    assert r_of_n(15) == 2
    assert r_of_n(2) == 0
    assert r_of_n(4) == 1
    assert r_of_n(105) == 3


def test_r_of_n_counts_square_roots_of_one():
    for n in range(2, 120):
        assert sum(1 for k in range(n) if k * k % n == 1) == 2 ** r_of_n(n)


def test_klein_and_sym_tables(klein):
    assert find_isomorphism(klein_four(), klein) is not None
    assert sym_group_table(3).n == 6
    assert sym_group_table(5).n == 120
    with pytest.raises(OrderBudgetExceededError):
        sym_group_table(8)


def test_full_transformation_sizes():
    assert full_transformation_monoid(2).n == 4
    t3 = full_transformation_monoid(3)
    assert t3.n == 27
    assert t3.identity is not None


def test_symmetric_inverse_sizes():
    assert symmetric_inverse_monoid(1).n == 2
    assert symmetric_inverse_monoid(2).n == 7
    assert symmetric_inverse_monoid(3).n == 34


def test_dual_symmetric_inverse_sizes():
    assert dual_symmetric_inverse_monoid(2).n == 3
    istar = dual_symmetric_inverse_monoid(3)
    assert istar.n == 25
    assert len(enumerate_automorphisms(istar)) == 6


def test_partition_monoid_sizes_and_star():
    p2 = partition_monoid(2)
    assert p2.n == 15
    star = star_map(2)
    assert type(star) is tuple and is_involution(star)
    assert is_anti_homomorphism(star, p2, p2)
    # f = f f* f and f* = f* f f*
    t = p2.table
    for f in range(15):
        fs = star[f]
        assert t[t[f][fs]][f] == f
        assert t[t[fs][f]][fs] == fs


def test_star_fixes_units_inversely():
    p3 = partition_monoid(3)
    assert p3.n == 203
    star = star_map(3)
    e = p3.identity
    units = [x for x in range(p3.n) if any(p3.table[x][y] == e and p3.table[y][x] == e for y in range(p3.n))]
    assert len(units) == 6
    for u in units:
        assert p3.table[u][star[u]] == e


@pytest.mark.parametrize("build", [partition_monoid, star_map, dual_symmetric_inverse_monoid])
def test_partition_families_refuse_n_outside_1_to_3(build):
    with pytest.raises(ValueError):
        build(0)
    with pytest.raises(OrderBudgetExceededError) as exc:
        build(4)  # P_4 has 4140 elements
    assert exc.value.limit == TABLE_CAP


#: Each family with an order formula: its builder, the largest n it accepts,
#: the order there, and what it lists its elements with.
FAMILY_ORDERS = {
    "sym": (sym_group_table, 6, 720, "permutations"),
    "alt": (alternating_group_table, 6, 360, "permutations"),
    "t": (full_transformation_monoid, 4, 256, "product"),
    "i": (symmetric_inverse_monoid, 4, 209, "combinations"),
    "p": (partition_monoid, 3, 203, "_all_rgs"),
    "istar": (dual_symmetric_inverse_monoid, 3, 25, "_all_rgs"),
    "star": (star_map, 3, 203, "_all_rgs"),
    "z2k": (elementary_abelian_two_group, 10, 1024, "xor"),
}


@pytest.mark.parametrize("name", sorted(FAMILY_ORDERS))
def test_families_refuse_past_the_cap_before_listing_any_element(name, monkeypatch):
    build, largest, order, lister = FAMILY_ORDERS[name]
    assert len(build(largest)) == order
    monkeypatch.setattr(families, lister, None)     # listing would now raise TypeError
    for n in (largest + 1, largest + 2, 10**12):
        with pytest.raises(OrderBudgetExceededError) as exc:
            build(n)
        assert str(exc.value) == f"group or table size exceeded the configured cap of {TABLE_CAP}"


def test_rectangular_band():
    b = rectangular_band(2, 3)
    assert b.n == 6
    assert all(b.table[x][x] == x for x in range(6))
    assert rectangular_band(1, 1).n == 1
    assert len(enumerate_automorphisms(rectangular_band(2, 2))) == 4


def test_zero_semigroup():
    z = zero_semigroup(3)
    assert z.n == 4
    assert all(z.table[i][j] == 3 for i in range(4) for j in range(4))
    assert c_group(z).order == 6
    assert c_group(zero_semigroup(1)).order == 1
    assert len(enumerate_automorphisms(zero_semigroup(2))) == 2


def test_doubled_semigroup_shape(left_zero_2):
    d = doubled_semigroup(left_zero_2)
    assert d.n == 5
    assert len(enumerate_automorphisms(d)) == 4
    # starred part multiplies dually: s* t* = (t s)*
    n = left_zero_2.n
    for i in range(n):
        for j in range(n):
            assert d.table[n + i][n + j] == n + left_zero_2.table[j][i]
    # cross products vanish
    assert d.table[0][n] == 2 * n and d.table[n][0] == 2 * n


def test_direct_product_and_dual():
    z6 = direct_product_table(cyclic_group(2), cyclic_group(3))
    assert find_isomorphism(z6, cyclic_group(6)) is not None
    assert find_isomorphism(klein_four(), cyclic_group(4)) is None
    lz = validate([[0, 0], [1, 1]])
    assert lz.dual().table == ((0, 1), (0, 1))
    assert lz.dual().dual().table == lz.table
    z5 = cyclic_group(5)
    assert z5.dual().table == z5.table


def test_comparison_groups():
    assert dihedral_group(4).n == 8
    assert quaternion_group().n == 8
    assert elementary_abelian_two_group(3).n == 8
    assert alternating_group_table(4).n == 12
    # three pairwise non-isomorphic groups of order 8
    assert find_isomorphism(dihedral_group(4), quaternion_group()) is None
    assert find_isomorphism(dihedral_group(4), elementary_abelian_two_group(3)) is None


def test_signed_automorphisms_of_square_bands_compose_by_the_four_rules():
    # gamma/delta pairs on X x X multiply exactly as predicted, under the
    # package-wide right-to-left composition
    from itertools import permutations as perms

    from involute.perms import compose, invert

    n = 3

    def gamma(s, t):
        return tuple(s[i // n] * n + t[i % n] for i in range(n * n))

    def delta(s, t):
        return tuple(s[i % n] * n + t[i // n] for i in range(n * n))

    syms = [tuple(p) for p in perms(range(n))]
    import random

    rng = random.Random(5)
    for _ in range(60):
        s1, t1, s2, t2 = (rng.choice(syms) for _ in range(4))
        assert compose(gamma(s1, t1), gamma(s2, t2)) == gamma(compose(s1, s2), compose(t1, t2))
        assert compose(delta(s1, t1), delta(s2, t2)) == gamma(compose(s1, t2), compose(t1, s2))
        assert compose(gamma(s1, t1), delta(s2, t2)) == delta(compose(s1, s2), compose(t1, t2))
        assert compose(delta(s1, t1), gamma(s2, t2)) == delta(compose(s1, t2), compose(t1, s2))
    # and delta(s, t) is an involution exactly when t is the inverse of s
    for s in syms:
        for t in syms:
            assert is_involution(delta(s, t)) == (t == invert(s))


def test_doubled_t3_has_the_same_groups_as_the_square_band():
    # doubling T_3 and squaring a 3-element band give isomorphic Aut, signed
    # and involution-generated groups
    from involute.permgroups import c_group, signed_aut_order, to_cayley_table

    d = doubled_semigroup(full_transformation_monoid(3))
    b = rectangular_band(3, 3)
    assert len(enumerate_automorphisms(d)) == len(enumerate_automorphisms(b)) == 36
    assert signed_aut_order(d) == signed_aut_order(b) == 72
    assert find_isomorphism(
        to_cayley_table(c_group(d)), to_cayley_table(c_group(b))
    ) is not None


def test_aut_and_anti_close_to_a_group_of_the_signed_order():
    from involute.morphisms import MorphismSet
    from involute.permgroups import closure, signed_aut_order

    for s in (rectangular_band(2, 2), sym_group_table(3), partition_monoid(2), cyclic_group(12)):
        union = MorphismSet(s.n, {*enumerate_automorphisms(s), *enumerate_anti_automorphisms(s)})
        assert closure(union.elements, degree=s.n) == union
        assert union.order == signed_aut_order(s)


def test_every_builder_output_is_associative():
    # validate() re-checks associativity; building is enough to assert it
    for s in (
        cyclic_group(7),
        klein_four(),
        sym_group_table(4),
        full_transformation_monoid(3),
        symmetric_inverse_monoid(2),
        dual_symmetric_inverse_monoid(3),
        partition_monoid(2),
        rectangular_band(3, 2),
        zero_semigroup(2),
        doubled_semigroup(full_transformation_monoid(2)),
        dihedral_group(6),
        quaternion_group(),
        alternating_group_table(4),
    ):
        assert s.n >= 1
