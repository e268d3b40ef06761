import random
import time
import tracemalloc
from collections import Counter
from itertools import permutations
from math import lcm

import numpy as np
import pytest

from involute.battery import _aut_as_group, _completeness_corpus, _split_law_corpus
from involute.errors import NotAGroupError, OrderBudgetExceededError
from involute.families import (
    alternating_group_table,
    cyclic_group,
    dihedral_group,
    direct_product_table,
    elementary_abelian_two_group,
    full_transformation_monoid,
    klein_four,
    rectangular_band,
    sym_group_table,
    zero_semigroup,
)
from involute.morphisms import (
    StabiliserChain,
    _sorted_rows,
    automorphism_chain,
    enumerate_automorphisms,
    find_isomorphism,
    involutions,
    is_proper_involution,
    order_two_automorphisms,
)
from involute.perms import compose, cycles, identity_tuple, parity
from involute.permgroups import (
    GroupFingerprint,
    _keys,
    c_group,
    closure,
    derived_subgroup,
    g_group,
    group_fingerprint,
    involution_laws,
    k_group,
    signed_aut_order,
    to_cayley_table,
    two_involution_factorization,
)
from involute.semigroups import (
    DEFAULT_ORDER_BUDGET,
    TABLE_CAP,
    close_under,
    validate,
)


def _random_generator_sets(seed, count=40, max_degree=7):
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(1, max_degree)
        yield [rng.sample(range(degree), degree) for _ in range(rng.randint(1, 3))]


def test_closure_examples():
    assert closure([], degree=4).order == 1
    assert closure([(1, 0, 2), (0, 2, 1)]).order == 6
    kl = closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert kl.order == 4


def test_closure_budget():
    with pytest.raises(OrderBudgetExceededError):
        closure([(1, 2, 3, 4, 0)], cap=3)


def test_closure_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(0x5E17)
    for _ in range(40):
        degree = rng.randint(1, 7)
        gens = [rng.sample(range(degree), degree) for _ in range(rng.randint(1, 3))]
        expected = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g) for g in gens]
        ).order()
        assert closure(gens).order == expected  # lists of images


def test_closure_keeps_only_generators_outside_the_group_so_far():
    tables = (sym_group_table(4), alternating_group_table(4), dihedral_group(6))
    cases = [[tuple(g) for g in gens] for gens in _random_generator_sets(0x9E7)]
    cases += [list(involutions(t).elements) for t in tables]
    for gens in cases:
        g = closure(gens)
        kept = list(g.generators)
        assert set(kept) <= set(gens)
        first_seen = [gens.index(p) for p in kept]
        assert first_seen == sorted(first_seen)  # in input order
        for i, p in enumerate(kept):
            assert p not in closure(kept[:i], degree=g.degree)


_INVARIANT_TABLES = {
    "Sym(3)": sym_group_table(3),
    "band 2x2": rectangular_band(2, 2),
    "Z_12": cyclic_group(12),
    "T_3": full_transformation_monoid(3),
}

_GROUP_SOURCES = {
    "closure": lambda s: closure(enumerate_automorphisms(s).elements, degree=s.n),
    "c_group": c_group,
    "g_group": g_group,
    "aut_as_group": _aut_as_group,
}


@pytest.mark.parametrize(
    "source, table",
    [
        (source, table)
        for source in sorted(_GROUP_SOURCES)
        for table in sorted(_INVARIANT_TABLES)
    ],
)
def test_generators_generate_the_elements(source, table):
    g = _GROUP_SOURCES[source](_INVARIANT_TABLES[table])
    assert closure(g.generators, degree=g.degree) == g


def _reference_fingerprint(g):
    """The O(|G|^2) reference: the centre and abelianness from all pairs,
    [G, G] as the closure of all |G|^2 commutators."""
    m = np.asarray(g.elements, dtype=np.int32)
    invm = np.argsort(m, axis=1)
    center = 0
    comms = set()
    for i in range(len(m)):
        left = m[i][m]        # row j: g_i o g_j
        right = m[:, m[i]]    # row j: g_j o g_i
        center += bool((left == right).all())
        conj = left[:, invm[i]]                        # g_i o g_j o g_i^-1
        full = np.take_along_axis(conj, invm, axis=1)  # ... o g_j^-1
        comms.update(map(tuple, full.tolist()))
    hist = Counter(lcm(*map(len, cycles(p))) for p in g.elements)
    return GroupFingerprint(
        order=len(m),
        abelian=center == len(m),
        exponent=lcm(*hist),
        element_order_histogram=tuple(sorted(hist.items())),
        center_order=center,
        derived_order=closure(comms, degree=g.degree).order,
    )


def _fingerprint_cases(max_degree):
    for gens in _random_generator_sets(0xF1A7, max_degree=max_degree):
        yield [tuple(g) for g in gens], len(gens[0])
    for t in (
        sym_group_table(4),
        alternating_group_table(4),
        rectangular_band(1, 5),
        elementary_abelian_two_group(3),
        dihedral_group(6),
    ):
        yield list(involutions(t).elements), t.n


def test_group_fingerprint_matches_the_quadratic_reference():
    # degree 6 keeps the |G|^2 reference to at most 720^2 pairs; it takes
    # tens of seconds on Sym(7), which the sympy test below covers
    for gens, degree in _fingerprint_cases(max_degree=6):
        g = closure(gens, degree=degree)
        assert group_fingerprint(g) == _reference_fingerprint(g), gens


def test_group_fingerprint_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for gens, degree in _fingerprint_cases(max_degree=7):
        fp = group_fingerprint(closure(gens, degree=degree))
        sg = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p)) for p in gens]
            or [combinatorics.Permutation(list(range(degree)))]
        )
        assert fp.center_order == sg.center().order()
        assert fp.derived_order == sg.derived_subgroup().order()
        assert fp.abelian == sg.is_abelian


def _tuple_closure(gens, degree):
    """The reference the array closure replaced: the group as a set of
    mapping tuples, grown from the identity by the greedy rule, each kept
    generator a closed in by the worklist from a and x a for the old
    members x; returns the kept generators and the members."""
    members = close_under([identity_tuple(degree)], [], compose, cap=DEFAULT_ORDER_BUDGET)
    kept: list = []
    for a in map(tuple, gens):
        if a not in members:
            kept.append(a)
            close_under([a] + [compose(x, a) for x in members], kept, compose,
                        cap=DEFAULT_ORDER_BUDGET, members=members)
    return kept, members


def _closure_cases():
    for gens in _random_generator_sets(0x9E7):
        yield [tuple(g) for g in gens], len(gens[0])
    yield from _fingerprint_cases(max_degree=7)


def test_closure_matches_the_tuple_closure():
    for gens, degree in _closure_cases():
        g = closure(gens, degree=degree)
        kept, members = _tuple_closure(gens, degree)
        assert list(g.generators) == kept, gens
        assert g.elements == tuple(sorted(members)), gens
        assert all(p in g for p in members)
        if degree <= 5:
            assert not any(p in g for p in permutations(range(degree)) if p not in members), gens


@pytest.mark.parametrize("table", sorted(_INVARIANT_TABLES) + ["Sym(4)", "Sym(5)", "D_6"])
def test_c_and_g_match_the_tuple_closure(table):
    extra = {"Sym(4)": sym_group_table(4), "Sym(5)": sym_group_table(5), "D_6": dihedral_group(6)}
    s = {**_INVARIANT_TABLES, **extra}[table]
    for group, maps in ((c_group(s), involutions(s)), (g_group(s), order_two_automorphisms(s))):
        kept, members = _tuple_closure(maps.elements, s.n)
        assert list(group.generators) == kept
        assert group.elements == tuple(sorted(members))


def test_c_and_g_match_the_tuple_closure_on_the_law_corpora():
    corpus = [s for _, s in _split_law_corpus()] + _completeness_corpus(random.Random(0xCA11))
    for s in corpus:
        for group, maps in ((c_group(s), involutions(s)), (g_group(s), order_two_automorphisms(s))):
            kept, members = _tuple_closure(maps.elements, s.n)
            assert list(group.generators) == kept
            assert group.elements == tuple(sorted(members))


def test_c_of_sym5_needs_the_product_base_point():
    s = sym_group_table(5)
    c = c_group(s)
    assert c.order == 240
    # each automorphism agrees on the search's generators with an
    # anti-automorphism, so those points alone tell only 120 maps apart
    gens = list(automorphism_chain(s).base)
    assert len(np.unique(c.array[:, gens], axis=0)) == 120
    assert len(np.unique(c.array[:, c.base], axis=0)) == 240


def test_a_chain_on_a_shorter_base_matches_the_closure():
    # all points but one, in a random order, still form a base; the deep
    # levels then have stabilisers that only their Schreier generators show
    rng = random.Random(0x5C)
    for gens in _random_generator_sets(0x5C, count=80):
        degree = len(gens[0])
        base = rng.sample(range(degree), degree - 1)
        chain = StabiliserChain(degree, base)
        for row in np.array(gens, dtype=np.int32):
            chain.add(row[base].tolist(), row)
        g = closure(gens, degree=degree)
        assert chain.order == g.order, gens
        assert np.array_equal(_sorted_rows(chain.maps()), g.array), gens


def test_membership_checks_the_whole_map_after_the_sift():
    # the base of Aut±(S) tells apart only the maps of Aut±(S): a member of
    # C with two points off the base swapped sifts to the identity there
    c = c_group(sym_group_table(5))
    x, y = sorted(set(range(120)) - set(c.base.tolist()))[:2]
    member = list(c.elements[7])
    assert tuple(member) in c
    member[x], member[y] = member[y], member[x]
    assert tuple(member) not in c


def test_derived_subgroup_of_sym_10_is_read_off_its_chain():
    # |Sym(10)| = 3,628,800 is past the default cap of 10^6; [G, G] takes
    # its order from its chain, under the caller's cap, with nothing listed
    start = time.perf_counter()
    g = closure([(1, 0, *range(2, 10)), (*range(1, 10), 0)], cap=10**7)
    assert derived_subgroup(g).order == 1_814_400
    assert time.perf_counter() - start < 1


@pytest.mark.stretch
def test_the_fingerprint_of_c_zero_10_obeys_the_callers_cap():
    # C(zero 10) = Sym(10); its fingerprint once closed [C, C] under the default cap
    assert group_fingerprint(c_group(zero_semigroup(10), cap=10**8)).derived_order == 1_814_400


def test_closure_past_the_cap_stops_with_o_of_cap_rows():
    # |Sym(12)| = 479001600; the closure must stop near 10^4 elements
    swap, cycle = (1, 0, *range(2, 12)), (*range(1, 12), 0)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(OrderBudgetExceededError):
            closure([swap, cycle], cap=10**4)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2
    assert peak < 32 * 10**4 * 12 * 4  # 32 rows of 12 int32 per element allowed


def test_keys_agree_on_small_and_large_inputs():
    # to_cayley_table keys the rows whole and their products block by block,
    # so a row's key must not depend on the rows keyed with it
    rng = np.random.default_rng(0x4B)
    for degree, shape in ((9, (30000, 10)), (200, (20000, 4, 7))):
        x = rng.integers(0, degree, size=shape, dtype=np.int32)
        assert (_keys(x, degree)[:50] == _keys(x[:50], degree)).all()


def test_closure_idempotence():
    g = closure([(1, 2, 0), (1, 0, 2)])
    again = closure(g.elements, degree=g.degree)
    assert again == g


def test_c_group_examples(klein):
    assert c_group(klein).order == 6
    assert c_group(full_transformation_monoid(3)).order == 1
    assert c_group(rectangular_band(3, 3)).order == 36


def test_c_and_g_closures_name_their_layer_past_the_cap():
    # |Aut(Sym(4))| = |Aut-| = 24 fit a cap of 24; C, of order 48, does not
    with pytest.raises(OrderBudgetExceededError) as exc:
        c_group(sym_group_table(4), cap=24)
    assert str(exc.value) == "C(S) has order 48, past the cap of 24"
    assert exc.value.limit == 24 and exc.value.order == 48
    # G lies in Aut(S), so only a J(S) listed before, under a larger cap, can
    # let G outgrow the cap: the 10 maps of J generate all 24 automorphisms
    s4 = sym_group_table(4)
    assert len(order_two_automorphisms(s4)) == 10
    with pytest.raises(OrderBudgetExceededError) as exc:
        g_group(s4, cap=10)
    assert str(exc.value) == "G(S) has order 24, past the cap of 10"


def test_g_group_examples():
    assert g_group(sym_group_table(3)).order == 6
    assert g_group(cyclic_group(8)).order == 4
    assert g_group(validate([[0]])).order == 1


def test_signed_aut_order_examples(klein):
    assert signed_aut_order(cyclic_group(12)) == 4
    assert signed_aut_order(sym_group_table(4)) == 48
    assert signed_aut_order(rectangular_band(2, 2)) == 8
    # commutative: the two sets coincide rather than doubling
    assert signed_aut_order(klein) == 6


def test_signed_aut_order_obeys_the_order_cap():
    # commutative: Aut-(S) is Aut(S), so the order |Aut| fits a cap of |Aut|
    assert signed_aut_order(cyclic_group(12), cap=4) == 4
    assert signed_aut_order(rectangular_band(2, 2), cap=8) == 8
    with pytest.raises(OrderBudgetExceededError) as exc:
        signed_aut_order(rectangular_band(2, 2), cap=4)  # |Aut| = |Aut-| = 4 fit, 8 does not
    assert str(exc.value) == "Aut±(S) has order 8, past the cap of 4"


def test_derived_subgroup_examples():
    s3 = closure([(1, 0, 2), (1, 2, 0)])
    assert derived_subgroup(s3).order == 3
    abelian = closure([(1, 2, 3, 0)])
    assert derived_subgroup(abelian).order == 1
    s4 = closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    der = derived_subgroup(s4)
    assert der.order == 12
    assert all(parity(p) == 0 for p in der)  # exactly the even permutations


def test_lagrange_style_invariants():
    for gens in (
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        [(1, 2, 0)],
        [(1, 0, 3, 2), (2, 3, 0, 1)],
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
        g = closure(table.table, degree=table.n)
        kg = k_group(table)
        assert kg.order == table.n * derived_subgroup(g).order


def test_k_group_rejects_non_groups():
    with pytest.raises(NotAGroupError):
        k_group(full_transformation_monoid(2))
    with pytest.raises(NotAGroupError):
        k_group(rectangular_band(2, 2))


def test_factorization_examples():
    ident = identity_tuple(5)
    s, t = two_involution_factorization(ident)
    assert s == t == ident
    s, t = two_involution_factorization([1, 2, 0])  # any sequence of images
    assert s == (0, 2, 1) and t == (2, 1, 0)
    s, t = two_involution_factorization((1, 0, 3, 2))
    assert s == identity_tuple(4) and t == (1, 0, 3, 2)
    with pytest.raises(ValueError):
        two_involution_factorization((0, 0))


def test_factorization_exhaustive_to_degree_5():
    for n in range(1, 6):
        one = identity_tuple(n)
        for m in permutations(range(n)):
            s, t = two_involution_factorization(m)
            assert compose(s, s) == one and compose(t, t) == one
            assert compose(s, t) == m


def test_group_fingerprint_z2_x_sym3():
    table = direct_product_table(cyclic_group(2), sym_group_table(3))
    g = closure(table.table, degree=12)
    fp = group_fingerprint(g)
    assert fp.order == 12
    assert fp.element_order_histogram == ((1, 1), (2, 7), (3, 2), (6, 2))


def test_group_fingerprint_klein_and_sym4():
    kl = closure([(1, 0, 3, 2), (2, 3, 0, 1)])
    fp = group_fingerprint(kl)
    assert fp.abelian and fp.exponent == 2
    assert fp.element_order_histogram == ((1, 1), (2, 3))
    s4 = closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    fp4 = group_fingerprint(s4)
    assert (fp4.order, fp4.center_order, fp4.derived_order) == (24, 1, 12)


def test_to_cayley_table_examples():
    assert to_cayley_table(closure([], degree=3)).n == 1
    z4ish = to_cayley_table(closure([(1, 2, 3, 0)]))
    assert find_isomorphism(z4ish, cyclic_group(4)) is not None
    c12 = c_group(cyclic_group(12))
    assert find_isomorphism(to_cayley_table(c12), klein_four()) is not None


def test_to_cayley_table_budget():
    """A group past TABLE_CAP elements is refused."""
    sym7 = closure([(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])
    assert sym7.order == 5040
    with pytest.raises(OrderBudgetExceededError) as exc:
        to_cayley_table(sym7)
    assert exc.value.limit == TABLE_CAP


def test_split_law_on_sym4():
    s4 = sym_group_table(4)
    c = c_group(s4)
    auts = set(enumerate_automorphisms(s4).elements)
    inside = sum(1 for p in c if p in auts)
    assert c.order == 2 * inside
    assert signed_aut_order(s4) == 2 * len(auts)


def _laws_against_every_automorphism(s):
    """The reference for :func:`involution_laws`: properness by the n^2
    check, centrality against every automorphism."""
    auts = enumerate_automorphisms(s)
    invs = involutions(s)
    proper = [p for p in invs if is_proper_involution(p, s)]
    if not proper:
        return None, None
    c = c_group(s)
    aut_set = set(auts.elements)
    split = c.order == 2 * sum(1 for p in c if p in aut_set)
    central = [i for i in proper if all(compose(a, i) == compose(i, a) for a in auts)]
    if not central:
        return split, None
    psi = {compose(a, central[0]) for a in order_two_automorphisms(s)}
    return split, psi == set(invs) and c.order == 2 * g_group(s).order


def test_involution_laws_match_the_all_of_aut_reference():
    corpus = [s for _, s in _split_law_corpus()]
    corpus += [sym_group_table(n) for n in (3, 4, 5)]
    corpus += [dihedral_group(6), rectangular_band(3, 3)]
    # proper involutions, none central, but some commute with a strong
    # generator of Aut(S): only the whole generating set tells them apart
    corpus += [
        direct_product_table(g, rectangular_band(2, 2))
        for g in (sym_group_table(3), klein_four())
    ]
    corpus += _completeness_corpus(random.Random(0xCA11))
    outcomes = Counter()
    for s in corpus:
        got = involution_laws(
            s,
            involutions(s),
            order_two_automorphisms(s),
            c_group(s),
            g_group(s),
        )
        assert got == _laws_against_every_automorphism(s)
        outcomes[got] += 1
    # both the central and the non-central case, and the commutative one
    assert outcomes[(True, True)] and outcomes[(True, None)] and outcomes[(None, None)]
