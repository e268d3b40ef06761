import random
from math import factorial, log2, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import combinatorics

from conftest import brute_morphisms, check_chain
from involute.battery import _completeness_corpus, _split_law_corpus, run_battery
from involute import morphisms, permgroups
from involute.errors import (
    DegreeMismatchError,
    NotAnInvolutionError,
    OrderBudgetExceededError,
    SearchBudgetExceededError,
)
from involute.families import (
    cyclic_group,
    direct_product_table,
    elementary_abelian_two_group,
    full_transformation_monoid,
    partition_monoid,
    rectangular_band,
    star_map,
    sym_group_table,
    symmetric_inverse_monoid,
    zero_semigroup,
)
from involute.morphisms import (
    _generator_certificate,
    _search_plan,
    automorphism_chain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    enumerate_isomorphism_mappings,
    find_anti_isomorphism,
    find_isomorphism,
    involutions,
    is_anti_homomorphism,
    is_homomorphism,
    is_proper_involution,
    order_two_automorphisms,
)
from involute.permgroups import c_group, closure, g_group, signed_aut_order
from involute.perms import compose, identity_tuple, invert, is_involution
from involute.report import analyze
from involute.semigroups import _SWAPPED, atoms, cayley_table, close_under, generating_set, validate


def test_is_homomorphism_examples(klein):
    ident = identity_tuple(4)
    assert is_homomorphism(ident, klein, klein)
    z2 = cyclic_group(2)
    assert not is_homomorphism((1, 0), z2, z2)
    z5 = cyclic_group(5)
    negation = [(-x) % 5 for x in range(5)]  # any sequence of images
    assert is_homomorphism(negation, z5, z5)
    with pytest.raises(DegreeMismatchError):
        is_homomorphism((0, 1), z5, z5)
    z3 = cyclic_group(3)
    for check in (is_homomorphism, is_anti_homomorphism):  # images are integers, not coerced
        with pytest.raises(ValueError, match="integers"):
            check((0.0, 2.0, 1.0), z3, z3)
    with pytest.raises(ValueError, match="integers"):
        is_proper_involution((0.0, 2.0, 1.0), z3)


def test_is_anti_homomorphism_examples():
    s3 = sym_group_table(3)
    inversion = tuple(s3.table[x].index(s3.identity) for x in range(6))
    assert is_anti_homomorphism(inversion, s3, s3)
    z5 = cyclic_group(5)
    assert is_anti_homomorphism(identity_tuple(5), z5, z5)
    band = rectangular_band(2, 2)
    assert not is_anti_homomorphism(identity_tuple(4), band, band)


def test_enumerate_automorphisms_counts(klein):
    assert len(enumerate_automorphisms(klein)) == 6
    assert len(enumerate_automorphisms(full_transformation_monoid(3))) == 6
    assert len(enumerate_automorphisms(cyclic_group(8))) == 4


def test_enumerate_anti_automorphisms_counts():
    assert len(enumerate_anti_automorphisms(full_transformation_monoid(3))) == 0
    assert len(enumerate_anti_automorphisms(rectangular_band(2, 3))) == 0
    z12 = cyclic_group(12)
    anti = enumerate_anti_automorphisms(z12)
    assert len(anti) == 4
    assert anti.elements == enumerate_automorphisms(z12).elements


def test_involutions_counts(klein):
    assert len(involutions(klein)) == 3
    assert len(involutions(cyclic_group(12))) == 3
    assert len(involutions(full_transformation_monoid(2))) == 0


def test_order_two_automorphisms_counts():
    z8 = order_two_automorphisms(cyclic_group(8))
    assert len(z8) == 4
    s3 = order_two_automorphisms(sym_group_table(3))
    assert len(s3) == 4
    assert identity_tuple(6) in s3.elements
    trivial = validate([[0]])
    assert list(order_two_automorphisms(trivial)) == [(0,)]


def test_is_proper_involution():
    s3 = sym_group_table(3)
    inversion = [s3.table[x].index(s3.identity) for x in range(6)]
    assert is_proper_involution(inversion, s3)
    z12 = cyclic_group(12)
    for alpha in involutions(z12):
        assert not is_proper_involution(alpha, z12)
    assert is_proper_involution(star_map(2), partition_monoid(2))
    with pytest.raises(NotAnInvolutionError):
        is_proper_involution(identity_tuple(6), s3)
    with pytest.raises(NotAnInvolutionError):
        is_proper_involution((1, 2, 0, 3, 4, 5), s3)  # order 3


def test_find_isomorphism_examples(klein):
    z4 = cyclic_group(4)
    assert find_isomorphism(z4, klein) is None
    z6 = cyclic_group(6)
    z2xz3 = direct_product_table(cyclic_group(2), cyclic_group(3))
    iso = find_isomorphism(z6, z2xz3)
    assert type(iso) is tuple and len(iso) == 6
    assert is_homomorphism(iso, z6, z2xz3)


def test_find_anti_isomorphism_examples(left_zero_2, right_zero_2):
    t2 = full_transformation_monoid(2)
    assert find_anti_isomorphism(t2, t2) is None
    assert find_anti_isomorphism(left_zero_2, right_zero_2) is not None
    band = rectangular_band(2, 3)
    anti = find_anti_isomorphism(band, band.dual())
    assert type(anti) is tuple
    assert is_anti_homomorphism(anti, band, band.dual())


def test_soundness_every_result_passes_the_equation(klein):
    for s in (klein, full_transformation_monoid(2), rectangular_band(2, 2)):
        for p in enumerate_automorphisms(s):
            assert is_homomorphism(p, s, s)
        for p in enumerate_anti_automorphisms(s):
            assert is_anti_homomorphism(p, s, s)


def test_completeness_against_brute_force_small_corpus():
    rng = random.Random(3)
    corpus = [
        cyclic_group(5),
        rectangular_band(2, 2),
        full_transformation_monoid(2),
        validate([[0, 0], [1, 1]]),
    ]
    while len(corpus) < 24:
        n = rng.choice((2, 3))
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        try:
            corpus.append(validate(table))
        except Exception:
            continue
    for s in corpus:
        assert list(enumerate_automorphisms(s)) == brute_morphisms(s)
        assert list(enumerate_anti_automorphisms(s)) == brute_morphisms(s, anti=True)


def _random_associative_table(rng, n):
    while True:
        try:
            return validate([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        except Exception:
            continue


@st.composite
def _semigroups_to_seven(draw):
    """A semigroup of order at most 7 under a random relabelling: generated
    by one or two transformations of 3 to 7 points, or a random associative
    table of order 2 or 3, or the product of two such tables; then maybe
    its dual."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 7))
        one_map = st.tuples(*[st.integers(0, m - 1)] * m) | st.permutations(range(m)).map(tuple)
        maps = draw(st.lists(one_map, min_size=1, max_size=2))
        try:
            s = cayley_table(sorted(close_under(maps, maps, compose, cap=7)), compose)
        except OrderBudgetExceededError:
            assume(False)
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        s = _random_associative_table(rng, draw(st.sampled_from((2, 3))))
        if draw(st.booleans()):
            s = direct_product_table(s, _random_associative_table(rng, 2))
    if draw(st.booleans()):
        s = s.dual()
    sigma = draw(st.permutations(range(s.n)))
    inv = invert(sigma)
    return validate([[sigma[s.table[inv[a]][inv[b]]] for b in range(s.n)] for a in range(s.n)])


@settings(max_examples=60, deadline=None)
@given(s=_semigroups_to_seven())
def test_the_array_listing_matches_the_brute_force_to_order_seven(s):
    auts, antis = brute_morphisms(s), brute_morphisms(s, anti=True)
    one = identity_tuple(s.n)
    assert list(enumerate_automorphisms(s)) == auts
    assert list(enumerate_anti_automorphisms(s)) == antis
    assert list(involutions(s)) == [p for p in antis if is_involution(p)]
    assert list(order_two_automorphisms(s)) == [p for p in auts if compose(p, p) == one]


def test_anti_automorphisms_form_one_aut_coset():
    # |Aut-| is 0 or |Aut|, and any single anti-automorphism translates Aut onto Aut-
    for s in (
        sym_group_table(3),
        rectangular_band(2, 3),
        rectangular_band(2, 2),
        full_transformation_monoid(3),
        partition_monoid(2),
    ):
        auts = enumerate_automorphisms(s)
        anti = enumerate_anti_automorphisms(s)
        assert len(anti) in (0, len(auts))
        if anti:
            beta = anti.elements[0]
            translated = sorted(compose(a, beta) for a in auts)
            assert translated == list(anti)


def test_atoms_are_preserved_by_all_morphisms():
    from involute.graphs import frucht_semigroup, path_graph

    for s in (frucht_semigroup(path_graph(4)), cyclic_group(8), partition_monoid(2)):
        a = atoms(s)
        for p in enumerate_automorphisms(s):
            assert {p[x] for x in a} == a
        for p in enumerate_anti_automorphisms(s):
            assert {p[x] for x in a} == a


def test_commutative_collapse():
    z12 = cyclic_group(12)
    assert enumerate_anti_automorphisms(z12) is enumerate_automorphisms(z12)
    expected = {p for p in order_two_automorphisms(z12) if p != identity_tuple(12)}
    assert set(involutions(z12).elements) == expected


def test_two_anti_automorphisms_compose_to_an_automorphism():
    b = rectangular_band(3, 3)
    anti = enumerate_anti_automorphisms(b).elements
    auts = set(enumerate_automorphisms(b).elements)
    for i in range(0, len(anti), 7):
        for j in range(0, len(anti), 7):
            assert compose(anti[i], anti[j]) in auts


def test_fingerprint_preservation_under_morphisms():
    s = partition_monoid(2)
    fps = s.fingerprint_rows
    for p in enumerate_automorphisms(s):
        assert fps[list(p)].tolist() == fps.tolist()
    for p in enumerate_anti_automorphisms(s):
        assert fps[list(p)].tolist() == fps[:, _SWAPPED].tolist()


def test_search_budget_is_enforced():
    s = sym_group_table(4)
    with pytest.raises(SearchBudgetExceededError):
        enumerate_automorphisms(s, budget=5)
    # a budget bounds the search work done, and a cache hit does none
    auts = enumerate_automorphisms(s)
    assert enumerate_automorphisms(s, budget=5) is auts
    assert sym_group_table(4) is not s  # builders share no instances


def test_search_budget_counts_dead_branches():
    # The band's saturation steps alone come to 66 nodes; the search also
    # tries 186 generator images, most of them dead at once, to keep 12
    # automorphisms, and each costs a node, so 252 is exactly enough.
    b = rectangular_band(2, 3)
    with pytest.raises(SearchBudgetExceededError):
        enumerate_isomorphism_mappings(b, b, budget=66)
    with pytest.raises(SearchBudgetExceededError):
        enumerate_isomorphism_mappings(b, b, budget=251)
    assert len(enumerate_isomorphism_mappings(b, b, budget=252)) == 12


def test_every_caller_shares_one_search(monkeypatch):
    # Aut(S) is one automorphism chain; Aut-(S) adds one limit=1 anti search
    s = sym_group_table(4)  # a fresh instance with an empty cache
    calls = []
    search = morphisms._isomorphisms
    chain = morphisms.automorphism_chain

    def counted(src, dst, anti, budget, limit, layer):
        if src is s:
            calls.append(f"{'anti' if anti else 'iso'} limit={limit}")
        return search(src, dst, anti, budget, limit, layer)

    def counted_chain(src, **kwargs):
        if src is s:
            calls.append("aut")
        return chain(src, **kwargs)

    monkeypatch.setattr(morphisms, "_isomorphisms", counted)
    monkeypatch.setattr(morphisms, "automorphism_chain", counted_chain)
    enumerate_automorphisms(s)
    c_group(s)
    g_group(s)
    signed_aut_order(s)
    analyze(s)
    assert sorted(calls) == ["anti limit=1", "aut"]


def test_a_check_searches_the_same_whatever_ran_before(monkeypatch):
    searches = []

    def counting(fn):
        def counted(*args, **kwargs):
            searches[-1] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("_isomorphisms", "automorphism_chain"):
        monkeypatch.setattr(morphisms, name, counting(getattr(morphisms, name)))
    for name in ("involution_split_laws", "partition_monoids", "involution_split_laws"):
        searches.append(0)
        assert run_battery(only={name})[0].passed
    # every table of the check is searched afresh, the second time too
    assert searches[2] == searches[0] >= len(_split_law_corpus())


def test_the_source_keeps_no_shared_or_hidden_caches():
    for path in sorted(Path(morphisms.__file__).parent.glob("*.py")):
        text = path.read_text()
        for word in ("lru_cache", "__dict__", "__new__"):
            assert word not in text, (path.name, word)


@pytest.fixture(scope="module")
def completeness_tables():
    """The tables of the battery's engine_completeness check."""
    return _completeness_corpus(random.Random(0xCA11))


def test_generator_certificate_agrees_with_the_full_check(completeness_tables):
    rng = random.Random(5)
    agreed = {True: 0, False: 0}
    for s in completeness_tables:
        gens = generating_set(s)
        hom = _generator_certificate(s, s, gens, anti=False)
        anti = _generator_certificate(s, s, gens, anti=True)
        maps = list(enumerate_automorphisms(s))
        maps += list(enumerate_anti_automorphisms(s))
        maps += [tuple(rng.sample(range(s.n), s.n)) for _ in range(10)]
        for m in maps:
            assert hom(m) == is_homomorphism(m, s, s), (s.table, m)
            assert anti(m) == is_anti_homomorphism(m, s, s), (s.table, m)
            agreed[hom(m)] += 1
    assert agreed[True] >= 200 and agreed[False] >= 200


def test_involutions_are_proper_exactly_on_non_commutative_tables(completeness_tables):
    seen = {True: 0, False: 0}
    for s in completeness_tables:
        for iota in involutions(s):
            assert is_proper_involution(iota, s) == (not s.is_commutative)
            seen[s.is_commutative] += 1
    assert seen[True] and seen[False]


def _chain_reference_tables():
    return _completeness_corpus(random.Random(0xCA11)) + [
        sym_group_table(3),
        sym_group_table(4),
        sym_group_table(5),
        full_transformation_monoid(3),
        full_transformation_monoid(4),
        partition_monoid(2),
        partition_monoid(3),
        symmetric_inverse_monoid(3),
        rectangular_band(3, 3),
        zero_semigroup(5),
    ]


def test_listed_aut_equals_the_full_enumeration():
    # the leaf-by-leaf enumeration stays as the reference for the chain
    for s in _chain_reference_tables():
        full = enumerate_isomorphism_mappings(s, s)
        assert list(enumerate_automorphisms(s)) == full, s.table
        assert automorphism_chain(s).order == len(full)


def test_chain_orders_match_the_closed_forms_without_listing():
    for k in range(1, 13):
        for s in (zero_semigroup(k), rectangular_band(1, k)):
            assert automorphism_chain(s).order == factorial(k)
            assert "aut" not in s.search_cache
    for k in range(1, 9):
        s = elementary_abelian_two_group(k)
        assert automorphism_chain(s).order == prod(2**k - 2**i for i in range(k))  # |GL(k, 2)|


def test_chain_order_matches_sympy():
    for s in (
        sym_group_table(5),
        partition_monoid(3),
        rectangular_band(3, 3),
        zero_semigroup(8),
        elementary_abelian_two_group(5),
        direct_product_table(cyclic_group(2), sym_group_table(4)),
    ):
        chain = automorphism_chain(s)
        gens = [combinatorics.Permutation(list(g)) for g in chain.generators]
        assert combinatorics.PermutationGroup(gens).order() == chain.order


def test_aut_chains_keep_their_invariants():
    for s in (
        zero_semigroup(6),
        elementary_abelian_two_group(4),
        sym_group_table(4),
        partition_monoid(2),
        cyclic_group(210),
    ):
        check_chain(automorphism_chain(s), list_up_to=720)  # |Aut(zero 6)| = 6!


def test_chains_compose_and_invert_no_mapping_tuples(monkeypatch):
    # a chain's maps are int32 rows, composed by take and inverted by a scatter
    z200, s4 = cyclic_group(200), sym_group_table(4)
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    expected = [automorphism_chain(z200).generators, c_group(s4).order, g_group(s4).order]
    z200.search_cache.clear()
    s4.search_cache.clear()

    def refuse(*args):
        raise AssertionError("a chain composed or inverted mapping tuples")

    for module in (morphisms, permgroups):
        for name in ("compose", "invert"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert [automorphism_chain(z200).generators, c_group(s4).order, g_group(s4).order] == expected
    g = closure(gens)
    assert g.order == 120 and (4, 3, 2, 1, 0) in g and (1, 0, 3, 2, 4) in g
    assert (1, 0, 2, 3, 4) not in closure(gens[:1])


def test_chain_searches_once_per_new_orbit_point(monkeypatch):
    searches = []
    search = morphisms._search_isomorphisms

    def counted(*args):
        result = search(*args)
        searches.append(bool(result[0]))
        return result

    monkeypatch.setattr(morphisms, "_search_isomorphisms", counted)
    for s in (zero_semigroup(6), elementary_abelian_two_group(4), sym_group_table(4), partition_monoid(2)):
        searches.clear()
        chain = automorphism_chain(s)
        gens, cand, _, _ = _search_plan(s, s)
        assert chain.base == tuple(gens)
        for i, level in enumerate(chain.transversals):
            for point, u in level.items():
                assert u[gens[i]] == point and all(u[g] == g for g in gens[:i])
                assert is_homomorphism(u, s, s)
        # per level, one search per hit, each adding one strong generator,
        # and one last search that misses exactly when a candidate outside
        # the orbit remains after the level's last hit
        misses = 0
        for i, (c, level) in enumerate(zip(cand, chain.transversals)):
            hits = [u[gens[i]] for u in chain.generators
                    if min(j for j, g in enumerate(gens) if u[g] != g) == i]
            rest = c[c.index(hits[-1]) + 1:] if hits else c
            misses += any(h not in level for h in rest)
        assert searches.count(True) == len(chain.generators)
        assert searches.count(False) == misses
        # each hit at least doubles the group found so far
        assert len(chain.generators) <= log2(chain.order)


def test_the_chain_places_each_level_prefix_once_per_search():
    # one search per candidate re-placed g_0..g_{i-1} each time, and took
    # 36,217 nodes for Sym(6); one search per level and hit takes 5,550
    assert len(enumerate_automorphisms(sym_group_table(6), budget=6000)) == 1440


def test_one_node_budget_bounds_the_whole_chain(monkeypatch):
    spent = []
    search = morphisms._search_isomorphisms

    def counted(*args):
        results, steps = search(*args)
        spent.append(steps - args[-1])  # args[-1]: the nodes spent before this search
        return results, steps

    monkeypatch.setattr(morphisms, "_search_isomorphisms", counted)
    automorphism_chain(sym_group_table(4))
    monkeypatch.undo()
    total = sum(spent)
    assert max(spent) < total
    for budget in (max(spent), total - 1):  # every search fits, the chain does not
        s = sym_group_table(4)
        with pytest.raises(SearchBudgetExceededError):
            enumerate_automorphisms(s, budget=budget)
        assert s.search_cache == {}
    s = sym_group_table(4)
    assert len(enumerate_automorphisms(s, budget=total)) == 24


def test_involutions_and_j_are_kept_like_aut(monkeypatch):
    # analyze asks for I(S) and J(S) twice each: directly, then through C(S)
    # and G(S); the second call must not filter the lists again
    s = sym_group_table(3)
    invs, j_set = involutions(s), order_two_automorphisms(s)
    assert involutions(s) is invs and order_two_automorphisms(s) is j_set
    c_group(s), g_group(s)
    assert s.search_cache["involutions"] is invs and s.search_cache["order_two"] is j_set
    assert len(invs) == len(j_set) == 4


def test_aut_is_its_chain_and_keeps_the_cap_it_passed(monkeypatch):
    # |Aut(band 1x5)| = 5! = 120, past a default cap of 100: G(S) and a
    # later default-cap call read the Aut(S) that passed the caller's cap
    monkeypatch.setattr(morphisms, "DEFAULT_ORDER_BUDGET", 100)
    s = rectangular_band(1, 5)
    assert not s.is_commutative
    with pytest.raises(OrderBudgetExceededError):
        enumerate_automorphisms(rectangular_band(1, 5))
    assert g_group(s, cap=1000).order == 120
    aut = enumerate_automorphisms(s, cap=1000)
    assert enumerate_automorphisms(s) is aut is automorphism_chain(s)
    assert tuple(range(s.n)) in enumerate_automorphisms(s)


def test_aut_answers_len_and_membership_without_listing():
    s = rectangular_band(1, 6)
    aut = enumerate_automorphisms(s)
    assert len(aut) == 720 and (1, 0, 2, 3, 4, 5) in aut
    assert "array" not in vars(aut)
    # the base, a generating set, tells apart only automorphisms: a swap of
    # two points off it fixes the base, and the whole-map check refuses it
    t = full_transformation_monoid(3)
    aut = enumerate_automorphisms(t)
    x, y = sorted(set(range(t.n)) - set(aut.base))[:2]
    swapped = list(range(t.n))
    swapped[x], swapped[y] = y, x
    rng = random.Random(3)
    perms = [tuple(swapped), *aut, *(tuple(rng.sample(range(t.n), t.n)) for _ in range(20))]
    assert [p in aut for p in perms] == [is_homomorphism(p, t, t) for p in perms]
    assert sum(p in aut for p in perms) == 6
