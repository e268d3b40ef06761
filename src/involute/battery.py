"""The verification battery: one runnable check per acceptance target.

Every check recomputes its expected values from an independent route
(brute force, explicit membership sets, arithmetic) and compares them with
the production path.  ``run_battery`` returns one result per check; the CLI
prints a pass/fail line for each and exits non-zero on any failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations, product, starmap
from math import factorial

from . import families
from .errors import OrderBudgetExceededError
from .graphs import (
    complete_graph,
    cycle_graph,
    graph_automorphisms,
    graph_involution_group,
    frucht_semigroup,
    path_graph,
    rigid_tree,
    star_graph,
)
from .morphisms import (
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    find_isomorphism,
    involutions,
    is_proper_involution,
    order_two_automorphisms,
)
from .perms import compose, cycle_string, identity_tuple, invert, parity
from .permgroups import (
    c_group,
    g_group,
    involution_laws,
    k_group,
    signed_aut_order,
    to_cayley_table,
    two_involution_factorization,
)
from .semigroups import FiniteSemigroup, cayley_table, close_under, validate
from .traces import TraceContext, bfs_trace_class, delta_map, gamma_map, normal_form, trace_equal


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    bound: float


def _run(name, bound, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"error: {exc!r}", time.perf_counter() - t0, bound)
    elapsed = time.perf_counter() - t0
    if ok and elapsed > bound:
        ok = False
        detail += f"; exceeded the {bound:.0f}s bound"
    return CheckResult(name, ok, detail, elapsed, bound)


def _rows(prefix, rows):
    """A check that reports one row per case: all its rows good, and
    ``prefix`` followed by their texts.  ``rows`` yields (good, text)."""
    rows = list(rows)
    return all(good for good, _ in rows), prefix + " ".join(text for _, text in rows)


def _c_like(s: FiniteSemigroup, model: FiniteSemigroup, kw):
    """C(S), and whether its Cayley table is isomorphic to ``model``."""
    c = c_group(s, **kw)
    return c, find_isomorphism(to_cayley_table(c), model) is not None


def _z2_times_sym(n: int) -> FiniteSemigroup:
    return families.direct_product_table(
        families.cyclic_group(2), families.sym_group_table(n)
    )


# --- the Klein four-group -------------------------------------------------

def _check_klein(kw):
    k = families.klein_four()
    auts = enumerate_automorphisms(k, **kw)
    invs = involutions(k, **kw)
    c, iso = _c_like(k, families.sym_group_table(3), kw)
    ok = len(auts) == 6 and len(invs) == 3 and c.order == 6 and iso
    return ok, f"|Aut|={len(auts)} |I|={len(invs)} |C|={c.order} C~Sym(3)={iso}"


# --- cyclic groups: C(Z_n) is an elementary abelian 2-group ----------------

def _check_zn_sweep(kw):
    failures = []
    for n in range(2, 201):
        zn = families.cyclic_group(n)
        r = families.r_of_n(n)
        # independent arithmetic oracle for the R(n) formula
        solutions = sum(1 for k in range(n) if (k * k) % n == 1)
        invs = involutions(zn, **kw)
        c = c_group(zn, **kw)
        one = identity_tuple(n)
        good = (
            solutions == 2**r
            and len(invs) == 2**r - 1
            and c.order == 2**r
            and all(compose(p, p) == one for p in c)
        )
        if not good:
            failures.append(n)
    return not failures, f"n=2..200, failures: {failures or 'none'}"


# --- symmetric groups: C = Z_2 x Sym(n) ------------------------------------

def _check_symmetric_groups(kw):
    def row(n):
        s = families.sym_group_table(n)
        auts = enumerate_automorphisms(s, **kw)
        c, iso = _c_like(s, _z2_times_sym(n), kw)
        good = len(auts) == s.n and c.order == 2 * s.n and iso
        return good, f"n={n}:|C|={c.order}{'' if good else '!'}"

    return _rows("", map(row, (3, 4, 5)))


def _check_sym6_stretch(kw):
    s = families.sym_group_table(6)
    auts = enumerate_automorphisms(s, **kw)
    return len(auts) == 1440, f"|Aut(Sym(6))|={len(auts)} (outer automorphism included)"


# --- full transformation monoids: no anti-automorphisms --------------------

def _t_laws(n, kw):
    s = families.full_transformation_monoid(n)
    auts = enumerate_automorphisms(s, **kw)
    antis = enumerate_anti_automorphisms(s, **kw)
    c = c_group(s, **kw)
    good = len(antis) == 0 and len(auts) == factorial(n) and c.order == 1
    return good, f"T{n}:|Aut|={len(auts)},|Aut-|={len(antis)},|C|={c.order}"


def _check_full_transformations(kw):
    return _rows("", (_t_laws(n, kw) for n in (2, 3)))


def _check_t4_stretch(kw):
    return _t_laws(4, kw)


# --- symmetric and dual symmetric inverse monoids --------------------------

def _check_inverse_monoids(kw):
    def row(n):
        s = families.symmetric_inverse_monoid(n)
        auts = enumerate_automorphisms(s, **kw)
        c, iso = _c_like(s, _z2_times_sym(n), kw)
        return len(auts) == factorial(n) and iso, f"I{n}:|Aut|={len(auts)},|C|={c.order},Z2xSym({n})={iso}"

    def dual_row():
        istar = families.dual_symmetric_inverse_monoid(3)
        auts = enumerate_automorphisms(istar, **kw)
        c, iso = _c_like(istar, _z2_times_sym(3), kw)
        good = istar.n == 25 and len(auts) == 6 and c.order == 12 and iso
        return good, f"I*3:|Aut|={len(auts)},|C|={c.order}"

    return _rows("", [row(2), row(3), dual_row()])


# --- partition monoids and the * map ---------------------------------------

def _check_partition_monoids(kw):
    def row(n):
        s = families.partition_monoid(n)
        proper = is_proper_involution(families.star_map(n), s)
        c, iso = _c_like(s, _z2_times_sym(n), kw)
        return proper and iso, f"P{n}:star proper={proper},|C|={c.order},Z2xSym({n})={iso}"

    return _rows("", map(row, (2, 3)))


# --- rectangular and square bands ------------------------------------------

def _band_gamma(sig, tau, n):
    return tuple(sig[i // n] * n + tau[i % n] for i in range(n * n))


def _band_delta(sig, tau, n):
    return tuple(sig[i % n] * n + tau[i // n] for i in range(n * n))


def _check_rectangular_bands(kw):
    def oblong():
        b23 = families.rectangular_band(2, 3)
        antis = enumerate_anti_automorphisms(b23, **kw)
        c23 = c_group(b23, **kw)
        return len(antis) == 0 and c23.order == 1, f"2x3:|Aut-|={len(antis)},|C|={c23.order}"

    def square(n):
        b = families.rectangular_band(n, n)
        fact = factorial(n)
        auts = enumerate_automorphisms(b, **kw)
        signed = signed_aut_order(b, **kw)
        invs = involutions(b, **kw)
        syms = [tuple(p) for p in permutations(range(n))]
        expected_inv = {_band_delta(s, invert(s), n) for s in syms}
        got_inv = set(invs)
        c = c_group(b, **kw)
        expected_c = set()
        for s in syms:
            for t in syms:
                if parity(compose(s, t)) == 0:
                    expected_c.add(_band_gamma(s, t, n))
                    expected_c.add(_band_delta(s, t, n))
        got_c = set(c)
        good = (
            len(auts) == fact * fact
            and signed == 2 * fact * fact
            and got_inv == expected_inv
            and len(invs) == fact
            and got_c == expected_c
            and c.order == fact * fact
        )
        return good, f"{n}x{n}:|Aut|={len(auts)},|I|={len(invs)},|C|={c.order}{'' if good else '!'}"

    return _rows("", [oblong(), square(2), square(3)])


# --- doubled semigroups ----------------------------------------------------

def _doubled_expected_involutions(aut_maps, n):
    out = set()
    for a in aut_maps:
        ai = invert(a)
        m = [0] * (2 * n + 1)
        for i in range(n):
            m[i] = n + ai[i]
            m[n + i] = a[i]
        m[2 * n] = 2 * n
        out.add(tuple(m))
    return out


def _check_doubled_semigroups(kw):
    cases = [
        ("LZ2", validate([[0, 0], [1, 1]])),
        ("LZ3", validate([[0, 0, 0], [1, 1, 1], [2, 2, 2]])),
        ("T2", families.full_transformation_monoid(2)),
        ("T3", families.full_transformation_monoid(3)),
    ]

    def row(label, s):
        auts = enumerate_automorphisms(s, **kw)
        d = families.doubled_semigroup(s)
        d_auts = enumerate_automorphisms(d, **kw)
        d_invs = involutions(d, **kw)
        expected = _doubled_expected_involutions(auts, s.n)
        c = c_group(d, **kw)
        kg = k_group(to_cayley_table(auts))
        good = (
            len(d_auts) == len(auts) ** 2
            and set(d_invs) == expected
            and c.order == 2 * kg.order
        )
        return good, f"{label}:|Aut(D)|={len(d_auts)},|I(D)|={len(d_invs)},|C(D)|={c.order},2|K|={2 * kg.order}"

    return _rows("", starmap(row, cases))


# --- the graph-to-semigroup construction -----------------------------------

def _frucht_corpus():
    return [
        ("P2", path_graph(2)),
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("P5", path_graph(5)),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("star4", star_graph(4)),
        ("rigid7", rigid_tree()),
    ]


def _check_frucht(kw):
    def row(label, g):
        s = frucht_semigroup(g)
        graph_auts = graph_automorphisms(g)
        semi_auts = enumerate_automorphisms(s, **kw)
        c_semi = c_group(s, **kw)
        c_graph = graph_involution_group(g, cap=kw["cap"])
        good = len(semi_auts) == len(graph_auts) and c_semi.order == c_graph.order
        return good, f"{label}:{len(semi_auts)}/{c_semi.order}{'' if good else '!'}"

    return _rows("|Aut(S)|/|C(S)| per graph: ", starmap(row, _frucht_corpus()))


# --- every permutation is a product of two involutions ---------------------

def _check_factorization(kw):
    count = 0
    for n in range(1, 7):
        one = identity_tuple(n)
        for m in permutations(range(n)):
            sigma, tau = two_involution_factorization(m)
            if not (compose(sigma, sigma) == one == compose(tau, tau) and compose(sigma, tau) == m):
                return False, f"failed on {cycle_string(m)}"
            count += 1
    return True, f"{count} permutations factored across Sym(1)..Sym(6)"


# --- K_G = {(g, h) : gh in [G, G]} ------------------------------------------

def _kgroup_corpus():
    out = [(f"Z{n}", families.cyclic_group(n)) for n in range(1, 13)]
    out += [
        ("Klein", families.klein_four()),
        ("Z2^3", families.elementary_abelian_two_group(3)),
        ("D4", families.dihedral_group(4)),
        ("D5", families.dihedral_group(5)),
        ("D6", families.dihedral_group(6)),
        ("Q8", families.quaternion_group()),
        ("Sym3", families.sym_group_table(3)),
        ("Alt4", families.alternating_group_table(4)),
        ("Sym4", families.sym_group_table(4)),
        ("Z2xZ6", families.direct_product_table(families.cyclic_group(2), families.cyclic_group(6))),
        ("Z3xZ3", families.direct_product_table(families.cyclic_group(3), families.cyclic_group(3))),
        ("Z2xSym3", families.direct_product_table(families.cyclic_group(2), families.sym_group_table(3))),
    ]
    return out


def _check_k_groups(kw):
    def row(label, table):
        kg = k_group(table)  # raises if closure != characterization
        good = kg.order % table.n == 0
        if label == "Sym3":
            # independent route: same-parity pairs
            signs = [parity(p) for p in sorted(permutations(range(3)))]
            expected = {(i, j) for i in range(6) for j in range(6) if signs[i] == signs[j]}
            good = good and kg.order == 18 and kg.elements == frozenset(expected)
        return good, f"{label}:{kg.order}{'' if good else '!'}"

    return _rows("|K_G|: ", starmap(row, _kgroup_corpus()))


# --- split/central laws for C(S) under a proper involution -----------------

def _split_law_corpus():
    return [
        ("Sym3", families.sym_group_table(3)),
        ("Sym4", families.sym_group_table(4)),
        ("band2x2", families.rectangular_band(2, 2)),
        ("band3x3", families.rectangular_band(3, 3)),
        ("P2", families.partition_monoid(2)),
        ("P3", families.partition_monoid(3)),
        ("I2", families.symmetric_inverse_monoid(2)),
        ("I3", families.symmetric_inverse_monoid(3)),
        ("I*3", families.dual_symmetric_inverse_monoid(3)),
        ("D_LZ2", families.doubled_semigroup(validate([[0, 0], [1, 1]]))),
        ("D_T2", families.doubled_semigroup(families.full_transformation_monoid(2))),
    ]


def _check_involution_split_laws(kw):
    rows = []
    central_checked = 0
    for label, s in _split_law_corpus():
        invs = involutions(s, **kw)
        proper = [p for p in invs if is_proper_involution(p, s)]
        # the n^2 oracle against the premise of involution_laws: all of
        # I(S) is proper when S is not commutative, none of it when it is
        agrees = proper == ([] if s.is_commutative else list(invs))
        if not proper and agrees:
            continue
        j_set = order_two_automorphisms(s, **kw)
        split, central = involution_laws(s, invs, j_set, c_group(s, **kw), g_group(s, **kw))
        good = agrees and split is True and central is not False
        central_checked += central is not None
        rows.append((good, f"{label}{'' if good else '!'}"))
    ok, detail = _rows(
        f"split law on {len(rows)} semigroups, central/Psi law on {central_checked}: ", rows
    )
    return ok and len(rows) >= 5 and central_checked >= 3, detail


# --- partially commutative words --------------------------------------------

def _random_context(rng):
    m = rng.randint(1, 5)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
    return TraceContext.from_edges(m, edges)


def _random_word(rng, ctx, max_len=8):
    return ctx.word(rng.randrange(ctx.m) for _ in range(rng.randint(1, max_len)))


def _check_trace_words(kw):
    rng = random.Random(0x5EED)
    cases = failures = 0
    while cases < 1000:
        ctx = _random_context(rng)
        auts = list(graph_automorphisms(ctx.graph))
        u = _random_word(rng, ctx)
        cls = bfs_trace_class(u)
        nf = normal_form(u).letters
        w = ctx.word(rng.choice(sorted(cls)))
        v = _random_word(rng, ctx)
        pi = rng.choice(auts)
        sg = rng.choice(auts)
        checks = [
            nf == min(cls),
            normal_form(w).letters == nf,
            trace_equal(u, w),
            trace_equal(u, v) == (v.letters in cls),
            trace_equal(gamma_map(pi, u), gamma_map(pi, w)),
            trace_equal(delta_map(pi, u), delta_map(pi, w)),
        ]
        if len(u) + len(v) <= 16:
            uv = u.concat(v)
            checks.append(trace_equal(gamma_map(pi, uv), gamma_map(pi, u).concat(gamma_map(pi, v))))
            checks.append(trace_equal(delta_map(pi, uv), delta_map(pi, v).concat(delta_map(pi, u))))
        pi_sg = compose(pi, sg)
        checks.append(gamma_map(pi, gamma_map(sg, u)).letters == gamma_map(pi_sg, u).letters)
        checks.append(delta_map(pi, delta_map(sg, u)).letters == gamma_map(pi_sg, u).letters)
        checks.append(gamma_map(pi, delta_map(sg, u)).letters == delta_map(pi_sg, u).letters)
        checks.append(delta_map(pi, gamma_map(sg, u)).letters == delta_map(pi_sg, u).letters)
        dd = delta_map(pi, delta_map(pi, u))
        if compose(pi, pi) == identity_tuple(ctx.m):
            checks.append(trace_equal(dd, u))
        else:
            x = next(x for x in range(ctx.m) if pi[pi[x]] != x)
            w1 = ctx.word([x])
            checks.append(not trace_equal(delta_map(pi, delta_map(pi, w1)), w1))
        cases += 1
        if not all(checks):
            failures += 1
    return failures == 0, f"{cases} randomized cases, {failures} failures"


# --- search engine vs. brute force on small semigroups ---------------------

def brute_morphisms(s: FiniteSemigroup, anti: bool = False):
    """All bijective (anti-)morphisms of s, by filtering every permutation."""
    n, t = s.n, s.table
    out = []
    for p in permutations(range(n)):
        good = True
        for i in range(n):
            row = t[i]
            for j in range(n):
                lhs = p[row[j]]
                rhs = t[p[j]][p[i]] if anti else t[p[i]][p[j]]
                if lhs != rhs:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(p)
    return out


def _random_transformation_semigroup(rng):
    for _ in range(50):
        m = rng.randint(2, 4)
        k = rng.randint(1, 2)
        maps = [tuple(rng.randrange(m) for _ in range(m)) for _ in range(k)]
        try:
            elems = close_under(maps, maps, compose, cap=6)
        except OrderBudgetExceededError:
            continue
        return cayley_table(sorted(elems), compose)
    return families.cyclic_group(rng.randint(2, 6))


def _random_table_semigroup(rng):
    """The first of up to 5000 random n x n tables (n <= 3) on which
    (xy)z = x(yz) holds for every triple, checked by brute force; ``validate``
    is then called on that table alone, so a disagreement raises."""
    n = rng.choice((2, 2, 3))
    for _ in range(5000):
        t = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x, y, z in product(range(n), repeat=3)):
            return validate(t)
    return families.cyclic_group(n)


def _completeness_corpus(rng):
    corpus = [
        families.cyclic_group(4),
        families.cyclic_group(6),
        families.klein_four(),
        families.sym_group_table(3),
        families.rectangular_band(2, 3),
        families.rectangular_band(2, 2),
        families.zero_semigroup(3),
        families.full_transformation_monoid(2),
        families.doubled_semigroup(validate([[0, 0], [1, 1]])),
        frucht_semigroup(path_graph(3)),
        frucht_semigroup(complete_graph(3)),
        families.rectangular_band(2, 3).dual(),
        families.direct_product_table(families.cyclic_group(2), families.cyclic_group(3)),
        families.symmetric_inverse_monoid(1),
    ]
    while len(corpus) < 200:
        roll = rng.random()
        if roll < 0.45:
            corpus.append(_random_transformation_semigroup(rng))
        elif roll < 0.9:
            corpus.append(_random_table_semigroup(rng))
        else:
            base = corpus[rng.randrange(len(corpus))]
            corpus.append(base.dual())
    return corpus


def _check_engine_completeness(kw):
    rng = random.Random(0xCA11)
    corpus = _completeness_corpus(rng)
    for i, s in enumerate(corpus):
        if list(enumerate_automorphisms(s, **kw)) != brute_morphisms(s, anti=False):
            return False, f"automorphism mismatch on corpus item {i} (n={s.n})"
        if list(enumerate_anti_automorphisms(s, **kw)) != brute_morphisms(s, anti=True):
            return False, f"anti-automorphism mismatch on corpus item {i} (n={s.n})"
    return True, f"{len(corpus)} semigroups of order <= 6 match the n! brute force"


# ---------------------------------------------------------------------------

_CHECKS = [
    ("klein", 1.0, False, _check_klein),
    ("zn_sweep", 30.0, False, _check_zn_sweep),
    ("symmetric_groups", 120.0, False, _check_symmetric_groups),
    ("sym6_stretch", 600.0, True, _check_sym6_stretch),
    ("full_transformations", 60.0, False, _check_full_transformations),
    ("t4_stretch", 600.0, True, _check_t4_stretch),
    ("inverse_monoids", 120.0, False, _check_inverse_monoids),
    ("partition_monoids", 300.0, False, _check_partition_monoids),
    ("rectangular_bands", 60.0, False, _check_rectangular_bands),
    ("doubled_semigroups", 120.0, False, _check_doubled_semigroups),
    ("frucht_graphs", 60.0, False, _check_frucht),
    ("two_involution_factorization", 10.0, False, _check_factorization),
    ("k_groups", 60.0, False, _check_k_groups),
    ("involution_split_laws", 60.0, False, _check_involution_split_laws),
    ("trace_words", 60.0, False, _check_trace_words),
    ("engine_completeness", 120.0, False, _check_engine_completeness),
]


def check_names():
    return [name for name, *_ in _CHECKS]


def run_battery(
    *,
    stretch: bool = False,
    only=None,
    budget: int | None = None,
    order_cap: int | None = None,
    on_result=None,
) -> list[CheckResult]:
    """Run the acceptance checks: those named in ``only``, stretch checks
    included, or else every check, where ``stretch`` adds Sym(6) and T_4.

    ``on_result`` is called with each :class:`CheckResult` as it finishes.
    """
    kw = {"budget": budget, "cap": order_cap}
    results = []
    for name, bound, is_stretch, fn in _CHECKS:
        wanted = name in only if only else stretch or not is_stretch
        if not wanted:
            continue
        result = _run(name, bound, lambda fn=fn: fn(kw))
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results
