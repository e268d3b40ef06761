"""Permutation groups from their generators: closures, fingerprints, C(S), G(S),
the involution laws, K_G.

Every group is materialized element by element by the greedy closure
:func:`~involute.semigroups.greedy_generators` and carries a generating set:
a generator is kept only if it is not already in the group built so far,
so C(Sym(6)) keeps 7 of its 112 involutions.  The invariants
are computed from those generators: the centre is the centralizer of the
generators and the derived subgroup is the normal closure of their
commutators, so nothing costs O(|G|^2).  Element orders come from numpy
pointer doubling over all elements at once, not from a cycle walk per
element.  Aut(S) itself is a stabiliser chain
(:func:`~involute.morphisms.automorphism_chain`), but the groups built here
are materialized, and their orders and membership come from the element set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

import numpy as np

from .errors import NotAGroupError, OrderBudgetExceededError
from .morphisms import (
    automorphism_chain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    involutions,
    order_two_automorphisms,
)
from .perms import as_mapping, compose, cycles, identity_tuple, invert
from .semigroups import (
    DEFAULT_ORDER_BUDGET,
    FiniteSemigroup,
    cayley_table,
    close_under,
    closure_of_subset,
    greedy_generators,
)


class PermGroup:
    """A permutation group with its element set materialized, every element
    and generator a mapping tuple.

    Invariant: ``generators`` generate ``elements``.  The invariants in
    :func:`group_fingerprint` rely on it.

    Elements are canonically sorted, so equal groups compare equal and all
    derived output is deterministic regardless of construction order.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._set = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm):
        return perm in self._set

    def __eq__(self, other):
        return isinstance(other, PermGroup) and self.degree == other.degree and self._set == other._set

    def __hash__(self):
        return hash((self.degree, self._set))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _generated(degree, candidates, cap, kept: list) -> PermGroup:
    """The group the candidates generate, ``kept`` getting those kept.  The
    identity goes through ``close_under``, so that the cap counts it; closed
    under the kept generators, it is the group, as g^-1 is a power of g."""
    cap = DEFAULT_ORDER_BUDGET if cap is None else cap
    members = close_under([identity_tuple(degree)], [], compose, cap=cap)
    for a in greedy_generators(candidates, compose, members, cap=cap):
        kept.append(a)
    return PermGroup(degree, kept, members)


def closure(generators, degree=None, *, cap: int | None = None) -> PermGroup:
    """The subgroup generated by the given permutations, each a sequence of
    images (see :func:`~involute.perms.as_mapping`).

    The result's ``generators`` are the non-redundant ones: each given
    permutation is kept only if it lies outside the group generated by
    those kept before it.  An empty generator list yields the trivial group
    (the degree must then be supplied).  Raises
    :class:`OrderBudgetExceededError` past ``cap``.
    """
    gens = [as_mapping(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generating set")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different degrees")
    return _generated(degree, gens, cap, [])


def _layer_closure(layer: str, maps, degree, cap) -> PermGroup:
    """:func:`closure`, its order error naming ``layer``."""
    try:
        return closure(maps, degree=degree, cap=cap)
    except OrderBudgetExceededError as exc:
        raise OrderBudgetExceededError(exc.limit, layer=layer) from exc


def c_group(s: FiniteSemigroup, *, budget=None, cap=None) -> PermGroup:
    """C(S): the subgroup of Sym(S) generated by all involutions of S."""
    inv = involutions(s, budget=budget, cap=cap)
    return _layer_closure("C(S)", inv.elements, s.n, cap)


def g_group(s: FiniteSemigroup, *, budget=None, cap=None) -> PermGroup:
    """G(S): the subgroup generated by the order-at-most-2 automorphisms."""
    j = order_two_automorphisms(s, budget=budget, cap=cap)
    return _layer_closure("G(S)", j.elements, s.n, cap)


def involution_laws(s: FiniteSemigroup, auts, invs, j_set, c: PermGroup, g: PermGroup):
    """The paper's laws for C(S) from Aut(S), I(S), J(S), C(S) and G(S), as
    ``(split, central)``; each is ``None`` where its hypothesis is absent.

    split, when S has a proper involution (one that is not an
    automorphism): |C| = 2 |C ∩ Aut(S)|.  central, when some proper
    involution iota commutes with every automorphism: Psi(a) = a o iota
    maps J(S) onto I(S), and |C| = 2 |G|.

    The involutions are all proper or none is, so no n^2 check is needed:
    an anti-automorphism alpha that is also a homomorphism gives
    alpha(x)alpha(y) = alpha(xy) = alpha(y)alpha(x) for all x, y, and alpha
    is onto, so S is commutative; on a commutative S every
    anti-automorphism is an automorphism.  Centrality is tested on the
    strong generators of :func:`~involute.morphisms.automorphism_chain`, a
    cache hit once Aut(S) is listed: what commutes with a and b commutes
    with ab, so with every product of generators, which is every
    automorphism.
    """
    if s.is_commutative or not invs:
        return None, None
    aut_set = set(auts.elements)
    split = c.order == 2 * sum(1 for p in c if p in aut_set)
    gens = automorphism_chain(s).generators
    central = [i for i in invs if all(compose(a, i) == compose(i, a) for a in gens)]
    if not central:
        return split, None
    psi = {compose(a, central[0]) for a in j_set}
    return split, psi == set(invs) and c.order == 2 * g.order


def signed_aut_group(s: FiniteSemigroup, *, budget=None, cap=None) -> PermGroup:
    """Aut(S) together with all anti-automorphisms, as one group.

    On a commutative semigroup the two sets coincide, so the order is
    |Aut(S)|; otherwise they are disjoint and the order is their sum.  The
    anti-automorphisms, if any, are one coset alpha*Aut(S) (alpha^-1 beta
    preserves products), so Aut(S) and any one of them generate the group.
    Raises :class:`OrderBudgetExceededError` before building the group if
    that order is past ``cap`` (default :data:`DEFAULT_ORDER_BUDGET`).
    """
    auts = enumerate_automorphisms(s, budget=budget, cap=cap)
    antis = enumerate_anti_automorphisms(s, budget=budget, cap=cap)
    members = auts.elements if s.is_commutative else auts.elements + antis.elements
    limit = DEFAULT_ORDER_BUDGET if cap is None else cap
    if len(members) > limit:
        raise OrderBudgetExceededError(limit, layer="Aut±(S)", order=len(members))
    return PermGroup(s.n, auts.elements + antis.elements[:1], members)


def derived_subgroup(g: PermGroup) -> PermGroup:
    """The commutator subgroup [G, G], from the generators X of G.

    It is the normal closure N of {[a, b] : a, b in X}.  N lies in [G, G],
    which is normal and holds those commutators.  In G/N the images of the
    generators commute pairwise, so G/N is abelian and [G, G] lies in N.
    N is built by closing the commutators and then adjoining x k x^-1 for
    each generator k of the subgroup K so far and each x in X until nothing
    new appears.  Conjugation by x is an automorphism, so x K x^-1 is
    generated by those images; it lies in K and has the order of K, so it
    is K.  Every element of G is a product of the x, so K is normal.
    It takes no cap: [G, G] lies in G, which is already materialized.
    """
    kept: list = []
    conjugators = [(x, invert(x)) for x in g.generators]

    def candidates():
        for a, b in combinations(g.generators, 2):
            yield compose(compose(a, b), invert(compose(b, a)))
        for k in kept:  # grows while it is walked
            for x, x_inv in conjugators:
                yield compose(compose(x, k), x_inv)

    return _generated(g.degree, candidates(), None, kept)


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a group, as the report shows it."""

    order: int
    abelian: bool
    exponent: int
    element_order_histogram: tuple  # sorted (order, count) pairs
    center_order: int
    derived_order: int


def _center_order(g: PermGroup, m: np.ndarray) -> int:
    """|Z(G)| as the number of elements that commute with every generator:
    such an element commutes with every product of generators, which is
    every element of G.  ``m`` holds the elements, one per row."""
    central = np.ones(len(m), dtype=bool)
    for a in g.generators:
        a = np.asarray(a, dtype=np.intp)
        central &= (a[m] == m[:, a]).all(axis=1)  # row j: a g_j == g_j a
    return int(central.sum())


def _element_orders(m: np.ndarray) -> np.ndarray:
    """The order of each permutation in the rows of ``m``: the lcm of its
    cycle lengths.  The rows go in blocks of about 2^17 entries, so that the
    gathers stay in cache."""
    step = max(1, 2**17 // max(1, m.shape[1]))
    return np.concatenate([_block_orders(m[i:i + step]) for i in range(0, len(m), step)])


def _block_orders(m: np.ndarray) -> np.ndarray:
    """:func:`_element_orders` on one block.

    Points are numbered row * n + x in the flattened block.  Each is
    labelled with the least point of its cycle by pointer doubling: after r
    rounds ``jump`` is p^(2^r) and ``label[x]`` is the least of x, p(x), ...,
    p^(2^r - 1)(x), since the new label of x is the least of the labels of x
    and p^(2^r)(x).  Once 2^r reaches the degree it covers every cycle, so a
    point's cycle length is the number of points with its label.  That is
    log2(n) rounds, not one per step round the longest cycle.  The orders
    divide |G|, so the lcm does not overflow.
    """
    n = m.shape[1]
    jump = (m + n * np.arange(len(m))[:, None]).ravel()
    label = np.arange(m.size)
    span = 1
    while span < n:
        label = np.minimum(label, label[jump])
        jump = jump[jump]
        span *= 2
    lengths = np.bincount(label, minlength=m.size)[label].reshape(m.shape)
    return np.lcm.reduce(lengths, axis=1, initial=1)


def group_fingerprint(g: PermGroup) -> GroupFingerprint:
    m = np.asarray(g.elements, dtype=np.int32)
    orders, counts = np.unique(_element_orders(m), return_counts=True)
    hist = dict(zip(orders.tolist(), counts.tolist()))
    center = _center_order(g, m)
    return GroupFingerprint(
        order=g.order,
        abelian=center == g.order,
        exponent=lcm(*hist),
        element_order_histogram=tuple(sorted(hist.items())),
        center_order=center,
        derived_order=derived_subgroup(g).order,
    )


def to_cayley_table(g: PermGroup) -> FiniteSemigroup:
    """The group as a Cayley table over its sorted element list; past
    :data:`~involute.semigroups.TABLE_CAP` elements :func:`cayley_table`
    raises :class:`OrderBudgetExceededError`."""
    return cayley_table(g.elements, compose)


# ---------------------------------------------------------------------------
# K_G: the subgroup of G x G generated by the pairs (g, g^-1)

@dataclass(frozen=True)
class PairGroup:
    """A subgroup of G x G stored as element-index pairs."""

    base_order: int
    generators: tuple
    elements: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)


def _group_inverses(table: FiniteSemigroup):
    n = table.n
    e = table.identity
    if e is None:
        raise NotAGroupError("no identity element")
    inv = [-1] * n
    for x in range(n):
        row = table.table[x]
        if sorted(row) != list(range(n)):
            raise NotAGroupError("rows are not permutations")
        inv[x] = row.index(e)
        if table.table[inv[x]][x] != e:
            raise NotAGroupError(f"element {x} has no two-sided inverse")
    return inv


def k_group(table: FiniteSemigroup) -> PairGroup:
    """The subgroup of G x G generated by {(g, g^-1)} for a group table G.

    Also computes the characterization {(g, h) : gh in [G, G]} and insists
    the two sets agree.
    """
    inv = _group_inverses(table)
    t = table.table
    n = table.n
    gens = tuple((g, inv[g]) for g in range(n))
    seen = close_under(gens, gens, lambda x, g: (t[x[0]][g[0]], t[x[1]][g[1]]))
    # in a finite group the subsemigroup the commutators generate is [G, G]
    derived = closure_of_subset(
        table, {t[t[a][b]][t[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    )
    expected = {(g, h) for g in range(n) for h in range(n) if t[g][h] in derived}
    if seen != expected:
        raise AssertionError("closure of {(g, g^-1)} differs from the gh-in-[G,G] set")
    return PairGroup(n, gens, frozenset(seen))


# ---------------------------------------------------------------------------
# writing a permutation as a product of two involutions, cycle by cycle

def two_involution_factorization(pi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return mapping tuples (sigma, tau) with sigma^2 = tau^2 = 1 and
    sigma o tau = pi, for any sequence of images ``pi``.

    Both are reflections of each cycle (x_0 ... x_{m-1}) of pi, indices mod
    m: sigma sends x_j to x_{-j} and tau sends x_j to x_{-1-j}, so
    sigma(tau(x_j)) = x_{1+j}.  Either factor may come out as the identity
    (tau alone suffices when every cycle is a transposition).
    """
    pi = as_mapping(pi)
    sigma, tau = list(range(len(pi))), list(range(len(pi)))
    for cyc in cycles(pi):
        for j, x in enumerate(cyc):
            sigma[x], tau[x] = cyc[-j], cyc[~j]
    s, t = tuple(sigma), tuple(tau)
    assert compose(s, t) == pi, "factorization broke; composition convention mismatch"
    return s, t
