"""Permutation groups from their generators: closures, fingerprints, C(S), G(S),
the involution laws, K_G.

A group is materialized as one int32 (|G|, degree) array, one element per
row, with a ``base``: points whose images tell the elements apart (every
point for :func:`closure`; for C(S) and G(S) see :func:`_signed_base`).  A
closure is a breadth-first frontier that gathers only the base images of
the products, and keeps those whose exact keys are new.  Each group carries
a generating set: a candidate is kept only if it is not in the group built
so far, so C(Sym(6)) keeps 7 of its 112 involutions.  The centre is the
centralizer of the generators and the derived subgroup the normal closure
of their commutators, so nothing costs O(|G|^2).  Element orders come from
numpy pointer doubling over all elements at once.  Aut(S) itself is a
stabiliser chain (:func:`~involute.morphisms.automorphism_chain`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import lcm

import numpy as np

from .errors import NotAGroupError, OrderBudgetExceededError
from .morphisms import (
    MorphismSet,
    _keys,
    automorphism_chain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    involutions,
    order_two_automorphisms,
)
from .perms import as_mapping, compose, cycles
from .semigroups import (
    DEFAULT_ORDER_BUDGET,
    TABLE_CAP,
    FiniteSemigroup,
    close_under,
    closure_of_subset,
    validate,
)


def _inside(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` occurs in the nonempty ``sorted_keys``."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


class PermGroup(MorphismSet):
    """A permutation group: a :class:`~involute.morphisms.MorphismSet` whose
    ``generators``, mapping tuples, generate it; :func:`group_fingerprint`
    relies on that.  The images of ``base`` (every point by default) tell
    the elements apart, and membership and :func:`to_cayley_table` look
    elements up by their keys.
    """

    def __init__(self, degree, generators, elements, base=None):
        super().__init__(degree, elements)
        self.generators = tuple(generators)
        self.base = np.arange(degree) if base is None else np.asarray(base, dtype=np.intp)

    @cached_property
    def _lookup(self):
        keys = _keys(self.array[:, self.base], self.degree)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def _rows_of(self, images: np.ndarray) -> np.ndarray:
        """The row of each element of the group whose base images are given
        along the last axis of ``images``."""
        keys, order = self._lookup
        return order[np.minimum(np.searchsorted(keys, _keys(images, self.degree)), len(keys) - 1)]

    def __contains__(self, perm):
        row = np.asarray(perm)
        return row.shape == (self.degree,) and bool(
            (self.array[self._rows_of(row[self.base])] == row).all())


def _generated(degree, batches, base, cap, kept: list) -> PermGroup:
    """The group the candidates generate, ``kept`` getting, as mapping
    tuples, those outside the group built before them.  ``batches`` yields
    int arrays of candidates, one per row, and may read ``kept``.  The
    identity counts against the cap."""
    cap = DEFAULT_ORDER_BUDGET if cap is None else cap
    if cap < 1:
        raise OrderBudgetExceededError(cap)
    base = np.arange(degree) if base is None else np.asarray(base, dtype=np.intp)
    x = np.arange(degree, dtype=np.int32)[None]
    keys = _keys(x[:, base], degree)
    gens = np.empty((0, degree), dtype=np.int32)
    for batch in batches:
        batch = np.asarray(batch, dtype=np.int32)
        batch_keys = _keys(batch[:, base], degree)
        i = 0
        while True:
            outside = np.flatnonzero(~_inside(keys, batch_keys[i:]))
            if not outside.size:
                break
            i += int(outside[0])
            kept.append(tuple(batch[i].tolist()))
            gens = np.vstack([gens, batch[i]])
            x, keys = _adjoin(x, keys, gens, base, cap)
            i += 1
    return PermGroup(degree, kept, x, base)


def _adjoin(x, keys, gens, base, cap):
    """The rows and sorted keys of <gens>, from those of the group x that
    gens[:-1] generate, gens[-1] lying outside it.  The coset x gens[-1] is
    new; then each round multiplies the new rows by every generator and
    keeps the distinct products with new keys.  That is closed, so it is
    the group (g^-1 is a power of g): an old row times an old generator is
    old, times gens[-1] it is in the coset, and each new row meets each
    generator.  The cap is checked as each round arrives."""
    degree = x.shape[1]
    front = x[:, gens[-1]]
    keys = np.sort(np.concatenate([keys, _keys(front[:, base], degree)]), kind="stable")
    parts, at_base = [x], gens[:, base]
    while len(front):
        if sum(map(len, parts)) + len(front) > cap:
            raise OrderBudgetExceededError(cap)
        parts.append(front)
        # (y g)(p) = y(g(p)): the products' keys from their base images alone
        step, first = np.unique(_keys(front[:, at_base], degree), return_index=True)
        new = ~_inside(keys, step)
        row, g = np.divmod(first[new], len(gens))
        front = front[row[:, None], gens[g]]
        # two sorted runs; a stable sort merges them
        keys = np.sort(np.concatenate([keys, step[new]]), kind="stable")
    return np.concatenate(parts), keys


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
    return _generated(degree, [gens] if gens else [], None, cap, [])


def _noncommuting_pair(s: FiniteSemigroup, gens):
    t = s.table
    return next(((x, y) for x, y in combinations(gens, 2) if t[x][y] != t[y][x]), None)


def _signed_base(s: FiniteSemigroup, *, budget=None) -> list[int]:
    """A base for Aut±(S): the points of the Aut(S) chain whose orbit has
    more than one point, then, on a non-commutative S, the first pair x, y
    of its generators with xy != yx, and xy.  A level whose orbit is one
    point is fixed by the stabiliser of the levels before it, so what fixes
    the kept points fixes every generator, and two maps of one kind that
    agree on them agree on every product of generators, which is
    everything.  An automorphism alpha and an anti-automorphism beta that
    agree on x and y differ at xy: beta(xy) = beta(y)beta(x) = alpha(yx),
    and alpha(yx) != alpha(xy) as alpha is injective."""
    aut = automorphism_chain(s, budget=budget)
    base = [g for g, level in zip(aut.base, aut.transversals) if len(level) > 1]
    pair = _noncommuting_pair(s, aut.base)
    return base if pair is None else base + [*pair, s.table[pair[0]][pair[1]]]


def _layer_closure(layer: str, maps, s: FiniteSemigroup, budget, cap) -> PermGroup:
    """The group ``maps(s)`` generates, on the base of Aut±(S); its cap error names ``layer``."""
    gens = maps(s, budget=budget, cap=cap).array
    try:
        return _generated(s.n, [gens], _signed_base(s, budget=budget), cap, [])
    except OrderBudgetExceededError as exc:
        raise OrderBudgetExceededError(exc.limit, layer=layer) from exc


def c_group(s: FiniteSemigroup, *, budget=None, cap=None) -> PermGroup:
    """C(S): the subgroup of Sym(S) generated by all involutions of S."""
    return _layer_closure("C(S)", involutions, s, budget, cap)


def g_group(s: FiniteSemigroup, *, budget=None, cap=None) -> PermGroup:
    """G(S): the subgroup generated by the order-at-most-2 automorphisms."""
    return _layer_closure("G(S)", order_two_automorphisms, s, budget, cap)


def involution_laws(s: FiniteSemigroup, invs, j_set, c: PermGroup, g: PermGroup):
    """The paper's laws for C(S) from I(S), J(S), C(S) and G(S), as
    ``(split, central)``; each is ``None`` where its hypothesis is absent.

    split, when S has a proper involution (one that is not an
    automorphism): |C| = 2 |C ∩ Aut(S)|.  central, when some proper
    involution iota commutes with every automorphism: Psi(a) = a o iota
    maps J(S) onto I(S), and |C| = 2 |G|.

    The involutions are all proper or none is, so no n^2 check is needed:
    an anti-automorphism alpha that is also a homomorphism gives
    alpha(x)alpha(y) = alpha(xy) = alpha(y)alpha(x) for all x, y, and alpha
    is onto, so S is commutative; on a commutative S every
    anti-automorphism is an automorphism.  C lies in Aut±(S), so a row
    alpha of C is an automorphism iff alpha(xy) = alpha(x)alpha(y) for the
    pair of :func:`_signed_base`.  Centrality is tested on the
    strong generators of :func:`~involute.morphisms.automorphism_chain`, a
    cache hit once Aut(S) is listed, each filtering the rows of I(S) left:
    what commutes with a and b commutes with ab, so with every product of
    generators, which is every automorphism.  Psi is injective, so it maps
    J(S) onto I(S) iff the sorted rows a o iota are those of I(S).
    """
    if s.is_commutative or not invs:
        return None, None
    aut = automorphism_chain(s)
    x, y = _noncommuting_pair(s, aut.base)
    m = c.array
    split = c.order == 2 * int((m[:, s.table[x][y]] == s.np_table[m[:, x], m[:, y]]).sum())
    central = invs.array
    for a in map(np.asarray, aut.generators):  # row i o a against a o i
        central = central[(central[:, a] == a[central]).all(axis=1)]
    if not len(central):
        return split, None
    psi = MorphismSet(s.n, np.take(j_set.array, central[0], axis=1))
    return split, psi == invs and c.order == 2 * g.order


def signed_aut_order(s: FiniteSemigroup, *, budget=None, cap=None) -> int:
    """|Aut±(S)|, the order of Aut(S) together with all anti-automorphisms.

    On a commutative semigroup the two sets coincide, so the order is
    |Aut(S)|; otherwise they are disjoint and the order is their sum.
    Raises :class:`OrderBudgetExceededError` if that order is past ``cap``
    (default :data:`DEFAULT_ORDER_BUDGET`).
    """
    auts = len(enumerate_automorphisms(s, budget=budget, cap=cap))
    antis = len(enumerate_anti_automorphisms(s, budget=budget, cap=cap))
    order = auts if s.is_commutative else auts + antis
    limit = DEFAULT_ORDER_BUDGET if cap is None else cap
    if order > limit:
        raise OrderBudgetExceededError(limit, layer="Aut±(S)", order=order)
    return order


def derived_subgroup(g: PermGroup) -> PermGroup:
    """The commutator subgroup [G, G], from the generators X of G, on the
    base of G.

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
    x = np.asarray(g.generators, dtype=np.int32).reshape(len(g.generators), g.degree)
    x_inv = np.argsort(x, axis=1).astype(np.int32)
    kept: list = []

    def batches():  # row i of take_along_axis(p, q) is p_i o q_i
        a, b = np.triu_indices(len(x), 1)  # the pairs of combinations(X, 2)
        ab = np.take_along_axis(x[a], x[b], axis=1)
        yield np.take_along_axis(ab, np.take_along_axis(x_inv[a], x_inv[b], axis=1), axis=1)
        for k in kept:  # grows while it is walked
            yield np.take_along_axis(x, np.asarray(k)[x_inv], axis=1)

    return _generated(g.degree, batches(), g.base, None, kept)


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a group, as the report shows it."""

    order: int
    abelian: bool
    exponent: int
    element_order_histogram: tuple  # sorted (order, count) pairs
    center_order: int
    derived_order: int


def _center_order(g: PermGroup) -> int:
    """|Z(G)| as the number of elements that commute with every generator:
    such an element commutes with every product of generators, which is
    every element of G.  a g and g a lie in G, so they are equal iff they
    agree on the base.  Each generator filters the rows left."""
    central = g.array
    for a in g.generators:
        a = np.asarray(a, dtype=np.intp)
        central = central[(a[central[:, g.base]] == central[:, a[g.base]]).all(axis=1)]
    return len(central)


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
    orders, counts = np.unique(_element_orders(g.array), return_counts=True)
    hist = dict(zip(orders.tolist(), counts.tolist()))
    center = _center_order(g)
    return GroupFingerprint(
        order=g.order,
        abelian=center == g.order,
        exponent=lcm(*hist),
        element_order_histogram=tuple(sorted(hist.items())),
        center_order=center,
        derived_order=derived_subgroup(g).order,
    )


def to_cayley_table(g: PermGroup) -> FiniteSemigroup:
    """The group's Cayley table over its sorted elements, checked by
    :func:`~involute.semigroups.validate`.  Entry (i, j) is the row of
    g_i o g_j, found by the key of g_i(g_j(base)), with rows i in blocks of
    about 2^16 images.  Raises :class:`OrderBudgetExceededError` past
    :data:`~involute.semigroups.TABLE_CAP` elements."""
    if g.order > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    m = g.array
    at_base = m[:, g.base]
    step = max(1, 2**16 // max(1, at_base.size))
    return validate(np.concatenate([g._rows_of(m[i:i + step][:, at_base])
                                    for i in range(0, len(m), step)]))


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
    inv = []
    for x, row in enumerate(table.table):
        if sorted(row) != list(range(n)):
            raise NotAGroupError("rows are not permutations")
        inv.append(row.index(e))
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
