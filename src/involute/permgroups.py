"""Permutation groups from their generators: closures, fingerprints, C(S), G(S),
the involution laws, K_G on two copies of G's points.

Every group is a :class:`~involute.morphisms.StabiliserChain`, built by
Schreier–Sims on a fixed base: candidates are sifted in order, and one is
kept only if it lies outside the group built before it, so C(Sym(6)) keeps
7 of its 112 involutions.  A cap is checked on the chain's order before
anything is listed.  The centre is the centralizer of the generators and
the derived subgroup the normal closure of their commutators, so nothing
costs O(|G|^2).  Element orders come from numpy pointer doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf, lcm

import numpy as np

from .errors import OrderBudgetExceededError
from .morphisms import (
    MorphismSet,
    StabiliserChain,
    _capped,
    automorphism_chain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    involutions,
    order_two_automorphisms,
)
from .perms import as_mapping, compose, cycles
from .semigroups import TABLE_CAP, FiniteSemigroup, validate


def _group(chain: StabiliserChain, batches, cap, layer=None, stop=None) -> StabiliserChain:
    """``chain`` grown to the group that ``batches``, int32 arrays of
    candidates, one per row, generate; a candidate joins its ``generators``
    (which ``batches`` may read) only if it sifts outside the group so far,
    and sifting stops at order ``stop``.  Past ``cap`` the error names
    ``layer``."""
    base = list(chain.base)
    for images, row in ((i, r) for b in batches for i, r in zip(b[:, base].tolist(), b)):
        if chain.order == stop:
            break
        chain.add(images, row)
    _capped(chain.order, cap, layer)
    return chain


def closure(generators, degree=None, *, cap: int | None = None) -> StabiliserChain:
    """The subgroup generated by the given permutations, each a sequence of
    images (see :func:`~involute.perms.as_mapping`), on the base of every
    point; its ``generators`` are those kept by the greedy rule.  An empty
    list yields the trivial group (the degree must then be supplied).
    Raises :class:`OrderBudgetExceededError` if the order is past ``cap``.
    """
    gens = [as_mapping(g) for g in generators]
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generating set")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different degrees")
    rows = np.array(gens, dtype=np.int32).reshape(len(gens), degree)
    return _group(StabiliserChain(degree, range(degree)), [rows], cap)


def _noncommuting_pair(s: FiniteSemigroup, gens):
    product = s.np_table.item
    return next(((x, y) for x, y in combinations(gens, 2) if product(x, y) != product(y, x)), None)


def _signed_chain(s: FiniteSemigroup, budget) -> StabiliserChain:
    """An empty chain on a base for Aut±(S): the points of the Aut(S) chain
    whose orbit has more than one point, then, on a non-commutative S, those
    of the first pair x, y of its generators with xy != yx, and xy, not yet
    in it.  A level whose orbit is one point is fixed by the stabiliser of
    the levels before it, so what fixes the kept points fixes every
    generator, and two maps of one kind that agree on them agree on every
    product of generators, which is everything.  An automorphism alpha and
    an anti-automorphism beta that agree on x and y differ at xy: beta(xy)
    = beta(y)beta(x) = alpha(yx), and alpha(yx) != alpha(xy) as alpha is
    injective."""
    aut = automorphism_chain(s, budget=budget)
    base = [g for g, level in zip(aut.base, aut.transversals) if len(level) > 1]
    pair = _noncommuting_pair(s, aut.base)
    extra = () if pair is None else (*pair, s.np_table.item(pair))
    return StabiliserChain(s.n, base + [p for p in dict.fromkeys(extra) if p not in base])


def c_group(s: FiniteSemigroup, *, budget=None, cap=None) -> StabiliserChain:
    """C(S): the subgroup of Sym(S) generated by all involutions of S, on the
    base of Aut±(S), sifted until it has the order of Aut±(S), counted from
    the lists the involutions came from."""
    invs = involutions(s, budget=budget, cap=cap)
    return _group(_signed_chain(s, budget), [invs.array], cap, "C(S)", signed_aut_order(s, cap=inf))


def g_group(s: FiniteSemigroup, *, budget=None, cap=None) -> StabiliserChain:
    """G(S): the subgroup generated by the order-at-most-2 automorphisms, on
    the base of Aut±(S), sifted until it has the order of Aut(S)."""
    j_set = order_two_automorphisms(s, budget=budget, cap=cap)
    stop = automorphism_chain(s, budget=budget).order
    return _group(_signed_chain(s, budget), [j_set.array], cap, "G(S)", stop)


def involution_laws(s: FiniteSemigroup, invs, j_set, c: StabiliserChain, g: StabiliserChain):
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
    pair of :func:`_signed_chain`.  Centrality is tested on the
    generators of :func:`~involute.morphisms.automorphism_chain`, its
    search hits, each filtering the rows of I(S) left:
    what commutes with a and b commutes with ab, so with every product of
    generators, which is every automorphism.  Psi is injective, so it maps
    J(S) onto I(S) iff the sorted rows a o iota are those of I(S).
    """
    if s.is_commutative or not invs:
        return None, None
    aut = automorphism_chain(s)
    x, y = _noncommuting_pair(s, aut.base)
    m = c.array
    split = c.order == 2 * int((m[:, s.np_table.item(x, y)] == s.np_table[m[:, x], m[:, y]]).sum())
    central = invs.array
    for a in map(np.asarray, aut.generators):  # row i o a against a o i
        central = central[(central[:, a] == a[central]).all(axis=1)]
    if not len(central):
        return split, None
    psi = MorphismSet(s.n, np.take(j_set.array, central[0], axis=1))
    return split, psi == invs and c.order == 2 * g.order


def signed_aut_order(s: FiniteSemigroup, *, budget=None, cap=None) -> int:
    """|Aut±(S)|: |Aut(S)| on a commutative S, where Aut⁻(S) is Aut(S), else
    |Aut(S)| + |Aut⁻(S)|, checked against ``cap`` like Aut(S)."""
    auts = len(enumerate_automorphisms(s, budget=budget, cap=cap))
    antis = len(enumerate_anti_automorphisms(s, budget=budget, cap=cap))
    return _capped(auts if s.is_commutative else auts + antis, cap, "Aut±(S)")


def derived_subgroup(g: StabiliserChain) -> StabiliserChain:
    """The commutator subgroup [G, G], from the generators X of G, on the
    base of G.

    It is the normal closure N of {[a, b] : a, b in X}.  N lies in [G, G],
    which is normal and holds those commutators.  In G/N the images of the
    generators commute pairwise, so G/N is abelian and [G, G] lies in N.
    N is built by sifting the commutators and then x k x^-1 for each kept
    generator k of the subgroup K so far and each x in X until nothing
    new appears.  Conjugation by x is an automorphism, so x K x^-1 is
    generated by those images; it lies in K and has the order of K, so it
    is K.  Every element of G is a product of the x, so K is normal.
    It takes no cap: [G, G] lies in G, and nothing of it is listed.
    """
    x = np.asarray(g.generators, dtype=np.int32).reshape(len(g.generators), g.degree)
    x_inv = np.argsort(x, axis=1).astype(np.int32)
    h = StabiliserChain(g.degree, g.base)

    def batches():  # row i of take_along_axis(p, q) is p_i o q_i
        a, b = np.triu_indices(len(x), 1)  # the pairs of combinations(X, 2)
        ab = np.take_along_axis(x[a], x[b], axis=1)
        yield np.take_along_axis(ab, np.take_along_axis(x_inv[a], x_inv[b], axis=1), axis=1)
        for k in h.generators:  # grows while it is walked
            yield np.take_along_axis(x, np.asarray(k)[x_inv], axis=1)

    return _group(h, batches(), g.order)


@dataclass(frozen=True)
class GroupFingerprint:
    """Isomorphism-invariant summary of a group, as the report shows it."""

    order: int
    abelian: bool
    exponent: int
    element_order_histogram: tuple  # sorted (order, count) pairs
    center_order: int
    derived_order: int


def _center_order(g: StabiliserChain, central: np.ndarray) -> int:
    """|Z(G)| as the number of rows of ``central``, all of G, that commute
    with every generator, and so with every product of generators.  a g and
    g a lie in G, so they are equal iff they agree on the base.  Each
    generator, held as int32 like the rows, filters the rows left."""
    base = list(g.base)
    for a in np.asarray(g.generators, dtype=np.int32).reshape(len(g.generators), g.degree):
        central = central[(a[central[:, base]] == central[:, a[base]]).all(axis=1)]
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


def group_fingerprint(g: StabiliserChain) -> GroupFingerprint:
    """Over the elements listed unsorted; [G, G] from its own chain."""
    m = g.maps()
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


def _keys(images: np.ndarray, degree: int) -> np.ndarray:
    """An exact key per row of ``images`` (the last axis), of points below
    ``degree``: the row as a number, bits(degree - 1) bits per point, first
    point most significant, while that fits 63 bits; otherwise its bytes."""
    bits, k = max(1, (degree - 1).bit_length()), images.shape[-1]
    if k * bits > 63:
        return np.ascontiguousarray(images, dtype=np.int32).view(np.dtype((np.void, 4 * k)))[..., 0]
    return images @ (1 << np.arange((k - 1) * bits, -1, -bits, dtype=np.int64))


def to_cayley_table(g: StabiliserChain) -> FiniteSemigroup:
    """The group's Cayley table over its sorted elements, checked by
    :func:`~involute.semigroups.validate`.  Entry (i, j) is the row of
    g_i o g_j, found by the key of g_i(g_j(base)), rows i in blocks of about
    2^16 images.  Raises :class:`OrderBudgetExceededError` past
    :data:`~involute.semigroups.TABLE_CAP` elements."""
    if g.order > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    m = g.array
    at_base = m[:, list(g.base)]
    keys = _keys(at_base, g.degree)
    order = np.argsort(keys)
    step = max(1, 2**16 // max(1, at_base.size))
    return validate(np.concatenate([order[np.searchsorted(keys[order], _keys(m[i:i + step][:, at_base], g.degree))]
                                    for i in range(0, len(m), step)]))


# ---------------------------------------------------------------------------
# K_G: the pairs (g, g^-1) as one chain on two copies of G's points

def k_group(g: StabiliserChain) -> StabiliserChain:
    """K_G, the subgroup of G x G generated by {(g, g^-1) : g in G}, on two
    copies of G's d points: (a, b) sends x to a(x) and d + y to d + b(y).
    It is sifted on G's base in each copy, as a pair that fixes both is the
    identity on both.  Past the default order cap the error names K_G.

    K_G = {(g, h) : gh in [G, G]}, so |K_G| = |G| |[G, G]|.  The right-hand
    side is a subgroup, as G/[G, G] is abelian, and holds every (g, g^-1).
    Conversely (a, a^-1)(b, b^-1)((ab)^-1, ab) = (1, [a, b]), so K_G holds
    (1, [G, G]), and so every (g, h) = (g, g^-1)(1, gh) with gh in [G, G].
    """
    d, m = g.degree, g.maps()
    pairs = np.hstack([m, np.argsort(m, axis=1).astype(np.int32) + d])  # row [a | a^-1]
    base = g.base + tuple(b + d for b in g.base)
    return _group(StabiliserChain(2 * d, base), [pairs], None, "K_G")


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
