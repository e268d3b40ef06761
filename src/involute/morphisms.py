"""Backtracking search for bijective (anti-)morphisms between Cayley tables.

The engine finds isomorphisms S -> T by branching over the images of a
generating set of S, restricted to fingerprint-compatible targets, and
extending every partial assignment by product saturation.  An
anti-isomorphism S -> T is an isomorphism S -> dual(T), so the same engine
serves both directions; the documented R/L and left/right fingerprint swap
falls out of computing fingerprints on the dual table.

Every group is a :class:`StabiliserChain`.  A generating set of S is a base
for Aut(S), as an automorphism is fixed by the images of the generators, so
the levels of the search tree form a stabiliser chain.
:func:`automorphism_chain` runs one ``limit=1`` search per level over the
candidates outside the orbit, resumed after each hit (the orbit pruning of
Leon's partition backtrack in its simplest form), and adds each hit by the
chain's orbit step; the groups of :mod:`~involute.permgroups` fill the same
type by Schreier–Sims.  Aut(S), Aut⁻(S), I(S) and J(S) are each a
:class:`MorphismSet`, one int32 array of maps, one map per row.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

import numpy as np

from .errors import (
    DegreeMismatchError,
    NotAnInvolutionError,
    OrderBudgetExceededError,
    SearchBudgetExceededError,
)
from .perms import as_mapping, compose, cycle_string, invert, is_involution
from .semigroups import (
    DEFAULT_ORDER_BUDGET,
    FiniteSemigroup,
    _row_labels,
    _row_tuples,
    generating_set,
)

#: Default cap on the nodes of one search, or of one automorphism chain
#: summed over its searches (configurable per call).
DEFAULT_NODE_BUDGET = 10**8


def _sorted_rows(x: np.ndarray) -> np.ndarray:
    """``x``, a C-contiguous int32 array, its rows sorted in place into mapping-tuple
    order as void items of their big-endian bytes (those of points order as the points)."""
    if len(x) > 1:
        if np.little_endian:
            x.byteswap(inplace=True)
        x.view(np.dtype((np.void, 4 * x.shape[1]))).sort(axis=0)
        if np.little_endian:
            x.byteswap(inplace=True)
    return x


def _squares_to_one(a: np.ndarray) -> np.ndarray:
    """Whether each map, a row of ``a``, is its own inverse (the identity too)."""
    return (np.take_along_axis(a, a, axis=1) == np.arange(a.shape[1])).all(axis=1)


class MorphismSet:
    """A set of maps on {0, ..., degree - 1}: the rows of one int32 (count,
    degree) array, ``array``, in mapping-tuple order (an int32 array handed
    in is sorted in place), so equal sets compare equal and all derived
    output is deterministic.  ``elements`` and iteration give mapping tuples:
    those handed in, or built once from the array, each point one shared
    int object.  :class:`~involute.permgroups.PermGroup` adds generators."""

    def __init__(self, degree, elements):
        self.degree = degree
        if isinstance(elements, np.ndarray):
            self.array = _sorted_rows(np.ascontiguousarray(elements, dtype=np.int32))
        else:  # mapping tuples, sorted here and kept as the elements
            self.elements = tuple(sorted(map(tuple, elements)))
            self.array = np.array(self.elements, dtype=np.int32).reshape(len(self.elements), degree)

    @property
    def order(self) -> int:
        return len(self.array)

    @cached_property
    def elements(self) -> tuple:
        return _row_tuples(self.array)

    def __len__(self):
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (isinstance(other, MorphismSet) and self.degree == other.degree
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree}, order={self.order})"


class StabiliserChain:
    """A permutation group G as a stabiliser chain along ``base``, points
    whose images tell its members apart.  ``transversals[i]`` maps each point
    p of the orbit of base[i] under G_i, the members fixing base[:i], to one
    taking base[i] to p, so each member is one product u_0 ... u_{k-1}, and
    ``order`` is the product of the orbit lengths, with strong ``generators``."""

    def __init__(self, degree: int, base):
        self.degree, self.base = degree, tuple(base)
        self.transversals = tuple({b: tuple(range(degree))} for b in self.base)
        self.generators: list = []
        self._strong = [[] for _ in self.base]  # the strong generators of each level
        self._inverses = [{} for _ in self.base]  # made when a sift first needs one
        self._sifted = [{} for _ in self.base]  # per orbit point, the Schreier generators sifted

    @property
    def order(self) -> int:
        return prod(map(len, self.transversals))

    def maps(self) -> np.ndarray:
        """Every member, one per row, unsorted: one gather per level."""
        maps = np.arange(self.degree, dtype=np.int32)[None]
        for level in reversed(self.transversals):
            if len(level) > 1:
                u = np.array(list(level.values()), dtype=np.int32)
                maps = np.take(u, maps, axis=1).reshape(-1, self.degree)  # row (i, j) is u_i o maps_j
        return maps

    def _inverse(self, i: int, p: int) -> tuple:
        if p not in self._inverses[i]:
            self._inverses[i][p] = invert(self.transversals[i][p])
        return self._inverses[i][p]

    def sift(self, images, i: int = 0, h: tuple | None = None):
        """Divides a map of G_i, given by its base images, by transversal
        inverses down the levels from i; returns the level where its image
        leaves the orbit, or len(base), and ``h``, if given, divided alike."""
        images = list(images)
        for level in range(i, len(self.base)):
            p = images[level]
            if p != self.base[level]:
                if p not in self.transversals[level]:
                    return level, h
                if h is not None or level + 1 < len(self.base):
                    v = self._inverse(level, p)
                    images[level + 1:] = [v[x] for x in images[level + 1:]]
                    h = None if h is None else compose(v, h)
        return len(self.base), h

    def extend(self, a: tuple, lo: int, hi: int) -> None:
        """The orbit step: ``a``, fixing base[:lo], joins the strong
        generators of levels lo..hi, each orbit grown through a on its old
        points and every generator of the level on its new ones."""
        self.generators.append(a)
        for level in range(lo, hi + 1):
            orbit, strong = self.transversals[level], self._strong[level]
            strong.append(a)
            todo = [(p, [a]) for p in orbit]
            for p, maps in todo:  # grows while it is walked
                for b in maps:
                    if b[p] not in orbit:
                        orbit[b[p]] = compose(b, orbit[p])
                        todo.append((b[p], strong))

    def add(self, images, row: np.ndarray) -> bool:
        """Whether the map ``row``, an int array with base images ``images``,
        lies outside G; if so G becomes <G, row> by incremental Schreier–Sims
        (Holt, Eick & O'Brien 2005, 4.4.2): what the sift leaves joins
        levels 0..j, and levels j, ..., 0 are completed in turn.  Level i is
        complete once every Schreier generator u_q^-1 s u_p (s a strong
        generator, q = s(p)) sifts to the identity from level i + 1, as they
        generate the stabiliser of base[i] (Schreier's lemma)."""
        level = self.sift(images)[0]
        if level == len(self.base):
            return False
        self.extend(self.sift(images, 0, tuple(row.tolist()))[1], 0, level)
        while level >= 0:
            level = self._complete(level)
        return True

    def _complete(self, i: int) -> int:
        """Sifts level i's Schreier generators not sifted before (none at the
        last: they fix the base); the first left over joins levels i+1..j,
        and j is returned, else i - 1."""
        orbit, strong, sifted = self.transversals[i], self._strong[i], self._sifted[i]
        for p, u in list(orbit.items()) if i + 1 < len(self.base) else ():
            for k in range(sifted.get(p, 0), len(strong)):
                sifted[p] = k + 1
                s = strong[k]
                v = self._inverse(i, s[p])
                images = [v[s[u[b]]] for b in self.base]
                j = self.sift(images, i + 1)[0]
                if j < len(self.base):
                    self.extend(self.sift(images, i + 1, compose(v, compose(s, u)))[1], i + 1, j)
                    return j
        return i - 1


def _preserves_products(alpha, s: FiniteSemigroup, t: FiniteSemigroup, anti: bool) -> bool:
    m = as_mapping(alpha)
    if len(m) != s.n or s.n != t.n:
        raise DegreeMismatchError(
            f"degree {len(m)} against tables of sizes {s.n} and {t.n}"
        )
    p = np.asarray(m, dtype=np.int32)
    # broadcasting yields rhs[x, y] = t[alpha(x), alpha(y)], or t[alpha(y), alpha(x)] if anti
    rows, cols = (p[None, :], p[:, None]) if anti else (p[:, None], p[None, :])
    return bool((p[s.np_table] == t.np_table[rows, cols]).all())


def is_homomorphism(alpha, s: FiniteSemigroup, t: FiniteSemigroup) -> bool:
    """True iff the permutation alpha has alpha(xy) = alpha(x)alpha(y) on all pairs."""
    return _preserves_products(alpha, s, t, anti=False)


def is_anti_homomorphism(alpha, s: FiniteSemigroup, t: FiniteSemigroup) -> bool:
    """True iff the permutation alpha has alpha(xy) = alpha(y)alpha(x) on all pairs."""
    return _preserves_products(alpha, s, t, anti=True)


def _fingerprint_ids(s: FiniteSemigroup, t: FiniteSemigroup):
    """Shared class ids for the rows of the two fingerprint arrays, or None
    if the multisets of rows differ (then no isomorphism exists)."""
    ids = _row_labels(np.concatenate((s.fingerprint_rows, t.fingerprint_rows)))
    sid, tid = ids[:s.n], ids[s.n:]
    if not np.array_equal(np.bincount(sid, minlength=s.n), np.bincount(tid, minlength=s.n)):
        return None
    return sid.tolist(), tid.tolist()


def _generator_certificate(s: FiniteSemigroup, t: FiniteSemigroup, gens, anti: bool):
    """A test that a map f: S -> T preserves products, in O(n |gens|).

    The returned function checks f(x*g) = f(x)*f(g) (anti: f(g)*f(x)) for
    every x in S and every g in ``gens``; the index arrays are built once
    here, not once per map, and it takes one map or an array of maps, one
    per row, in blocks of about 2^16 images.  When ``gens`` generates S this
    is equivalent to the n^2 defining equations.  Proof, by induction on the
    length of y as a product of generators: y = g is the certificate itself,
    and for y = y'g, f(x*y'g) = f(x*y')f(g) = f(x)f(y')f(g) = f(x)f(y'g),
    by the certificate at x*y', the induction hypothesis and the certificate
    at y'.  In anti form f(x*y'g) = f(g)f(x*y') = f(g)f(y')f(x) = f(y'g)f(x)
    in the same way.  Only associativity of S and T is used.
    """
    g_idx = np.asarray(gens, dtype=np.intp)
    xg = s.np_table[:, g_idx]       # [x, i] -> x * gens[i]
    tt = t.np_table
    step = max(1, 2**16 // max(1, xg.size))

    def holds(maps) -> bool:
        f = np.asarray(maps).reshape(-1, s.n)
        for fb in (f[b:b + step] for b in range(0, len(f), step)):
            fx, fg = fb[:, :, None], fb[:, None, g_idx]
            if not (fb[:, xg] == (tt[fg, fx] if anti else tt[fx, fg])).all():
                return False
        return True

    return holds


def _search_isomorphisms(s, t, gens, cand, sid, tid, budget, limit, layer, steps=0):
    """Core backtracking loop.

    Returns the mapping tuples, lexicographically sorted, and the node count:
    ``steps`` (the nodes already spent by earlier searches under the same
    ``budget``) plus the nodes of this search.

    Every partial assignment is saturated by products with the placed
    generators on both sides, so each branch dies at its first
    inconsistency.  A completed map therefore already satisfies
    f(x*g) = f(x)*f(g) for every x and every generator g, which by
    :func:`_generator_certificate` implies f(xy) = f(x)f(y) for all x, y;
    that O(n |gens|) certificate, not the n^2 equations, is re-checked on
    each solution.

    ``budget`` caps the nodes: one per generator image tried (each ``place``
    call, so a branch that dies on its first assignment still costs one)
    plus one per element dequeued while saturating; past it the error names
    ``layer``.
    """
    n = s.n
    tab_s, tab_t = s.table, t.table
    certified = _generator_certificate(s, t, gens, anti=False)
    image = [-1] * n
    preim = [-1] * n
    known: list[int] = []
    placed: list[tuple[int, int]] = []
    results: list[tuple[int, ...]] = []

    def rollback(base):
        while len(known) > base:
            x = known.pop()
            preim[image[x]] = -1
            image[x] = -1

    def assign(x, y) -> bool:
        cur = image[x]
        if cur != -1:
            return cur == y
        if preim[y] != -1 or sid[x] != tid[y]:
            return False
        image[x] = y
        preim[y] = x
        known.append(x)
        return True

    def place(g, h) -> bool:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise SearchBudgetExceededError(budget, layer=layer)
        base = len(known)
        if not assign(g, h):
            return False
        placed.append((g, h))
        ok = True
        qi = base
        # products of everything already known with the new generator
        for k in range(base):
            x = known[k]
            fx = image[x]
            if not (
                assign(tab_s[x][g], tab_t[fx][h])
                and assign(tab_s[g][x], tab_t[h][fx])
            ):
                ok = False
                break
        # then saturate the queue of newly assigned elements
        while ok and qi < len(known):
            x = known[qi]
            qi += 1
            fx = image[x]
            steps += 1
            if steps > budget:
                raise SearchBudgetExceededError(budget, layer=layer)
            for gg, hh in placed:
                if not (
                    assign(tab_s[x][gg], tab_t[fx][hh])
                    and assign(tab_s[gg][x], tab_t[hh][fx])
                ):
                    ok = False
                    break
        if not ok:
            placed.pop()
            rollback(base)
        return ok

    def extend(k) -> bool:
        if k == len(gens):
            assert len(known) == n, "generators failed to reach every element"
            if not certified(image):
                raise AssertionError("saturation left a generator relation unchecked")
            results.append(tuple(image))
            return limit is not None and len(results) >= limit
        g = gens[k]
        fixed = image[g]
        for h in cand[k]:
            if fixed != -1 and h != fixed:
                continue
            base = len(known)
            placed_base = len(placed)
            if place(g, h):
                stop = extend(k + 1)
                del placed[placed_base:]
                rollback(base)
                if stop:
                    return True
        return False

    extend(0)
    extend = None  # the recursive closure holds itself, and through it s and t
    results.sort()
    return results, steps


def _search_plan(s: FiniteSemigroup, t: FiniteSemigroup):
    """The search's generators, most-constrained first, with their
    fingerprint-compatible candidate images and the shared fingerprint class
    ids; None if no isomorphism S -> T can exist."""
    if s.n != t.n:
        return None
    pair = _fingerprint_ids(s, t)
    if pair is None:
        return None
    sid, tid = pair
    by_class: dict[int, list[int]] = {}
    for y, c in enumerate(tid):
        by_class.setdefault(c, []).append(y)
    gens = generating_set(s)
    cand = [by_class.get(sid[g], []) for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (len(cand[i]), gens[i]))
    return [gens[i] for i in order], [cand[i] for i in order], sid, tid


def enumerate_isomorphism_mappings(
    s: FiniteSemigroup,
    t: FiniteSemigroup,
    *,
    budget: int | None = None,
    limit: int | None = None,
    layer: str = "morphism",
) -> list[tuple[int, ...]]:
    """All isomorphisms S -> T as mapping tuples (or the first ``limit``);
    past ``budget`` nodes the error names ``layer``."""
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    plan = _search_plan(s, t)
    if plan is None:
        return []
    return _search_isomorphisms(s, t, *plan, budget, limit, layer)[0]


def automorphism_chain(s: FiniteSemigroup, *, budget: int | None = None) -> StabiliserChain:
    """Aut(S) as a stabiliser chain, one ``limit=1`` search per level and hit.

    The levels run deepest first, i = k-1 down to 0.  At level i one search,
    with g_0..g_{i-1} fixed, takes as the images of g_i the
    fingerprint-compatible candidates not yet in the orbit of g_i, in order.
    A hit g_i -> h is a certified automorphism in Aut_{g<i}, which the
    chain's orbit step makes a strong generator, growing the orbit of g_i
    through every generator found at levels >= i; the search resumes from
    the candidates after h, orbit points skipped.  A miss ends the level,
    as does running out of candidates.  The fixed prefix is placed and
    saturated once per search.  ``budget`` caps the nodes summed over all
    the searches.  The proof below makes a Schreier test needless.

    Proof that after level i the generators found at levels >= i generate
    A_i = Aut_{g<i} (so at level 0 they generate Aut(S)), by induction from
    A_k = 1, the only automorphism fixing a generating set:  let H be the
    group they generate.  H lies in A_i, and contains A_{i+1} by induction.
    Every point h of the orbit g_i^{A_i} is a candidate, and is either
    reached from g_i through H already or is searched for; each search is
    complete over its candidates in order, so none before its hit lies in
    g_i^{A_i}, and its hit, a member of A_i, joins H.  So g_i^H = g_i^{A_i},
    and the stabiliser of g_i in H is H ∩ A_{i+1} = A_{i+1}.  By
    orbit-stabiliser |H| = |g_i^{A_i}| |A_{i+1}| = |A_i|, so H = A_i.  The
    same count gives |Aut(S)| = the product of the orbit lengths.
    """
    budget = DEFAULT_NODE_BUDGET if budget is None else budget

    def build():
        gens, cand, sid, tid = _search_plan(s, s)
        chain = StabiliserChain(s.n, gens)
        steps = 0
        for i in reversed(range(len(gens))):
            fixed, rest = [[g] for g in gens[:i]], cand[i]
            while rest := [h for h in rest if h not in chain.transversals[i]]:
                hit, steps = _search_isomorphisms(
                    s, s, gens, fixed + [rest] + cand[i + 1:], sid, tid, budget, 1, "Aut(S)", steps
                )
                if not hit:
                    break
                chain.extend(hit[0], 0, i)
                rest = rest[rest.index(hit[0][gens[i]]) + 1:]
        return chain

    return _memo(s, "chain", build)


def _capped(order: int, cap: int | None, layer: str | None = None) -> int:
    """``order``, or, past ``cap`` (default 10^6), an error naming ``layer``."""
    limit = DEFAULT_ORDER_BUDGET if cap is None else cap
    if order > limit:
        raise OrderBudgetExceededError(limit, layer=layer, order=order)
    return order


def _memo(s: FiniteSemigroup, key: str, build):
    """``build()``, computed once per instance and kept in ``s.search_cache``.

    The key is what was searched for, not the budget: a budget bounds the
    search work actually done, and a cache hit does none.  A search that
    exceeds its budget raises before anything is stored.
    """
    if key not in s.search_cache:
        s.search_cache[key] = build()
    return s.search_cache[key]


def enumerate_automorphisms(
    s: FiniteSemigroup, *, budget: int | None = None, cap: int | None = None
) -> MorphismSet:
    """The complete automorphism group of S, canonically sorted.

    Listed from :func:`automorphism_chain` by its
    :meth:`~StabiliserChain.maps`, one gather per level.  Raises
    :class:`OrderBudgetExceededError` before any listing if |Aut(S)| is past
    ``cap`` (default :data:`DEFAULT_ORDER_BUDGET`).  A list already cached is
    returned whatever the cap.
    """

    def build():
        aut = automorphism_chain(s, budget=budget)
        _capped(aut.order, cap, "Aut(S)")
        return MorphismSet(s.n, aut.maps())

    return _memo(s, "aut", build)


def enumerate_anti_automorphisms(
    s: FiniteSemigroup, *, budget: int | None = None, cap: int | None = None
) -> MorphismSet:
    """The complete set of anti-automorphisms of S; ``cap`` as for Aut(S).

    On a commutative S this is Aut(S) itself.  Otherwise one
    anti-automorphism beta is found by searching for an isomorphism onto the
    dual table, and the rest are produced as {alpha o beta}, one column
    gather of Aut(S); every composite is re-verified by the anti form of
    :func:`_generator_certificate` over a generating set of S.
    """

    def build():
        if s.is_commutative:
            return MorphismSet(s.n, enumerate_automorphisms(s, budget=budget, cap=cap).array)
        found = enumerate_isomorphism_mappings(s, s.dual(), budget=budget, limit=1, layer="Aut⁻(S)")
        if not found:
            return MorphismSet(s.n, ())
        auts = enumerate_automorphisms(s, budget=budget, cap=cap)
        composed = np.take(auts.array, found[0], axis=1)  # row a o beta
        if not _generator_certificate(s, s, generating_set(s), anti=True)(composed):
            raise AssertionError("composition trick produced a non-anti-morphism")
        return MorphismSet(s.n, composed)

    return _memo(s, "anti", build)


def involutions(
    s: FiniteSemigroup, *, budget: int | None = None, cap: int | None = None
) -> MorphismSet:
    """Anti-automorphisms of order exactly 2 (the identity never counts)."""

    def build():
        a = enumerate_anti_automorphisms(s, budget=budget, cap=cap).array
        return MorphismSet(s.n, a[_squares_to_one(a) & (a != np.arange(s.n)).any(axis=1)])

    return _memo(s, "involutions", build)


def order_two_automorphisms(
    s: FiniteSemigroup, *, budget: int | None = None, cap: int | None = None
) -> MorphismSet:
    """Automorphisms alpha with alpha^2 = 1, identity included."""

    def build():
        a = enumerate_automorphisms(s, budget=budget, cap=cap).array
        return MorphismSet(s.n, a[_squares_to_one(a)])

    return _memo(s, "order_two", build)


def is_proper_involution(alpha, s: FiniteSemigroup) -> bool:
    """True iff the involution alpha is not also a homomorphism.

    Raises :class:`NotAnInvolutionError` unless alpha really is an
    involution of S.
    """
    m = as_mapping(alpha)
    if not (is_involution(m) and is_anti_homomorphism(m, s, s)):
        raise NotAnInvolutionError(f"{cycle_string(m)} is not an involution of this semigroup")
    return not is_homomorphism(m, s, s)


def find_isomorphism(
    s: FiniteSemigroup, t: FiniteSemigroup, *, budget: int | None = None
) -> tuple[int, ...] | None:
    """One isomorphism S -> T as a mapping tuple, or None if there is none."""
    maps = enumerate_isomorphism_mappings(s, t, budget=budget, limit=1)
    return maps[0] if maps else None


def find_anti_isomorphism(
    s: FiniteSemigroup, t: FiniteSemigroup, *, budget: int | None = None
) -> tuple[int, ...] | None:
    return find_isomorphism(s, t.dual(), budget=budget)
