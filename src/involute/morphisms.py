"""Backtracking enumeration of bijective (anti-)morphisms between Cayley tables.

The engine enumerates isomorphisms S -> T by branching over the images of a
generating set of S, restricted to fingerprint-compatible targets, and
extending every partial assignment by product saturation.  An
anti-isomorphism S -> T is an isomorphism S -> dual(T), so the same engine
serves both directions; the documented R/L and left/right fingerprint swap
falls out of computing fingerprints on the dual table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeMismatchError,
    NotAnInvolutionError,
    SearchBudgetExceededError,
)
from .perms import Permutation, compose
from .semigroups import FiniteSemigroup, generating_set

#: Default cap on nodes for one search (configurable per call).
DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class MorphismSet:
    """A sorted tuple of (anti-)automorphisms; a class, not a bare tuple, so
    that callers can hold weak references to the cached sets."""

    elements: tuple[Permutation, ...]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, perm):
        return perm in self.elements


def _as_mapping(alpha) -> tuple[int, ...]:
    return alpha.mapping if isinstance(alpha, Permutation) else tuple(alpha)


def _preserves_products(alpha, s: FiniteSemigroup, t: FiniteSemigroup, anti: bool) -> bool:
    m = _as_mapping(alpha)
    if len(m) != s.n or s.n != t.n:
        raise DegreeMismatchError(
            f"degree {len(m)} against tables of sizes {s.n} and {t.n}"
        )
    p = np.asarray(m, dtype=np.int32)
    # broadcasting yields rhs[x, y] = t[alpha(x), alpha(y)], or t[alpha(y), alpha(x)] if anti
    rows, cols = (p[None, :], p[:, None]) if anti else (p[:, None], p[None, :])
    return bool((p[s.np_table] == t.np_table[rows, cols]).all())


def is_homomorphism(alpha, s: FiniteSemigroup, t: FiniteSemigroup) -> bool:
    """True iff alpha(xy) = alpha(x)alpha(y) on all pairs."""
    return _preserves_products(alpha, s, t, anti=False)


def is_anti_homomorphism(alpha, s: FiniteSemigroup, t: FiniteSemigroup) -> bool:
    """True iff alpha(xy) = alpha(y)alpha(x) on all pairs."""
    return _preserves_products(alpha, s, t, anti=True)


def _fingerprint_ids(s: FiniteSemigroup, t: FiniteSemigroup):
    """Shared class ids for the two fingerprint lists, or None if the
    multisets differ (then no isomorphism exists)."""
    fps, fpt = s.fingerprints, t.fingerprints
    if Counter(fps) != Counter(fpt):
        return None
    ids: dict = {}
    sid = [ids.setdefault(fp, len(ids)) for fp in fps]
    tid = [ids[fp] for fp in fpt]
    return sid, tid


def _generator_certificate(s: FiniteSemigroup, t: FiniteSemigroup, gens, anti: bool):
    """A test that a map f: S -> T preserves products, in O(n |gens|).

    The returned function checks f(x*g) = f(x)*f(g) (anti: f(g)*f(x)) for
    every x in S and every g in ``gens``; the index arrays are built once
    here, not once per map.  When ``gens`` generates S this is equivalent to
    the n^2 defining equations.  Proof, by induction on the length of y as a
    product of generators: y = g is the certificate itself, and for y = y'g
    f(x*y'g) = f(x*y')f(g) = f(x)f(y')f(g) = f(x)f(y'g),
    by the certificate at x*y', the induction hypothesis and the certificate
    at y'.  In anti form f(x*y'g) = f(g)f(x*y') = f(g)f(y')f(x) = f(y'g)f(x)
    in the same way.  Only associativity of S and T is used.
    """
    g_idx = np.asarray(gens, dtype=np.intp)
    xg = s.np_table[:, g_idx]       # [x, i] -> x * gens[i]
    tt = t.np_table

    def holds(mapping) -> bool:
        f = np.asarray(mapping, dtype=np.intp)
        fx, fg = f[:, None], f[g_idx]
        rhs = tt[fg, fx] if anti else tt[fx, fg]
        return bool((f[xg] == rhs).all())

    return holds


def _search_isomorphisms(s, t, gens, cand, sid, tid, budget, limit):
    """Core backtracking loop; returns mapping tuples, lexicographically sorted.

    Every partial assignment is saturated by products with the placed
    generators on both sides, so each branch dies at its first
    inconsistency.  A completed map therefore already satisfies
    f(x*g) = f(x)*f(g) for every x and every generator g, which by
    :func:`_generator_certificate` implies f(xy) = f(x)f(y) for all x, y;
    that O(n |gens|) certificate, not the n^2 equations, is re-checked on
    each solution.

    ``budget`` caps the nodes: one per generator image tried (each ``place``
    call, so a branch that dies on its first assignment still costs one)
    plus one per element dequeued while saturating.
    """
    n = s.n
    tab_s, tab_t = s.table, t.table
    certified = _generator_certificate(s, t, gens, anti=False)
    image = [-1] * n
    preim = [-1] * n
    known: list[int] = []
    placed: list[tuple[int, int]] = []
    results: list[tuple[int, ...]] = []
    steps = 0

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
            raise SearchBudgetExceededError(budget)
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
                raise SearchBudgetExceededError(budget)
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
    results.sort()
    return results


def enumerate_isomorphism_mappings(
    s: FiniteSemigroup,
    t: FiniteSemigroup,
    *,
    budget: int | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All isomorphisms S -> T as mapping tuples (or the first ``limit``)."""
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    if s.n != t.n:
        return []
    pair = _fingerprint_ids(s, t)
    if pair is None:
        return []
    sid, tid = pair
    by_class: dict[int, list[int]] = {}
    for y, c in enumerate(tid):
        by_class.setdefault(c, []).append(y)
    gens = generating_set(s)
    cand = [by_class.get(sid[g], []) for g in gens]
    # most-constrained generator first
    order = sorted(range(len(gens)), key=lambda i: (len(cand[i]), gens[i]))
    gens = [gens[i] for i in order]
    cand = [cand[i] for i in order]
    return _search_isomorphisms(s, t, gens, cand, sid, tid, budget, limit)


def _memo(s: FiniteSemigroup, key: str, build):
    """``build()``, computed once per instance and kept in ``s.search_cache``.

    The key is what was searched for, not the budget: a budget bounds the
    search work actually done, and a cache hit does none.  A search that
    exceeds its budget raises before anything is stored.
    """
    if key not in s.search_cache:
        s.search_cache[key] = build()
    return s.search_cache[key]


def enumerate_automorphisms(s: FiniteSemigroup, *, budget: int | None = None) -> MorphismSet:
    """The complete automorphism group of S, canonically sorted."""

    def build():
        maps = enumerate_isomorphism_mappings(s, s, budget=budget)
        return MorphismSet(tuple(Permutation(m) for m in maps))

    return _memo(s, "aut", build)


def enumerate_anti_automorphisms(s: FiniteSemigroup, *, budget: int | None = None) -> MorphismSet:
    """The complete set of anti-automorphisms of S.

    On a commutative S this is Aut(S) itself.  Otherwise one
    anti-automorphism beta is found by searching for an isomorphism onto the
    dual table, and the rest are produced as {alpha o beta}; each composite
    is re-verified by the anti form of :func:`_generator_certificate` over
    a generating set of S.
    """

    def build():
        if s.is_commutative:
            auts = enumerate_automorphisms(s, budget=budget)
            return MorphismSet(auts.elements)
        first = enumerate_isomorphism_mappings(s, s.dual(), budget=budget, limit=1)
        if not first:
            return MorphismSet(())
        beta = first[0]
        auts = enumerate_automorphisms(s, budget=budget)
        composed = sorted(compose(a.mapping, beta) for a in auts)
        anti_certified = _generator_certificate(s, s, generating_set(s), anti=True)
        for m in composed:
            if not anti_certified(m):
                raise AssertionError("composition trick produced a non-anti-morphism")
        return MorphismSet(tuple(Permutation(m) for m in composed))

    return _memo(s, "anti", build)


def involutions(s: FiniteSemigroup, *, budget: int | None = None) -> MorphismSet:
    """Anti-automorphisms of order exactly 2 (the identity never counts)."""
    anti = enumerate_anti_automorphisms(s, budget=budget)
    return MorphismSet(tuple(a for a in anti if a.is_involution()))


def order_two_automorphisms(s: FiniteSemigroup, *, budget: int | None = None) -> MorphismSet:
    """Automorphisms alpha with alpha^2 = 1, identity included."""
    auts = enumerate_automorphisms(s, budget=budget)
    return MorphismSet(tuple(a for a in auts if a.is_identity() or a.is_involution()))


def is_proper_involution(alpha, s: FiniteSemigroup) -> bool:
    """True iff the involution alpha is not also a homomorphism.

    Raises :class:`NotAnInvolutionError` unless alpha really is an
    involution of S.
    """
    m = _as_mapping(alpha)
    p = Permutation(m)
    if not (p.is_involution() and is_anti_homomorphism(p, s, s)):
        raise NotAnInvolutionError(f"{p!r} is not an involution of this semigroup")
    return not is_homomorphism(p, s, s)


def find_isomorphism(
    s: FiniteSemigroup, t: FiniteSemigroup, *, budget: int | None = None
) -> Permutation | None:
    maps = enumerate_isomorphism_mappings(s, t, budget=budget, limit=1)
    return Permutation(maps[0]) if maps else None


def find_anti_isomorphism(
    s: FiniteSemigroup, t: FiniteSemigroup, *, budget: int | None = None
) -> Permutation | None:
    maps = enumerate_isomorphism_mappings(s, t.dual(), budget=budget, limit=1)
    return Permutation(maps[0]) if maps else None
