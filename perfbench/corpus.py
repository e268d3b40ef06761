"""Workload inputs for the benchmark, built without importing ``involute``.

Every table here is constructed from first principles, relabelled by a
seeded random permutation of its elements and written as a plain
``{"n", "table"}`` JSON file with no names.  The program under test sees
only those files.  Each isomorphism invariant the oracle checks is unchanged
by relabelling, so the expectations hold for every seed, while the seed
keeps the search from profiting from the builders' lexicographic order.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations, permutations, product
from pathlib import Path


# --- Cayley tables ---------------------------------------------------------

def _index_table(elems, mult):
    index = {e: i for i, e in enumerate(elems)}
    return [[index[mult(a, b)] for b in elems] for a in elems]


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def transformations(n):
    """T_n: all maps on n points; (fg)(x) = f(g(x))."""
    elems = list(product(range(n), repeat=n))
    return _index_table(elems, lambda f, g: tuple(f[g[x]] for x in range(n)))


def partial_bijections(n):
    """I_n: partial bijections as sorted (point, image) pairs; (fg)(x) = f(g(x))."""
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                elems.append(tuple(zip(dom, img)))

    def mult(f, g):
        fmap = dict(f)
        return tuple(sorted((x, fmap[y]) for x, y in g if y in fmap))

    return _index_table(elems, mult)


def _set_partitions(size):
    """Restricted-growth strings of length ``size`` (one per set partition)."""
    out = [()]
    for _ in range(size):
        out = [s + (v,) for s in out for v in range(max(s, default=-1) + 2)]
    return out


def _normalise(labels):
    seen = {}
    return tuple(seen.setdefault(v, len(seen)) for v in labels)


def partitions(n):
    """P_n: partitions of 2n points (top 0..n-1, bottom n..2n-1) under
    stacking: the bottom row of the left factor is glued to the top row of
    the right factor and the glued row is forgotten."""
    elems = _set_partitions(2 * n)

    def mult(p, q):
        parent = list(range(3 * n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        def join(points):
            first = {}
            for node, block in points:
                if block in first:
                    parent[find(node)] = find(first[block])
                else:
                    first[block] = node

        join((v, b) for v, b in enumerate(p))            # p: 0..2n-1
        join((v + n, b) for v, b in enumerate(q))        # q: n..3n-1
        return _normalise([find(v) for v in range(n)]
                          + [find(v) for v in range(2 * n, 3 * n)])

    return _index_table(elems, mult)


def doubled(t):
    """S u S* u {0}: S keeps its product, s*t* = (ts)*, everything else 0."""
    n = len(t)
    zero = 2 * n
    out = [[zero] * (2 * n + 1) for _ in range(2 * n + 1)]
    for i in range(n):
        for j in range(n):
            out[i][j] = t[i][j]
            out[n + i][n + j] = n + t[j][i]
    return out


def direct_product(s, t):
    m = len(t)
    size = len(s) * m
    return [[s[a // m][b // m] * m + t[a % m][b % m] for b in range(size)]
            for a in range(size)]


def symmetric(n):
    elems = sorted(permutations(range(n)))
    return _index_table(elems, lambda a, b: tuple(a[b[x]] for x in range(n)))


def alternating(n):
    def even(p):
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) % 2 == 0

    elems = [p for p in sorted(permutations(range(n))) if even(p)]
    return _index_table(elems, lambda a, b: tuple(a[b[x]] for x in range(n)))


def elementary_abelian(k):
    return [[i ^ j for j in range(2**k)] for i in range(2**k)]


def zero_semigroup(k):
    """k non-zero elements and a zero; every product is the zero."""
    return [[k] * (k + 1) for _ in range(k + 1)]


def rectangular_band(p, q):
    return [[(i // q) * q + (j % q) for j in range(p * q)] for i in range(p * q)]


def dihedral(k):
    """Rotations r^i (index i) and reflections s r^i (index k + i)."""
    def mult(a, b):
        i, fa = a % k, a // k
        j, fb = b % k, b // k
        return ((i - j) % k if fa else (i + j) % k) + k * (fa ^ fb)

    return [[mult(a, b) for b in range(2 * k)] for a in range(2 * k)]


# --- closed forms ----------------------------------------------------------

def phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def square_roots_of_one(n):
    return sum(1 for k in range(n) if (k * k) % n == 1 % n)


def gl2_order(k):
    """|GL(k, 2)| = |Aut(Z_2^k)|."""
    return math.prod(2**k - 2**i for i in range(k))


# --- workloads -------------------------------------------------------------

class Item:
    """One input table plus the closed forms its report must satisfy.

    ``expect`` maps a dotted path into the ``analyze --json`` report to the
    value the paper's closed form gives.
    """

    def __init__(self, key, build, expect=None):
        self.key = key
        self.build = build
        self.expect = expect or {}


def _z840():
    n = 840
    r = square_roots_of_one(n)
    return {"counts.automorphisms": phi(n), "groups.C.order": r,
            "counts.involutions": r - 1}


TABLES = [
    Item("Z_840", lambda: cyclic(840), _z840()),
    Item("T_4", lambda: transformations(4),
         {"counts.automorphisms": 24, "counts.antiAutomorphisms": 0, "groups.C.order": 1}),
    Item("P_3", lambda: partitions(3), {"groups.C.order": 2 * 6}),
    Item("I_4", lambda: partial_bijections(4), {"groups.C.order": 2 * 24}),
    Item("doubled_T_3", lambda: doubled(transformations(3)),
         {"counts.automorphisms": 6 * 6}),
    Item("Z_2xSym_4", lambda: direct_product(cyclic(2), symmetric(4))),
]

GROUPS = [
    Item("Sym_5", lambda: symmetric(5),
         {"counts.automorphisms": 120, "groups.C.order": 240,
          "identification.Z_2 x Sym(5)": True}),
    Item("Alt_5", lambda: alternating(5)),
    Item("Z_2^3", lambda: elementary_abelian(3), {"counts.automorphisms": gl2_order(3)}),
    Item("zero_5", lambda: zero_semigroup(5),
         {"counts.automorphisms": 120, "groups.C.order": 120}),
    Item("band_1x7", lambda: rectangular_band(1, 7),
         {"counts.automorphisms": 5040, "groups.G.order": 5040}),
    Item("D_12", lambda: dihedral(12), {"counts.automorphisms": 12 * phi(12)}),
    Item("band_3x3", lambda: rectangular_band(3, 3)),
]

#: The battery in its default order, stretch checks included.  Its inputs are
#: fixed inside the program; the seed does not reach them.
CHECKS = [
    "klein", "zn_sweep", "symmetric_groups", "sym6_stretch",
    "full_transformations", "t4_stretch", "inverse_monoids",
    "partition_monoids", "rectangular_bands", "doubled_semigroups",
    "frucht_graphs", "two_involution_factorization", "k_groups",
    "involution_split_laws", "trace_words", "engine_completeness",
]

def items_of(workload):
    """The tables a workload analyses; ``verify`` has none."""
    return {"tables": TABLES, "groups": GROUPS}.get(workload, [])


WHY = {
    "tables": "large tables with small groups: validate and the Aut search do ~85% of "
              "the work, closures and identification almost none",
    "groups": "tiny tables with large groups: closure, group fingerprints and "
              "identification do ~90% of the work, validate and search almost none",
    "verify": "the paper's acceptance battery with stretch: hundreds of small tables, "
              "cache hits between checks, one long Sym(6) search",
}


# --- relabelling and files --------------------------------------------------

def relabel(table, rng):
    """The isomorphic table under a random bijection sigma of the elements:
    sigma(x)sigma(y) = sigma(xy)."""
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    inv = [0] * n
    for x, y in enumerate(sigma):
        inv[y] = x
    return [[sigma[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def write_inputs(items, bases, directory: Path, seed: int, pass_index: int):
    """Relabel every item's table (``bases[item.key]``) for (seed, pass_index)
    and write it under ``directory``; returns [(item, path, table)]."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, item in enumerate(items):
        rng = random.Random(f"{seed}:{pass_index}:{item.key}")
        table = relabel(bases[item.key], rng)
        path = directory / f"in_{i:02d}.json"
        with open(path, "w") as fh:
            json.dump({"n": len(table), "table": table}, fh, separators=(",", ":"))
            fh.write("\n")
        out.append((item, path, table))
    return out
