"""Builders for every finite semigroup family analyzed here, plus the small
comparison groups used for identification.

Element orderings are fixed and documented per family so tables and reports
are reproducible:

* transformations: lexicographic on image tuples;
* partial bijections: lexicographic on (sorted domain tuple, image tuple);
* partitions: lexicographic on the restricted-growth labelling of the 2n
  points, top row 0..n-1 first, bottom row n..2n-1 after it;
* doubled semigroups: the elements of S, then the starred copies, then 0.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial
from operator import xor

from .errors import OrderBudgetExceededError
from .perms import compose, cycle_string, parity
from .semigroups import FiniteSemigroup, TABLE_CAP, cayley_table


def _refuse_past_cap(n: int, order) -> None:
    """Refuse member n of a family, before any element is listed, if its
    order, ``order(n)``, is past :data:`TABLE_CAP`.  ``order`` increases
    with n, so it is evaluated from 1 up only until the first size past the
    cap, however large n is."""
    if any(order(k) > TABLE_CAP for k in range(1, n + 1)):
        raise OrderBudgetExceededError(TABLE_CAP)


def _bell(m: int) -> int:
    """The number of partitions of m points: B(i+1) = sum_k C(i, k) B(k)."""
    b = [1]
    for i in range(m):
        b.append(sum(comb(i, k) * b[k] for k in range(i + 1)))
    return b[m]


def cyclic_group(n: int) -> FiniteSemigroup:
    """Z_n, the additive group of integers modulo n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return cayley_table(range(n), lambda i, j: (i + j) % n, map(str, range(n)))


def r_of_n(n: int) -> int:
    """The exponent R(n) with 2^R(n) solutions of k^2 = 1 in Z_n.

    For n = 2^m * p1^m1 * ... * pr^mr with odd primes p_i:
    R = r when m <= 1, r + 1 when m = 2, and r + 2 when m >= 3.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    m = 0
    while n % 2 == 0:
        n //= 2
        m += 1
    r = 0
    p = 3
    while p * p <= n:
        if n % p == 0:
            r += 1
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        r += 1
    return r + (0 if m <= 1 else 1 if m == 2 else 2)


def klein_four() -> FiniteSemigroup:
    """Z_2 x Z_2."""
    return direct_product_table(cyclic_group(2), cyclic_group(2))


def sym_group_table(n: int) -> FiniteSemigroup:
    """Sym(n) as a Cayley table over the lexicographically sorted permutations."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_past_cap(n, factorial)
    elems = sorted(permutations(range(n)))
    return cayley_table(elems, compose, [cycle_string(p) for p in elems])


def full_transformation_monoid(n: int) -> FiniteSemigroup:
    """T_n: all maps on n points under composition (right factor acts first)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_past_cap(n, lambda k: k**k)
    elems = list(product(range(n), repeat=n))
    return cayley_table(elems, compose, ["[" + " ".join(map(str, f)) + "]" for f in elems])


def symmetric_inverse_monoid(n: int) -> FiniteSemigroup:
    """I_n: all partial bijections on n points."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_past_cap(n, lambda k: sum(comb(k, j) ** 2 * factorial(j) for j in range(k + 1)))
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                elems.append((dom, img))
    elems.sort()

    def compose_partial(f, g):
        # (f o g)(x) = f(g(x)) wherever defined
        fmap = dict(zip(*f))
        pairs = [(x, fmap[y]) for x, y in zip(*g) if y in fmap]
        return tuple(x for x, _ in pairs), tuple(y for _, y in pairs)

    names = [
        "{" + ", ".join(f"{x}>{y}" for x, y in zip(dom, img)) + "}"
        for dom, img in elems
    ]
    return cayley_table(elems, compose_partial, names)


# ---------------------------------------------------------------------------
# partitions of {0..n-1} u {0'..n-1'}; point i' is encoded as n + i.
# An element is the restricted-growth labelling of its blocks.

def _rgs_canonical(labels) -> tuple:
    relabel: dict = {}
    out = []
    for v in labels:
        out.append(relabel.setdefault(v, len(relabel)))
    return tuple(out)


def _all_rgs(size: int):
    def rec(prefix, top):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from rec(prefix, max(top, v))
            prefix.pop()

    yield from rec([], -1)


def compose_partitions(p: tuple, q: tuple, n: int) -> tuple:
    """Diagram product p*q: q is stacked on top of p, so that partial maps
    compose with the right factor acting first.  Union-find over three
    layers; the shared middle layer is discarded."""
    parent = list(range(3 * n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    # q occupies layers A (result top: 0..n-1) and M (n..2n-1)
    first: dict = {}
    for v, b in enumerate(q):
        if b in first:
            union(v, first[b])
        else:
            first[b] = v
    # p occupies layers M and B (result bottom: 2n..3n-1)
    first = {}
    for v, b in enumerate(p):
        node = v + n
        if b in first:
            union(node, first[b])
        else:
            first[b] = node
    labels = [find(v) for v in range(n)] + [find(v + 2 * n) for v in range(n)]
    return _rgs_canonical(labels)


def flip_partition(p: tuple, n: int) -> tuple:
    """The * involution: swap the top and bottom rows."""
    return _rgs_canonical(p[n:] + p[:n])


def _partition_name(p: tuple, n: int) -> str:
    blocks: dict = {}
    for v, b in enumerate(p):
        blocks.setdefault(b, []).append(v)
    def point(v):
        return str(v) if v < n else f"{v - n}'"
    return "".join(
        "{" + ",".join(point(v) for v in blk) + "}" for blk in blocks.values()
    )


def _partitions(n: int) -> list[tuple]:
    """The partitions of the 2n points in element order.  There are
    Bell(2n); past the cap they are refused before any is listed (P_4 has
    4140)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_past_cap(n, lambda k: _bell(2 * k))
    return sorted(_all_rgs(2 * n))


def partition_monoid(n: int) -> FiniteSemigroup:
    """P_n: all partitions of the 2n points, under diagram stacking."""
    elems = _partitions(n)
    return cayley_table(
        elems, lambda p, q: compose_partitions(p, q, n), [_partition_name(p, n) for p in elems]
    )


def star_map(n: int) -> tuple[int, ...]:
    """The mapping tuple on P_n of the * (vertical flip) involution; n is
    refused as by :func:`partition_monoid`."""
    elems = _partitions(n)
    index = {p: i for i, p in enumerate(elems)}
    return tuple(index[flip_partition(p, n)] for p in elems)


def dual_symmetric_inverse_monoid(n: int) -> FiniteSemigroup:
    """I*_n: block bijections, realized inside the partition monoid as the
    partitions whose every block meets both rows."""

    def both_rows(p):
        tops = {b for v, b in enumerate(p) if v < n}
        bots = {b for v, b in enumerate(p) if v >= n}
        return tops == bots == set(p)

    elems = [p for p in _partitions(n) if both_rows(p)]
    return cayley_table(
        elems, lambda p, q: compose_partitions(p, q, n), [_partition_name(p, n) for p in elems]
    )


def rectangular_band(p: int, q: int) -> FiniteSemigroup:
    """X x Y with (x1,y1)(x2,y2) = (x1,y2); row-major element order."""
    if p < 1 or q < 1:
        raise ValueError("both sides must be at least 1")
    names = (f"({i // q},{i % q})" for i in range(p * q))
    return cayley_table(range(p * q), lambda i, j: (i // q) * q + j % q, names)


def zero_semigroup(k: int) -> FiniteSemigroup:
    """X u {0} with every product equal to 0; the zero is the last element."""
    if k < 1:
        raise ValueError("need at least one non-zero element")
    names = (f"x{i}" if i < k else "0" for i in range(k + 1))
    return cayley_table(range(k + 1), lambda i, j: k, names)


def doubled_semigroup(s: FiniteSemigroup) -> FiniteSemigroup:
    """S u S* u {0}: S keeps its product, the starred copy multiplies
    dually (s* t* = (ts)*), and everything else is 0.

    The closed-form descriptions of its automorphisms and involutions
    assume S has no anti-automorphisms; the construction itself is valid
    regardless.
    """
    n, t = s.n, s.table

    def mult(i, j):
        if i < n and j < n:
            return t[i][j]
        if n <= i < 2 * n and n <= j < 2 * n:
            return n + t[j - n][i - n]
        return 2 * n

    names = [s.name_of(x) for x in range(n)]
    return cayley_table(range(2 * n + 1), mult, names + [f"{x}*" for x in names] + ["0"])


def direct_product_table(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product on pairs, indexed by i*|T| + j."""
    nt, elems = t.n, range(s.n * t.n)
    return cayley_table(
        elems,
        lambda a, b: s.table[a // nt][b // nt] * nt + t.table[a % nt][b % nt],
        (f"({s.name_of(a // nt)},{t.name_of(a % nt)})" for a in elems),
    )


def dihedral_group(k: int) -> FiniteSemigroup:
    """The dihedral group of order 2k (rotations first, then reflections)."""
    if k < 1:
        raise ValueError("k must be at least 1")

    def mult(a, b):
        ia, ja = a % k, a // k
        ib, jb = b % k, b // k
        i = (ia + ib) % k if ja == 0 else (ia - ib) % k
        return i + k * (ja ^ jb)

    return cayley_table(range(2 * k), mult)


def quaternion_group() -> FiniteSemigroup:
    """Q_8 with elements 1, -1, i, -i, j, -j, k, -k."""

    def mult(a, b):
        # element 2u + s is the unit "1ijk"[u] with the sign (-1)^s
        (u, s), (v, t) = divmod(a, 2), divmod(b, 2)
        if u == 0 or v == 0:
            return 2 * (u + v) + (s ^ t)
        if u == v:
            return 1 ^ s ^ t
        # ij = k, jk = i, ki = j, and the reverse orders negate
        return 2 * (6 - u - v) + (s ^ t ^ ((v - u) % 3 == 2))

    return cayley_table(range(8), mult, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def elementary_abelian_two_group(k: int) -> FiniteSemigroup:
    """Z_2^k; element i is the bit vector of i, product is xor."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _refuse_past_cap(k, lambda j: 2**j)
    return cayley_table(range(2**k), xor)


def alternating_group_table(n: int) -> FiniteSemigroup:
    """Alt(n) as a Cayley table (even permutations, lex sorted)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _refuse_past_cap(n, lambda k: factorial(k) // 2)
    elems = [p for p in sorted(permutations(range(n))) if parity(p) == 0]
    return cayley_table(elems, compose, [cycle_string(p) for p in elems])
