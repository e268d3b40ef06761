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

from .errors import OrderBudgetExceededError
from .perms import Permutation, compose, cycle_string
from .semigroups import FiniteSemigroup, TABLE_CAP, validate


def cyclic_group(n: int) -> FiniteSemigroup:
    """Z_n, the additive group of integers modulo n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return validate(
        [[(i + j) % n for j in range(n)] for i in range(n)],
        names=[str(i) for i in range(n)],
    )


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


def _cayley_table(elems, mult, names) -> FiniteSemigroup:
    """The table of ``mult`` on ``elems``, element i being ``elems[i]``."""
    index = {x: i for i, x in enumerate(elems)}
    try:
        table = [[index[mult(a, b)] for b in elems] for a in elems]
    except KeyError:
        raise AssertionError("the elements are not closed under the product") from None
    return validate(table, names=names)


def sym_group_table(n: int) -> FiniteSemigroup:
    """Sym(n) as a Cayley table over the lexicographically sorted permutations."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 7:
        raise OrderBudgetExceededError(5040)
    elems = sorted(permutations(range(n)))
    return _cayley_table(elems, compose, [cycle_string(p) for p in elems])


def full_transformation_monoid(n: int) -> FiniteSemigroup:
    """T_n: all maps on n points under composition (right factor acts first)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 4:
        raise OrderBudgetExceededError(4**4)
    elems = list(product(range(n), repeat=n))
    return _cayley_table(elems, compose, ["[" + " ".join(map(str, f)) + "]" for f in elems])


def symmetric_inverse_monoid(n: int) -> FiniteSemigroup:
    """I_n: all partial bijections on n points."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 4:
        raise OrderBudgetExceededError(TABLE_CAP)
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                elems.append((dom, img))
    elems.sort()

    def compose_partial(f, g):
        # (f o g)(x) = f(g(x)) wherever defined
        fdom, fimg = f
        gdom, gimg = g
        fmap = dict(zip(fdom, fimg))
        pairs = [
            (x, fmap[y])
            for x, y in zip(gdom, gimg)
            if y in fmap
        ]
        dom = tuple(x for x, _ in pairs)
        img = tuple(y for _, y in pairs)
        return dom, img

    names = [
        "{" + ", ".join(f"{x}>{y}" for x, y in zip(dom, img)) + "}"
        for dom, img in elems
    ]
    return _cayley_table(elems, compose_partial, names)


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


def partition_monoid(n: int) -> FiniteSemigroup:
    """P_n: all partitions of the 2n points, under diagram stacking."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 3:
        raise OrderBudgetExceededError(TABLE_CAP)
    elems = sorted(_all_rgs(2 * n))
    return _cayley_table(
        elems, lambda p, q: compose_partitions(p, q, n), [_partition_name(p, n) for p in elems]
    )


def star_map(n: int) -> Permutation:
    """The permutation of P_n induced by the * (vertical flip) involution."""
    elems = sorted(_all_rgs(2 * n))
    index = {p: i for i, p in enumerate(elems)}
    return Permutation(index[flip_partition(p, n)] for p in elems)


def dual_symmetric_inverse_monoid(n: int) -> FiniteSemigroup:
    """I*_n: block bijections, realized inside the partition monoid as the
    partitions whose every block meets both rows."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 3:
        raise OrderBudgetExceededError(TABLE_CAP)

    def both_rows(p):
        tops = {b for v, b in enumerate(p) if v < n}
        bots = {b for v, b in enumerate(p) if v >= n}
        return tops == bots == set(p)

    elems = sorted(p for p in _all_rgs(2 * n) if both_rows(p))
    return _cayley_table(
        elems, lambda p, q: compose_partitions(p, q, n), [_partition_name(p, n) for p in elems]
    )


def rectangular_band(p: int, q: int) -> FiniteSemigroup:
    """X x Y with (x1,y1)(x2,y2) = (x1,y2); row-major element order."""
    if p < 1 or q < 1:
        raise ValueError("both sides must be at least 1")
    table = [
        [(i // q) * q + (j % q) for j in range(p * q)]
        for i in range(p * q)
    ]
    names = [f"({i // q},{i % q})" for i in range(p * q)]
    return validate(table, names=names)


def zero_semigroup(k: int) -> FiniteSemigroup:
    """X u {0} with every product equal to 0; the zero is the last element."""
    if k < 1:
        raise ValueError("need at least one non-zero element")
    size = k + 1
    table = [[k] * size for _ in range(size)]
    names = [f"x{i}" for i in range(k)] + ["0"]
    return validate(table, names=names)


def doubled_semigroup(s: FiniteSemigroup) -> FiniteSemigroup:
    """S u S* u {0}: S keeps its product, the starred copy multiplies
    dually (s* t* = (ts)*), and everything else is 0.

    The closed-form descriptions of its automorphisms and involutions
    assume S has no anti-automorphisms; the construction itself is valid
    regardless.
    """
    n = s.n
    zero = 2 * n
    size = 2 * n + 1
    table = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = s.table[i][j]
            table[n + i][n + j] = n + s.table[j][i]
    names = None
    if s.names is not None:
        names = list(s.names) + [f"{x}*" for x in s.names] + ["0"]
    else:
        names = [str(i) for i in range(n)] + [f"{i}*" for i in range(n)] + ["0"]
    return validate(table, names=names)


def direct_product_table(s: FiniteSemigroup, t: FiniteSemigroup) -> FiniteSemigroup:
    """Componentwise product on pairs, indexed by i*|T| + j."""
    if s.n * t.n > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    nt = t.n
    table = [
        [s.table[a // nt][b // nt] * nt + t.table[a % nt][b % nt]
         for b in range(s.n * nt)]
        for a in range(s.n * nt)
    ]
    names = [f"({s.name_of(a // nt)},{t.name_of(a % nt)})" for a in range(s.n * nt)]
    return validate(table, names=names)


def dihedral_group(k: int) -> FiniteSemigroup:
    """The dihedral group of order 2k (rotations first, then reflections)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    size = 2 * k

    def mult(a, b):
        ia, ja = a % k, a // k
        ib, jb = b % k, b // k
        i = (ia + ib) % k if ja == 0 else (ia - ib) % k
        return i + k * (ja ^ jb)

    table = [[mult(a, b) for b in range(size)] for a in range(size)]
    return validate(table)


def quaternion_group() -> FiniteSemigroup:
    """Q_8 with elements 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def neg(s):
        return s[1:] if s.startswith("-") else "-" + s

    base = {
        ("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        ("1", "i"): "i", ("i", "1"): "i",
        ("1", "j"): "j", ("j", "1"): "j",
        ("1", "k"): "k", ("k", "1"): "k",
    }

    def mult(a, b):
        sign = 0
        if a.startswith("-"):
            sign ^= 1
            a = a[1:]
        if b.startswith("-"):
            sign ^= 1
            b = b[1:]
        out = base[(a, b)]
        return neg(out) if sign else out

    return _cayley_table(names, mult, names)


def elementary_abelian_two_group(k: int) -> FiniteSemigroup:
    """Z_2^k; element i is the bit vector of i, product is xor."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if 2**k > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    size = 2**k
    return validate([[i ^ j for j in range(size)] for i in range(size)])


def alternating_group_table(n: int) -> FiniteSemigroup:
    """Alt(n) as a Cayley table (even permutations, lex sorted)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 6:
        raise OrderBudgetExceededError(360)
    elems = [p for p in sorted(permutations(range(n))) if Permutation(p).parity() == 0]
    return _cayley_table(elems, compose, [cycle_string(p) for p in elems])
