"""Finite semigroups presented by Cayley tables.

Elements are the dense indices 0..n-1; ``table[i][j]`` is the product i*j.
Optional names are display-only metadata.  A table does not change after
construction; what is derived from it is cached on the instance.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InputFormatError,
    NotAssociativeError,
    OrderBudgetExceededError,
)

#: Largest table accepted for full analysis (P_3 has 203 elements, T_4 has 256).
TABLE_CAP = 1024

#: Default cap on the order of a materialized group or morphism list.
DEFAULT_ORDER_BUDGET = 10**6


class FiniteSemigroup:
    """A semigroup on {0..n-1}; build instances through :func:`validate`."""

    def __init__(self, table, names=None, identity=None, _checked=False):
        if not _checked:
            other = validate(table, names=names)
            table, names, identity = other.table, other.names, other.identity
        self.table = table
        self.n = len(table)
        self.names = names
        self.identity = identity
        #: results of searches on this table, filled by :mod:`involute.morphisms`
        self.search_cache: dict = {}

    @cached_property
    def np_table(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int32)

    @cached_property
    def is_commutative(self) -> bool:
        a = self.np_table
        return bool((a == a.T).all())

    @cached_property
    def green(self) -> "GreenStructure":
        return green_relations(self)

    @cached_property
    def fingerprints(self) -> tuple["ElementFingerprint", ...]:
        return _compute_fingerprints(self)

    def product(self, i: int, j: int) -> int:
        return self.table[i][j]

    def dual(self) -> "FiniteSemigroup":
        """The opposite semigroup: the transposed table, a new instance."""
        return FiniteSemigroup(tuple(zip(*self.table)), self.names, self.identity, _checked=True)

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)

    def __len__(self) -> int:
        return self.n

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n}, identity={self.identity})"


_SEQUENCES = (list, tuple)


def validate(table, names=None) -> FiniteSemigroup:
    """Check a square index table for associativity and wrap it.

    The table must be a list (or tuple) of rows of plain integers; floats,
    booleans and strings raise :class:`InputFormatError`, entries outside
    0..n-1 raise :class:`IndexOutOfRangeError`.  ``names``, if given, must
    be a list of n strings.  Detects and records an identity element if one
    exists.

    Associativity is checked by Light's test in O(n^2 |A|) rather than
    O(n^3): ``A`` is a set whose right closure (close A under x -> x*a for
    a in A, as in :func:`closure_of_subset`) is all of the table.  That
    closure is plain table lookups, so it is sound before associativity is
    known.  Then (x*a)*y = x*(a*y) is checked for every a in A and all x, y.
    Proof that this suffices: let B = {b : (xb)y = x(by) for all x, y}.  If
    b, c are in B then for all x, y
    (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y),
    using b, c, b and c in B in turn, so B is closed under the product.
    B contains A, hence every product of elements of A however bracketed,
    in particular every element of the right closure of A, which is the
    whole table.  So B is everything and the table is associative.  On
    failure :class:`NotAssociativeError` carries a genuine witness (x, a, y).
    """
    if not isinstance(table, _SEQUENCES) or not all(
        isinstance(row, _SEQUENCES) for row in table
    ):
        raise InputFormatError("table must be a list of rows")
    rows = tuple(map(tuple, table))
    n = len(rows)
    if n == 0:
        raise InputFormatError("empty table")
    if any(len(row) != n for row in rows):
        raise InputFormatError("table is not square")
    if n > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    # type() rather than isinstance(): bool is a subclass of int
    kinds = set().union(*(map(type, row) for row in rows))
    if kinds != {int}:
        bad = sorted(k.__name__ for k in kinds - {int})
        raise InputFormatError(f"table entries must be integers, not {', '.join(bad)}")
    try:
        arr = np.asarray(rows, dtype=np.int64)
        in_range = arr.min() >= 0 and arr.max() < n
    except OverflowError:
        in_range = False
    if not in_range:
        raise IndexOutOfRangeError(f"table entries must lie in 0..{n - 1}")
    arr = arr.astype(np.int32)
    for a in _right_generators(rows, _spread_order(arr)):
        # [x, y] -> (x*a)*y against x*(a*y), in one expression so that
        # neither n x n side outlives the comparison
        bad = arr[arr[:, a]] != arr[:, arr[a]]
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            raise NotAssociativeError(x, a, y)
    if names is not None:
        if not isinstance(names, _SEQUENCES):
            raise InputFormatError("names must be a list")
        names = tuple(names)
        if not all(type(s) is str for s in names):
            raise InputFormatError("names must be strings")
        if len(names) != n:
            raise InputFormatError("names list length differs from table size")
    ident = np.arange(n, dtype=np.int32)
    hits = np.flatnonzero((arr == ident).all(axis=1) & (arr.T == ident).all(axis=1))
    identity = int(hits[0]) if hits.size else None
    return FiniteSemigroup(rows, names=names, identity=identity, _checked=True)


def _spread_order(arr) -> list[int]:
    """The elements, most distinct row plus column entries first, then by index."""
    n = len(arr)
    idx = np.arange(n)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[idx[:, None], arr] = True        # in_row[x, v]: v occurs in row x
    in_col = np.zeros((n, n), dtype=bool)
    in_col[arr, idx] = True                 # in_col[v, y]: v occurs in column y
    spread = (in_row.sum(axis=1) + in_col.sum(axis=0)).tolist()
    return sorted(range(n), key=lambda x: (-spread[x], x))


def _right_generators(rows, order) -> Iterator[int]:
    """Yield, one at a time, a set A whose right closure under x -> x*a
    (a in A) is every element.

    Chosen greedily: the next element of ``order`` outside the right
    closure of those taken so far, until that closure is everything.  Only
    table lookups are used, so this holds for any magma and serves
    :func:`validate` before associativity is known.  Each member is yielded
    before the closure is extended by it, so a failing table stops at its
    first bad generator.
    """
    n = len(rows)
    gens: list[int] = []
    have: set = set()
    for x in order:
        if x in have:
            continue
        yield x
        gens.append(x)
        have = close_under(gens, gens, lambda u, g: rows[u][g])
        if len(have) == n:
            return


def atoms(s: FiniteSemigroup) -> frozenset[int]:
    """Elements with no factorization into non-identity elements.

    When an identity exists it neither counts as a factor nor as an atom
    (it factors as 1*1); without an identity every factorization counts.
    """
    e = s.identity
    factors = [x for x in range(s.n) if x != e]
    products = {s.table[b][c] for b in factors for c in factors}
    out = set(range(s.n)) - products
    if e is not None:
        out.discard(e)
    return frozenset(out)


@dataclass(frozen=True)
class GreenStructure:
    """The five Green partitions, each a tuple of disjoint frozensets."""

    r_classes: tuple
    l_classes: tuple
    h_classes: tuple
    d_classes: tuple
    j_classes: tuple


def _canonical_partition(class_of: dict) -> tuple:
    groups: dict = {}
    for x, key in class_of.items():
        groups.setdefault(key, []).append(x)
    return tuple(sorted((frozenset(g) for g in groups.values()), key=min))


def green_relations(s: FiniteSemigroup) -> GreenStructure:
    """Green's relations from principal-ideal equalities.

    The identity of S^1 is adjoined virtually: each ideal mask always
    contains the element itself.  On a finite semigroup the computed D and J
    partitions must agree, which is asserted here.
    """
    n, t = s.n, s.table
    rmask = [0] * n
    lmask = [0] * n
    for x in range(n):
        m = 1 << x
        row = t[x]
        for j in range(n):
            m |= 1 << row[j]
        rmask[x] = m
    for y in range(n):
        m = 1 << y
        for i in range(n):
            m |= 1 << t[i][y]
        lmask[y] = m

    jcache: dict = {}
    jmask = [0] * n
    for x in range(n):
        lm = lmask[x]
        got = jcache.get(lm)
        if got is None:
            m = 0
            probe = lm
            while probe:
                low = probe & -probe
                m |= rmask[low.bit_length() - 1]
                probe ^= low
            jcache[lm] = got = m
        jmask[x] = got

    r_part = _canonical_partition({x: rmask[x] for x in range(n)})
    l_part = _canonical_partition({x: lmask[x] for x in range(n)})
    h_part = _canonical_partition({x: (rmask[x], lmask[x]) for x in range(n)})
    j_part = _canonical_partition({x: jmask[x] for x in range(n)})

    # D = R v L via union-find over the two partitions
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for part in (r_part, l_part):
        for cls in part:
            it = iter(cls)
            root = find(next(it))
            for other in it:
                parent[find(other)] = root
    d_part = _canonical_partition({x: find(x) for x in range(n)})
    assert d_part == j_part, "D != J on a finite semigroup: computation bug"
    return GreenStructure(r_part, l_part, h_part, d_part, j_part)


@dataclass(frozen=True)
class ElementFingerprint:
    """Cheap isomorphism invariants of a single element.

    The translation ranks count where x can move: right_mult_rank = |xS|
    (distinct entries in x's row), left_mult_rank = |Sx| (x's column).
    Every isomorphism preserves all fields; an anti-isomorphism preserves
    them after :meth:`swapped` (R and L classes trade places, as do the two
    translation ranks).
    """

    is_idempotent: bool
    index: int
    period: int
    r_class_size: int
    l_class_size: int
    d_class_size: int
    left_mult_rank: int
    right_mult_rank: int

    def swapped(self) -> "ElementFingerprint":
        return ElementFingerprint(
            self.is_idempotent,
            self.index,
            self.period,
            self.l_class_size,
            self.r_class_size,
            self.d_class_size,
            self.right_mult_rank,
            self.left_mult_rank,
        )


def index_and_period(s: FiniteSemigroup, x: int) -> tuple[int, int]:
    """Minimal (i, p) with x^(i+p) = x^i; bounded by n via pigeonhole."""
    seen = {x: 1}
    y = x
    for k in range(2, s.n + 2):
        y = s.table[y][x]
        if y in seen:
            i = seen[y]
            return i, k - i
        seen[y] = k
    raise AssertionError("power sequence failed to cycle within n steps")


def _compute_fingerprints(s: FiniteSemigroup) -> tuple[ElementFingerprint, ...]:
    n, t = s.n, s.table
    green = s.green
    size_of = {}
    for attr, slot in (("r_classes", 0), ("l_classes", 1), ("d_classes", 2)):
        for cls in getattr(green, attr):
            for x in cls:
                size_of.setdefault(x, [0, 0, 0])[slot] = len(cls)
    out = []
    for x in range(n):
        rcs, lcs, dcs = size_of[x]
        row = t[x]
        col_rank = len({t[i][x] for i in range(n)})
        idx, per = index_and_period(s, x)
        out.append(
            ElementFingerprint(
                is_idempotent=t[x][x] == x,
                index=idx,
                period=per,
                r_class_size=rcs,
                l_class_size=lcs,
                d_class_size=dcs,
                left_mult_rank=col_rank,
                right_mult_rank=len(set(row)),
            )
        )
    return tuple(out)


def close_under(seeds, gens, product, *, cap: int | None = None, members: set | None = None) -> set:
    """The smallest set that contains ``seeds`` and is closed under
    ``x -> product(x, g)`` for every ``g`` in ``gens``.

    A worklist: each member is multiplied by every generator exactly once.
    Raises :class:`OrderBudgetExceededError` the moment a ``cap + 1``-th
    element would be added.

    ``members``, if given, is grown in place and returned.  Its elements
    count as already expanded and are never multiplied again, so the caller
    vouches that their products by ``gens`` lie in the result: either they
    are already members or the caller passes them among the ``seeds``.
    """
    gens = list(gens)
    limit = float("inf") if cap is None else cap
    members = set() if members is None else members
    work: list = []
    batch = seeds
    while True:
        for y in batch:
            if y not in members:
                if len(members) >= limit:
                    raise OrderBudgetExceededError(cap)
                members.add(y)
                work.append(y)
        if not work:
            return members
        x = work.pop()
        batch = [product(x, g) for g in gens]


def closure_of_subset(s: FiniteSemigroup, seed) -> frozenset[int]:
    """Smallest subsemigroup containing ``seed``.

    The subsemigroup <A> is the set of all products a1*a2*...*ak with every
    ai in A.  Each such product is a1 right-multiplied by a2, ..., ak in
    turn, so closing A under right multiplication by A reaches all of them,
    and every element reached is such a product.  This costs |<A>|*|A|
    table lookups rather than |<A>|^2.
    """
    seed = list(seed)
    t = s.table
    return frozenset(close_under(seed, seed, lambda x, g: t[x][g]))


def generating_set(s: FiniteSemigroup) -> list[int]:
    """A generating set found greedily by :func:`_right_generators`; not necessarily minimal.

    Preference order for the next generator: largest monogenic subsemigroup,
    then most distinct row/column values, then rarest fingerprint, then
    lowest index.  The ties matter only for search speed downstream.
    """
    fps = s.fingerprints
    class_size = Counter(fps)
    orbit = [fp.index + fp.period - 1 for fp in fps]
    spread = [fp.left_mult_rank + fp.right_mult_rank for fp in fps]
    order = sorted(
        range(s.n),
        key=lambda x: (-orbit[x], -spread[x], class_size[fps[x]], x),
    )
    return list(_right_generators(s.table, order))


# ---------------------------------------------------------------------------
# Cayley-table file format: {"n": int, "table": [[int, ...], ...],
#                            "names": optional, "identity": optional}

def to_json_dict(s: FiniteSemigroup) -> dict:
    doc = {"n": s.n, "table": [list(row) for row in s.table]}
    if s.names is not None:
        doc["names"] = list(s.names)
    if s.identity is not None:
        doc["identity"] = s.identity
    return doc


def from_json_dict(doc) -> FiniteSemigroup:
    if not isinstance(doc, dict) or "table" not in doc:
        raise InputFormatError("expected an object with a 'table' field")
    s = validate(doc["table"], names=doc.get("names"))
    if "n" in doc and (type(doc["n"]) is not int or doc["n"] != s.n):
        raise InputFormatError("'n' disagrees with the table height")
    if "identity" in doc:
        declared = doc["identity"]
        if declared is not None and type(declared) is not int:
            raise InputFormatError("'identity' must be an integer")
        if declared != s.identity:
            raise InputFormatError(f"declared identity {declared} but detected {s.identity}")
    return s


def load_table(path) -> FiniteSemigroup:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    return from_json_dict(doc)


def dump_table(s: FiniteSemigroup, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(s), fh, sort_keys=True)
        fh.write("\n")
