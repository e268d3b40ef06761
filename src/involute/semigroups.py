"""Finite semigroups presented by Cayley tables.

Elements are the dense indices 0..n-1; ``table[i][j]`` is the product i*j.
Optional names are display-only metadata.  A table does not change after
construction; :func:`validate` derives its Green labels, fingerprints and
generating set, and the rest is cached on the instance when first read.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import chain

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
    """A semigroup on {0..n-1}; build instances through :func:`validate`.

    ``np_table``, the table as an int32 array, is trusted and made read-only
    by the constructor; ``table``, its rows as tuples, is built on first read.
    ``green_labels`` (the R, L and D labels and translation ranks of
    :func:`_green_labels`), ``fingerprint_rows`` (the element fingerprints,
    an (n, 8) int array in field order) and ``generators`` (the generating
    set of :func:`generating_set`, a tuple) are made by :func:`validate`.
    """

    def __init__(self, np_table, names, identity, green_labels, fingerprint_rows, generators):
        np_table.flags.writeable = False
        self.np_table = np_table
        self.n = len(np_table)
        self.names = names
        self.identity = identity
        self.green_labels = green_labels
        self.fingerprint_rows = fingerprint_rows
        self.generators = generators
        #: results of searches on this table, filled by :mod:`involute.morphisms`
        self.search_cache: dict = {}

    @cached_property
    def table(self) -> tuple:
        return _row_tuples(self.np_table)

    @cached_property
    def is_commutative(self) -> bool:
        a = self.np_table
        return bool((a == a.T).all())

    @cached_property
    def green(self) -> "GreenStructure":
        return green_relations(self)

    @cached_property
    def fingerprints(self) -> tuple["ElementFingerprint", ...]:
        return tuple(
            ElementFingerprint(bool(row[0]), *row[1:])
            for row in self.fingerprint_rows.tolist()
        )

    def dual(self) -> "FiniteSemigroup":
        """The opposite semigroup: the transposed table, validated afresh."""
        return validate(np.ascontiguousarray(self.np_table.T), self.names)

    def name_of(self, x: int) -> str:
        return self.names[x] if self.names is not None else str(x)

    def __len__(self) -> int:
        return self.n

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n}, identity={self.identity})"


_SEQUENCES = (list, tuple)


def _row_tuples(a: np.ndarray) -> tuple:
    """The rows of an int array of points 0..width-1 as tuples, each point one
    shared int object (an int32 array's ``tolist()`` makes one per entry past
    256), in blocks of 2^12 entries that keep the lists' holes small."""
    points = np.arange(a.shape[1]).astype(object)
    step = max(1, 2**12 // max(1, a.shape[1]))
    return tuple(chain.from_iterable(map(tuple, points[a[i:i + step]].tolist())
                                     for i in range(0, len(a), step)))


def validate(table, names=None) -> FiniteSemigroup:
    """Check a square index table for associativity and wrap it, with the
    data derived from it: its Green labels, fingerprints and generators.

    The table is a list (or tuple) of rows of plain integers, or a 2-d
    integer array (kept, not copied, and made read-only if it is
    C-contiguous int32); floats, booleans and strings raise
    :class:`InputFormatError`, entries outside 0..n-1 raise
    :class:`IndexOutOfRangeError`.  ``names``, if given, must be a list of
    n strings.  Detects and records an identity element, if any.

    The labels of :func:`_green_labels` and the powers of every element
    are computed first, by lookups alone, so on any table; they give the
    fingerprints, and those the preference order of :func:`generating_set`.
    Associativity is checked by Light's test in O(n^2 |A|) rather than
    O(n^3): ``A`` is a set whose right closure (close A under x -> x*a for
    a in A) is all of the table, picked by :func:`greedy_generators` in
    that order, and it is the instance's generating set.  That closure is
    plain lookups in the columns of A, so it is sound before associativity
    is known.  Then (x*a)*y = x*(a*y) is checked for every a in A and all
    x, y, each a as soon as it is picked and its column read.
    Proof that this suffices: let B = {b : (xb)y = x(by) for all x, y}.  If
    b, c are in B then for all x, y
    (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y),
    using b, c, b and c in B in turn, so B is closed under the product.
    B contains A, hence every product of elements of A however bracketed,
    in particular every element of the right closure of A, which is the
    whole table.  So B is everything and the table is associative.  On
    failure :class:`NotAssociativeError` carries a genuine witness (x, a, y).
    Only then is D = J asserted: a table that is not associative may have
    D != J, and it is bad input, not a computation bug.
    """
    is_array = isinstance(table, np.ndarray)
    if is_array and (table.ndim != 2 or table.dtype.kind not in "iu"):
        raise InputFormatError(f"table must be a 2-d integer array, not {table.ndim}-d {table.dtype}")
    if not is_array and (not isinstance(table, _SEQUENCES) or not all(
            isinstance(row, _SEQUENCES) for row in table)):
        raise InputFormatError("table must be a list of rows")
    n = len(table)
    if n == 0:
        raise InputFormatError("empty table")
    if table.shape[1] != n if is_array else any(len(row) != n for row in table):
        raise InputFormatError("table is not square")
    if n > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    # type() rather than isinstance(): bool is a subclass of int
    kinds = {int} if is_array else set().union(*(map(type, row) for row in table))
    if kinds != {int}:
        bad = sorted(k.__name__ for k in kinds - {int})
        raise InputFormatError(f"table entries must be integers, not {', '.join(bad)}")
    try:
        # numpy >= 2 raises OverflowError for a Python int past int32; an
        # array's range is checked before the cast, which would wrap it
        arr = table if is_array else np.asarray(table, dtype=np.int32)
        in_range = arr.min() >= 0 and arr.max() < n
    except OverflowError:
        in_range = False
    if not in_range:
        raise IndexOutOfRangeError(f"table entries must lie in 0..{n - 1}")
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    *green_labels, j = _green_labels(arr)
    fps = _compute_fingerprints(arr, green_labels)
    cls = _row_labels(fps)
    orbit, spread = fps[:, 1] + fps[:, 2], fps[:, 6] + fps[:, 7]    # index + period, both ranks
    # generating_set's preference order; the stable lexsort keeps ties in index order
    order = np.lexsort((np.bincount(cls)[cls], -spread, -orbit))
    cols: dict = {}
    for a in greedy_generators(order.tolist(), lambda x, g: cols[g][x]):
        cols[a] = arr[:, a].tolist()
        # [x, y] -> (x*a)*y against x*(a*y), in one expression so that
        # neither n x n side outlives the comparison
        bad = arr[arr[:, a]] != arr[:, arr[a]]
        if bad.any():
            x, y = map(int, np.argwhere(bad)[0])
            raise NotAssociativeError(x, a, y)
    assert np.array_equal(green_labels[2], j), "D != J on a finite semigroup: computation bug"
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
    return FiniteSemigroup(arr, names, identity, tuple(green_labels), fps, tuple(cols))


def cayley_table(elems, mult, names=None) -> FiniteSemigroup:
    """The table of ``mult`` on the distinct ``elems``, element i being
    ``elems[i]``, checked by :func:`validate`.  ``names`` may be any
    iterable; it is read once the size is accepted.

    After Froidure and Pin, "Algorithms for computing finite semigroups"
    (1997), ``mult`` computes only the columns x -> x*a of generators a,
    picked by :func:`greedy_generators` in index order; a column is filled
    when its generator is yielded.  Every other y is met while closing
    under them as y = y'*a, and its column is column a gathered by column
    y', since x*y = (x*y')*a: one ``take`` between rows of one int32 array
    of the columns, which ``validate`` receives transposed.  That is
    associativity: the table is the product table only for an associative
    ``mult``, and ``tests/test_cayley_table.py`` checks it against every
    product on each family.  Raises :class:`OrderBudgetExceededError` past
    :data:`TABLE_CAP` before any product, and ``ValueError`` if a product
    falls outside ``elems``.
    """
    # sliced first, so that a range too long for len() is refused as well
    if len(elems[:TABLE_CAP + 1]) > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    if len(index) != n:
        raise ValueError("the elements are not distinct")
    # row y of ``cols`` is column y of the table, x -> x*y; a generator's
    # column is also kept as a list, for the closure's lookups
    cols = np.empty((n, n), dtype=np.int32)
    filled = bytearray(n)
    lookup: dict = {}

    def step(x, a):
        y = lookup[a][x]
        if not filled[y]:
            cols[a].take(cols[x], out=cols[y], mode="clip")
            filled[y] = 1
        return y

    for a in greedy_generators(range(n), step):
        g = elems[a]
        try:
            lookup[a] = cols[a] = [index[mult(x, g)] for x in elems]
        except KeyError:
            raise ValueError("the elements are not closed under the product") from None
        filled[a] = 1
    return validate(cols.T, names=None if names is None else list(names))


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


def _occurrence_masks(arr) -> tuple[np.ndarray, np.ndarray]:
    """Which values occur in each row and in each column of an (n, n) table.

    ``in_row[x, v]`` iff v occurs in row x (v in xS), and ``in_col[y, v]``
    iff v occurs in column y (v in Sy).  Each is one broadcast scatter, which
    numpy buffers; a flat scatter is faster but needs an n x n offset array,
    which raised the peak RSS of a Z_840 analysis by 1.5 MB.
    """
    n = len(arr)
    idx = np.arange(n)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[idx[:, None], arr] = True
    in_col = np.zeros((n, n), dtype=bool)
    in_col[idx, arr] = True
    return in_row, in_col


def _row_labels(a) -> np.ndarray:
    """Labels 0..k-1 of the rows of a 2-d array, equal rows alike, numbered
    in order of first appearance.  Each row is hashed as one byte string: a
    dict is as fast as ``np.unique`` at n = 1024 and four times faster on
    the tiny tables that are most of the battery."""
    a = np.ascontiguousarray(a)
    keys = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()
    first: dict = {}
    return np.array([first.setdefault(k, len(first)) for k in keys])


def _partition(labels) -> tuple:
    """The classes of a labelling, as frozensets sorted by least member."""
    classes: dict = {}
    for x, key in enumerate(labels.tolist()):
        classes.setdefault(key, []).append(x)
    # each class was opened by its least member, in increasing order
    return tuple(map(frozenset, classes.values()))


def _join(r, l) -> np.ndarray:
    """Labels of the join of two labelled partitions, the least partition
    that both refine: union-find over the labels of ``r``, merging the
    r-classes that meet a common l-class.  The labels are numbered in order
    of first appearance, as :func:`_row_labels` numbers them."""
    root = list(range(int(r.max()) + 1))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]
        return a

    met: dict = {}                          # l label -> an r label met in that l-class
    for a, b in zip(r.tolist(), l.tolist()):
        root[find(a)] = find(met.setdefault(b, a))
    first: dict = {}
    return np.array([first.setdefault(find(a), len(first)) for a in r.tolist()])


def _green_labels(arr) -> tuple:
    """Labels of the R, L and D classes of every element, its translation
    ranks (|Sx|, |xS|), the number of distinct values in its column and in
    its row, and labels of its J class, in that order, from one pass of
    :func:`_occurrence_masks`.

    The identity of S^1 is adjoined virtually: the masks R[x] = xS^1 and
    L[y] = S^1y are the row and column occurrence masks with the element
    itself added, after the ranks are read.  R and L label equal bit-packed
    masks.

    J is computed on its own, not from D: J(x) = S^1xS^1 is the union of
    the right ideals yS^1 over y in S^1x.  Proof: every element of S^1xS^1
    is u(xv) = (ux)v with u, v in S^1, and ux lies in S^1x; conversely
    y = ux in S^1x gives yS^1 = uxS^1, inside S^1xS^1.  The union depends
    on x only through the set S^1x, that is through x's L mask, so it is
    formed once per distinct L mask, as the OR of the packed R masks of its
    members, and shared by the whole L class.

    D is the join of R and L, from a union-find over the R labels.  On a
    finite semigroup D and J agree, which :func:`validate` asserts once the
    table has passed Light's test.
    """
    n = len(arr)
    in_row, in_col = _occurrence_masks(arr)
    left_rank, right_rank = in_col.sum(axis=1), in_row.sum(axis=1)
    diag = np.arange(n)
    in_row[diag, diag] = True
    in_col[diag, diag] = True
    r_bits = np.packbits(in_row, axis=1)
    r, l = _row_labels(r_bits), _row_labels(np.packbits(in_col, axis=1))
    l_reps = np.empty(l.max() + 1, dtype=np.intp)
    l_reps[l] = diag                        # one member of each L class
    j_bits = np.array([np.bitwise_or.reduce(r_bits[in_col[y]]) for y in l_reps.tolist()])
    # numbered by first appearance too: the L labels are, and the labels of
    # j_bits follow the L labels
    j = _row_labels(j_bits)[l]
    return r, l, _join(r, l), left_rank, right_rank, j


def green_relations(s: FiniteSemigroup) -> GreenStructure:
    """Green's relations of S, read off the labels of :func:`_green_labels`:
    H is the pair of the R and L labels, and J is D."""
    r, l, d = s.green_labels[:3]
    d_part = _partition(d)
    return GreenStructure(_partition(r), _partition(l), _partition(r * s.n + l), d_part, d_part)


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
        values = astuple(self)
        return ElementFingerprint(*(values[i] for i in _SWAPPED))


#: The field order of a fingerprint on the dual semigroup: R and L class
#: sizes trade places, as do the left and right translation ranks.
_SWAPPED = [0, 1, 2, 4, 3, 5, 7, 6]


def index_and_period(s: FiniteSemigroup, x: int) -> tuple[int, int]:
    """Minimal (i, p) with x^(i+p) = x^i; bounded by n via pigeonhole."""
    if type(x) is not int or not 0 <= x < s.n:  # type(): a bool is not an element
        raise IndexOutOfRangeError(f"elements are ints in 0..{s.n - 1}, not {x!r}")
    seen = {x: 1}
    y = x
    for k in range(2, s.n + 2):
        y = s.table[y][x]
        if y in seen:
            i = seen[y]
            return i, k - i
        seen[y] = k
    raise AssertionError("power sequence failed to cycle within n steps")


def _indices_and_periods(arr) -> tuple[np.ndarray, np.ndarray]:
    """:func:`index_and_period` of every element at once.

    All elements step through their powers together, one n-vector gather
    per power: x^(k+1) = x^k * x.  ``seen[v * n + x]`` is the least k with
    x^k = v, or 0.  The first power of x met a second time is x^(i+p), and
    it was first met as x^i, which gives both numbers; the element then
    drops out.  So the loop runs max(i+p) <= n+1 times, with n^2 int16 of
    memory, and stops after a few steps on tables whose elements all have
    short power sequences.
    """
    n = len(arr)
    flat = arr.ravel()
    seen = np.zeros(n * n, dtype=np.int16)
    index = np.empty(n, dtype=np.int64)
    period = np.empty(n, dtype=np.int64)
    cols = cur = np.arange(n)               # the elements left, and their k-th powers
    k = 1
    while cols.size:
        key = cur * n + cols
        first = seen[key]
        if first.any():
            done = first > 0
            index[cols[done]] = first[done]
            period[cols[done]] = k - first[done]
            cols, key = cols[~done], key[~done]
        seen[key] = k
        cur = flat[key]
        k += 1
    return index, period


def _compute_fingerprints(arr, green_labels) -> np.ndarray:
    """The element fingerprints as an (n, 8) integer array, one row per
    element and one column per :class:`ElementFingerprint` field, in field
    order.  The class sizes are counts of the labels."""
    r, l, d, left_rank, right_rank = green_labels
    index, period = _indices_and_periods(arr)
    return np.column_stack((
        np.diagonal(arr) == np.arange(len(arr)),
        index,
        period,
        np.bincount(r)[r],
        np.bincount(l)[l],
        np.bincount(d)[d],
        left_rank,
        right_rank,
    )).astype(np.int64)


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


def greedy_generators(candidates, product) -> Iterator:
    """Yield each candidate that is not in the closure of those yielded
    before it, and grow that closure after each yield.

    For generators A, R(A) is the smallest set holding A that is closed
    under ``x -> product(x, g)`` for g in A.  A new generator a is yielded
    before any product by it, so :func:`validate` checks it there; then
    :func:`close_under` grows R(A) from the seeds a and x*a for x in R(A).
    The result M is R(A u {a}), by lookups alone, without associativity:
    the seeds lie in R(A u {a}), which holds R(A) and is closed under the
    products taken, so M lies in it; M holds A and a and is closed under
    A u {a}, as an old member x has x*g in R(A) for g in A and x*a among
    the seeds, and a new member meets every generator.  So each member
    meets each generator once, |R| |A| products in all, as in one closure
    over the final A.
    """
    members: set = set()
    gens: list = []
    for a in candidates:
        if a not in members:
            yield a
            gens.append(a)
            close_under([a] + [product(x, a) for x in members], gens, product, members=members)


def closure_of_subset(s: FiniteSemigroup, seed) -> frozenset[int]:
    """Smallest subsemigroup containing ``seed``, elements as ints in 0..n-1.

    The subsemigroup <A> is the set of all products a1*a2*...*ak with every
    ai in A.  Each such product is a1 right-multiplied by a2, ..., ak in
    turn, so closing A under right multiplication by A reaches all of them,
    and every element reached is such a product.  This costs |<A>|*|A|
    table lookups rather than |<A>|^2.
    """
    seed = list(seed)
    if any(type(x) is not int or not 0 <= x < s.n for x in seed):
        raise IndexOutOfRangeError(f"elements are ints in 0..{s.n - 1}: {seed}")
    t = s.table
    return frozenset(close_under(seed, seed, lambda x, g: t[x][g]))


def generating_set(s: FiniteSemigroup) -> list[int]:
    """A generating set found by :func:`greedy_generators`; not necessarily minimal.

    Preference order for the next generator: largest monogenic subsemigroup,
    then most distinct row/column values, then rarest fingerprint, then
    lowest index.  The ties matter only for search speed downstream.  The
    pick is the one :func:`validate` made for Light's test, and each call
    returns a new list.
    """
    return list(s.generators)


# ---------------------------------------------------------------------------
# Cayley-table file format: {"n": int, "table": [[int, ...], ...],
#                            "names": optional, "identity": optional}

def to_json_dict(s: FiniteSemigroup) -> dict:
    doc = {"n": s.n, "table": s.np_table.tolist()}
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


def read_json(path):
    """The JSON document in a UTF-8 file; every way to fail is an
    :class:`InputFormatError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # bad JSON, bytes that are not UTF-8 and over-long integers alike
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} is nested too deeply to read") from exc


def load_table(path) -> FiniteSemigroup:
    return from_json_dict(read_json(path))


def dump_table(s: FiniteSemigroup, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(s), fh, sort_keys=True)
        fh.write("\n")
