import json
import re
from collections import namedtuple

import numpy as np
import pytest
from sympy import combinatorics

from involute.battery import brute_morphisms  # noqa: F401  (shared oracle for the tests)
from involute.perms import compose
from involute.semigroups import validate


def chain_products(chain) -> list:
    """Every member of a stabiliser chain as a mapping tuple, in pure Python:
    u_0 o u_1 o ... o u_{k-1} over its transversals, in the row order of
    ``maps()`` (the top level's points outermost).  The reference for it."""
    products = [tuple(range(chain.degree))]
    for level in reversed(chain.transversals):
        products = [compose(tuple(u.tolist()), m) for u in level.values() for m in products]
    return products


def check_chain(chain, list_up_to: int = 10**4) -> None:
    """A stabiliser chain's invariants: each u_p of level i is a C-contiguous
    int32 row of length ``degree`` that is a map taking base[i] to p and
    fixing base[:i]; ``order`` is sympy's order of its generators; and, up
    to ``list_up_to`` members, ``maps()`` is :func:`chain_products`."""
    one = list(range(chain.degree))
    for i, level in enumerate(chain.transversals):
        for p, u in level.items():
            assert isinstance(u, np.ndarray) and u.dtype == np.int32 and u.flags.c_contiguous
            assert u.shape == (chain.degree,) and sorted(u.tolist()) == one
            assert u[chain.base[i]] == p and all(u[b] == b for b in chain.base[:i])
    gens = [combinatorics.Permutation(list(g)) for g in chain.generators]
    expected = combinatorics.PermutationGroup(gens).order() if gens else 1
    assert chain.order == expected
    if chain.order <= list_up_to:
        products = chain_products(chain)
        assert len(set(products)) == chain.order
        assert chain.maps().tolist() == [list(m) for m in products]


#: The columns of ``FiniteSemigroup.fingerprint_rows``, by name.
Fingerprint = namedtuple("Fingerprint", "is_idempotent index period r_class_size l_class_size "
                                        "d_class_size left_mult_rank right_mult_rank")

#: Green's five partitions, each a tuple of frozensets sorted by least member.
Green = namedtuple("Green", "r_classes l_classes h_classes d_classes j_classes")


def fingerprints(s) -> tuple:
    """The rows of ``s.fingerprint_rows`` as :data:`Fingerprint` tuples."""
    return tuple(Fingerprint(*row) for row in s.fingerprint_rows.tolist())


def partition(labels) -> tuple:
    """The classes of a labelling, as frozensets sorted by least member."""
    classes: dict = {}
    for x, key in enumerate(labels.tolist()):
        classes.setdefault(key, []).append(x)
    # each class was opened by its least member, in increasing order
    return tuple(map(frozenset, classes.values()))


def green_classes(s) -> Green:
    """Green's relations of S, read off ``s.green_labels``: H is the pair of
    the R and L labels, and J is D, as on every finite semigroup."""
    r, l, d = s.green_labels[:3]
    return Green(partition(r), partition(l), partition(r * s.n + l), partition(d), partition(d))


@pytest.fixture
def klein():
    return validate([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.fixture
def left_zero_2():
    return validate([[0, 0], [1, 1]])


@pytest.fixture
def right_zero_2():
    return validate([[0, 1], [0, 1]])


def relabelled(table, sigma) -> np.ndarray:
    """The table of the isomorphic copy under a bijection sigma of the
    elements: sigma(x)sigma(y) = sigma(xy)."""
    sigma = np.asarray(sigma)
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


def table_file(table, layout: str, **extra) -> bytes:
    """The bytes of a table file in one of the two layouts the toolkit meets:
    "compact", as the benchmark writes its inputs ("n", then ``extra``'s keys
    and "table" last, with no spaces), or "dump", as ``dump_table`` writes
    (sorted keys, ", " and ": " separators)."""
    doc = {"n": len(table), **extra, "table": table}
    if layout == "compact":
        return (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


_INTEGER = re.compile(rb"\d+")


def _entry(data: bytes, k: int, new) -> bytes:
    """``data`` with the k-th integer (mod their count) of the table's text
    replaced by ``new(old)``."""
    spans = [m.span() for m in _INTEGER.finditer(data, data.rindex(b'"table"'))]
    a, b = spans[k % len(spans)]
    return data[:a] + new(data[a:b]) + data[b:]


_ROW_GAP = re.compile(rb"\][ \t\n\r]*(,)")


def _row_gap(data: bytes, k: int, new: bytes) -> bytes:
    """``data`` with the comma after the k-th row (mod their count) replaced
    by ``new``; a table of one row is left as it is."""
    spans = [m.span(1) for m in _ROW_GAP.finditer(data, data.rindex(b'"table"'))]
    if not spans:
        return data
    a, b = spans[k % len(spans)]
    return data[:a] + new + data[b:]


def _in_a_name(data: bytes, text: bytes) -> bytes:
    """``data`` with ``text`` put at the start of its first name, or as the
    value of a new first key if it has no names."""
    names = data.find(b'"names": ["')
    if names < 0:
        return b'{"x": "' + text + b'", ' + data[1:]
    at = names + len(b'"names": ["')
    return data[:at] + text + data[at:]


def _before_end(data: bytes, text: bytes) -> bytes:
    """``data`` with ``text`` put before the closing brace of its object."""
    return data.rstrip()[:-1] + text + b"}\n"


#: edits of a table file, each ``edit(data, k)``, with ``k`` choosing the
#: entry or the byte it acts on; each makes a file the table reader must
#: read as ``json`` does, or decline
TABLE_FILE_EDITS = {
    "leading zero": lambda data, k: _entry(data, k, lambda e: b"0" + e),
    "-0": lambda data, k: _entry(data, k, lambda e: b"-0"),
    "1e2": lambda data, k: _entry(data, k, lambda e: b"1e2"),
    "1.0": lambda data, k: _entry(data, k, lambda e: b"1.0"),
    "true": lambda data, k: _entry(data, k, lambda e: b"true"),
    "ten digits": lambda data, k: _entry(data, k, lambda e: b"1234567890"),
    "ragged row": lambda data, k: _entry(data, k, lambda e: e + b",0"),
    "form feed for a space": lambda data, k: _entry(data, k, lambda e: b"\x0c" + e),
    "no comma between rows": lambda data, k: _row_gap(data, k, b""),
    "two commas between rows": lambda data, k: _row_gap(data, k, b",,"),
    "a colon between rows": lambda data, k: _row_gap(data, k, b":"),
    "truncated": lambda data, k: data[:k % len(data)],
    "CRLF": lambda data, k: data.rstrip().replace(b"],", b"],\r\n") + b"\r\n",
    "UTF-8 BOM": lambda data, k: b"\xef\xbb\xbf" + data,
    "UTF-16": lambda data, k: data.decode().encode("utf-16"),
    "key after the table": lambda data, k: _before_end(data, b', "z": 0'),
    "duplicate table key before": lambda data, k: b'{"table": [[0]], ' + data[1:],
    "duplicate table key after": lambda data, k: _before_end(data, b', "table": [[0]]'),
    "table text in a name": lambda data, k: _in_a_name(data, b'\\"table\\": [[0]]'),
    "key ending in table": lambda data, k: _before_end(data, b', "x\\"table": [[0]]'),
    "key ending in table after a null table": lambda data, k: _before_end(
        data[:data.rindex(b'"table"')] + b'"table": null}', b', "x\\"table": [[0]]'),
}
