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
