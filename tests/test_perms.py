import pytest
from hypothesis import given, strategies as st

from involute.errors import InputFormatError
from involute.perms import Permutation, compose, invert, parse_cycles


def test_composition_applies_right_factor_first():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * q).mapping == tuple(p.mapping[q.mapping[x]] for x in range(3))


def test_identity_and_involution_predicates():
    assert Permutation.identity(4).is_identity()
    assert not Permutation.identity(4).is_involution()
    swap = Permutation((1, 0, 2))
    assert swap.is_involution()
    assert not Permutation((1, 2, 0)).is_involution()


def test_cycles_and_cycle_string():
    p = Permutation((1, 2, 0, 4, 3, 5))
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.cycle_string() == "(0 1 2)(3 4)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_parse_cycles_roundtrip():
    p = parse_cycles("(0 1 2)(3 4)")
    assert p.mapping == (1, 2, 0, 4, 3)
    assert parse_cycles("()", degree=3) == Permutation.identity(3)
    assert parse_cycles("(0,2)", degree=3).mapping == (2, 1, 0)
    assert parse_cycles("(0 1)(2)").mapping == (1, 0, 2)
    with pytest.raises(InputFormatError):
        parse_cycles("(0 1")
    with pytest.raises(InputFormatError):
        parse_cycles("(0 1)(1 2)")
    with pytest.raises(InputFormatError):
        parse_cycles("(0 1 1)")
    with pytest.raises(InputFormatError):
        parse_cycles("(0 0)")
    with pytest.raises(InputFormatError):
        parse_cycles("(0 1 0)")
    with pytest.raises(InputFormatError):
        parse_cycles("(0 1)(1)")
    with pytest.raises(ValueError):
        Permutation.from_cycles([[2, 0, 2]], 3)


def test_order_and_parity():
    assert Permutation((1, 2, 0)).order() == 3
    assert Permutation((1, 0, 3, 2)).order() == 2
    assert Permutation((1, 0, 2)).parity() == 1
    assert Permutation((1, 2, 0)).parity() == 0


@given(st.permutations(list(range(6))))
def test_inverse_is_two_sided(mapping):
    p = Permutation(mapping)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert invert(invert(tuple(mapping))) == tuple(mapping)


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_compose_matches_class_product(a, b):
    assert compose(tuple(a), tuple(b)) == (Permutation(a) * Permutation(b)).mapping
