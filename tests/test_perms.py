from math import lcm

import pytest
from hypothesis import given, strategies as st

from involute.errors import InputFormatError
from involute.perms import (
    as_mapping,
    compose,
    cycle_bodies,
    cycle_string,
    cycles,
    from_cycles,
    identity_tuple,
    invert,
    is_involution,
    parity,
    parse_cycles,
)


def test_composition_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == tuple(p[q[x]] for x in range(3))


def test_identity_and_involution_predicates():
    assert identity_tuple(4) == (0, 1, 2, 3)
    assert not is_involution(identity_tuple(4))
    swap = (1, 0, 2)
    assert is_involution(swap)
    assert not is_involution((1, 2, 0))
    assert is_involution([1, 0, 2]) and not is_involution([0, 1, 2])  # any sequence


def test_as_mapping_accepts_any_sequence_of_images():
    assert as_mapping([1, 2, 0]) == (1, 2, 0)
    assert as_mapping(range(3)) == (0, 1, 2)
    for bad in ([0, 0], [1, 2], [-1, 0]):
        with pytest.raises(ValueError):
            as_mapping(bad)


def test_cycles_and_cycle_string():
    p = (1, 2, 0, 4, 3, 5)
    assert cycles(p) == [(0, 1, 2), (3, 4)]
    assert cycle_string(p) == "(0 1 2)(3 4)"
    assert cycle_string(identity_tuple(3)) == "()"


def test_parse_cycles_roundtrip():
    p = parse_cycles("(0 1 2)(3 4)")
    assert p == (1, 2, 0, 4, 3)
    assert parse_cycles("()", degree=3) == identity_tuple(3)
    assert parse_cycles("(0,2)", degree=3) == (2, 1, 0)
    assert parse_cycles("(0 1)(2)") == (1, 0, 2)
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
        from_cycles([[2, 0, 2]], 3)
    with pytest.raises(ValueError):
        from_cycles([[0, 3]], 3)


def test_cycle_bodies_reads_the_groups_of_a_literal():
    assert cycle_bodies(" (0 1 2)(3,4)() ") == ["0 1 2", "3,4", ""]
    assert cycle_bodies("(a b)(c)") == ["a b", "c"]
    assert cycle_bodies("id") == cycle_bodies(" ") == []
    for bad in ("(0 1", "a)b(", "(0 1)x", "id()", "((0 1))"):
        with pytest.raises(InputFormatError, match="cannot parse cycle literal"):
            cycle_bodies(bad)


def test_order_and_parity():
    def order(m):
        return lcm(*(len(c) for c in cycles(m)))

    assert order((1, 2, 0)) == 3
    assert order((1, 0, 3, 2)) == 2
    assert parity((1, 0, 2)) == 1
    assert parity((1, 2, 0)) == 0


@given(st.permutations(list(range(6))))
def test_inverse_is_two_sided(mapping):
    p = tuple(mapping)
    assert compose(p, invert(p)) == identity_tuple(6)
    assert compose(invert(p), p) == identity_tuple(6)
    assert invert(invert(p)) == p


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_compose_matches_pointwise_product(a, b):
    assert compose(tuple(a), tuple(b)) == tuple(a[b[x]] for x in range(5))


@given(st.permutations(list(range(6))))
def test_parity_is_the_sign_of_the_inversion_count(mapping):
    inversions = sum(1 for i in range(6) for j in range(i) if mapping[j] > mapping[i])
    assert parity(tuple(mapping)) == inversions % 2
    assert from_cycles(cycles(tuple(mapping)), 6) == tuple(mapping)
