import pytest

from involute.battery import brute_morphisms  # noqa: F401  (shared oracle for the tests)
from involute.semigroups import validate


@pytest.fixture
def klein():
    return validate([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


@pytest.fixture
def left_zero_2():
    return validate([[0, 0], [1, 1]])


@pytest.fixture
def right_zero_2():
    return validate([[0, 1], [0, 1]])
