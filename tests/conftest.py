import pytest

from sumfree.intervals import IntervalUnion


@pytest.fixture
def largest_known_3sumfree() -> IntervalUnion:
    """The record three-interval 3-sum-free configuration,
    (8/177, 4/59) u (28/177, 14/59) u (2/3, 1), over 177."""
    return IntervalUnion.from_numerators([(8, 12), (28, 42), (118, 177)], 177)
