"""The worked examples shared by the test modules, as fixtures.

``ex21`` is the uniform-probability example L(10,4) (h = 20, 18, ..., 1,
epsilon = 4/10).  ``ex42`` is the general-probability example: h = 40, 38,
..., 1, pi = (1/8 four times, then 1/12 six times), epsilon = 1/2.
"""

from fractions import Fraction

import pytest

from mixcut.core import build_instance


@pytest.fixture(scope="session")
def ex21():
    return build_instance(10, [20, 18, 14, 11, 6, 5, 4, 3, 2, 1], None, Fraction(4, 10))


@pytest.fixture(scope="session")
def ex42():
    pi = [Fraction(1, 8)] * 4 + [Fraction(1, 12)] * 6
    return build_instance(10, [40, 38, 34, 31, 26, 16, 8, 4, 2, 1], pi, Fraction(1, 2))
