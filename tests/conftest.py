import pytest

from curvecones import canring, curve as cv

PRIME = 1000003


@pytest.fixture(scope="session")
def ctx4():
    curve = cv.generate_curve(4, PRIME, 1)
    return canring.build_context(curve)


@pytest.fixture(scope="session")
def ctx5():
    curve = cv.generate_curve(5, PRIME, 7)
    return canring.build_context(curve)


@pytest.fixture(scope="session")
def ctx4_max():
    """A genus-4 context at the largest allowed prime, for the int64
    budget."""
    return canring.build_context(cv.generate_curve(4, 33554393, 1))


@pytest.fixture(scope="session")
def ctx5_max():
    """The genus-5 context of seed 7 at the largest allowed prime."""
    return canring.build_context(cv.generate_curve(5, 33554393, 7))
