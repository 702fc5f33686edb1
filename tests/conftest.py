import pytest

from irlab import params
from irlab.groebner import Ideal
from irlab.ring import ring


@pytest.fixture(scope="session")
def R3():
    return ring(("x", "y", "z"))


@pytest.fixture(scope="session")
def R2():
    return ring(("x", "y"))


@pytest.fixture(scope="session")
def R4():
    return ring(("x", "y", "u", "v"))


@pytest.fixture(scope="session")
def R5():
    return ring(("a", "b", "c", "d", "e"))


@pytest.fixture(scope="session")
def plane_and_line(R3):
    """S/(xy, xz): a plane plus a transversal line; sequentially CM, not CM."""
    x, y, z = R3.gens()
    return Ideal(R3, [x * y, x * z])


@pytest.fixture(scope="session")
def two_planes_3d(R5):
    """The 5-variable ring cut out by two 3-planes meeting along a line."""
    a, b, c, d, e = R5.gens()
    return Ideal(R5, [a * c, a * d, b * c, b * d])


@pytest.fixture(scope="session")
def two_planes_origin(R4):
    """4-variable ring of two planes meeting only at the origin."""
    x, y, u, v = R4.gens()
    return Ideal(R4, [x * u, x * v, y * u, y * v])


@pytest.fixture(scope="session")
def mixed6():
    """The edge ideal of the 6-cycle plus x*z*v, in 6 variables."""
    R6 = ring(("x", "y", "z", "u", "v", "w"))
    return Ideal(R6, ["x*y", "y*z", "z*u", "u*v", "v*w", "w*x", "x*z*v"])


@pytest.fixture(autouse=True)
def _empty_span_memo():
    """Every test starts with no span-route state from an earlier one."""
    params._SPAN_MEMO.clear()
