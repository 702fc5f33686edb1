import importlib
import sys
from pathlib import Path

import pytest

import irlab
from irlab.errors import PolynomialParseError, RingMismatchError
from irlab.params import Rng
from irlab.ring import grevlex_key, monomials_of_degree, ring


def random_poly(R, rng, max_terms=6, max_degree=4):
    f = R.zero()
    for _ in range(1 + rng.below(max_terms)):
        expo = tuple(rng.below(max_degree + 1) for _ in range(R.nvars))
        f = f + R.monomial(expo, rng.below(R.p))
    return f


# -- characteristic -----------------------------------------------------------

def test_default_characteristic_is_prime():
    assert ring(("x",)).p == 32003


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        ring(("x",), 32004)


@pytest.mark.parametrize("p", [-7, 0, 1, 2**31 + 11, 4294967311, 18446744073709551629,
                               2.5, 32003.0, True, [2], "5"])
def test_characteristic_outside_range_rejected(p):
    # Above 2^31 int64 elimination overflows: at p = 4294967311 the resolution
    # of (x^2+yz, y^2+xz, z^2+xy) came out (1, 3, 4, 3, 1).  Near 2^64 trial
    # division never finished.  Both are now refused before any primality test.
    # A non-int was once a ring (F2.5[x]) or a bare TypeError.
    match = "2 <= p < 2\\^31" if type(p) is int else "must be an integer"
    with pytest.raises(ValueError, match=match):
        ring(("x",), p)


def test_float_characteristic_does_not_intern():
    # 32003.0 == 32003 as a dict key: had the float ring been interned, the int
    # call would return F32003.0 and its parse would fail on pow().
    names = ("u_float", "v_float")
    with pytest.raises(ValueError, match="must be an integer"):
        ring(names, 32003.0)
    R = ring(names, 32003)
    assert type(R.p) is int and R.p == 32003
    assert str(R.parse("u_float + 2*v_float")) == "u_float + 2*v_float"


@pytest.mark.parametrize("names", [("x", "2"), ("x", "x"), ("x", "\u00e9"), ("x", "x\u00b2")],
                         ids=["digit", "repeated", "accented", "superscript"])
def test_unreadable_or_repeated_names_rejected(names):
    with pytest.raises(ValueError):
        ring(names)


def test_largest_supported_characteristic_resolves_exactly():
    from irlab.groebner import Ideal
    from irlab.modules import Module
    R = ring(("x", "y", "z"), p=2**31 - 1)
    x, y, z = R.gens()
    M = Module.cyclic(Ideal(R, [x * x + y * z, y * y + x * z, z * z + x * y]))
    assert M.resolution().betti_numbers() == (1, 3, 3, 1)


# -- parsing and printing ------------------------------------------------------

def test_parse_basic(R3):
    f = R3.parse("x*y")
    assert f == R3.variable("x") * R3.variable("y")


def test_parse_zero(R3):
    assert R3.parse("0").is_zero()
    assert R3.parse("x - x").is_zero()


def test_parse_powers_and_coefficients(R3):
    f = R3.parse("2*x^2*y - 3*z + 7")
    x, y, z = R3.gens()
    assert f == x * x * y * 2 + z * (-3) + R3.constant(7)


def test_parse_coefficients_reduced_mod_p(R3):
    assert R3.parse("32003*x").is_zero()
    assert R3.parse("32004*x") == R3.variable("x")


def test_parse_unknown_variable_reports_position(R3):
    with pytest.raises(PolynomialParseError) as err:
        R3.parse("x + w^2")
    assert err.value.position == 4


def test_parse_empty_input(R3):
    with pytest.raises(PolynomialParseError):
        R3.parse("   ")


def test_parse_malformed(R3):
    # the superscript two died in int(), and the Arabic-Indic three read as 3
    for text in ("x + * y", "x ^ y", "(x)", "x^\u00b2", "x + \u0663"):
        with pytest.raises(PolynomialParseError):
            R3.parse(text)


def test_parse_long_literal_reports_its_position(R3):
    with pytest.raises(PolynomialParseError) as err:
        R3.parse("x^2 + " + "7" * 5000 + "*y^2")
    assert err.value.position == 6


def test_parse_random_text_raises_only_parse_errors(R3):
    # tokens are ASCII: non-ASCII digits and letters are bad characters
    alphabet = ["x", "y", "z", "w", "_", "0", "7", "12", "+", "-", "*", "^", " ", "(",
                "\u00b2", "\u0663", "\u00e9", "\u2124", "x\u00e9", "\u00a0"]
    rng = Rng(2024)
    parsed = 0
    for _ in range(3000):
        text = "".join(alphabet[rng.below(len(alphabet))] for _ in range(rng.below(10)))
        try:
            f = R3.parse(text)
        except PolynomialParseError:
            continue
        assert all(ch.isascii() or ch.isspace() for ch in text)
        assert R3.parse(str(f)) == f
        parsed += 1
    assert parsed > 100


def test_canonical_print(R3):
    f = R3.parse("x^2*y - 3*z")
    assert str(f) == "x^2*y - 3*z"
    assert str(R3.zero()) == "0"


def test_print_parse_roundtrip_random(R3):
    rng = Rng(99)
    for _ in range(120):
        f = random_poly(R3, rng)
        assert R3.parse(str(f)) == f


# -- arithmetic ----------------------------------------------------------------

def test_difference_of_squares(R3):
    x, y, _ = R3.gens()
    assert (x + y) * (x - y) == R3.parse("x^2 - y^2")


def test_multiplicative_identity(R3):
    rng = Rng(5)
    for _ in range(20):
        f = random_poly(R3, rng)
        assert f * R3.one() == f


def test_freshman_dream_char_2():
    R = ring(("x", "y"), p=2)
    x, y = R.gens()
    square = (x + y) * (x + y)
    # brute-force the expansion term by term
    from oracles import multiply_bruteforce
    assert square == multiply_bruteforce(x + y, x + y)
    assert square == R.parse("x^2 + y^2")


def test_distributivity_random(R3):
    rng = Rng(17)
    for _ in range(40):
        f, g, h = (random_poly(R3, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h


def test_canonical_form_unique(R3):
    rng = Rng(23)
    for _ in range(40):
        f = random_poly(R3, rng)
        g = random_poly(R3, rng)
        assert f + g == g + f
        assert (f + g) - g == f


def test_ring_mismatch_raises(R3, R2):
    with pytest.raises(RingMismatchError):
        R3.variable("x") + R2.variable("x")


def test_rings_are_interned():
    assert ring(("x", "y")) is ring(("x", "y"))


# -- monomial enumeration -------------------------------------------------------

@pytest.mark.parametrize("nvars,degree,count", [
    (3, 0, 1),       # just 1
    (2, 2, 3),       # x^2, xy, y^2
    (3, 2, 6),       # C(4, 2)
    (4, 3, 20),      # C(6, 3)
])
def test_monomials_of_degree_counts(nvars, degree, count):
    monos = monomials_of_degree(nvars, degree)
    assert len(monos) == count
    assert all(sum(m) == degree for m in monos)
    assert len(set(monos)) == count


def test_monomials_of_degree_two_vars():
    assert set(monomials_of_degree(2, 2)) == {(2, 0), (1, 1), (0, 2)}


def test_monomials_negative_degree_rejected():
    with pytest.raises(ValueError):
        monomials_of_degree(2, -1)


# -- monomial order ---------------------------------------------------------------

def _random_expo(rng, n=3, cap=6):
    return tuple(rng.below(cap) for _ in range(n))


def test_order_axioms():
    rng = Rng(1234)
    one = (0, 0, 0)
    for _ in range(1000):
        u, v, w = (_random_expo(rng) for _ in range(3))
        ku, kv = grevlex_key(u), grevlex_key(v)
        # total: keys decide, and equal keys mean equal monomials
        assert (ku == kv) == (u == v)
        # multiplicative: u < v implies uw < vw
        if ku < kv:
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert grevlex_key(uw) < grevlex_key(vw)
        # well-order: 1 is minimal
        if u != one:
            assert grevlex_key(one) < ku


def test_grevlex_classic_ordering(R3):
    # degree 2 in x > y > z: x2 > xy > y2 > xz > yz > z2
    names = ["x^2", "x*y", "y^2", "x*z", "y*z", "z^2"]
    polys = [R3.parse(s) for s in names]
    keys = [grevlex_key(next(iter(f.terms))) for f in polys]
    assert keys == sorted(keys, reverse=True)


def test_package_attributes_are_its_submodules():
    # a re-export named like a module file (the ring constructor `ring`) bound
    # the function, so `import irlab.ring as r` gave the function
    names = sorted(f.stem for f in Path(irlab.__file__).parent.glob("*.py")
                   if f.stem != "__init__")
    assert "ring" in names
    for name in names:
        importlib.import_module(f"irlab.{name}")
        assert getattr(irlab, name) is sys.modules[f"irlab.{name}"], name
