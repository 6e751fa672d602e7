"""Field elements as integer coordinates over one denominator, against the
Fraction arithmetic they replaced (oracles.FracQuad, oracles.FracBiquad).

Every operation runs on seeded random elements with denominators 1, 2, 3
and 6 in five quadratic fields and three quartic ones, E37 the field with
a supplied basis; the result is read back through its basis coordinates
and compared with the oracle's.
"""

import random
from fractions import Fraction

import pytest

from nforders.biquadratic import BiquadElem, integral_basis
from nforders.quadratic import FieldElem, QuadElem, QuadField
from oracles import FracBiquad, FracQuad, naive, trace

H = Fraction(1, 2)
Q = Fraction(1, 4)
E37 = integral_basis(
    3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=441
)
QUAD_FIELDS = [QuadField(D) for D in (-1, -3, -5, -59, 2)]
QUARTIC_FIELDS = [integral_basis(59, 2), integral_basis(11, 10), E37]
FIELDS = QUAD_FIELDS + QUARTIC_FIELDS
DENS = (1, 2, 3, 6)
SCALARS = (0, 1, -3, Fraction(5, 6), Fraction(-7, 4))


def frac(e):
    return (FracQuad if isinstance(e, QuadElem) else FracBiquad).of(e)


def rand_elem(rng, field, span=7):
    """A random element with a denominator from DENS; now and then one
    with a single nonzero coordinate, or a rational one."""
    u = [rng.randint(-span, span) for _ in range(field.degree)]
    kind = rng.randrange(6)
    if kind == 0:
        u[1:] = [0] * (field.degree - 1)
    elif kind == 1:
        u = [0] * field.degree
        u[rng.randrange(field.degree)] = rng.choice((-1, 1)) * rng.randint(1, span)
    den = rng.choice(DENS)
    return field.from_basis_coords([Fraction(c, den) for c in u])


def pairs(field, count):
    rng = random.Random(field.degree * 7919 + abs(getattr(field, "D", 0)) + field.disc)
    return [(rand_elem(rng, field), rand_elem(rng, field)) for _ in range(count)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ring_operations_match_fraction_oracle(field):
    for x, y in pairs(field, 60):
        fx, fy = frac(x), frac(y)
        assert frac(x + y) == fx + fy
        assert frac(x - y) == fx - fy
        assert frac(-x) == -fx
        assert frac(x * y) == fx * fy
        for s in SCALARS:
            assert frac(x + s) == fx + s and frac(s + x) == fx + s
            assert frac(x - s) == fx - s and frac(s - x) == -fx + s
            assert frac(x * s) == fx * s and frac(s * x) == fx * s
            if s:
                assert frac(x / s) == fx / s
        for e in range(4):
            assert frac(x**e) == fx**e
        if y:
            assert frac(x / y) == fx / fy
            assert frac(y**-2) == fy**-2
        else:
            with pytest.raises(ZeroDivisionError):
                x / y


@pytest.mark.parametrize("field", [QuadField(-59), integral_basis(59, 2)], ids=repr)
def test_pow_matches_repeated_multiplication(field, monkeypatch):
    # x**e for e in -5..20 against |e| products from one, inverted for a
    # negative e; square-and-multiply makes only the products the bits of
    # e ask for, one for x**2
    cls = type(field.one())
    mul, products = cls.__mul__, []

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    rng = random.Random(33)
    for _ in range(6):
        x = rand_elem(rng, field)
        if not x:
            continue
        for e in range(-5, 21):
            want = field.one()
            for _ in range(abs(e)):
                want = want * x
            if e < 0:
                want = want.inverse()
            monkeypatch.setattr(cls, "__mul__", counted)
            products.clear()
            got = x**e
            monkeypatch.setattr(cls, "__mul__", mul)
            assert (got.u, got.den) == (want.u, want.den), e
            if e >= 0:  # a quartic inverse makes products of its own
                assert len(products) == max(e.bit_length() + bin(e).count("1") - 2, 0)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_invariants_match_fraction_oracle(field):
    for x, _ in pairs(field, 60):
        fx = frac(x)
        assert x.norm() == fx.norm() and x.abs_norm() == abs(fx.norm())
        assert trace(x) == fx.trace()
        assert x.is_rational() == fx.is_rational()
        assert x.is_integral() == all(c.denominator == 1 for c in x.basis_coords())
        if x:
            assert frac(x.inverse()) == fx.inverse()
        if field.degree == 2:
            assert frac(x.conj()) == fx.conj()
            assert (x.a, x.b) == (fx.a, fx.b)
            assert field(x.a, x.b) == x
        else:
            assert frac(x.bar()) == fx.bar()
            assert frac(x.complex_conj()) == fx.complex_conj()
            assert naive(x) == fx.naive()
            assert field.from_naive(naive(x)) == x
            assert x.coords == fx.coords


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_coordinates_are_canonical(field):
    # u/den is reduced with den > 0: one value, one object and one hash,
    # however it was reached
    cls = QuadElem if field.degree == 2 else BiquadElem
    for x, y in pairs(field, 40):
        assert x.den > 0 and all(type(c) is int for c in x.u)
        assert isinstance(x, cls) and isinstance(x, FieldElem)
        for k in (1, 2, -3, 6):
            twin = cls(field, tuple(k * c for c in x.u), k * x.den)
            assert twin == x and hash(twin) == hash(x)
            assert (twin.u, twin.den) == (x.u, x.den)
        again = (x + y) - y
        assert again == x and hash(again) == hash(x)
        assert x * y == y * x and hash(x * y) == hash(y * x)
        if y:
            back = (x * y) / y
            assert back == x and hash(back) == hash(x)
    zero = cls(field, (0,) * field.degree, 5)
    assert zero.den == 1 and not zero and zero.is_zero()
    assert zero == field.one() - field.one()
    with pytest.raises(ZeroDivisionError):
        cls(field, field.one().u, 0)
    with pytest.raises(ZeroDivisionError):
        field.one() / zero
    for wrong in (field.degree - 1, field.degree + 1):
        with pytest.raises(ValueError):
            cls(field, (1,) * wrong)
        with pytest.raises(ValueError):
            field.from_basis_coords((1,) * wrong)


def test_elements_of_different_fields_do_not_mix():
    with pytest.raises(ValueError):
        QuadField(-5)(1, 1) + QuadField(-1)(1, 1)
    with pytest.raises(ValueError):
        QUARTIC_FIELDS[0].one() * QUARTIC_FIELDS[1].one()
