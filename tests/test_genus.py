"""The genus characters find_generator reads before any lattice search.

A field's genus_characters are the prime discriminants p* of its
quadratic subfields (of the field itself when it is imaginary
quadratic).  For every element alpha of the field with N(alpha) = N odd,
(p*/N) = 1 for each p* coprime to N, so a -1 proves that no element has
norm N.  The tests check that on seeded random elements of imaginary
quadratic and biquadratic fields, native and supplied-basis, pin the
real-field counterexample that keeps real fields out, and check every
None a character decides against the lattice search run without it: the
window walk on the represent searches of a grid of native fields, and
the one T2 ball on the primes of imaginary quadratic fields."""

import random
from fractions import Fraction
from math import gcd

import pytest

from nforders import criteria, lattice
from nforders.biquadratic import integral_basis
from nforders.criteria import prime_elements
from nforders.intmath import is_prime, is_squarefree, jacobi
from nforders.lattice import (
    UnsupportedFieldError,
    _norm_filter,
    enumerate_by_t2,
    find_generator,
    hnf,
    identity_module,
    lll_reduce,
)
from nforders.quadratic import QuadField, prime_discriminants

H, Q = Fraction(1, 2), Fraction(1, 4)
E37 = integral_basis(
    3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=441
)
E715 = integral_basis(
    7, 15, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=11025
)
BIQUAD_FIELDS = (
    integral_basis(59, 2),
    integral_basis(11, 10),
    integral_basis(23, 5),
    integral_basis(31, 6),
    E37,
    E715,
)
IMAGINARY_D = [-D for D in range(1, 200) if is_squarefree(D)]

# the native fields of the grid: d = 3 mod 4 below GRID_D, n <= GRID_N,
# and the represent searches of the prime elements of norm <= GRID_NORM
GRID_D, GRID_N, GRID_NORM = 60, 30, 500


def refuted(field, N: int) -> bool:
    """Does a genus character of the field put -1 at the odd N?"""
    return any(jacobi(p, N) == -1 for p in field.genus_characters)


def test_prime_discriminants_multiply_to_the_discriminant():
    for D in range(-300, 300):
        if D in (0, 1) or not is_squarefree(D):
            continue
        disc = QuadField(D).disc
        ps = prime_discriminants(disc)
        prod = 1
        for p in ps:
            prod *= p
            assert p in (-4, 8, -8) or (p % 4 == 1 and is_prime(abs(p)))
        assert prod == disc
        # one per prime dividing disc, the 2-part first
        assert len({abs(p) for p in ps}) == len(ps)
        assert all(p % 2 for p in ps[1:])


def test_characters_of_the_fields():
    assert integral_basis(11, 10).genus_characters == (-11, -8, 5)
    assert integral_basis(59, 2).genus_characters == (-59, -8)
    # the real subfield's prime discriminants count in a biquadratic field
    assert E715.genus_characters == (-7, -3, 5)
    assert QuadField(-5).genus_characters == (-4, 5)
    assert QuadField(-30).genus_characters == (8, -3, 5)
    assert QuadField(30).genus_characters == ()


def test_a_real_field_has_no_characters():
    # in Q(sqrt(3)), 1 + 2*sqrt(3) has |N| = 11 and (-4/11) = -1: the genus
    # field Q(sqrt(-1), sqrt(-3)) ramifies at the real places, so -4 is no
    # character of the real field, and the search still refuses it
    F = QuadField(3)
    alpha = F(1, 2)
    assert alpha.norm() == -11 and alpha.is_integral()
    assert prime_discriminants(F.disc) == (-4, -3)
    assert jacobi(-4, 11) == -1
    assert F.genus_characters == ()
    module = identity_module(F).transform(alpha)
    assert module.covolume() == 11
    with pytest.raises(UnsupportedFieldError):
        find_generator(module, 11)


def check_random_norms(field, rng, count, size) -> int:
    """Every character is 1 at the odd norm of each of `count` random
    integral elements with coordinates in [-size, size]; returns how many
    (element, character) pairs were coprime and checked."""
    checked = 0
    for _ in range(count):
        u = tuple(rng.randint(-size, size) for _ in range(field.degree))
        N = abs(field.norm_form(u))
        if N % 2 == 0:
            continue
        for p in field.genus_characters:
            if gcd(p, N) == 1:
                assert jacobi(p, N) == 1, (field, u, p)
                checked += 1
    return checked


def test_characters_are_one_at_the_norms_of_imaginary_quadratic_elements():
    rng = random.Random(47)
    checked = sum(check_random_norms(QuadField(D), rng, 40, 50) for D in IMAGINARY_D)
    assert checked > 3000


@pytest.mark.parametrize("field", BIQUAD_FIELDS, ids=repr)
def test_characters_are_one_at_the_norms_of_biquadratic_elements(field):
    rng = random.Random(field.d * 100 + field.n)
    assert check_random_norms(field, rng, 600, 9) > 50


def test_every_character_none_is_a_none_of_the_window_walk():
    # the represent searches of the 153 native fields of the grid: 4,194
    # reach find_generator, and a character decides 2,088 of them; the
    # window walk, run without the characters, finds no element on any
    fields = [
        (d, n)
        for d in range(3, GRID_D, 4)
        if is_squarefree(d)
        for n in range(1, GRID_N + 1)
        if n % 4 in (1, 2) and is_squarefree(n) and gcd(d, n) == 1
    ]
    calls = []

    def record(module, norm):
        calls.append((module, norm))
        return None

    saved = criteria.find_generator
    criteria.find_generator = record
    try:
        for d, n in fields:
            for p in prime_elements(QuadField(-d), GRID_NORM):
                if not criteria._divides(p, 2 * n):
                    criteria.represent(p, d, n)
    finally:
        criteria.find_generator = saved
    decided = [
        (module, norm) for module, norm in calls if norm % 2 and refuted(module.ambient, norm)
    ]
    assert (len(fields), len(calls), len(decided)) == (153, 4194, 2088)
    for module, norm in decided:
        assert find_generator(module, norm) is None
        assert lattice._window_walk(module, Fraction(norm)) is None


def test_every_character_none_is_a_none_of_the_t2_ball():
    # the primes above each odd q < 200 in the 122 imaginary quadratic
    # fields of |D| < 200: where a character decides, 3,036 primes, the one
    # ball of the rank-2 search holds no element of norm q
    decided = 0
    for D in IMAGINARY_D:
        F = QuadField(D)
        G = F.t2_gram_matrix()
        for q in range(3, 200, 2):
            if not is_prime(q) or not refuted(F, q):
                continue
            for rows in F.prime_rows(q):
                module = hnf(F, rows)
                if module.covolume() != q:
                    continue
                points = enumerate_by_t2(lll_reduce(module, G), 2 * q)
                assert not any(map(_norm_filter(module, q), points))
                assert find_generator(module, q) is None
                decided += 1
    assert decided == 3036
