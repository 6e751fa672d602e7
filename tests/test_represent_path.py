"""represent's path from a prime element of O_F to the searched prime of
O_E, and back from the generator found, against the paths it took before
it read each step in closed form (tests/oracles.py): the residue data
against the root search, the prime of O_E against the HNF of the ideal
its two generators span, the relative split against naive coordinates,
and the field's integer tables against Fraction products."""

import random
from fractions import Fraction

import pytest

from nforders.biquadratic import _det_int, _mat_inv, _products_table, integral_basis
from nforders.criteria import (
    _prime_above,
    _residue_data,
    _split_relative,
    _sqrt_minus_n,
    prime_elements,
)
from nforders.quadratic import QuadElem, QuadField, split_kind
from oracles import (
    embed_F,
    omega,
    prime_above_by_generators,
    products_table_by_fractions,
    residue_data_by_root_search,
    split_relative_naive,
    trace_form_by_fractions,
)

FIELDS = [(59, 2), (11, 10), (71, 2), (23, 5), (31, 6), (79, 2)]
NORM = 3000

H, Q = Fraction(1, 2), Fraction(1, 4)
B37 = ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))


@pytest.mark.parametrize("d,n", FIELDS)
def test_residue_data_matches_the_root_search(d, n):
    # every prime element of norm <= 3000, then every integral element of a
    # coordinate box, prime or not: the same data or the same ValueError
    F = QuadField(-d)
    kinds = set()
    for p in prime_elements(F, NORM):
        got = _residue_data(p)
        assert got == residue_data_by_root_search(p), p
        kinds.add(split_kind(F, got[0]))
    assert kinds == {"split", "ramified", "inert"}
    for x in range(-12, 13):
        for y in range(-12, 13):
            p = QuadElem(F, (x, y))
            if p.is_zero():
                continue
            try:
                want = residue_data_by_root_search(p)
            except ValueError as err:
                with pytest.raises(ValueError, match="not a prime element"):
                    _residue_data(p)
                assert "not a prime element" in str(err)
                continue
            assert _residue_data(p) == want, p


@pytest.mark.parametrize("d,n", FIELDS)
def test_prime_above_matches_the_ideal_of_its_generators(d, n):
    # each prime element of norm <= 3000 coprime to 2n whose residue field
    # holds a square root of -n: the closed-form HNF is the ideal p*O_E +
    # (root - sqrt(-n))*O_E, of norm q^deg
    F, E = QuadField(-d), integral_basis(d, n)
    degrees = set()
    for p in prime_elements(F, NORM):
        q, deg, r = _residue_data(p)
        if (2 * n) % q == 0:
            continue
        root = _sqrt_minus_n(F, q, deg, n)
        if root is None:
            continue
        P = _prime_above(E, F, q, deg, r, root)
        assert P == prime_above_by_generators(E, p, root), p
        assert P.covolume() == q**deg
        # another lift of root to O_F gives the same kernel
        lift = root + (omega(F) - r if deg == 1 else omega(F) * q)
        assert _prime_above(E, F, q, deg, r, lift) == P, p
        degrees.add(deg)
    assert degrees == {1, 2}


@pytest.mark.parametrize("d,n", FIELDS)
def test_split_relative_matches_naive_coordinates(d, n):
    # x + y*sqrt(-n) for each prime element x of norm <= 3000 with y its
    # root of -n, then for random x and y with denominators
    F, E = QuadField(-d), integral_basis(d, n)
    t = E.gens()[1]
    rng = random.Random(d * n)
    pairs = []
    for p in prime_elements(F, NORM):
        q, deg, _ = _residue_data(p)
        if (2 * n) % q:
            root = _sqrt_minus_n(F, q, deg, n)
            if root is not None:
                pairs.append((p, root))
    for _ in range(200):
        x, y = (
            F.from_basis_coords(
                [Fraction(rng.randrange(-99, 100), rng.randrange(1, 7)) for _ in "xy"]
            )
            for _ in "xy"
        )
        pairs.append((x, y))
    assert len(pairs) > 200
    for x, y in pairs:
        alpha = embed_F(E, x) + embed_F(E, y) * t
        assert _split_relative(alpha, F) == split_relative_naive(alpha) == (x, y)


@pytest.mark.parametrize(
    "d,n,basis",
    [(d, n, None) for d, n in FIELDS] + [(3, 7, B37)],
    ids=[str(f) for f in FIELDS] + ["E37"],
)
def test_verified_tables_match_fraction_products(d, n, basis):
    # the integer product table and trace form against the Fraction
    # products, on the native fields and on E37's supplied basis
    E = integral_basis(d, n) if basis is None else integral_basis(d, n, basis, 441)
    rows = E.intbasis
    assert E.mult_table == products_table_by_fractions(d, n, rows, E.basis_inverse)
    assert E.disc == _det_int(trace_form_by_fractions(d, n, rows))


@pytest.mark.parametrize(
    "basis",
    [
        # {1, (1 + sqrt(-3))/2, sqrt(-7), 2*sqrt(21)}: not a ring, as
        # (1 + sqrt(-3))/2 * sqrt(-7) = (sqrt(-7) - sqrt(21))/2
        ((1, 0, 0, 0), (H, H, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)),
        # (1 + sqrt(21))/4 leaves the integers
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (Q, 0, 0, Q)),
        # B37 with the last two rows swapped
        B37[:2] + (B37[3], B37[2]),
    ],
)
def test_product_table_errors_match_fraction_products(basis):
    # the same ValueError, naming the same pair, or the same table
    rows = tuple(tuple(Fraction(x) for x in row) for row in basis)
    Bi = _mat_inv(rows)
    try:
        want = products_table_by_fractions(3, 7, rows, Bi)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            _products_table(3, 7, rows, Bi)
        assert str(got.value) == str(err)
    else:
        assert _products_table(3, 7, rows, Bi) == want
