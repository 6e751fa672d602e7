import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from nforders import biquadratic
from nforders.biquadratic import (
    BiquadElem,
    BiquadField,
    class_group,
    factor_rational_prime,
    integral_basis,
    minkowski_bound,
    norm_map_condition,
    residue_degree,
)
from nforders.intmath import poly_discriminant
from nforders.lattice import IntModule, UnsupportedFieldError, hnf, identity_module
from nforders.orders import conductor, module_mul, relative_order
from nforders.quadratic import QuadElem, QuadField
from oracles import fundamental_unit, principal_generator, rel_norm_EF

H = Fraction(1, 2)
Q = Fraction(1, 4)

E59 = integral_basis(59, 2)
E75 = integral_basis(7, 5)
Z12 = integral_basis(3, 1)

# eighth roots of unity: {1, z, z^2, z^3} over (1, sqrt(-1), sqrt(-2), sqrt(2))
Z8_ROWS = ((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H))
E8 = integral_basis(1, 2, basis=Z8_ROWS, disc=256)

# {1, w3, w7, w3*w7} with w_m = (1+sqrt(-m))/2
B37 = ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
E37 = integral_basis(3, 7, basis=B37, disc=441)

B715 = ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
E715 = integral_basis(7, 15, basis=B715, disc=11025)


def rand_elem(rng, E, span=9, den=2):
    c = [Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(4)]
    return E.from_naive(tuple(c))


def q_ideal(E, q):
    return hnf(E, [[q if i == j else 0 for j in range(4)] for i in range(4)])


def subfield_disc_product(d, n):
    from nforders.intmath import squarefree_part

    return (
        QuadField(-d).disc * QuadField(-n).disc * QuadField(squarefree_part(d * n)).disc
    )


# ---------------------------------------------------------------------------
# construction


def test_disc_values():
    assert E59.disc == 222784
    assert E75.disc == 19600
    assert Z12.disc == 144
    assert E8.disc == 256
    assert E37.disc == 441
    assert E715.disc == 11025


def test_disc_matches_subfield_product():
    # conductor-discriminant: disc(E) multiplies over the three characters
    assert E59.disc == subfield_disc_product(59, 2)
    assert E75.disc == subfield_disc_product(7, 5)
    assert Z12.disc == subfield_disc_product(3, 1)
    assert E8.disc == subfield_disc_product(1, 2)
    assert E37.disc == subfield_disc_product(3, 7)
    assert E715.disc == subfield_disc_product(7, 15)


def test_native_congruence_rejections():
    with pytest.raises(UnsupportedFieldError):
        integral_basis(1, 2)  # d = 1 mod 4 needs a supplied basis
    with pytest.raises(UnsupportedFieldError):
        integral_basis(5, 3)
    with pytest.raises(UnsupportedFieldError):
        integral_basis(3, 7)  # n = 3 mod 4
    with pytest.raises((UnsupportedFieldError, ValueError)):
        integral_basis(3, 6)  # common factor


def test_supplied_basis_rejections():
    with pytest.raises(ValueError):
        integral_basis(1, 2, basis=Z8_ROWS, disc=257)
    naive = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        # trace form of the naive order gives 256*d^2*n^2, not the field disc
        integral_basis(7, 5, basis=naive, disc=19600)
    doubled = ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    with pytest.raises(ValueError):
        integral_basis(7, 5, basis=doubled, disc=313600 // 64)
    halved = ((1, 0, 0, 0), (0, H, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError):
        integral_basis(7, 5, basis=halved, disc=78400)


def test_basis_closed_under_multiplication():
    for E in (E59, E8, E37):
        rows = [E.from_basis_coords(tuple(int(i == j) for j in range(4))) for i in range(4)]
        for x in rows:
            for y in rows:
                assert (x * y).is_integral()


# ---------------------------------------------------------------------------
# element arithmetic


def test_elem_ring_identities():
    rng = random.Random(59)
    one = E59.one()
    for _ in range(25):
        x, y, z = (rand_elem(rng, E59) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - 3) + 3 == x
        assert x * one == x
        if not x.is_zero():
            assert x * x.inverse() == one
            assert x / x == one
            assert x ** -2 == (x.inverse()) ** 2


def test_norm_trace_values():
    rng = random.Random(60)
    for _ in range(25):
        x, y = rand_elem(rng, E59), rand_elem(rng, E59)
        assert x.norm() * y.norm() == (x * y).norm()
        assert (x + y).trace() == x.trace() + y.trace()
        assert x.trace() == 4 * x.naive()[0]
    u = E59.gens()[0]  # sqrt(-59)
    assert u.norm() == 59 * 59
    assert u.trace() == 0


def test_norm_is_product_of_conjugates():
    rng = random.Random(61)
    for E in (E59, E8):
        x = rand_elem(rng, E)
        prod = x * x.bar() * x.complex_conj() * x.bar().complex_conj()
        assert prod.is_rational()
        assert prod.naive()[0] == x.norm()


def test_bar_involution():
    rng = random.Random(62)
    x = rand_elem(rng, E59)
    assert x.bar().bar() == x
    u1, u2, u3 = E59.gens()
    assert u1.bar() == u1  # fixes the ground quadratic field
    assert u2.bar() == -u2
    assert u3.bar() == -u3
    assert u1.complex_conj() == -u1


# ---------------------------------------------------------------------------
# relative norm


def test_rel_norm_expansion():
    # N(x + y*sqrt(-n)) = x^2 + n*y^2 for x, y in the ground field
    rng = random.Random(63)
    F = QuadField(-59)
    sq = E59.gens()[1]
    for _ in range(15):
        xa, xb, ya, yb = (Fraction(rng.randint(-9, 9), rng.randint(1, 2)) for _ in range(4))
        x = E59.from_naive((xa, xb, 0, 0))
        y = E59.from_naive((ya, yb, 0, 0))
        got = rel_norm_EF(x + y * sq)
        want = QuadElem(F, xa, xb) ** 2 + 2 * QuadElem(F, ya, yb) ** 2
        assert got == want


def test_rel_norm_multiplicative():
    rng = random.Random(64)
    for _ in range(15):
        e1, e2 = rand_elem(rng, E59), rand_elem(rng, E59)
        assert rel_norm_EF(e1 * e2) == rel_norm_EF(e1) * rel_norm_EF(e2)


def test_rel_norm_half_integer_identity():
    # (3+sqrt(-59))/2 is a relative norm from the quartic field: the witness
    # has half-integral ground-field coordinates yet is an algebraic integer
    x = E59.from_naive((Fraction(5779, 2), Fraction(1115, 2), 0, 0))
    y = E59.from_naive((-3028, 266, 0, 0))
    e = x + y * E59.gens()[1]
    assert e.is_integral()
    assert rel_norm_EF(e) == QuadElem(QuadField(-59), Fraction(3, 2), Fraction(1, 2))
    assert e.norm() == 17


# ---------------------------------------------------------------------------
# prime factorization


def test_factor_shapes_59_2():
    shapes = {
        2: [(2, 2)],
        3: [(1, 1)] * 4,
        13: [(1, 2), (1, 2)],
        17: [(1, 1)] * 4,
        59: [(2, 1), (2, 1)],
    }
    for q, want in shapes.items():
        got = [(pf.e, pf.f) for pf in factor_rational_prime(E59, q)]
        assert got == want, q


def test_factor_recomposes():
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 41, 59):
        pfs = factor_rational_prime(E59, q)
        assert sum(pf.e * pf.f for pf in pfs) == 4
        assert all(pf.f <= 2 and pf.e in (1, 2) for pf in pfs)
        prod = identity_module(E59)
        for pf in pfs:
            for _ in range(pf.e):
                prod = module_mul(prod, pf.ideal.module)
        assert prod == q_ideal(E59, q)


def test_factor_distinct_covolumes():
    for q in (13, 17):
        pfs = factor_rational_prime(E59, q)
        mods = {pf.ideal.module for pf in pfs}
        assert len(mods) == len(pfs)
        for pf in pfs:
            assert pf.ideal.module.covolume() == q**pf.f


def test_primitive_element_choice_is_invisible(monkeypatch):
    # skipping the first k primitive elements whose equation order has
    # index prime to q changes the polynomial factored, not the ideals
    original = biquadratic._primitive_candidates

    def skipping(q, k):
        def candidates(E):
            usable = 0
            for theta, f in original(E):
                if gcd(isqrt(poly_discriminant(f) // E.disc), q) == 1:
                    usable += 1
                    if usable <= k:
                        continue
                yield theta, f

        return candidates

    for q in (5, 17):
        base = {pf.ideal.module for pf in factor_rational_prime(E59, q)}
        for k in (1, 2):
            monkeypatch.setattr(biquadratic, "_primitive_candidates", skipping(q, k))
            alt = {pf.ideal.module for pf in factor_rational_prime(E59, q)}
            monkeypatch.undo()
            assert alt == base


def test_obstructed_primes_still_factor():
    # more primes of residue degree f than monic irreducibles of degree f
    # mod q: no equation order works, the subfield route must take over
    for E, q, count, f in ((E59, 3, 4, 1), (E715, 2, 4, 1), (E37, 2, 2, 2)):
        pfs = factor_rational_prime(E, q)
        assert [(pf.e, pf.f) for pf in pfs] == [(1, f)] * count
        mods = {pf.ideal.module for pf in pfs}
        assert len(mods) == count
        prod = identity_module(E)
        for pf in pfs:
            prod = module_mul(prod, pf.ideal.module)
        assert prod == q_ideal(E, q)


def _sympy_elem(E, theta):
    """theta as a sympy algebraic number, from its naive coordinates."""
    import sympy

    a, b, c, e = (sympy.Rational(x.numerator, x.denominator) for x in theta.naive())
    return (
        a
        + b * sympy.sqrt(-E.d)
        + c * sympy.sqrt(-E.n)
        + e * sympy.sqrt(E.d * E.n)
    )


def test_minpoly4_against_sympy():
    import sympy

    from nforders.biquadratic import _minpoly4

    x = sympy.Symbol("x")
    rng = random.Random(41)
    for E in (E59, E75, E8, E37):
        for _ in range(6):
            theta = E.from_basis_coords([rng.randint(-4, 4) for _ in range(4)])
            got = _minpoly4(theta)
            want = sympy.Poly(sympy.minimal_polynomial(_sympy_elem(E, theta), x), x)
            if want.degree() < 4:
                assert got is None, theta
            else:
                assert got == [int(c) for c in reversed(want.all_coeffs())], theta


def test_minpoly4_non_primitive_is_none():
    from nforders.biquadratic import _minpoly4

    for E in (E59, E8, E37):
        s, t, u = E.gens()
        for theta in (E.one() * 3, s, t + 1, u * 2 - 5):
            assert _minpoly4(theta) is None


def test_basis_inverse_against_sympy():
    import sympy

    def to_sympy(rows):
        return sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]
        )

    for E in (E59, E75, Z12, E8, E37, E715):
        assert to_sympy(E.basis_inverse) == to_sympy(E.intbasis).inv(), E


def test_singular_basis_raises():
    singular = ((1, 0, 0, 0), (H, H, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError, match="singular basis matrix"):
        integral_basis(7, 5, basis=singular, disc=78400)


def test_factor_rejects_composite():
    with pytest.raises(ValueError):
        factor_rational_prime(E59, 6)


# ---------------------------------------------------------------------------
# Minkowski bound and residue degrees


def test_minkowski_bound_values():
    b8 = minkowski_bound(E8)
    assert 2 < b8 < 3
    b59 = minkowski_bound(E59)
    assert 71 < b59 < 72
    assert minkowski_bound(Z12) < 2
    assert minkowski_bound(Z12) < b8 < minkowski_bound(E37) < b59


def test_residue_degrees():
    assert residue_degree(E59, 3) == 1
    assert residue_degree(E59, 5) == 2
    assert residue_degree(E59, 13) == 2
    assert residue_degree(E59, 17) == 1
    assert residue_degree(E8, 3) == 2
    assert residue_degree(E8, 17) == 1
    assert residue_degree(E37, 2) == 2
    assert residue_degree(E715, 2) == 1


def test_residue_degree_matches_factorization():
    for q in (3, 5, 13, 17):
        pfs = factor_rational_prime(E59, q)
        assert {pf.f for pf in pfs} == {residue_degree(E59, q)}


# ---------------------------------------------------------------------------
# class groups


def test_class_number_one_fields():
    assert class_group(E8).h == 1
    assert class_group(E8).structure == ()
    assert class_group(Z12).h == 1  # bound < 2, no primes to inspect
    assert class_group(E37).h == 1


def test_class_group_59_2():
    cg = class_group(E59)
    assert cg.h == 3
    assert cg.structure == (3,)
    assert cg.disc == 222784


def test_class_group_71_2():
    # 18 distinct nonprincipal prime classes lie below the Minkowski bound,
    # but only 2 of them fall outside the subgroup the earlier ones span:
    # the first has order 7, the second order 3 modulo it, so the Smith
    # form runs on 2 relations
    cg = class_group(integral_basis(71, 2))
    assert cg.h == 21
    assert cg.structure == (21,)


# (h, invariant factors) as they stood when every prime class that differed
# from the earlier generators became one: the fields of the classgroup
# benchmark, those of acceptance 08 under the cap ((59, 5) is over it) and
# (11, 10), (23, 5), (31, 6)
_CLASS_GROUPS = {
    (3, 1): (1, ()), (3, 2): (1, ()), (3, 5): (2, (2,)), (3, 10): (2, (2,)),
    (7, 1): (1, ()), (7, 2): (1, ()), (7, 5): (2, (2,)), (7, 10): (2, (2,)),
    (11, 1): (1, ()), (11, 2): (1, ()), (11, 5): (4, (2, 2)),
    (15, 1): (2, (2,)), (15, 2): (2, (2,)), (19, 1): (1, ()), (23, 2): (3, (3,)),
    (35, 2): (2, (2,)), (59, 2): (3, (3,)),
    (11, 10): (4, (2, 2)), (23, 5): (6, (6,)), (31, 6): (12, (2, 6)),
}


def test_class_groups_keep_their_values():
    for (d, n), want in _CLASS_GROUPS.items():
        cg = class_group(integral_basis(d, n))
        assert (cg.h, cg.structure) == want, (d, n)
    for E, want in ((E8, (1, ())), (E37, (1, ())), (E715, (2, (2,)))):
        cg = class_group(E)
        assert (cg.h, cg.structure) == want, E
    with pytest.raises(UnsupportedFieldError):
        class_group(integral_basis(59, 5))


def test_class_group_is_cached():
    assert class_group(E59) is class_group(integral_basis(59, 2))


def test_norm_map_condition_values():
    nm = norm_map_condition(59, 2)
    assert (nm.inj_iso, nm.h_F, nm.h_E, nm.odd_equal) == (True, 3, 3, True)
    nm = norm_map_condition(3, 1)
    assert (nm.inj_iso, nm.h_F, nm.h_E, nm.odd_equal) == (True, 1, 1, True)


def test_norm_map_condition_failing_case():
    nm = norm_map_condition(7, 5)
    assert nm.h_F == 1
    # Brauer class number relations keep h(E) in {2, 4} here
    assert nm.h_E in (2, 4)
    assert not nm.inj_iso
    assert not nm.odd_equal


# ---------------------------------------------------------------------------
# units


def test_torsion_counts():
    assert len(E8.torsion_units()) == 8
    assert len(Z12.torsion_units()) == 12
    assert len(E37.torsion_units()) == 6
    assert len(E59.torsion_units()) == 2


def test_torsion_are_roots_of_unity():
    for E in (E8, E37):
        units = E.torsion_units()
        one = E.one()
        for u in units:
            assert u ** len(units) == one
            assert u.inverse() in units


def test_fundamental_unit_59_2():
    # the real quadratic subfield is Q(sqrt(118)); x^2 - 118*y^2 = -1 has no
    # solution, so the unit comes from the +1 Pell equation
    eps = fundamental_unit(E59)
    assert eps == E59.from_real_quadratic(306917, 28254)
    assert eps.is_integral()
    assert eps.norm() == 1
    assert 306917**2 - 118 * 28254**2 == 1


def test_fundamental_unit_z8():
    eps = fundamental_unit(E8)
    assert eps == E8.from_real_quadratic(1, 1)
    assert eps.norm() == 1


def test_from_real_quadratic_is_multiplicative():
    a = E59.from_real_quadratic(3, 1) * E59.from_real_quadratic(5, 2)
    assert a == E59.from_real_quadratic(3 * 5 + 118 * 2, 3 * 2 + 5)


# ---------------------------------------------------------------------------
# relative order and principality


def test_relative_order_native_is_maximal():
    o = relative_order(E59)
    assert o.module == identity_module(E59)
    assert conductor(o).module == identity_module(E59)


def test_relative_order_z8_has_index_two():
    o = relative_order(E8)
    assert o.module.covolume() == 2
    assert conductor(o).module.covolume() > 1


def test_principal_generator_found():
    pfs = factor_rational_prime(E59, 17)
    for pf in pfs:
        g = principal_generator(E59, pf.ideal.module)
        assert g is not None
        assert g.norm() == 17


def test_principal_generator_absent():
    # no element of norm 3 exists (a^2 + 59*b^2 = 12 is insoluble), so the
    # norm-3 primes cannot be principal; this is where h = 3 shows up
    pf = factor_rational_prime(E59, 3)[0]
    assert principal_generator(E59, pf.ideal.module) is None


# ---------------------------------------------------------------------------
# conventions


def test_mult_matrix_convention():
    rng = random.Random(65)
    for _ in range(10):
        x, e = rand_elem(rng, E59), rand_elem(rng, E59)
        M = E59.mult_matrix(e)
        xc = x.basis_coords()
        want = tuple(sum(xc[i] * M[i][j] for i in range(4)) for j in range(4))
        assert (x * e).basis_coords() == want


def test_first_basis_vector_is_one():
    for E in (E59, E75, Z12, E8, E37, E715):
        assert E.from_basis_coords((1, 0, 0, 0)) == E.one()
