import random

import pytest
from fractions import Fraction

from nforders.intmath import factorize
from nforders.lattice import IntModule, hnf, identity_module
from nforders.orders import (
    AuditFailure,
    OrderIdeal,
    OrderRep,
    PreconditionError,
    conductor,
    factor_ideal,
    ideal_mul,
    is_coprime_to_conductor,
    is_invertible,
    is_principal,
    is_regular_prime,
    maximal_order,
    module_colon,
    module_mul,
    order_with_index,
    order_zsqrt,
    pic_brute_force,
    picard_number,
    principal_ideal,
    residue_unit_count,
    unit_ideal,
    unit_index,
)
from nforders.quadratic import QuadField, form_class_group, split_prime

from audit import counting_audit, in_PK1f, in_PKOf
from ideals import contract_ideal, extend_ideal, ideal_add, ideal_from_gens, ideal_quot

F1 = QuadField(-1)
F2 = QuadField(-2)
F3 = QuadField(-3)
F5 = QuadField(-5)
F59 = QuadField(-59)


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def prime_above(o: OrderRep, q: int) -> OrderIdeal:
    """Contract one ambient prime above q to o, without coprimality checks."""
    s = split_prime(o.field, q)
    m = hnf(o.field, [list(r) for r in s.hnf])
    return OrderIdeal(o, m.intersect(o.module))


# ---------------------------------------------------------------------------
# order construction


def test_maximal_order():
    o = maximal_order(F59)
    assert o.is_maximal
    assert o.index_in_maximal() == 1
    assert conductor(o).module == identity_module(F59)


def test_order_constructors():
    o = order_zsqrt(F3)
    assert not o.is_maximal
    assert o.index_in_maximal() == 2
    # for -5 = 3 mod 4 the square root already generates the maximal order
    assert order_zsqrt(F5).is_maximal
    for f in range(1, 6):
        assert order_with_index(F1, f).index_in_maximal() == f


def test_order_must_contain_one():
    with pytest.raises(ValueError):
        OrderRep(F3, hnf(F3, [[2, 0], [1, 1]]))


def test_order_must_be_integral():
    with pytest.raises(ValueError):
        OrderRep(F3, IntModule(F3, ((1, 0), (0, 1)), 2))


# ---------------------------------------------------------------------------
# conductors


def test_conductor_of_zsqrt_minus_three():
    f = conductor(order_zsqrt(F3))
    assert f.module == hnf(F3, [[2, 0], [0, 2]])


def test_conductor_of_index_orders():
    for F in (F1, F2, F3, F5):
        for k in range(1, 6):
            f = conductor(order_with_index(F, k))
            assert f.module == hnf(F, [[k, 0], [0, k]])


def test_conductor_is_ambient_stable():
    f = conductor(order_with_index(F1, 3))
    assert module_mul(identity_module(F1), f.module) == f.module


# ---------------------------------------------------------------------------
# ideal arithmetic


def test_principal_ideal_norm_and_products():
    o = order_zsqrt(F3)
    a = principal_ideal(o, F3(2, 1))
    assert a.norm() == 7
    assert ideal_mul(a, a.conj()) == principal_ideal(o, F3(7))
    assert ideal_add(a, a.conj()) == unit_ideal(o)


def test_ideal_from_gens_matches_contraction():
    o = order_zsqrt(F3)
    p = ideal_from_gens(o, [F3(7), F3(2, 1)])
    assert p.norm() == 7
    assert p == prime_above(o, 7) or p == prime_above(o, 7).conj()


def test_quot_returns_module_and_cancels_invertibles():
    o = order_zsqrt(F3)
    a = principal_ideal(o, F3(2, 1))
    b = prime_above(o, 13)
    q = ideal_quot(ideal_mul(a, b), b)
    assert isinstance(q, IntModule)
    assert q == a.module


def test_noninvertible_ideal_at_the_conductor():
    o = order_zsqrt(F3)
    a = ideal_from_gens(o, [F3(2), F3(1, 1)])
    assert not is_invertible(a)
    inv = module_colon(o.module, a.module)
    assert module_mul(a.module, inv) != o.module
    # its multiplier ring is the whole maximal order
    assert module_colon(a.module, a.module) == identity_module(F3)


def test_invertible_iff_regular_on_primes():
    grid = [
        order_zsqrt(F3),
        order_with_index(F3, 3),
        order_with_index(F1, 2),
        order_with_index(F5, 2),
    ]
    for o in grid:
        for q in (2, 3, 5, 7, 11, 13):
            p = prime_above(o, q)
            assert is_invertible(p) == is_regular_prime(p)
            assert is_regular_prime(p) == is_coprime_to_conductor(p)


# ---------------------------------------------------------------------------
# factorization


def test_factor_seven_in_zsqrt_minus_three():
    o = order_zsqrt(F3)
    fac = factor_ideal(principal_ideal(o, F3(7)))
    assert len(fac.factors) == 2
    assert all(e == 1 for _, e in fac.factors)
    mods = {p.module for p, _ in fac.factors}
    expected = ideal_from_gens(o, [F3(7), F3(2, 1)])
    assert expected.module in mods
    assert expected.conj().module in mods


def test_factor_rejects_conductor_overlap():
    o = order_zsqrt(F3)
    with pytest.raises(PreconditionError):
        factor_ideal(principal_ideal(o, F3(2)))


def test_factor_rejects_fractional():
    o = order_zsqrt(F3)
    a = OrderIdeal(o, IntModule(F3, o.module.rows, 7))
    with pytest.raises(PreconditionError):
        factor_ideal(a)


def test_factor_refactors_shuffled_products():
    o = order_zsqrt(F3)
    p5 = prime_above(o, 5)  # inert
    p7 = prime_above(o, 7)
    p13 = prime_above(o, 13)
    a = ideal_mul(ideal_mul(p5, p7), ideal_mul(p13, p13))
    fac = factor_ideal(a)
    got = sorted((int(p.norm()), e) for p, e in fac.factors)
    assert got == [(7, 1), (13, 2), (25, 1)]
    assert fac.remultiply(o) == a


def test_extend_contract_roundtrip():
    o = order_zsqrt(F3)
    omax = maximal_order(F3)
    for q in (5, 7, 11, 13):
        p = prime_above(o, q)
        ext = extend_ideal(p)
        assert ext.order == omax
        assert contract_ideal(ext, o) == p
    p7, p13 = prime_above(o, 7), prime_above(o, 13)
    assert extend_ideal(ideal_mul(p7, p13)) == ideal_mul(
        extend_ideal(p7), extend_ideal(p13)
    )


def test_contract_requires_coprimality():
    o = order_zsqrt(F3)
    two = principal_ideal(maximal_order(F3), F3(2))
    with pytest.raises(PreconditionError):
        contract_ideal(two, o)


# ---------------------------------------------------------------------------
# residue units, unit index, Picard numbers


def test_residue_unit_counts_at_two():
    two = hnf(F3, [[2, 0], [0, 2]])
    assert residue_unit_count(maximal_order(F3), two) == 3
    o = order_zsqrt(F3)
    assert residue_unit_count(o, conductor(o)) == 1
    assert residue_unit_count(o, o.module) == 1


def test_residue_unit_count_prime_formula():
    for F in (F1, F2, F3, F5):
        for q in (3, 5, 7):
            kind = split_prime(F, q).kind
            expected = {
                "split": (q - 1) ** 2,
                "inert": q * q - 1,
                "ramified": q * (q - 1),
            }[kind]
            m = hnf(F, [[q, 0], [0, q]])
            assert residue_unit_count(maximal_order(F), m) == expected


def test_residue_units_of_index_order_are_rational():
    for F in (F1, F3, F5):
        for k in range(2, 7):
            o = order_with_index(F, k)
            assert residue_unit_count(o, conductor(o)) == euler_phi(k)


def test_unit_index_known_values():
    assert unit_index(order_zsqrt(F3)) == 3
    assert unit_index(order_with_index(F1, 2)) == 2
    assert unit_index(maximal_order(F1)) == 1
    assert unit_index(maximal_order(F5)) == 1
    assert unit_index(order_with_index(F5, 2)) == 1


def test_picard_known_values():
    assert picard_number(order_zsqrt(F3)) == 1
    assert picard_number(maximal_order(F59)) == 3
    assert picard_number(order_with_index(F1, 3)) == 2


def test_picard_matches_form_class_number():
    for F in (F1, F2, F3, F5):
        for k in range(1, 6):
            o = order_with_index(F, k)
            h = form_class_group(F.disc * k * k).h
            assert picard_number(o) == h


def test_pic_brute_force_59():
    r = pic_brute_force(maximal_order(F59), 8)
    assert r.count == 3
    assert r.complete
    assert pic_brute_force(maximal_order(F59)).count == 3


def test_pic_brute_force_sweep_matches_formula():
    for n in (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30):
        o = order_zsqrt(QuadField(-n))
        h = form_class_group(-4 * n).h
        assert picard_number(o) == h
        assert pic_brute_force(o).count == h


def test_is_principal_roundtrip():
    rng = random.Random(7)
    o = order_zsqrt(F3)
    for _ in range(12):
        a = rng.randint(-6, 6)
        b = rng.randint(-4, 4)
        if a == 0 and b == 0:
            continue
        m = principal_ideal(o, F3(a, b)).module
        g = is_principal(o, m)
        assert g is not None
        assert principal_ideal(o, g).module == m
    bad = hnf(F5, [[2, 0], [1, 1]])
    assert is_principal(maximal_order(F5), bad) is None


# ---------------------------------------------------------------------------
# congruence subgroup predicates


def _three_ideal(F):
    return OrderIdeal(maximal_order(F), hnf(F, [[3, 0], [0, 3]]))


def test_in_pk1f_basic():
    f = _three_ideal(F1)
    assert in_PK1f(F1, F1(1, 3), f)
    assert not in_PK1f(F1, F1(2), f)
    assert in_PK1f(F1, F1(4, 3), f, F1(1, 3))


def test_in_pk1f_preconditions():
    f = _three_ideal(F1)
    with pytest.raises(PreconditionError):
        in_PK1f(F1, F1(3), f)
    with pytest.raises(PreconditionError):
        in_PK1f(F1, F1(Fraction(1, 2)), f)


def test_in_pkof_detects_order_generators():
    o = order_with_index(F1, 3)
    s = split_prime(F1, 2)
    ptilde = OrderIdeal(maximal_order(F1), hnf(F1, [list(r) for r in s.hnf]))
    # 1+i generates, but no associate lies in Z + 3*O_K
    assert not in_PKOf(ptilde, o)
    # the square is 2*O_K with generator 2 in the order
    assert in_PKOf(ideal_mul(ptilde, ptilde), o)


def test_in_pkof_nonprincipal_is_false():
    omax = maximal_order(F5)
    p = OrderIdeal(omax, hnf(F5, [[2, 0], [1, 1]]))
    assert not in_PKOf(p, omax)
    assert in_PKOf(principal_ideal(omax, F5(1, 1)), omax)


# ---------------------------------------------------------------------------
# the counting audit


def test_counting_audit_grid():
    grid = [
        (maximal_order(F59), 3),
        (order_zsqrt(F3), 1),
        (order_with_index(F1, 2), 1),
        (order_with_index(F1, 3), 2),
        (order_with_index(F5, 2), 4),
    ]
    for o, pic in grid:
        report = counting_audit(o, margin=2)
        assert report.picard == pic
        assert report.ray_class_count == pic
        assert report.picard * report.unit_index * report.residue_units_order == (
            report.h_K * report.residue_units_max
        )
        assert set(report.checks) == {
            "pic_formula_equals_brute_force",
            "ray_class_count_equals_picard",
            "unit_intersection_is_order_units",
            "pk1f_contained_in_pkof",
        }


# ---------------------------------------------------------------------------
# the unit index of non-maximal quartic orders


def _e37_order():
    """O_F[sqrt(-7)], F = Q(sqrt(-3)), of index 4 in O_E for E = Q(sqrt(-3),
    sqrt(-7)) with its full integral basis supplied."""
    from nforders.biquadratic import integral_basis
    from nforders.orders import relative_order

    H, Q = Fraction(1, 2), Fraction(1, 4)
    E = integral_basis(
        3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=441
    )
    return relative_order(E)


def test_unit_index_unresolved_on_nonmaximal_quartic_order():
    # the true index [O_E^x : o^x] is 3 and #Pic(o) is 1; the Pell unit
    # eta = zeta * eps^6 of Z[sqrt(21)] made them read 1 and 3
    from nforders.orders import UnresolvedError

    o = _e37_order()
    assert o.index_in_maximal() == 4
    with pytest.raises(UnresolvedError):
        unit_index(o)
    with pytest.raises(UnresolvedError):
        picard_number(o)
    # the maximal order keeps its index
    assert unit_index(maximal_order(o.field)) == 1


def test_in_pkof_quartic_miss_is_unresolved():
    # x lies in o, so (x) is in P_{K,o}(f); no associate u * eta^(+-j) * g
    # of the generator g the search returns lies in o, which used to give
    # False
    from nforders.orders import UnresolvedError

    o = _e37_order()
    E = o.field
    x = E.from_basis_coords([-2, -1, -2, 2])
    assert o.module.contains_coords(x.basis_coords())
    with pytest.raises(UnresolvedError):
        in_PKOf(principal_ideal(maximal_order(E), x), o)
    # a hit carries its witness and stays True
    assert in_PKOf(principal_ideal(maximal_order(E), E.one()), o)
