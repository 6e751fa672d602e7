import random
from fractions import Fraction
from math import isqrt

import pytest

from nforders.criteria import (
    SOLVABLE,
    UNKNOWN,
    UNRESOLVED,
    UNSOLVABLE,
    CriterionReport,
    UnitWitness,
    cornacchia,
    cox_criterion,
    criterion_hilbert,
    criterion_quadr,
    prime_elements,
    _roots_in_residue_field,
    _sqrt_minus_n,
    represent,
    unit_witness,
    verify_identity,
)
from nforders.intmath import is_prime, poly_roots_mod
from nforders.quadratic import QuadElem, QuadField, from_integral_coords, split_prime
from oracles import brute_force_represent, primes_upto

F59 = QuadField(-59)
F5 = QuadField(-5)

PI17 = from_integral_coords(F59, 1, 1)  # (3+sqrt(-59))/2, norm 17
PI71 = from_integral_coords(F59, 7, 1)  # 7+w, norm 71


def int_box_solution(p, n, box):
    for x in range(box + 1):
        r, rem = divmod(p - x * x, n)
        if r < 0:
            break
        if rem == 0 and isqrt(r) ** 2 == r:
            return x, isqrt(r)
    return None


def sqrt_minus_n_by_scan(F, q, n):
    # every a + b*w of the residue field F_(q^2), least b first, then least a
    c0, c1, _ = F.omega_minpoly()
    for b in range(q):
        for a in range(q):
            if (a * a - c0 * b * b + n) % q == 0 and (b * (2 * a - c1 * b)) % q == 0:
                return from_integral_coords(F, a, b)
    return None


def roots_in_residue_field_by_scan(coeffs, q, deg, r, F):
    # g evaluated at every element of the residue field: x in F_q, with w
    # mapped to r, for deg 1; every a + b*w mod q for deg 2
    imgs = []
    for c in coeffs:
        c = c if isinstance(c, QuadElem) else F(c)
        x, y = c.integral_coords()
        imgs.append((int(x) % q, int(y) % q))
    if deg == 1:
        flat = [(x + y * r) % q for x, y in imgs]
        return any(sum(c * t**i for i, c in enumerate(flat)) % q == 0 for t in range(q))
    c0, c1, _ = F.omega_minpoly()

    def mul(u, v):
        a, b = u
        c, e = v
        be = b * e
        return (a * c - be * c0) % q, (a * e + b * c - be * c1) % q

    for a in range(q):
        for b in range(q):
            acc = (0, 0)
            for c in reversed(imgs):
                acc = mul(acc, (a, b))
                acc = ((acc[0] + c[0]) % q, (acc[1] + c[1]) % q)
            if acc == (0, 0):
                return True
    return False


# the fields of the residue-field oracle tests: Q(sqrt(-59)), Q(sqrt(-11)),
# Q(i), Q(sqrt(-2)), Q(sqrt(-3)) and Q(sqrt(-7))
ORACLE_FIELDS = [QuadField(D) for D in (-59, -11, -1, -2, -3, -7)]


def inert_primes(F, bound):
    return [q for q in primes_upto(bound) if split_prime(F, q).kind == "inert"]


# ---------------------------------------------------------------------------
# cornacchia


def test_cornacchia_known():
    assert cornacchia(13, 1) == (3, 2)
    assert cornacchia(17, 2) == (3, 2)
    assert cornacchia(5, 3) is None


def test_cornacchia_rejects():
    with pytest.raises(ValueError):
        cornacchia(2, 1)
    with pytest.raises(ValueError):
        cornacchia(7, 14)  # p divides n
    with pytest.raises(ValueError):
        cornacchia(9, 1)


def test_cornacchia_against_exhaustive_scan():
    for n in (1, 2, 3, 5, 6, 10):
        for p in range(3, 300, 2):
            if not is_prime(p) or n % p == 0:
                continue
            got = cornacchia(p, n)
            want = int_box_solution(p, n, isqrt(p))
            assert (got is None) == (want is None), (p, n)
            if got:
                assert got[0] ** 2 + n * got[1] ** 2 == p


def test_cornacchia_two_squares():
    # n = 1 succeeds exactly on p = 1 mod 4
    for p in range(3, 1000, 2):
        if is_prime(p):
            assert (cornacchia(p, 1) is not None) == (p % 4 == 1), p


# ---------------------------------------------------------------------------
# cox criterion


def test_cox_known():
    r = cox_criterion(13, 1, (0, 1), solve=True)
    assert r.applicable and r.verdict == SOLVABLE
    assert r.representation == (3, 2)
    assert cox_criterion(7, 1, (0, 1)).verdict == UNSOLVABLE


def test_cox_gates():
    r = cox_criterion(3, 6, (0, 1))  # p | n
    assert not r.applicable and r.verdict == UNKNOWN
    r = cox_criterion(7, 3, (7, 0, 1))  # disc(x^2+7) = -28, divisible by 7
    assert not r.applicable
    assert r.hypotheses[-1][0] == "p_coprime_to_poly_disc"


def test_cox_matches_cornacchia_n2():
    # the n = 2 class polynomial is x again (class number one)
    for p in range(3, 500, 2):
        if not is_prime(p):
            continue
        r = cox_criterion(p, 2, (0, 1), solve=True)
        assert (r.verdict == SOLVABLE) == (cornacchia(p, 2) is not None)
        if r.representation:
            x, y = r.representation
            assert x * x + 2 * y * y == p


# ---------------------------------------------------------------------------
# unit witnesses


def test_unit_witness_pell_branch():
    w = unit_witness(5, 13)
    assert (w.alpha, w.beta) == (F5(8), F5(0, 1))


def test_unit_witness_sqrt_branch():
    # 59*51^2 - 2*277^2 = 1 feeds alpha = 51*sqrt(-59)
    w = unit_witness(59, 2)
    assert (w.alpha, w.beta) == (F59(0, 51), F59(277))
    assert w.alpha**2 + 2 * w.beta**2 == F59(-1)


def test_unit_witness_none():
    # 7u^2 - 5v^2 = 1 is insoluble mod 5, and no small witness exists
    assert unit_witness(7, 5) is None


def test_unit_witness_rejects():
    with pytest.raises(ValueError):
        unit_witness(3, 2)
    with pytest.raises(ValueError):
        unit_witness(59, 59)


def test_unit_witness_invariant():
    with pytest.raises(AssertionError):
        UnitWitness(F5(1), F5(1), 13)


# ---------------------------------------------------------------------------
# order-level criteria


def test_quadr_root_everywhere():
    p29 = F5(3, 2)
    r = criterion_quadr(p29, 5, 13, g_n=(0, 1, 1))  # x(x+1)
    assert r.applicable and r.verdict == SOLVABLE


def test_quadr_residue_field_sensitivity():
    p29 = F5(3, 2)
    # 2 is a non-residue mod 29 but a square in F_121
    assert criterion_quadr(p29, 5, 13, g_n=(-2, 0, 1)).verdict == UNSOLVABLE
    assert criterion_quadr(F5(11), 5, 13, g_n=(-2, 0, 1)).verdict == SOLVABLE
    assert criterion_quadr(p29, 5, 13, g_n=(-7, 0, 1)).verdict == SOLVABLE


def test_quadr_with_non_rational_coefficients():
    # g = x^2 + sqrt(-5)*x + (1 + sqrt(-5)) has discriminant -9 - 4*sqrt(-5),
    # of norm 161 = 7 * 23, so p29 is prime to it; x^2 + x + (-4 + 2*sqrt(-5))
    # has discriminant 17 - 8*sqrt(-5) = (3 + 2*sqrt(-5)) * (-1 - 2*sqrt(-5))
    p29 = F5(3, 2)
    r = criterion_quadr(p29, 5, 13, g_n=(F5(1, 1), F5(0, 1), 1))
    assert r == CriterionReport(
        "quadr",
        (
            ("d_exceeds_3", True, "d = 5"),
            ("unit_witness_found", True, None),
            ("p_coprime_to_2n", True, "2n = 26"),
            ("defining_poly_supplied", True, "class polynomials are inputs"),
            ("p_coprime_to_poly_disc", True, None),
        ),
        True,
        UNSOLVABLE,
    )
    r = criterion_quadr(p29, 5, 13, g_n=(F5(-4, 2), 1, 1))
    assert not r.applicable
    assert r.hypotheses[-1] == ("p_coprime_to_poly_disc", False, None)


def test_quadr_gates():
    F3 = QuadField(-3)
    r = criterion_quadr(F3(1, 1), 3, 2)
    assert not r.applicable and r.hypotheses[-1][0] == "d_exceeds_3"
    r = criterion_quadr(QuadField(-7)(3), 7, 5, g_n=(0, 1))
    assert not r.applicable and r.hypotheses[-1][0] == "unit_witness_found"
    r = criterion_quadr(F5(3, 2), 5, 13)
    assert not r.applicable and r.verdict == UNKNOWN
    assert r.hypotheses[-1][0] == "defining_poly_supplied"


def test_quadr_rejects_non_prime_element():
    with pytest.raises(ValueError):
        criterion_quadr(F5(1, 1), 5, 13, g_n=(0, 1))  # norm 6


def test_roots_in_residue_field_against_scan():
    # polynomials with coefficients in O_F over every inert q < 200, taking
    # turns: degree 2, degree 1, degree 2, and degree 2 with a leading
    # coefficient divisible by q; then degree 2 over F_q for split q < 60,
    # with either root of the minimal polynomial of w
    rng = random.Random(21)
    verdicts = set()
    for F in ORACLE_FIELDS:

        def poly(q, deg, lead=1):
            g = [from_integral_coords(F, rng.randrange(-q, q), rng.randrange(-q, q))
                 for _ in range(deg + 1)]
            g[-1] *= lead
            return g

        for i, q in enumerate(inert_primes(F, 200)):
            g = [poly(q, 2), poly(q, 1), poly(q, 2), poly(q, 2, q)][i % 4]
            want = roots_in_residue_field_by_scan(g, q, 2, None, F)
            assert _roots_in_residue_field(g, q, 2, None, F) == want, (F.D, q, g)
            verdicts.add(want)
        for q in primes_upto(60):
            for r in poly_roots_mod(F.omega_minpoly(), q):
                g = poly(q, 2)
                want = roots_in_residue_field_by_scan(g, q, 1, r, F)
                assert _roots_in_residue_field(g, q, 1, r, F) == want, (F.D, q, r, g)
    assert verdicts == {True, False}


def test_sqrt_minus_n_against_scan():
    # every odd inert q < 200 (represent rejects p dividing 2n, so q = 2
    # never reaches it), with -n a residue, a non-residue and 0 mod q
    for F in ORACLE_FIELDS:
        for q in inert_primes(F, 200):
            if q == 2:
                continue
            for n in (1, 2, 3, 5, 6, 7, q):
                got = _sqrt_minus_n(F, q, 2, n)
                assert got == sqrt_minus_n_by_scan(F, q, n), (F.D, q, n)
                assert ((got * got + n) / q).is_integral()


def test_sqrt_minus_n_pin():
    # the inert prime 3023 of Q(sqrt(-59)); the scan took a second here
    assert _sqrt_minus_n(F59, 3023, 2, 2) == from_integral_coords(F59, 777, 1469)


def test_hilbert_main_example():
    r = criterion_hilbert(PI17, 59, 2)
    assert r.applicable and r.verdict == SOLVABLE
    names = [h[0] for h in r.hypotheses]
    assert names == [
        "d_n_coprime",
        "d_is_3_mod_4",
        "n_is_1_or_2_mod_4",
        "unit_equation_solvable",
        "norm_map_injective",
        "p_coprime_to_2n",
        "defining_poly_known",
        "p_coprime_to_poly_disc",
    ]
    assert all(h[1] for h in r.hypotheses)
    assert r.hypotheses[3][2] == "(u, v) = (51, 277)"


def test_hilbert_inert_prime_is_solvable():
    # 13 is inert; -2 has no rational square root mod 13 but the residue
    # field is F_169 where every prime-field element is a square
    assert criterion_hilbert(F59(13), 59, 2).verdict == SOLVABLE


def test_hilbert_negative_case():
    assert criterion_hilbert(PI71, 59, 2).verdict == UNSOLVABLE


def test_hilbert_gates():
    r = criterion_hilbert(F59(2), 59, 2)
    assert not r.applicable and r.hypotheses[-1][0] == "p_coprime_to_2n"
    r = criterion_hilbert(F59(13), 59, 3)  # n = 3 mod 4
    assert not r.applicable
    assert r.hypotheses[-1][0] == "n_is_1_or_2_mod_4"
    assert len(r.hypotheses) == 3  # later hypotheses not evaluated


def test_hilbert_explicit_poly_matches_builtin():
    a = criterion_hilbert(PI17, 59, 2)
    b = criterion_hilbert(PI17, 59, 2, f=(-1, 2, 0, 1))
    assert a.verdict == b.verdict == SOLVABLE


# ---------------------------------------------------------------------------
# representation solver


def test_represent_half_integer_pair():
    r = represent(PI17, 59, 2)
    assert r is not None and r is not UNRESOLVED
    x, y = r
    assert verify_identity(PI17, x, y, 2)
    assert (abs(x.a), abs(x.b)) == (Fraction(5779, 2), Fraction(1115, 2))
    assert (abs(y.a), abs(y.b)) == (3028, 266)


def test_represent_inert_prime():
    x, y = represent(F59(11), 59, 2)
    assert (abs(x.a), abs(x.b), abs(y.a), abs(y.b)) == (3, 0, 1, 0)


def test_represent_finds_inert_13():
    # -2 has no rational root mod 13, but 13 = (sqrt(-59))^2 + 2*6^2
    r = represent(F59(13), 59, 2)
    assert r is not None and r is not UNRESOLVED
    assert verify_identity(F59(13), r[0], r[1], 2)


def test_represent_proven_none():
    assert represent(PI71, 59, 2) is None


def test_represent_conjugation_symmetry():
    for p in (PI17, PI71):
        a = represent(p, 59, 2)
        b = represent(p.conj(), 59, 2)
        assert (a is None) == (b is None)
        if b is not None:
            assert verify_identity(p.conj(), b[0], b[1], 2)


def test_represent_rejects():
    with pytest.raises(ValueError):
        represent(F59(2), 59, 2)  # p | 2n
    with pytest.raises(ValueError):
        represent(F5(3, 2), 59, 2)  # wrong field


def test_represent_agrees_with_criterion_small():
    for p in prime_elements(F59, 300):
        if (F59(118) / p).is_integral():
            continue
        rep = criterion_hilbert(p, 59, 2)
        got = represent(p, 59, 2)
        assert got is not UNRESOLVED
        assert (got is not None) == (rep.verdict == SOLVABLE), p
        if got is not None:
            assert verify_identity(p, got[0], got[1], 2)


# ---------------------------------------------------------------------------
# brute force and verification


def test_brute_force_integers():
    assert brute_force_represent(17, 2, None, 10) == (3, 2)
    assert brute_force_represent(17, 2, None, 0) is None


def test_brute_force_in_field():
    x, y = brute_force_represent(F59(11), 2, F59, 3)
    assert verify_identity(F59(11), x, y, 2)
    # the known pair for norm 17 has 4-digit coordinates, far outside
    assert brute_force_represent(PI17, 2, F59, 5) is None


def test_brute_force_agrees_with_represent():
    for p in prime_elements(F59, 200):
        if (F59(118) / p).is_integral():
            continue
        hit = brute_force_represent(p, 2, F59, 6)
        if hit is not None:
            assert represent(p, 59, 2) is not None


def test_verify_identity_paths():
    x = F59(Fraction(5779, 2), Fraction(1115, 2))
    y = F59(-3028, 266)
    assert verify_identity(PI17, x, y, 2)
    assert verify_identity(PI17, x, -y, 2)
    assert not verify_identity(PI17, x + 1, y, 2)
    assert verify_identity(17, 3, 2, 2)
    assert not verify_identity(19, 3, 2, 2)


# ---------------------------------------------------------------------------
# prime element enumeration


def test_prime_elements_small():
    els = prime_elements(F59, 50)
    norms = sorted(int(p.abs_norm()) for p in els)
    assert norms == [4, 17, 17]  # inert 2, then the split pair over 17


def test_prime_elements_includes_ramified():
    els = prime_elements(F59, 60)
    assert F59(0, 1) in els  # sqrt(-59) itself
    count59 = sum(1 for p in els if p.abs_norm() == 59)
    assert count59 == 1


def test_prime_elements_all_prime():
    for p in prime_elements(F59, 400):
        nrm = int(p.abs_norm())
        assert is_prime(nrm) or (isqrt(nrm) ** 2 == nrm and is_prime(isqrt(nrm)))
