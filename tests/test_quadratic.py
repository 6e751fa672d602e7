import random
from fractions import Fraction
from math import isqrt

from nforders.intmath import is_square, jacobi
from nforders.quadratic import (
    BinaryForm,
    QuadField,
    cf_convergents,
    cf_sqrt,
    form_class_group,
    from_integral_coords,
    pell_solve,
    principal_form,
    reduced_forms,
    split_prime,
)
from oracles import (
    compose,
    form_inverse,
    form_pow,
    form_structure,
    is_reduced,
    primes_upto,
)


def rand_elem(F, rng, span=20):
    return F(
        Fraction(rng.randrange(-span, span), rng.randrange(1, 5)),
        Fraction(rng.randrange(-span, span), rng.randrange(1, 5)),
    )


def test_torsion_units_against_box_scan():
    # oracle: the integral x + y*w of norm 1; |y| <= 2 and |x| <= 3 hold
    # for every unit of an imaginary quadratic field
    for D, count in ((-1, 4), (-3, 6), (-5, 2), (-59, 2)):
        F = QuadField(D)
        units = F.torsion_units()
        assert len(units) == count == len(set(units))
        scan = {
            from_integral_coords(F, x, y)
            for x in range(-3, 4)
            for y in range(-2, 3)
            if from_integral_coords(F, x, y).norm() == 1
        }
        assert set(units) == scan, D
        for u in units:
            assert u**count == F.one()
        assert units[0] == F.one()


def test_norm_conj_trace():
    F = QuadField(-59)
    p = F(Fraction(3, 2), Fraction(1, 2))
    assert p.norm() == 17
    assert p.trace() == 3
    assert p.conj() == F(Fraction(3, 2), Fraction(-1, 2))
    assert (p * p.conj()).a == 17 and (p * p.conj()).b == 0


def test_field_arithmetic_properties():
    rng = random.Random(10)
    for D in (-59, -2, -1, 5, 118 // 2):  # mix of imaginary and real
        F = QuadField(D)
        for _ in range(50):
            e1, e2, e3 = (rand_elem(F, rng) for _ in range(3))
            assert e1.norm() * e2.norm() == (e1 * e2).norm()
            assert (e1 * e2).conj() == e1.conj() * e2.conj()
            assert (e1 + e2).conj() == e1.conj() + e2.conj()
            assert e1 * (e2 + e3) == e1 * e2 + e1 * e3
            if not e2.is_zero():
                assert (e1 / e2) * e2 == e1
        e = rand_elem(F, rng)
        assert e.conj().conj() == e
        assert e ** 3 == e * e * e


def test_rational_conj_fixed():
    F = QuadField(-2)
    assert F(7).conj() == F(7)


def test_is_integral():
    F59 = QuadField(-59)
    assert F59(Fraction(1, 2), Fraction(1, 2)).is_integral()
    assert F59(Fraction(3, 2), Fraction(1, 2)).is_integral()
    assert not F59(Fraction(1, 2)).is_integral()
    F2 = QuadField(-2)
    assert not F2(Fraction(1, 2), Fraction(1, 2)).is_integral()
    assert F2(4, -3).is_integral()


def test_integral_coords_roundtrip():
    rng = random.Random(11)
    for D in (-59, -2, 5, -1):
        F = QuadField(D)
        for _ in range(50):
            x, y = rng.randrange(-30, 30), rng.randrange(-30, 30)
            e = from_integral_coords(F, x, y)
            assert e.is_integral()
            assert e.integral_coords() == (x, y)


def lattice_contains(hnf, vec):
    # solve c1*row0 + c2*row1 = vec over Z (2x2, row0 = (q, 0), row1 = (r, 1))
    (q, z), (r, one) = hnf
    assert z == 0 and one == 1
    c2 = vec[1]
    num = vec[0] - c2 * r
    return num % q == 0


def test_split_prime_known():
    F = QuadField(-59)
    s17 = split_prime(F, 17)
    assert s17.kind == "split"
    assert s17.pi is not None and abs(s17.pi.norm()) == 17
    # the element from the worked example, up to sign/conjugate
    candidates = {
        (Fraction(3, 2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2)),
        (Fraction(-3, 2), Fraction(1, 2)),
        (Fraction(-3, 2), Fraction(-1, 2)),
    }
    assert (s17.pi.a, s17.pi.b) in candidates
    assert split_prime(F, 13).kind == "inert"
    s59 = split_prime(F, 59)
    assert s59.kind == "ramified"
    assert s59.pi is not None and abs(s59.pi.norm()) == 59


def test_split_prime_two():
    assert split_prime(QuadField(-7), 2).kind == "split"
    assert split_prime(QuadField(-15), 2).kind == "split"
    assert split_prime(QuadField(-3), 2).kind == "inert"
    assert split_prime(QuadField(-1), 2).kind == "ramified"
    assert split_prime(QuadField(-2), 2).kind == "ramified"


def test_split_prime_matches_jacobi():
    for D in (-1, -2, -3, -5, -59, -15, 7, 13):
        F = QuadField(D)
        for q in primes_upto(100):
            s = split_prime(F, q)
            if q == 2:
                continue
            j = jacobi(F.disc, q)
            expect = {1: "split", -1: "inert", 0: "ramified"}[j]
            assert s.kind == expect, (D, q)


def test_split_prime_ideal_hnf_is_stable():
    # the returned module must absorb multiplication by w
    for D in (-59, -2, -1, -15):
        F = QuadField(D)
        c0, c1, _ = F.omega_minpoly()
        for q in primes_upto(60):
            s = split_prime(F, q)
            if s.kind == "inert":
                continue
            hnf = s.hnf
            (qq, _), (r, _) = hnf
            assert qq == q
            # w * q = (0*1 + q*w) and w * (r + w) = -c0 + (r - c1)... check both
            # products of w with each basis row stay inside
            # row (a, b) represents a + b*w; w*(a + b*w) = -b*c0 + (a - b*c1)*w
            for (a, b) in hnf:
                prod = (-b * c0, a - b * c1)
                assert lattice_contains(hnf, prod), (D, q)
            # norm of the module index equals q: det of hnf = q
            assert hnf[0][0] * hnf[1][1] - hnf[0][1] * hnf[1][0] == q


def test_split_prime_element_when_found_is_sound():
    for D in (-1, -2, -3, -7, -11, -59):
        F = QuadField(D)
        for q in primes_upto(50):
            s = split_prime(F, q)
            if s.kind != "inert" and s.pi is not None:
                assert s.pi.is_integral()
                assert abs(s.pi.norm()) == q
                assert s.pibar == s.pi.conj()


def test_reduced_forms_known():
    assert [(f.a, f.b, f.c) for f in reduced_forms(-4)] == [(1, 0, 1)]
    assert [(f.a, f.b, f.c) for f in reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
    forms59 = reduced_forms(-59)
    assert len(forms59) == 3
    assert {(f.a, f.b, f.c) for f in forms59} == {(1, 1, 15), (3, 1, 5), (3, -1, 5)}


def test_reduced_forms_are_reduced_primitive():
    for disc in range(-4, -400, -1):
        if disc % 4 not in (0, 1):
            continue
        for f in reduced_forms(disc):
            assert f.disc == disc
            assert is_reduced(f)
            assert f.is_primitive()


def test_reduce_is_idempotent_and_equivalent():
    rng = random.Random(13)
    for _ in range(200):
        a = rng.randrange(1, 30)
        b = rng.randrange(-30, 30)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randrange(cmin, cmin + 40)
        f = BinaryForm(a, b, c)
        if f.disc >= 0:
            continue
        g = f.reduce()
        assert is_reduced(g)
        assert g.disc == f.disc
        assert g.reduce() == g


def test_composition_group_axioms():
    for disc in (-59, -20, -56, -84, -47, -71):
        forms = reduced_forms(disc)
        ident = principal_form(disc).reduce()
        assert ident in forms
        for f in forms:
            assert compose(f, ident) == f
            assert compose(f, form_inverse(f)) == ident
        rng = random.Random(disc)
        for _ in range(10):
            f, g, h = (rng.choice(forms) for _ in range(3))
            assert compose(f, g) in forms
            assert compose(f, g) == compose(g, f)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_class_group_known_values():
    assert form_class_group(-4).h == 1
    assert form_class_group(-20).h == 2
    r59 = form_class_group(-59)
    assert r59.h == 3
    assert form_structure(r59.forms) == (3,)
    assert form_class_group(-23).h == 3
    assert form_class_group(-47).h == 5
    # distinguish cyclic from bicyclic at h = 4
    assert form_structure(form_class_group(-56).forms) == (4,)
    assert form_structure(form_class_group(-84).forms) == (2, 2)


def test_class_group_structure_consistent():
    for disc in (-59, -84, -56, -120, -231):
        res = form_class_group(disc)
        structure = form_structure(res.forms)
        prod = 1
        for d in structure:
            prod *= d
        assert prod == res.h
        # every element's order divides the largest invariant factor
        if structure:
            e = structure[-1]
            ident = principal_form(disc).reduce()
            for f in res.forms:
                assert form_pow(f, e) == ident


def test_class_group_rejects_bad_disc():
    for disc in (5, 0, -6, -9, -13):
        try:
            form_class_group(disc)
            assert False, disc
        except ValueError:
            pass


def test_cf_sqrt_known():
    assert (cf_sqrt(2).a0, list(cf_sqrt(2).period)) == (1, [2])
    assert (cf_sqrt(23).a0, list(cf_sqrt(23).period)) == (4, [1, 3, 1, 8])
    cf118 = cf_sqrt(118)
    assert cf118.a0 == 10
    assert list(cf118.period) == [1, 6, 3, 2, 10, 2, 3, 6, 1, 20]


def test_cf_sqrt_structure():
    # period ends in 2*a0 and the body is a palindrome
    for D in range(2, 200):
        if is_square(D):
            continue
        cf = cf_sqrt(D)
        assert cf.a0 == isqrt(D)
        assert cf.period[-1] == 2 * cf.a0
        body = cf.period[:-1]
        assert list(body) == list(reversed(body))


def test_convergent_invariant():
    # h^2 - D q^2 = (-1)^(k+1) Q_{k+1}, with Q from an independent recurrence
    for D in (2, 23, 118, 61, 94):
        cf = cf_sqrt(D)
        n = 2 * len(cf.period) + 1
        a0 = isqrt(D)
        # oracle recurrence for the complete quotients (P, Q)
        qs = []
        m, d, a = 0, 1, a0
        for _ in range(n + 1):
            m = d * a - m
            d = (D - m * m) // d
            a = (a0 + m) // d
            qs.append(d)  # Q_{k+1} after k+1 steps
        for k, (h, q) in enumerate(cf_convergents(cf, n)):
            assert h * h - D * q * q == (-1) ** (k + 1) * qs[k], (D, k)


def test_convergents_approximate():
    # |h - q*sqrt(D)| < 1/q, i.e. |h^2 - D q^2| < h/q + sqrt(D) <= 2*sqrt(D)+1
    for D in (2, 118, 23):
        for h, q in cf_convergents(cf_sqrt(D), 12):
            v = abs(h * h - D * q * q)
            assert (v - 1) ** 2 <= 4 * D or v <= 1


def test_pell_negative_one():
    r = pell_solve(2, -1)
    assert (r.solution.x, r.solution.y) == (1, 1)
    r = pell_solve(5, -1)
    assert (r.solution.x, r.solution.y) == (2, 1)
    r = pell_solve(13, -1)
    assert (r.solution.x, r.solution.y) == (18, 5)
    r = pell_solve(3, -1)
    assert r.solution is None and r.proven
    r = pell_solve(118, -1)
    assert r.solution is None and r.proven


def test_pell_negative_one_iff_odd_period():
    for D in range(2, 150):
        if is_square(D):
            continue
        r = pell_solve(D, -1)
        odd = len(cf_sqrt(D).period) % 2 == 1
        assert (r.solution is not None) == odd
        assert r.proven


def test_pell_plus_one_fundamental():
    cases = {2: (3, 2), 3: (2, 1), 5: (9, 4), 61: (1766319049, 226153980)}
    for D, (x, y) in cases.items():
        r = pell_solve(D, 1)
        assert (r.solution.x, r.solution.y) == (x, y)
        assert r.proven


def test_pell_118_against_scan_oracle():
    r = pell_solve(118, 1)
    assert (r.solution.x, r.solution.y) == (306917, 28254)
    # independent scan for the least y with 118 y^2 + 1 square
    found = None
    for y in range(1, 10**5):
        x2 = 1 + 118 * y * y
        if is_square(x2):
            found = (isqrt(x2), y)
            break
    assert found == (306917, 28254)


def test_pell_general_n():
    # 59 u^2 - 2 v^2 = 1 scaled by 59: x^2 - 118 y^2 = 59 with 59 | x
    r = pell_solve(118, 59)
    assert r.solution is not None
    s = r.solution
    assert s.x * s.x - 118 * s.y * s.y == 59
    assert (s.x, s.y) == (3009, 277)
    # no solution found within bound is reported unproven
    r2 = pell_solve(7, 3, y_max=50)
    assert r2.solution is None and not r2.proven


def test_pell_rejects_squares():
    for D in (4, 9, 16):
        try:
            pell_solve(D, 1)
            assert False
        except ValueError:
            pass
        try:
            cf_sqrt(D)
            assert False
        except ValueError:
            pass
