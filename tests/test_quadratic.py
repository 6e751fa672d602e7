import random
import sys
from collections import deque
from itertools import chain
import time
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest

from nforders import quadratic
from nforders.criteria import _unit_equation
from nforders.intmath import is_square, is_squarefree, jacobi
from nforders.lattice import hnf, identity_module
from nforders.orders import module_mul
from nforders.quadratic import (
    BinaryForm,
    QuadField,
    PellData,
    cf_convergents,
    cf_sqrt,
    form_class_group,
    pell_solve,
    principal_form,
    principal_representation,
    reduced_forms,
    split_kind,
    split_prime,
)
from ideals import module_conj
from oracles import (
    cf_sqrt_by_full_period,
    compose,
    from_integral_coords,
    form_inverse,
    form_pow,
    form_structure,
    is_reduced,
    oracle_norm_form_element,
    pell_unit_by_full_period,
    primes_upto,
    reduced_forms_by_loop,
    torsion_units,
    trace,
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
        units = torsion_units(F)
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
    assert trace(p) == 3
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
            assert e.basis_coords() == (x, y)


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


@pytest.mark.parametrize("d", [1, 3, 5, 31, 59])
def test_split_kind_matches_split_prime_and_prime_rows(d):
    # the kind alone, with no prime element searched for, and the primes
    # above q read off the roots of w's minimal polynomial as a check
    F = QuadField(-d)
    for q in primes_upto(2000):
        kind = split_kind(F, q)
        assert kind == split_prime(F, q).kind, (d, q)
        rows = F.prime_rows(q)
        expect = (
            "split" if len(rows) == 2
            else "inert" if rows == [((q, 0), (0, q))]
            else "ramified"
        )
        assert kind == expect, (d, q)


def test_split_prime_ideal_hnf_is_stable():
    # the returned module must absorb multiplication by w
    for D in (-59, -2, -1, -15):
        F = QuadField(D)
        c0, c1, _ = F.omega_minpoly()
        for q in primes_upto(60):
            if split_prime(F, q).kind == "inert":
                continue
            hnf = F.prime_rows(q)[0]
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


# every squarefree D != 0, 1 in [-500, 500]
SQUAREFREE_500 = [D for D in range(-500, 501) if D not in (0, 1) and is_squarefree(D)]


def test_prime_rows_against_split_prime():
    assert len(SQUAREFREE_500) == 611
    for D in SQUAREFREE_500:
        F = QuadField(D)
        O = identity_module(F)
        for q in primes_upto(59):
            kind = split_prime(F, q).kind
            mods = [hnf(F, rows) for rows in F.prime_rows(q)]
            assert (len(mods) == 2) == (kind == "split"), (D, q)
            assert len(mods) in (1, 2), (D, q)
            for m in mods:
                # an O_K-ideal (stable under w), of norm q, or q^2 when inert
                assert module_mul(O, m) == m, (D, q)
                assert m.covolume() == (q * q if kind == "inert" else q), (D, q)
            if kind == "split":
                assert module_conj(mods[0]) == mods[1], (D, q)
            # with ramification the primes multiply to q O_K
            e = 2 if kind == "ramified" else 1
            prod = mods[0]
            for m in mods[1:] + mods[:1] * (e - 1):
                prod = module_mul(prod, m)
            assert prod == hnf(F, [[q, 0], [0, q]]), (D, q)


def test_split_prime_element_when_found_is_sound():
    for D in (-1, -2, -3, -7, -11, -59):
        F = QuadField(D)
        for q in primes_upto(50):
            s = split_prime(F, q)
            if s.kind != "inert" and s.pi is not None:
                assert s.pi.is_integral()
                assert abs(s.pi.norm()) == q
                assert s.pibar == s.pi.conj()


def _assert_split_prime_is_the_scans(Ds, bound):
    primes = primes_upto(bound)
    for D in Ds:
        F = QuadField(D)
        for q in primes:
            s = split_prime(F, q)
            if s.kind != "inert":
                assert s.pi == oracle_norm_form_element(F, q), (D, q)


@pytest.mark.parametrize("lo", range(-500, -1, 100))
def test_split_prime_element_is_the_scans(lo):
    # the element read off the form reduction is the one the scan over v
    # finds, with the same choice among associates and conjugates, for
    # every squarefree D in [-500, -2] and q < 3,000
    Ds = [D for D in range(lo, min(lo + 100, -1)) if is_squarefree(D)]
    _assert_split_prime_is_the_scans(Ds, 3000)


@pytest.mark.parametrize(
    "Ds",
    [
        # the unit fields -1 and -3, -2 and -7 of class number 1, and -59
        (-1, -2, -3, -7, -59),
        (-5, -6, -10, -11, -14, -15, -19, -23),
        (-31, -43, -47, -67, -71, -163, -1003, -5077),
    ],
)
def test_split_prime_element_is_the_scans_to_20000(Ds):
    _assert_split_prime_is_the_scans(Ds, 20000)


def test_split_prime_element_of_a_large_prime_at_once():
    # the scan over v took 0.9 s on this prime, and hours at 21 digits
    F = QuadField(-59)
    for q, ab in (
        (100000000000031, (8507166, 684305)),
        (100000000000000000039, (Fraction(1468522391, 2), Fraction(2596749735, 2))),
    ):
        start = time.perf_counter()
        s = split_prime(F, q)
        assert time.perf_counter() - start < 0.05, q
        assert s.kind == "split" and s.pi.norm() == q
        assert (s.pi.a, s.pi.b) == ab


def test_principal_representation_against_a_box():
    # every negative discriminant to -400, fundamental or not, and every
    # prime q < 200: (x, y) with x^2 + bxy + cy^2 = q exactly when a box
    # search finds one
    for disc in range(-3, -401, -1):
        if disc % 4 not in (0, 1):
            continue
        f = principal_form(disc)
        for q in primes_upto(200):
            box = isqrt(4 * q) + 1
            found = any(
                f.a * x * x + f.b * x * y + f.c * y * y == q
                for x in range(-box, box + 1)
                for y in range(0, box + 1)
            )
            rep = principal_representation(disc, q)
            assert (rep is not None) == found, (disc, q)
            if rep is not None:
                x, y = rep
                assert f.a * x * x + f.b * x * y + f.c * y * y == q, (disc, q)


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
            assert gcd(*f) == 1


def test_reduced_forms_match_the_loop_oracle():
    # every discriminant = 0, 1 mod 4 in [-5000, -3]: the same forms, in
    # the same order, as the two while loops reduced_forms ran before
    discs = [disc for disc in range(-5000, -2) if disc % 4 in (0, 1)]
    assert len(discs) == 2500
    for disc in discs:
        got = reduced_forms(disc)
        assert got == reduced_forms_by_loop(disc), disc
        assert all(type(f) is BinaryForm for f in got), disc


def test_binary_form_is_its_tuple():
    # a NamedTuple: equal, hashed and sorted as the plain (a, b, c), with
    # the dataclass's repr
    f = BinaryForm(3, -1, 5)
    assert f == (3, -1, 5) and hash(f) == hash((3, -1, 5))
    assert repr(f) == "BinaryForm(a=3, b=-1, c=5)"
    assert (f.a, f.b, f.c, f.disc) == (3, -1, 5, -59)
    assert sorted([BinaryForm(3, 1, 5), f, BinaryForm(1, 1, 15)]) == [
        (1, 1, 15),
        (3, -1, 5),
        (3, 1, 5),
    ]
    with pytest.raises(ValueError, match="positive definite"):
        BinaryForm(1, 2, 1).reduction()


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
        g = f.reduction()[0]
        assert is_reduced(g)
        assert g.disc == f.disc
        assert g.reduction()[0] == g


def _transform(f: BinaryForm, gamma) -> BinaryForm:
    """F(p x + q y, r x + t y) for gamma = ((p, q), (r, t))."""
    (p, q), (r, t) = gamma
    return BinaryForm(
        f.a * p * p + f.b * p * r + f.c * r * r,
        2 * f.a * p * q + f.b * (p * t + q * r) + 2 * f.c * r * t,
        f.a * q * q + f.b * q * t + f.c * t * t,
    )


def test_reduction_matrix_takes_the_form_to_its_reduction():
    # seeded primitive forms, far from reduced, of discriminants down to
    # -10^5, and the ambiguous forms (a, -a, c) and (a, b, a) with b < 0
    rng = random.Random(20)
    forms = [BinaryForm(3, -3, 5), BinaryForm(4, -3, 4), BinaryForm(1, -1, 1)]
    while len(forms) < 2000:
        a = rng.randrange(1, 400)
        b = rng.randrange(-4000, 4000)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randrange(cmin, (b * b + 10**5) // (4 * a) + 1)
        f = BinaryForm(a, b, c)
        if -(10**5) <= f.disc < 0 and gcd(*f) == 1:
            forms.append(f)
    for f in forms:
        g, gamma = f.reduction()
        (p, q), (r, t) = gamma
        assert p * t - q * r == 1
        assert _transform(f, gamma) == g, f
        assert is_reduced(g)


def test_composition_group_axioms():
    for disc in (-59, -20, -56, -84, -47, -71):
        forms = reduced_forms(disc)
        ident = principal_form(disc).reduction()[0]
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
            ident = principal_form(disc).reduction()[0]
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


def test_cf_sqrt_stops_at_its_limit(monkeypatch):
    # a period of exactly the limit is expanded; one quotient more raises,
    # once half the limit's quotients are walked and before the midpoint
    assert len(cf_sqrt(118).period) == 10
    monkeypatch.setattr(quadratic, "_CF_MAX_PERIOD", 10)
    assert cf_sqrt(118).period == (1, 6, 3, 2, 10, 2, 3, 6, 1, 20)
    monkeypatch.setattr(quadratic, "_CF_MAX_PERIOD", 9)
    with pytest.raises(
        quadratic.UnsupportedFieldError,
        match=r"sqrt\(118\) has a period past the expansion's limit 9$",
    ):
        cf_sqrt(118)


# long periods of sqrt(D) the ladder, the unit equation and the CLI pins
# reach: 10,000,019 * 2, 100,000,007 * 2, 31,064,543 * 2, 57,672,383 * 2
# (16,144), 200,000,518 and 100,000,000,003 * 2 (454,206)
LONG_PERIOD_D = (20000038, 200000014, 62129086, 115344766, 200000518, 200000000006)


def test_cf_sqrt_matches_the_full_period_walk(monkeypatch):
    # the period found first and half of it mirrored: the quotients and norms
    # the walk over the whole period stored, on every nonsquare D < 10^4 and
    # the long periods
    for D in chain(range(2, 10**4), LONG_PERIOD_D):
        if not is_square(D):
            assert cf_sqrt(D) == cf_sqrt_by_full_period(D), D
    # the limit holds for odd periods too: sqrt(13) has 5 quotients
    monkeypatch.setattr(quadratic, "_CF_MAX_PERIOD", 5)
    assert cf_sqrt(13).period == (1, 1, 1, 1, 6)
    monkeypatch.setattr(quadratic, "_CF_MAX_PERIOD", 4)
    with pytest.raises(quadratic.UnsupportedFieldError, match="limit 4$"):
        cf_sqrt(13)


def test_cf_sqrt_refuses_a_long_period_storing_nothing(monkeypatch):
    # past the limit cf_sqrt walks half of it holding two integers: at a
    # limit of 2^16, where the stored walk held 2^16 quotients and norms
    # (a few MB), the refusal of sqrt(200000000000062) peaks under 64 kB
    monkeypatch.setattr(quadratic, "_CF_MAX_PERIOD", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(quadratic.UnsupportedFieldError, match="limit 65536$"):
            cf_sqrt(200000000000062)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


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
    assert (r.x, r.y) == (1, 1)
    r = pell_solve(5, -1)
    assert (r.x, r.y) == (2, 1)
    r = pell_solve(13, -1)
    assert (r.x, r.y) == (18, 5)
    # None is a proof: the period of sqrt(D) is even
    assert pell_solve(3, -1) is None
    assert pell_solve(118, -1) is None


def test_pell_negative_one_iff_odd_period():
    for D in range(2, 150):
        if is_square(D):
            continue
        r = pell_solve(D, -1)
        odd = len(cf_sqrt(D).period) % 2 == 1
        assert (r is not None) == odd


def test_pell_plus_one_fundamental():
    cases = {2: (3, 2), 3: (2, 1), 5: (9, 4), 61: (1766319049, 226153980)}
    for D, (x, y) in cases.items():
        r = pell_solve(D, 1)
        assert (r.x, r.y) == (x, y)


def test_pell_118_against_scan_oracle():
    r = pell_solve(118, 1)
    assert (r.x, r.y) == (306917, 28254)
    # independent scan for the least y with 118 y^2 + 1 square
    found = None
    for y in range(1, 10**5):
        x2 = 1 + 118 * y * y
        if is_square(x2):
            found = (isqrt(x2), y)
            break
    assert found == (306917, 28254)


def test_pell_solve_streams_the_convergents(monkeypatch):
    # PellData.half keeps only the last two convergents of its walk: with
    # the expansion built beforehand the peak of pell_solve is a few
    # integers of the unit's size, where keeping all l = 5,850 convergents
    # of sqrt(20000038) took 8.4 MB
    D = 20000038
    cf = cf_sqrt(D)
    assert len(cf.period) == 5850
    monkeypatch.setattr(quadratic, "cf_sqrt", lambda _: cf)
    quadratic.pell_data.cache_clear()
    tracemalloc.start()
    try:
        x = pell_solve(D, 1).x
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * sys.getsizeof(x), (peak, sys.getsizeof(x))


def test_pell_unit_matches_the_full_period_walk():
    # PellData.half, read off the first ceil(l/2) convergents, is the
    # midpoint convergent l//2 - 1 and the last convergent of the whole
    # period, on every nonsquare D < 10,000 and on three periods near the
    # ladder's limit.  PellData is built uncached, so nothing is kept
    parities = [0, 0]
    for D in [D for D in range(2, 10000) if not is_square(D)]:
        P = PellData(D)
        l = len(P.cf.period)
        parities[l % 2] += 1
        (mid,) = deque(chain([(1, 0)], cf_convergents(P.cf, l // 2)), maxlen=1)
        assert P.half == (mid, pell_unit_by_full_period(D)), D
    assert parities == [8578, 1322]
    for D, l in [(20000038, 5850), (62129086, 10284), (115344766, 16144)]:
        P = PellData(D)
        assert len(P.cf.period) == l
        assert P.half[1] == pell_unit_by_full_period(D), D


def test_cf_sqrt_period_against_the_state_cycle():
    # the period ends at the first Q_k = 1; the oracle runs the (P, Q)
    # recurrence until a state repeats
    def period_by_cycle(D):
        a0 = isqrt(D)
        m, d, a = 0, 1, a0
        period, seen = [], set()
        while True:
            m = d * a - m
            d = (D - m * m) // d
            a = (a0 + m) // d
            if (m, d) in seen:
                return tuple(period)
            seen.add((m, d))
            period.append(a)

    for D in list(range(2, 3000)) + [20000038, 200000518]:
        if not is_square(D):
            assert cf_sqrt(D).period == period_by_cycle(D), D


def test_pell_general_n():
    # 59 u^2 - 2 v^2 = 1 from the Pell unit 306917 + 28254*sqrt(118):
    # 59 * 51^2 = (306917 + 1)/2 and 2 * 277^2 = (306917 - 1)/2
    assert _unit_equation(59, 2) == (51, 277)
    for N in (0, 2, -2, 59):
        with pytest.raises(ValueError):
            pell_solve(118, N)


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
