"""End-to-end acceptance checks, one test per criterion, each printing a
single PASS/FAIL line.  Everything is exact arithmetic; the time limits
are part of the contract and asserted."""

import random
import time
from fractions import Fraction
from math import gcd, isqrt

from nforders.biquadratic import class_group, integral_basis
from nforders.criteria import (
    UNRESOLVED,
    UNSOLVABLE,
    cornacchia,
    criterion_hilbert,
    prime_elements,
    represent,
    verify_identity,
    _divides,
)
from nforders.intmath import is_prime, jacobi, poly_discriminant
from nforders.lattice import hnf
from nforders.orders import (
    OrderIdeal,
    conductor,
    factor_ideal,
    ideal_mul,
    is_coprime_to_conductor,
    is_invertible,
    maximal_order,
    order_with_index,
    order_zsqrt,
    pic_brute_force,
    picard_number,
    relative_order,
    unit_ideal,
)
from nforders.quadratic import (
    QuadField,
    cf_sqrt,
    form_class_group,
    pell_solve,
    split_prime,
)

from audit import counting_audit
from ideals import contract_ideal, extend_ideal
from oracles import from_integral_coords

F59 = QuadField(-59)
H = Fraction(1, 2)
Q = Fraction(1, 4)


def report(k: int, ok: bool, text: str) -> bool:
    print("ACCEPTANCE %02d %s: %s" % (k, "PASS" if ok else "FAIL", text))
    return ok


def prime_above(o, q: int) -> OrderIdeal:
    m = hnf(o.field, o.field.prime_rows(q)[0])
    return OrderIdeal(o, m.intersect(o.module))


def _associate(u, v) -> bool:
    return (u / v).is_integral() and (v / u).is_integral()


def test_acceptance_01_worked_identity():
    t0 = time.monotonic()
    pi = from_integral_coords(F59, 1, 1)  # (3 + sqrt(-59))/2
    x = from_integral_coords(F59, 2332, 1115)  # (5779 + 1115*sqrt(-59))/2
    y = F59(-3028, 266)  # -3028 + 266*sqrt(-59)
    ok = pi == x**2 + 2 * y**2
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    assert report(1, ok, "displayed identity exact, %.3fs" % elapsed)


def test_acceptance_02_class_numbers():
    t0 = time.monotonic()
    h_F = form_class_group(-59).h
    h_E = class_group(integral_basis(59, 2)).h
    elapsed = time.monotonic() - t0
    ok = h_F == 3 and h_E == 3 and elapsed < 60.0
    assert report(2, ok, "h_F = %d, h_E = %d, %.1fs" % (h_F, h_E, elapsed))


def test_acceptance_03_cubic_discriminant():
    t0 = time.monotonic()
    d = poly_discriminant([-1, 2, 0, 1])  # x^3 + 2x - 1
    elapsed = time.monotonic() - t0
    ok = d == -59 and elapsed < 1.0
    assert report(3, ok, "disc(x^3 + 2x - 1) = %d" % d)


def test_acceptance_04_seventeen_splits():
    t0 = time.monotonic()
    pi = from_integral_coords(F59, 1, 1)
    s = split_prime(F59, 17)
    ok = (
        s.kind == "split"
        and s.pi is not None
        and s.pi * s.pibar == F59(17)
        and s.pi.abs_norm() == 17
        and (_associate(s.pi, pi) or _associate(s.pibar, pi))
        and jacobi(-2 % 17, 17) == 1
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    assert report(4, ok, "17 = p * conj(p), N(p) = 17, (-2|17) = 1")


def test_acceptance_05_representation_examples():
    t0 = time.monotonic()
    pi = from_integral_coords(F59, 1, 1)
    out = represent(pi, 59, 2)
    ok1 = (
        out is not None
        and out is not UNRESOLVED
        and verify_identity(pi, out[0], out[1], 2)
    )
    out11 = represent(F59(11), 59, 2)
    ok2 = (
        out11 is not None
        and out11 is not UNRESOLVED
        and verify_identity(F59(11), out11[0], out11[1], 2)
        and {abs(out11[0].a), abs(out11[1].a)} == {3, 1}
        and out11[0].b == out11[1].b == 0
    )
    # 13 is inert in F and (-2|13) = -1: no pair over Z, but over O_F
    # 13 = (sqrt(-59))^2 + 2*6^2
    z13 = cornacchia(13, 2)
    ok3 = z13 is None
    out13 = represent(F59(13), 59, 2)
    ok4 = (
        out13 is not None
        and out13 is not UNRESOLVED
        and verify_identity(F59(13), out13[0], out13[1], 2)
        and out13[0] ** 2 == F59(-59)
        and out13[1] in (F59(6), F59(-6))
    )
    # 7 + w = (15 + sqrt(-59))/2 has norm 71, a split prime with
    # (-2|71) = -1: here none is the proven answer
    pi71 = from_integral_coords(F59, 7, 1)
    out71 = represent(pi71, 59, 2)
    elapsed = time.monotonic() - t0
    # the verdict needs h_E, whose class group acceptance 02 times
    verdict71 = criterion_hilbert(pi71, 59, 2).verdict
    ok5 = pi71.abs_norm() == 71 and out71 is None and verdict71 == UNSOLVABLE
    ok = ok1 and ok2 and ok3 and ok4 and ok5 and elapsed < 60.0
    report(
        5,
        ok,
        "pi17 pair %s, 11 -> (3,1) %s, 13 over Z -> none %s, "
        "13 over O_F -> (sqrt(-59), 6) %s, pi71 -> none %s, %.1fs"
        % (ok1, ok2, ok3, ok4, ok5, elapsed),
    )
    assert ok1, "represent(pi17, 59, 2) = %r, not a verified pair" % (out,)
    assert ok2, "represent(11, 59, 2) = %r, not (3, 1) up to sign" % (out11,)
    assert ok3, "cornacchia(13, 2) = %r, not none" % (z13,)
    assert ok4, "represent(13, 59, 2) = %r, not (sqrt(-59), 6) up to sign" % (
        out13,
    )
    assert ok5, "represent(pi71, 59, 2) = %r with criterion %s, not none" % (
        out71,
        verdict71,
    )
    assert elapsed < 60.0


def test_acceptance_06_picard_against_forms():
    t0 = time.monotonic()
    bad = []
    for n in range(1, 31):
        if any(n % (q * q) == 0 for q in range(2, 6)):
            continue
        o = order_zsqrt(QuadField(-n))
        pic = picard_number(o)
        brute = pic_brute_force(o)
        h_form = form_class_group(-4 * n).h
        if not (brute.complete and pic == brute.count == h_form):
            bad.append((n, pic, brute.count, h_form))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    assert report(
        6, ok, "Z[sqrt(-n)] n <= 30: formula = brute = forms, %.1fs" % elapsed
    )


def test_acceptance_07_order_property_suite():
    t0 = time.monotonic()
    F3, F1, F5 = QuadField(-3), QuadField(-1), QuadField(-5)
    grid = [
        order_zsqrt(F3),
        order_with_index(F3, 3),
        order_with_index(F1, 2),
        order_with_index(F5, 2),
        maximal_order(F59),
    ]
    ok_a = True
    for o in grid:
        q = 2
        while q <= 100:
            if is_prime(q):
                p = prime_above(o, q)
                if is_invertible(p) != is_coprime_to_conductor(p):
                    ok_a = False
            q += 1

    ok_b = True
    for o in grid:
        f = int(conductor(o).norm() * o.index_in_maximal())
        for q in (5, 7, 11, 13, 17):
            if f % q == 0:
                continue
            p = prime_above(o, q)
            ext = extend_ideal(p)
            if contract_ideal(ext, o) != p:
                ok_b = False

    rng = random.Random(59)
    ok_c = True
    rounds = 0
    while rounds < 100:
        o = grid[rng.randrange(len(grid))]
        f = int(conductor(o).norm() * o.index_in_maximal())
        pool = [q for q in (5, 7, 11, 13, 17, 19, 23) if f % q]
        a = unit_ideal(o)
        for _ in range(rng.randrange(1, 4)):
            a = ideal_mul(a, prime_above(o, rng.choice(pool)))
        fac = factor_ideal(a)
        if fac.remultiply(o) != a:
            ok_c = False
        rounds += 1

    ok_d = True
    for o in grid:
        try:
            counting_audit(o, margin=2)
        except Exception:
            ok_d = False

    elapsed = time.monotonic() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 300.0
    assert report(
        7,
        ok,
        "regular<->invertible %s, roundtrips %s, 100 factorizations %s, "
        "audits %s, %.1fs" % (ok_a, ok_b, ok_c, ok_d, elapsed),
    )


# relative orders without a native basis, with their verified integral bases
_SUPPLIED = [
    (1, 2, ((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H)), 256),
    (3, 7, ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), 441),
    (7, 15, ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), 11025),
]

_NATIVE = [
    (3, 1), (3, 2), (3, 5), (3, 10),
    (7, 1), (7, 2), (7, 5), (7, 10),
    (11, 1), (11, 2), (11, 5),
    (15, 2), (19, 1), (23, 2), (35, 2),
    (59, 2), (59, 5),
]


def test_acceptance_08_conductor_grid():
    t0 = time.monotonic()
    fields = [integral_basis(d, n) for d, n in _NATIVE]
    fields += [integral_basis(d, n, basis=b, disc=dsc) for d, n, b, dsc in _SUPPLIED]
    assert len(fields) == 20
    ok_all = True
    ok_sub = True
    for E in fields:
        o = relative_order(E)
        f = conductor(o)
        if not f.module.contains(_one_of(E) * (4 * E.n)):
            ok_all = False
        native = E.d % 4 == 3 and E.n % 4 in (1, 2) and gcd(E.d, E.n) == 1
        if native and f.module != o.module:
            ok_sub = False
    elapsed = time.monotonic() - t0
    ok = ok_all and ok_sub and elapsed < 60.0
    assert report(
        8,
        ok,
        "4n in conductor on all 20, conductor (1) on the congruence "
        "subgrid, %.1fs" % elapsed,
    )


def _one_of(E):
    coords = [Fraction(0)] * E.degree
    coords[0] = Fraction(1)
    return E.from_basis_coords(coords)


def test_acceptance_09_pell():
    t0 = time.monotonic()
    cf = cf_sqrt(118)
    r = pell_solve(118, 1)
    got = (r.x, r.y) if r else None
    # direct-search oracle over y <= 10^5
    oracle = None
    for y in range(1, 10**5 + 1):
        x2 = 118 * y * y + 1
        x = isqrt(x2)
        if x * x == x2:
            oracle = (x, y)
            break
    elapsed = time.monotonic() - t0
    ok = (
        len(cf.period) == 10
        and got == (306917, 28254)
        and got == oracle
        and elapsed < 30.0
    )
    assert report(
        9, ok, "period(118) = %d, pell = %s = oracle, %.1fs"
        % (len(cf.period), got, elapsed)
    )


def test_acceptance_10_criterion_vs_solver_sweep():
    t0 = time.monotonic()
    divergences = []
    total = 0
    for p in prime_elements(F59, 2000):
        if _divides(p, 118):
            continue
        total += 1
        verdict = criterion_hilbert(p, 59, 2).verdict
        out = represent(p, 59, 2)
        assert out is not UNRESOLVED, p
        solved = out is not None
        if (verdict == "solvable") != solved:
            divergences.append(p)
    elapsed = time.monotonic() - t0
    ok = total > 90 and not divergences and elapsed < 600.0
    assert report(
        10,
        ok,
        "%d prime elements N <= 2000, %d divergences, %.1fs"
        % (total, len(divergences), elapsed),
    )


def test_acceptance_11_cornacchia_two_squares():
    t0 = time.monotonic()
    bad = []
    for p in range(3, 10**4, 2):
        if not is_prime(p):
            continue
        got = cornacchia(p, 1)
        if (got is not None) != (p % 4 == 1):
            bad.append(p)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    assert report(
        11, ok, "cornacchia(p, 1) <-> p = 1 mod 4 below 10^4, %.1fs" % elapsed
    )
