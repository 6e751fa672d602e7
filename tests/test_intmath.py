import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly

from nforders import cli, intmath
from nforders.intmath import (
    UnsupportedPrimeError,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    jacobi,
    poly_deriv,
    poly_discriminant,
    has_root_mod,
    poly_eval,
    poly_roots_mod,
    resultant,
    sqrt_mod,
    sqrt_ub,
    squarefree_part,
    xgcd,
)
from nforders.intmath import _roots_quadratic
from nforders.quadratic import QuadElem, QuadField
from oracles import (
    from_integral_coords,
    poly_mul,
    polp_factor,
    primes_upto,
    roots_by_splitting,
    sqrt_lb,
)


# independent oracles, deliberately dumber than the implementations


def legendre_euler(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def roots_by_scan(f, p):
    # every residue tried; the routine poly_roots_mod used below 10^6
    return [x for x in range(p) if poly_eval(f, x) % p == 0]


def jacobi_by_factoring(a, m):
    out = 1
    for p, e in factorize(m).items():
        out *= legendre_euler(a, p) ** e
    return out


def sylvester_resultant(f, g):
    # determinant of the Sylvester matrix by exact elimination over the
    # field of the coefficients: Q for integers, else the QuadField of the
    # first QuadElem among them
    K = next((c.field for c in f + g if isinstance(c, QuadElem)), Fraction)
    lift = lambda c: c if isinstance(c, QuadElem) else K(c)
    zero = K(0)
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    fr = [lift(c) for c in reversed(f)]  # leading first
    gr = [lift(c) for c in reversed(g)]
    rows = []
    for i in range(dg):
        rows.append([zero] * i + fr + [zero] * (n - i - df - 1))
    for i in range(df):
        rows.append([zero] * i + gr + [zero] * (n - i - dg - 1))
    det = K(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != zero), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != zero:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    if K is Fraction:
        assert det.denominator == 1
        return int(det)
    return det


def sylvester_discriminant(f):
    # (-1)^(d(d-1)/2) * res(f, f') / lc(f), the resultant by the oracle above
    d = len(f) - 1
    res = sylvester_resultant(f, [i * c for i, c in enumerate(f)][1:])
    return (-1) ** (d * (d - 1) // 2) * res / f[-1]


def test_xgcd():
    rng = random.Random(0)
    for _ in range(300):
        a = rng.randrange(-10**9, 10**9)
        b = rng.randrange(-10**9, 10**9)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_square_helpers():
    assert [n for n in range(50) if is_square(n)] == [0, 1, 4, 9, 16, 25, 36, 49]
    assert not is_square(-4)
    assert squarefree_part(12) == 3
    assert squarefree_part(-59) == -59
    assert squarefree_part(50) == 2
    assert squarefree_part(-72) == -2
    assert squarefree_part(1) == 1


def test_is_prime_against_sympy():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n), n
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 2**64)
        assert is_prime(n) == sympy.isprime(n), n


# Jaeschke's psi_12 and psi_13: the least strong pseudoprimes to all the
# prime bases up to 37 and up to 41, both composite
PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_prime_refuses_psi12_and_psi13():
    assert PSI12 == 399165290221 * 798330580441
    assert PSI13 == 1287836182261 * 2575672364521
    for n in (PSI12, PSI13):
        with pytest.raises(UnsupportedPrimeError, match=str(PSI12)):
            is_prime(n)
    # the class the CLI maps to exit 3 is this one
    assert cli.UnsupportedPrimeError is UnsupportedPrimeError


def test_is_prime_against_sympy_around_psi12():
    # just below psi_12 every answer is a proof; at or above it a failed
    # witness still proves compositeness, and passing every one raises
    rng = random.Random(26)
    below = [PSI12 - rng.randrange(1, 10**12) for _ in range(300)]
    below += [sympy.prevprime(PSI12 - k * 10**9) for k in range(1, 11)]
    for n in below:
        assert is_prime(n) == sympy.isprime(n), n
    above = [rng.randrange(PSI12, 10**40) for _ in range(300)]
    above += [
        sympy.nextprime(rng.randrange(10**12, 10**15))
        * sympy.nextprime(rng.randrange(10**12, 10**15))
        for _ in range(20)
    ]
    for n in above:
        if sympy.isprime(n):
            with pytest.raises(UnsupportedPrimeError):
                is_prime(n)
        else:
            assert is_prime(n) is False, n
    with pytest.raises(UnsupportedPrimeError):
        is_prime(sympy.nextprime(PSI12))


# psi_1, ..., psi_11 (A014233): the least strong pseudoprime to the first
# k prime bases, so the first k witnesses decide every n below psi_k
PSI_1_TO_11 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
)


def test_is_prime_against_sympy_around_each_psi():
    # is_prime stops at the first k with n < psi_k: each psi_k is composite
    # and fools the first k witnesses, and next to it every answer agrees
    # with sympy
    assert intmath._PSI == PSI_1_TO_11 + (PSI12,)
    for psi in PSI_1_TO_11:
        assert not sympy.isprime(psi)
        assert is_prime(psi) is False, psi
        for n in range(psi - 300, psi + 300):
            assert is_prime(n) == sympy.isprime(n), n


def test_squarefree_part_against_sympy():
    for n in range(-3000, 3001):
        want = -1 if n < 0 else 1
        for p, e in sympy.factorint(n).items():
            if p > 0 and e % 2:
                want *= p
        assert squarefree_part(n) == (want if n else 0), n
        squarefree = n != 0 and all(
            e == 1 for p, e in sympy.factorint(n).items() if p > 0
        )
        assert is_squarefree(n) == squarefree, n


def test_factorize_squares_and_large_prime_cofactors():
    q = 100000000000000000361  # 21 digits, prime
    assert factorize(q * q) == {q: 2}
    assert factorize(-(q**2)) == {q: 2}
    assert factorize(12 * q) == {2: 2, 3: 1, q: 1}
    assert factorize(4 * 100000007**2) == {2: 2, 100000007: 2}
    assert factorize(1) == {}
    # the cofactor is tested again each time a divisor past 1001 leaves a
    # new one, so a prime left after 1009 * 1013 ends the division
    assert factorize(1009 * 1013 * q) == {1009: 1, 1013: 1, q: 1}
    rng = random.Random(27)
    for _ in range(100):
        n = rng.randrange(1, 10**4) * sympy.nextprime(rng.randrange(10**9, 10**18))
        assert factorize(n) == sympy.factorint(n), n
    # a cofactor that passes every witness at or above psi_12 is refused
    with pytest.raises(UnsupportedPrimeError):
        factorize(3 * PSI12)


def test_factorize_keeps_is_prime_off_small_inputs(monkeypatch):
    # the cofactor is first tested at the divisor 1001, so no n below
    # 1001^2 reaches is_prime
    calls = []
    monkeypatch.setattr(intmath, "is_prime", lambda n: calls.append(n) or True)
    rng = random.Random(28)
    for n in list(range(1, 3000)) + [rng.randrange(1, 1001**2) for _ in range(300)]:
        factorize(n)
    assert calls == []
    # past 1001 each new cofactor is asked once
    monkeypatch.setattr(
        intmath, "is_prime", lambda n: calls.append(n) or sympy.isprime(n)
    )
    assert factorize(3 * 1009 * 1013 * 1019) == {3: 1, 1009: 1, 1013: 1, 1019: 1}
    assert calls == [1009 * 1013 * 1019, 1013 * 1019]


def test_factorize_splits_large_cofactors_by_rho():
    # a cofactor left at the divisor 1001 with two or more prime factors is
    # split by Pollard-Brent rho; the primes come out in increasing order
    rng = random.Random(30)
    for _ in range(40):
        n = rng.randrange(1, 10**4)
        for _ in range(rng.randrange(2, 4)):
            n *= sympy.nextprime(rng.randrange(10**3, 10 ** rng.randrange(4, 10)))
        fac = factorize(n)
        assert fac == sympy.factorint(n) and list(fac) == sorted(fac), n
    assert factorize(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    assert factorize(7 * 1009**3 * 1013) == {7: 1, 1009: 3, 1013: 1}
    # two 15-digit primes need more squarings than the cap allows: the
    # refusal exits 3, where trial division would run for days
    with pytest.raises(UnsupportedPrimeError, match="Pollard-Brent"):
        factorize(100000000000031 * 1000000000000037)


def test_primes_upto():
    ps = primes_upto(10**4)
    assert ps[:6] == [2, 3, 5, 7, 11, 13]
    assert len(ps) == 1229
    assert all(is_prime(p) for p in ps)


def test_factorize():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(1, 10**7)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_jacobi_matches_factored_legendre():
    rng = random.Random(3)
    for _ in range(500):
        a = rng.randrange(-1000, 1000)
        m = rng.randrange(1, 2000) * 2 + 1
        assert jacobi(a, m) == jacobi_by_factoring(a, m), (a, m)


def test_jacobi_known_values():
    assert jacobi(-2, 17) == 1
    assert jacobi(-59, 17) == 1
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(21, 39) == 0
    assert jacobi(5, 1) == 1


def test_sqrt_mod_small_primes_by_scan():
    for p in primes_upto(200):
        if p == 2:
            continue
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, set()).add(x)
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in roots:
                assert r is not None and r in roots[a]
                assert 0 <= r <= (p - 1) // 2
            else:
                assert r is None


def test_sqrt_mod_known_values():
    assert sqrt_mod(2, 17) == 6
    assert sqrt_mod(-2, 11) == 3
    assert sqrt_mod(0, 7) == 0
    assert sqrt_mod(3, 7) is None
    p = 10**9 + 7
    a = 1234567**2 % p
    r = sqrt_mod(a, p)
    assert r is not None and r * r % p == a


def test_poly_eval_and_mul():
    f = [-1, 2, 0, 1]  # x^3 + 2x - 1
    assert poly_eval(f, 0) == -1
    assert poly_eval(f, 2) == 11
    assert poly_eval(f, Fraction(1, 2)) == Fraction(1, 8)
    g = poly_mul([1, 1], [-1, 1])  # (x+1)(x-1) = x^2 - 1
    assert g == [-1, 0, 1]
    assert poly_deriv(f) == [2, 0, 3]


def test_resultant_against_sylvester():
    rng = random.Random(4)
    for _ in range(150):
        df = rng.randrange(1, 5)
        dg = rng.randrange(1, 5)
        f = [rng.randrange(-9, 10) for _ in range(df)] + [rng.randrange(1, 10)]
        g = [rng.randrange(-9, 10) for _ in range(dg)] + [rng.randrange(1, 10)]
        assert resultant(f, g) == sylvester_resultant(f, g), (f, g)


def test_discriminant_over_quadratic_integers_against_sylvester():
    # polynomials of degree 1 to 4 over O_F with at least one non-rational
    # coefficient and a nonzero leading one
    rng = random.Random(8)
    for D in (-59, -7, -3, -2, -23):
        F = QuadField(D)
        coeff = lambda: from_integral_coords(F, rng.randrange(-6, 7), rng.randrange(-6, 7))
        for _ in range(30):
            deg = rng.randrange(1, 5)
            f = [coeff() for _ in range(deg + 1)]
            while f[-1].is_zero():
                f[-1] = coeff()
            if all(c.is_rational() for c in f):
                f[0] = f[0] + F(0, 1)
            assert poly_discriminant(f) == sylvester_discriminant(f), (D, f)


def test_discriminant_known_values():
    assert poly_discriminant([-1, 2, 0, 1]) == -59  # x^3 + 2x - 1
    assert poly_discriminant([1, 0, 1]) == -4  # x^2 + 1
    assert poly_discriminant([-1, -1, 1]) == 5  # x^2 - x - 1
    # ax^2 + bx + c has discriminant b^2 - 4ac
    rng = random.Random(5)
    for _ in range(100):
        c, b, a = (rng.randrange(-20, 20) for _ in range(3))
        if a == 0:
            continue
        assert poly_discriminant([c, b, a]) == b * b - 4 * a * c


def test_discriminant_of_products_picks_up_square_factor():
    # disc(f*g) = disc(f) disc(g) res(f,g)^2
    rng = random.Random(6)
    for _ in range(60):
        f = [rng.randrange(-5, 6) for _ in range(2)] + [rng.randrange(1, 6)]
        g = [rng.randrange(-5, 6) for _ in range(2)] + [rng.randrange(1, 6)]
        fg = poly_mul(f, g)
        r = resultant(f, g)
        assert poly_discriminant(fg) == (
            poly_discriminant(f) * poly_discriminant(g) * r * r
        )


def test_poly_roots_mod_scan_path():
    f = [-1, 2, 0, 1]
    roots = roots_by_splitting(f, 17)
    with pytest.raises(ValueError):
        poly_roots_mod(f, 17)
    assert 12 in roots
    assert all(poly_eval(f, r) % 17 == 0 for r in roots)
    assert poly_roots_mod([1, 0, 1], 5) == [2, 3]
    assert poly_roots_mod([1, 0, 1], 7) == []
    assert poly_roots_mod([0, 1], 13) == [0]


def test_poly_roots_mod_paths_agree():
    # the linear factors of gcd(f, x^p - x) (the oracle roots_by_splitting)
    # against the scan, in degrees the quadratic formula does not take, and
    # p = 2 in every degree; poly_roots_mod agrees in degrees 1 and 2 and
    # refuses the rest
    rng = random.Random(7)
    ps = [p for p in primes_upto(300)] + [1009, 7919]
    for _ in range(160):
        p = rng.choice(ps)
        d = rng.choice([1, 2, 3, 4, 5, 6, 8]) if p == 2 else rng.choice([1, 3, 4, 5, 7])
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        assert roots_by_splitting(f, p) == roots_by_scan(f, p), (f, p)
        if d <= 2:
            assert poly_roots_mod(f, p) == roots_by_scan(f, p), (f, p)
        else:
            with pytest.raises(ValueError):
                poly_roots_mod(f, p)


def test_polp_factor_linear_factors_in_degrees_at_least_p():
    # poly_roots_mod evaluates where p <= deg f; the oracle polp_factor
    # still answers there for the primitive-element oracle, and its linear
    # factors are the roots the scan finds
    rng = random.Random(26)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            d = rng.randrange(p, p + 6)
            f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            if rng.randrange(3) == 0:  # a repeated linear factor
                r = rng.randrange(p)
                f = poly_mul(f, [-r, 1])
                f = poly_mul(f, [-r, 1])
            linear = sorted(-q[0] % p for q, _ in polp_factor(f, p) if len(q) == 2)
            assert linear == roots_by_scan(f, p), (f, p)
            assert roots_by_splitting(f, p) == linear, (f, p)


def test_poly_roots_mod_quadratic_path():
    # the quadratic formula against the scan, double roots and irreducible
    # quadratics included, and against polp_factor past the scan's reach
    rng = random.Random(11)
    ps = [p for p in primes_upto(400) if p > 2]
    for _ in range(300):
        p = rng.choice(ps)
        f = [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)]
        assert _roots_quadratic(f, p) == roots_by_scan(f, p), (f, p)
    for p in (3, 5, 7, 13):
        for r in range(p):
            f = [r * r % p, (-2 * r) % p, 1]  # (x - r)^2
            assert _roots_quadratic(f, p) == [r]
    big = [10**9 + 7, 999999937]
    for _ in range(40):
        p = rng.choice(big)
        f = [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)]
        linear = sorted(-q[0] % p for q, _ in polp_factor(f, p) if len(q) == 2)
        assert _roots_quadratic(f, p) == linear, (f, p)
    assert poly_roots_mod([-2, 0, 1], 2) == [0]


def test_poly_roots_mod_takes_degree_at_most_2():
    # one inverse for a linear f, the scan at p = 2, and the degree read mod
    # p: a cubic whose leading coefficient p divides is a quadratic there.
    # Degree 3 and up, a polynomial that vanishes mod p and a composite
    # modulus raise ValueError
    rng = random.Random(42)
    for p in primes_upto(200) + [10**9 + 7]:
        for _ in range(5):
            f = [rng.randrange(p), rng.randrange(1, p)]
            assert poly_roots_mod(f, p) == roots_by_splitting(f, p), (f, p)
    for f in iter_product(range(2), range(2), range(2)):
        f = list(f)
        if any(f):
            assert poly_roots_mod(f, 2) == roots_by_scan(f, 2), f
    assert poly_roots_mod([3, 0, 0, 7], 7) == []
    assert poly_roots_mod([1, 0, -1, 7], 7) == [1, 6]
    for f, p in (([1, 0, 0, 1], 5), ([1, 1, 1, 1, 1], 2), ([5, 5], 5), ([1, 1], 9)):
        with pytest.raises(ValueError):
            poly_roots_mod(f, p)


def test_poly_roots_mod_large_prime():
    p = 10**9 + 7
    # (x - 3)(x - 5)(x - 11) expanded
    f = poly_mul(poly_mul([-3, 1], [-5, 1]), [-11, 1])
    assert roots_by_splitting(f, p) == [3, 5, 11]
    with pytest.raises(ValueError):
        poly_roots_mod(f, p)
    assert poly_roots_mod([-3, 1], p) == [3]
    # p = 3 mod 4, so x^2 + 1 stays irreducible
    assert poly_roots_mod([1, 0, 1], p) == []
    q = 999999937  # prime, 1 mod 4
    rts = poly_roots_mod([1, 0, 1], q)
    assert len(rts) == 2 and all(r * r % q == q - 1 for r in rts)


def quadratic_extension(p):
    """F_(p^2) as pairs (u, v) = u + v*t, t a root of the first monic
    t^2 + m1*t + m0 with no root mod p: (elements, product)."""
    m0, m1 = next(
        (m0, m1)
        for m1 in range(p)
        for m0 in range(p)
        if all((x * x + m1 * x + m0) % p for x in range(p))
    )

    def mul(a, b):
        bd = a[1] * b[1]
        return (a[0] * b[0] - bd * m0) % p, (a[0] * b[1] + a[1] * b[0] - bd * m1) % p

    return [(u, v) for u in range(p) for v in range(p)], mul


def has_root_by_evaluation(f, p, k):
    # f evaluated by Horner at every element of F_p (k = 1) or of F_(p^2)
    # (k = 2), the prime field sitting in it as the pairs (u, 0)
    elements, mul = quadratic_extension(p)
    if k == 1:
        elements = [(u, 0) for u in range(p)]
    for z in elements:
        r = (0, 0)
        for c in reversed(f):
            r = mul(r, z)
            r = ((r[0] + c) % p, r[1])
        if r == (0, 0):
            return True
    return False


def test_has_root_mod_every_monic_of_degree_at_most_4():
    # every monic f of degree 0 to 4 over F_p, p in {2, 3, 5, 7}, against
    # evaluation at every element of F_p and of F_(p^2).  A gcd taken with
    # x^(p^k) in place of x^(p^k) - x sees only the root 0
    count = 0
    for p in (2, 3, 5, 7):
        for d in range(5):
            for low in iter_product(range(p), repeat=d):
                f = list(low) + [1]
                for k in (1, 2):
                    assert has_root_mod(f, p, k) == has_root_by_evaluation(f, p, k), (
                        f,
                        p,
                        k,
                    )
                    count += 1
    assert count == 2 * sum(p**d for p in (2, 3, 5, 7) for d in range(5))


def test_has_root_mod_when_f_vanishes_and_on_a_composite():
    # every element is a root of a polynomial that vanishes mod p
    assert has_root_mod([], 5) is True
    assert has_root_mod([7, 0, 14], 7, 2) is True
    assert has_root_mod([7, 1, 14], 7) is True  # x
    assert has_root_mod([1, 7], 7, 2) is False  # the constant 1
    with pytest.raises(ValueError, match="prime modulus"):
        has_root_mod([1, 0, 1], 15)


def test_has_root_mod_against_polp_factor():
    # 800 cases: 400 random f, q from 3 to 10^12 + 39, degree 1 to 20, a
    # quarter of them with a repeated factor spliced in, each asked for a
    # root in F_q and in F_(q^2).  A root in F_(q^k) is a monic irreducible
    # factor of degree dividing k
    rng = random.Random(41)
    qs = [3, 5, 7, 11, 101, 1009, 65537, 1000003, 10**9 + 7, 10**12 + 39]
    found = {True: 0, False: 0}
    for _ in range(400):
        q = rng.choice(qs)
        deg = rng.randrange(1, 21)
        f = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
        if rng.randrange(4) == 0 and deg < 19:
            g = [rng.randrange(q), rng.randrange(q), 1]
            f = poly_mul(poly_mul(g, g), f)
        degrees = {len(g) - 1 for g, _ in polp_factor(f, q)}
        for k in (1, 2):
            want = any(k % e == 0 for e in degrees)
            assert has_root_mod(f, q, k) == want, (f, q, k)
            found[want] += 1
    assert min(found.values()) > 100, found


def test_poly_roots_mod_many_linear_factors():
    # ten distinct roots mod 10^9 + 7, times x^2 + 1 (irreducible, as
    # p = 3 mod 4) and one root repeated: the degree-1 splitter needs
    # several probes to separate ten factors
    p = 10**9 + 7
    rng = random.Random(12)
    roots = sorted(rng.sample(range(p), 10))
    f = [1, 0, 1]
    for r in roots + roots[:1]:
        f = poly_mul(f, [-r, 1])
    assert roots_by_splitting(f, p) == roots
    with pytest.raises(ValueError):
        poly_roots_mod(f, p)
    assert has_root_mod(f, p) is True
    assert roots_by_splitting(poly_mul([1, 0, 1], [1, 0, 1]), p) == []


def test_polp_factor_known():
    assert polp_factor([1, 0, 0, 0, 1], 2) == [((1, 1), 4)]
    # 17 = 1 mod 8, so x^4 + 1 splits into four linears
    f17 = polp_factor([1, 0, 0, 0, 1], 17)
    assert [len(q) - 1 for q, _ in f17] == [1, 1, 1, 1]
    assert sorted((-q[0]) % 17 for q, _ in f17) == [2, 8, 9, 15]
    # x^2 + 1 is irreducible mod 3
    assert polp_factor([1, 0, 1], 3) == [((1, 0, 1), 1)]


def sympy_factor(f, p):
    # sympy's factorisation over GF(p) on plain int lists, leading
    # coefficient first; its factors are monic with entries in [0, p)
    _, fac = gf_factor(gf_from_int_poly(f[::-1], p), p, ZZ)
    return sorted((tuple(int(c) for c in reversed(q)), e) for q, e in fac)


def test_polp_factor_against_sympy():
    # degrees 1 to 10, past the old degree-5 cap, a third of them with a
    # squared factor spliced in
    rng = random.Random(11)
    for _ in range(160):
        p = rng.choice([2, 3, 5, 7, 13, 31, 71, 1009])
        deg = rng.randrange(1, 11)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        if rng.randrange(3) == 0:
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
            f = poly_mul(poly_mul(g, g), f)
        got = polp_factor(f, p)
        assert got == sorted(got, key=lambda t: (len(t[0]), t[0]))
        assert sorted(got) == sympy_factor(f, p), (f, p)


def test_polp_factor_many_factors_of_one_degree():
    # three or more distinct irreducibles of one degree make equal-degree
    # splitting take more than one probe: x(x+1)(x+2) and the three monic
    # irreducible quadratics mod 3, the three irreducible quartics mod 2
    # (their product is (x^16 - x)/(x^4 - x)), each with a repeated factor
    cases = [
        (3, [(0, 1), (1, 1), (2, 1)]),
        (3, [(1, 0, 1), (2, 1, 1), (2, 2, 1)]),
        (2, [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)]),
        (2, [(1, 1, 0, 1), (1, 0, 1, 1), (1, 1), (0, 1)]),
    ]
    for p, irreducibles in cases:
        for mults in ([1] * len(irreducibles), [2] + [1] * (len(irreducibles) - 1)):
            f = [1]
            for q, e in zip(irreducibles, mults):
                for _ in range(e):
                    f = poly_mul(f, list(q))
            want = sorted(zip(irreducibles, mults), key=lambda t: (len(t[0]), t[0]))
            assert polp_factor(f, p) == want, (p, irreducibles, mults)
            assert sorted(want) == sympy_factor(f, p)


def test_sqrt_bounds():
    rng = random.Random(8)
    for _ in range(300):
        x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4))
        lo, hi = sqrt_lb(x), sqrt_ub(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 10**8)
