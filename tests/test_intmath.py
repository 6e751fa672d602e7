import random
from fractions import Fraction

import sympy

from nforders.intmath import (
    factorize,
    is_prime,
    is_square,
    jacobi,
    poly_deriv,
    poly_discriminant,
    poly_eval,
    poly_mul,
    poly_roots_mod,
    polp_factor,
    resultant,
    sqrt_lb,
    sqrt_mod,
    sqrt_ub,
    squarefree_part,
    xgcd,
)
from nforders.intmath import _roots_quadratic
from nforders.quadratic import QuadElem, QuadField, from_integral_coords
from oracles import primes_upto


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
    roots = poly_roots_mod(f, 17)
    assert 12 in roots
    assert all(poly_eval(f, r) % 17 == 0 for r in roots)
    assert poly_roots_mod([1, 0, 1], 5) == [2, 3]
    assert poly_roots_mod([1, 0, 1], 7) == []
    assert poly_roots_mod([0, 1], 13) == [0]


def test_poly_roots_mod_paths_agree():
    # the linear factors of polp_factor against the scan, in degrees the
    # quadratic formula does not take, and p = 2 in every degree
    rng = random.Random(7)
    ps = [p for p in primes_upto(300)] + [1009, 7919]
    for _ in range(160):
        p = rng.choice(ps)
        d = rng.choice([1, 2, 3, 4, 5, 6, 8]) if p == 2 else rng.choice([1, 3, 4, 5, 7])
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        assert poly_roots_mod(f, p) == roots_by_scan(f, p), (f, p)


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


def test_poly_roots_mod_large_prime():
    p = 10**9 + 7
    # (x - 3)(x - 5)(x - 11) expanded
    f = poly_mul(poly_mul([-3, 1], [-5, 1]), [-11, 1])
    assert poly_roots_mod(f, p) == [3, 5, 11]
    # p = 3 mod 4, so x^2 + 1 stays irreducible
    assert poly_roots_mod([1, 0, 1], p) == []
    q = 999999937  # prime, 1 mod 4
    rts = poly_roots_mod([1, 0, 1], q)
    assert len(rts) == 2 and all(r * r % q == q - 1 for r in rts)


def test_polp_factor_known():
    assert polp_factor([1, 0, 0, 0, 1], 2) == [((1, 1), 4)]
    # 17 = 1 mod 8, so x^4 + 1 splits into four linears
    f17 = polp_factor([1, 0, 0, 0, 1], 17)
    assert [len(q) - 1 for q, _ in f17] == [1, 1, 1, 1]
    assert sorted((-q[0]) % 17 for q, _ in f17) == [2, 8, 9, 15]
    # x^2 + 1 is irreducible mod 3
    assert polp_factor([1, 0, 1], 3) == [((1, 0, 1), 1)]


def sympy_factor(f, p):
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(f))
    _, fac = sympy.factor_list(sympy.Poly(expr, x, modulus=p))
    return sorted(
        (
            tuple(
                int(c) % p for c in reversed(sympy.Poly(q, x, modulus=p).all_coeffs())
            ),
            e,
        )
        for q, e in fac
    )


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
