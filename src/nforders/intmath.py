"""Exact integer, modular and polynomial arithmetic helpers.

Everything here works on plain unbounded Python ints (and Fraction where
rationals are unavoidable).  No floats are used in any decision anywhere in
this package; the only approximations are explicit rational lower/upper
bounds produced by sqrt_lb/sqrt_ub.

Polynomials over Z are plain lists of coefficients, constant term first,
so coeffs[i] is the coefficient of x^i and the leading coefficient is
coeffs[-1] (nonzero).  The zero polynomial is the empty list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# ---------------------------------------------------------------------------
# basic integer helpers


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of |n| with n = d * square, sign kept."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return sign * d * n


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_part(n) in (n, -(-n))


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set.

    The set (2, 3, ..., 37) is proven deterministic for n < 3.3e24, far above
    anything this package handles; beyond that it is a strong pseudoprime
    test with error probability below 4^-12.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray((1,)) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk scale)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# residue symbols and modular square roots


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd m >= 1; Legendre symbol when m is prime.

    Standard binary algorithm: flip by quadratic reciprocity, extract twos
    with the (2|m) = (-1)^((m^2-1)/8) rule.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("jacobi symbol needs odd m >= 1, got m=%d" % m)
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a mod an odd prime p.

    Returns the canonical representative 0 <= r <= (p-1)/2 with r^2 = a,
    or None when a is a non-residue.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("sqrt_mod needs an odd prime, got %d" % p)
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    assert r * r % p == a
    return min(r, p - r)


# ---------------------------------------------------------------------------
# polynomials over Z (constant term first)


def poly_trim(f: list[int]) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_eval(f: list[int], x):
    r = 0
    for c in reversed(f):
        r = r * x + c
    return r


def poly_deriv(f: list[int]) -> list[int]:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def resultant(f: list[int], g: list[int]) -> int:
    """res(f, g) over Z via the Euclidean recurrence in exact rationals."""
    f = [Fraction(c) for c in poly_trim(f)]
    g = [Fraction(c) for c in poly_trim(g)]
    res = Fraction(1)
    while True:
        if not g:
            return 0 if len(f) - 1 > 0 else int(res) if f else 0
        if len(g) == 1:
            r = res * g[0] ** (len(f) - 1)
            assert r.denominator == 1
            return int(r)
        # remainder of f by g
        r = list(f)
        dg, lg = len(g) - 1, g[-1]
        while len(r) - 1 >= dg and any(c for c in r):
            c = r[-1] / lg
            shift = len(r) - 1 - dg
            for i, b in enumerate(g):
                r[shift + i] -= c * b
            while r and r[-1] == 0:
                r.pop()
        df = len(f) - 1
        dr = len(r) - 1
        res *= lg ** (df - dr) * (-1) ** (df * dg)
        f, g = g, r


def poly_discriminant(f: list[int]) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * res(f, f') / lc(f)."""
    f = poly_trim(f)
    d = len(f) - 1
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, poly_deriv(f))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f[-1])
    assert rem == 0
    return q


# polynomial arithmetic over Z/p, still constant-first lists


def polp_trim(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def polp_mulmod(f, g, h, p):
    """f*g mod (h, p), h monic."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return polp_divmod(out, h, p)[1]


def polp_divmod(f, g, p):
    f = polp_trim(f, p)
    g = polp_trim(g, p)
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while len(r) >= len(g):
        c = r[-1] * inv % p
        if c:
            shift = len(r) - len(g)
            q[shift] = c
            for i, b in enumerate(g):
                r[shift + i] = (r[shift + i] - c * b) % p
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return polp_trim(q, p), r


def polp_gcd(f, g, p):
    f, g = polp_trim(f, p), polp_trim(g, p)
    while g:
        f, g = g, polp_divmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def polp_powmod(f, e, h, p):
    """f^e mod (h, p)."""
    r = [1]
    f = polp_divmod(f, h, p)[1]
    while e:
        if e & 1:
            r = polp_mulmod(r, f, h, p)
        f = polp_mulmod(f, f, h, p)
        e >>= 1
    return r


def polp_factor(f: list[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Monic irreducible factors of f mod p with multiplicities, sorted by
    (degree, coefficients).  The unit leading coefficient is dropped.

    Trial division by linear and quadratic monics settles every degree up to
    5, which is all the quartic field machinery needs.
    """
    if not is_prime(p):
        raise ValueError("polp_factor needs a prime modulus")
    g = polp_trim(f, p)
    if not g:
        raise ValueError("polynomial vanishes mod p")
    if len(g) - 1 > 5:
        raise ValueError("factorization implemented for degree <= 5 only")
    inv = pow(g[-1], -1, p)
    g = [c * inv % p for c in g]
    out = []
    for r in poly_roots_mod(g, p):
        lin = [(-r) % p, 1]
        e = 0
        while len(g) > 1:
            quo, rem = polp_divmod(g, lin, p)
            if rem:
                break
            g, e = quo, e + 1
        out.append((tuple(lin), e))
    if len(g) - 1 >= 2:
        for b in range(p):
            for c in range(p):
                if p == 2:
                    if (b, c) != (1, 1):
                        continue
                elif jacobi((b * b - 4 * c) % p, p) != -1:
                    continue
                quad = [c, b, 1]
                e = 0
                while len(g) - 1 >= 2:
                    quo, rem = polp_divmod(g, quad, p)
                    if rem:
                        break
                    g, e = quo, e + 1
                if e:
                    out.append((tuple(quad), e))
                if len(g) - 1 < 2:
                    break
            if len(g) - 1 < 2:
                break
    if len(g) - 1 >= 3:
        # no factor of degree <= 2 left and degree <= 5: irreducible
        out.append((tuple(g), 1))
        g = [1]
    assert g == [1]
    check = [1]
    for q, e in out:
        for _ in range(e):
            check = [c % p for c in poly_mul(check, list(q))]
    assert polp_trim(check, p) == polp_trim([c * inv % p for c in polp_trim(f, p)], p)
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


_SCAN_LIMIT = 10**6


def poly_roots_mod(f: list[int], p: int) -> list[int]:
    """Sorted roots of f mod p.

    A quadratic mod an odd prime goes through the quadratic formula with a
    Tonelli-Shanks square root.  Anything else is scanned exhaustively
    below 10^6; above that, f is stripped to its linear-factor part via
    gcd with x^p - x and split by quadratic-character gcds.
    """
    if not is_prime(p):
        raise ValueError("poly_roots_mod needs a prime modulus")
    fp = polp_trim(f, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    if len(fp) == 3 and p != 2:
        return _roots_quadratic(fp, p)
    if p < _SCAN_LIMIT:
        return _roots_scan(fp, p)
    return _roots_powmod(fp, p)


def _roots_quadratic(fp: list[int], p: int) -> list[int]:
    """Sorted roots of c + b*x + a*x^2 mod an odd prime p, a != 0 mod p:
    (-b +- sqrt(b^2 - 4ac)) / 2a."""
    c, b, a = fp
    s = sqrt_mod(b * b - 4 * a * c, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    return sorted({(-b + s) * inv % p, (-b - s) * inv % p})


def _roots_scan(fp: list[int], p: int) -> list[int]:
    """Roots of the nonzero polynomial fp mod p by trying every residue."""
    return [x for x in range(p) if poly_eval(fp, x) % p == 0]


def _roots_powmod(fp: list[int], p: int) -> list[int]:
    """Sorted roots of the nonzero polynomial fp, reduced mod p, by gcds."""
    # linear-factor part: gcd(f, x^p - x)
    xp = polp_powmod([0, 1], p, fp, p)
    xp_minus_x = polp_trim([(a - b) % p for a, b in
                            zip(xp + [0] * 2, [0, 1] + [0] * len(xp))], p)
    g = polp_gcd(fp, xp_minus_x, p)
    roots = []
    if g and g[0] == 0:
        roots.append(0)
        g = polp_trim(g[1:], p)
    stack = [g]
    while stack:
        h = stack.pop()
        if len(h) <= 1:
            continue
        if len(h) == 2:
            roots.append(-h[0] * pow(h[1], -1, p) % p)
            continue
        a = 0
        while True:
            # gcd(h(x), (x+a)^((p-1)/2) - 1) splits distinct roots
            probe = polp_powmod([a, 1], (p - 1) // 2, h, p)
            probe = polp_trim([(c - (1 if i == 0 else 0)) % p
                               for i, c in enumerate(probe + [0])], p)
            d = polp_gcd(h, probe, p)
            if 0 < len(d) - 1 < len(h) - 1:
                stack.append(d)
                stack.append(polp_divmod(h, d, p)[0])
                break
            a += 1
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact rational bounds for square roots (no floats)


def sqrt_lb(x: Fraction, scale: int = 10**9) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * scale * scale)
    return Fraction(s, x.denominator * scale)


def sqrt_ub(x: Fraction, scale: int = 10**9) -> Fraction:
    """Rational upper bound on sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * scale * scale)
    return Fraction(s + 1, x.denominator * scale)
