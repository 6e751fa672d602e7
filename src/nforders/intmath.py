"""Exact integer, modular and polynomial arithmetic helpers.

Everything here works on plain unbounded Python ints (and Fraction where
rationals are unavoidable).  No floats are used in any decision anywhere in
this package; the only approximations are explicit rational lower/upper
bounds produced by sqrt_lb/sqrt_ub.

Polynomials over Z are plain lists of coefficients, constant term first,
so coeffs[i] is the coefficient of x^i and the leading coefficient is
coeffs[-1] (nonzero).  The zero polynomial is the empty list.

Every question about a polynomial mod a prime p goes through one factoring
routine, polp_factor (Cantor-Zassenhaus: distinct-degree factorisation,
then equal-degree splitting), in any degree and for every p.  The roots
of poly_roots_mod are its linear factors, with the quadratic formula as
the one shortcut.  Nothing here scans the residues mod p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
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
# polynomials (constant term first) over Z, or over any exact field whose
# elements take part in +, -, *, / with integers


def poly_trim(f: list) -> list:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_eval(f: list, x):
    r = 0
    for c in reversed(f):
        r = r * x + c
    return r


def poly_deriv(f: list) -> list:
    return poly_trim([i * c for i, c in enumerate(f)][1:])


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def resultant(f: list, g: list):
    """res(f, g) by the Euclidean recurrence over the field of the
    coefficients (Cohen, GTM 138, section 3.3), as an element of it: the
    field of the first coefficient that has one (a QuadElem), else Q,
    where it is a Fraction."""
    f, g = poly_trim(f), poly_trim(g)
    K = next((c.field for c in f + g if hasattr(c, "field")), Fraction)
    f, g = ([c if hasattr(c, "field") else K(c) for c in h] for h in (f, g))
    res = K(1)
    while True:
        if not g:
            return res if len(f) == 1 else K(0)
        if len(g) == 1:
            return res * g[0] ** (len(f) - 1)
        # remainder of f by g
        r = list(f)
        dg, lg = len(g) - 1, g[-1]
        while len(r) - 1 >= dg and any(r):
            c = r[-1] / lg
            shift = len(r) - 1 - dg
            for i, b in enumerate(g):
                r[shift + i] -= c * b
            while r and not r[-1]:
                r.pop()
        df = len(f) - 1
        dr = len(r) - 1
        res *= lg ** (df - dr) * (-1) ** (df * dg)
        f, g = g, r


def poly_discriminant(f: list):
    """disc(f) = (-1)^(d(d-1)/2) * res(f, f') / lc(f), exactly; an int
    when the coefficients are."""
    f = poly_trim(f)
    d = len(f) - 1
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    out = sign * resultant(f, poly_deriv(f)) / f[-1]
    return int(out) if isinstance(out, Fraction) and out.denominator == 1 else out


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

    Cantor-Zassenhaus, in any degree.  Distinct-degree factorisation: once
    every power of the factors of degree < d is divided out of `rest`,
    gcd(rest, x^(p^d) - x) is the product of the distinct degree-d factors
    of rest, which _split_equal_degree breaks apart.  Multiplicities come
    from trial division by each factor found.
    """
    if not is_prime(p):
        raise ValueError("polp_factor needs a prime modulus")
    g = polp_trim(f, p)
    if not g:
        raise ValueError("polynomial vanishes mod p")
    inv = pow(g[-1], -1, p)
    rest = [c * inv % p for c in g]
    out = []
    xq, d = [0, 1], 0  # xq = x^(p^d) mod rest
    # every factor of rest has degree > d, so rest of degree < 2(d + 1) is
    # 1 or irreducible
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xq = polp_powmod(xq, p, rest, p)
        xq_minus_x = xq + [0] * (2 - len(xq))
        xq_minus_x[1] -= 1
        for q in _split_equal_degree(polp_gcd(rest, xq_minus_x, p), d, p):
            e = 0
            while True:
                quo, rem = polp_divmod(rest, q, p)
                if rem:
                    break
                rest, e = quo, e + 1
            out.append((tuple(q), e))
    if len(rest) > 1:
        out.append((tuple(rest), 1))
    check = [1]
    for q, e in out:
        for _ in range(e):
            check = [c % p for c in poly_mul(check, list(q))]
    assert polp_trim(check, p) == [c * inv % p for c in g]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def _split_equal_degree(h: list[int], d: int, p: int) -> list[list[int]]:
    """The monic irreducible factors of h, a monic product of distinct
    irreducibles of degree d mod p.

    A probe t splits a part g along gcd(g, t^((p^d-1)/2) - 1) for odd p and
    along the trace gcd(g, t + t^2 + ... + t^(2^(d-1))) for p = 2.  The
    probes run over the nonconstant polynomials of degree < deg h in turn.
    By the Chinese remainder theorem one of them separates any two factors
    of h, so the loop ends, and the result does not depend on which probe
    does it.
    """
    parts = [h] if len(h) > 1 else []
    i = p  # the probe's coefficients are the base-p digits of i
    while any(len(g) - 1 > d for g in parts):
        t, k = [], i
        while k:
            k, c = divmod(k, p)
            t.append(c)
        i += 1
        split = []
        for g in parts:
            if len(g) - 1 > d:
                if p == 2:
                    u = s = polp_divmod(t, g, p)[1]
                    for _ in range(d - 1):
                        u = polp_mulmod(u, u, g, p)
                        s = [a ^ b for a, b in zip_longest(s, u, fillvalue=0)]
                else:
                    s = polp_powmod(t, (p**d - 1) // 2, g, p) or [0]
                    s[0] -= 1
                a = polp_gcd(g, s, p)
                if 0 < len(a) - 1 < len(g) - 1:
                    split += [a, polp_divmod(g, a, p)[0]]
                    continue
            split.append(g)
        parts = split
    return parts


def poly_roots_mod(f: list[int], p: int) -> list[int]:
    """Sorted roots of f mod p.

    A quadratic mod an odd prime goes through the quadratic formula with a
    Tonelli-Shanks square root; anything else reads the roots off the
    linear factors from polp_factor.
    """
    if not is_prime(p):
        raise ValueError("poly_roots_mod needs a prime modulus")
    fp = polp_trim(f, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    if len(fp) == 3 and p != 2:
        return _roots_quadratic(fp, p)
    return sorted(-q[0] % p for q, _ in polp_factor(fp, p) if len(q) == 2)


def _roots_quadratic(fp: list[int], p: int) -> list[int]:
    """Sorted roots of c + b*x + a*x^2 mod an odd prime p, a != 0 mod p:
    (-b +- sqrt(b^2 - 4ac)) / 2a."""
    c, b, a = fp
    s = sqrt_mod(b * b - 4 * a * c, p)
    if s is None:
        return []
    inv = pow(2 * a, -1, p)
    return sorted({(-b + s) * inv % p, (-b - s) * inv % p})


# ---------------------------------------------------------------------------
# exact rational bounds for square roots (no floats)

# both bounds lie within 1/_SQRT_SCALE of sqrt(x)
_SQRT_SCALE = 10**9


def sqrt_lb(x: Fraction) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * _SQRT_SCALE**2)
    return Fraction(s, x.denominator * _SQRT_SCALE)


def sqrt_ub(x: Fraction) -> Fraction:
    """Rational upper bound on sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * _SQRT_SCALE**2)
    return Fraction(s + 1, x.denominator * _SQRT_SCALE)
