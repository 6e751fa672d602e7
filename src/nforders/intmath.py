"""Exact integer, modular and polynomial arithmetic helpers.

Everything here works on plain unbounded Python ints (and Fraction where
rationals are unavoidable).  No floats are used in any decision anywhere in
this package; the only approximations are explicit rational upper
bounds produced by sqrt_ub.

Polynomials over Z are plain lists of coefficients, constant term first,
so coeffs[i] is the coefficient of x^i and the leading coefficient is
coeffs[-1] (nonzero).  The zero polynomial is the empty list.

Nothing here factors a polynomial mod a prime p.  A root in F_(p^k)
exists exactly when f vanishes mod p or gcd(f, x^(p^k) - x) is not
constant (Cohen, GTM 138, section 3.4), and has_root_mod asks just that.
poly_roots_mod lists the roots of a polynomial of degree at most 2 mod p,
by the quadratic formula, or by evaluation at 0 and 1 when p = 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod

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
    return (-1 if n < 0 else 1) * prod(p for p, e in factorize(n).items() if e % 2)


def is_squarefree(n: int) -> bool:
    return n != 0 and squarefree_part(n) == n


class UnsupportedPrimeError(ValueError):
    """A prime that the package cannot prove prime or cannot work with."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the least strong pseudoprime to the first k bases of _MR_WITNESSES
# (Jaeschke, Math. Comp. 61 (1993); Sorenson-Webster, Math. Comp. 86
# (2017)); psi_12 = 399165290221 * 798330580441
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the witnesses 2, 3, ..., 37, a proof either way
    below psi_12 = 318665857834031151167461.

    A failed witness proves n composite at any size, so False is always
    a proof.  Passing the first k witnesses proves n prime below psi_k.
    At or above psi_12 passing every witness proves nothing (psi_12
    itself passes), so that case raises UnsupportedPrimeError.
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
    for a, psi in zip(_MR_WITNESSES, _PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise UnsupportedPrimeError(
        "cannot prove %d prime: the Miller-Rabin witnesses 2..37 decide "
        "primality only below psi_12 = %d" % (n, _PSI[-1])
    )


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, in increasing order of the primes: of its
    square root when n is a square, else by trial division up to 1000 and,
    for a cofactor left at the divisor 1001, by _large_primes."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    r = isqrt(n)
    if r > 1 and r * r == n:
        return {p: 2 * e for p, e in factorize(r).items()}
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        if f > 1000:
            for p in _large_primes(n, f):
                out[p] = out.get(p, 0) + 1
            return out
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(fac) -> list[int]:
    """The positive divisors, in increasing order, of prod p^e over the
    pairs (p, e) of the factorization fac."""
    out = [1]
    for p, e in fac:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _large_primes(n: int, f: int) -> list[int]:
    """The prime factors of n, with multiplicity and sorted, when n has no
    prime factor below f: a factor below f^2 is then prime, any other is
    asked of is_prime, and a composite one is split by _rho_divisor."""
    out, rest = [], [n]
    while rest:
        m = rest.pop()
        if m < f * f or is_prime(m):
            out.append(m)
        else:
            d = _rho_divisor(m)
            rest += [d, m // d]
    return sorted(out)


# squarings mod n that _rho_divisor spends on one composite, over all its
# seeds, before it gives up; about 0.2 s on a 30-digit n
_RHO_MAX_STEPS = 1 << 18
# differences multiplied together between two gcds
_RHO_BATCH = 128


def _rho_divisor(n: int) -> int:
    """A divisor 1 < d < n of the composite n, by Brent's variant of
    Pollard's rho (Brent, BIT 20 (1980); Cohen, GTM 138, section 8.5):
    iterate y -> y^2 + c mod n from y = 2 for c = 1, 2, ..., compare x, the
    y at each power of two, with the next r values, and take one gcd with
    n per _RHO_BATCH differences.  A batch whose gcd reaches n is stepped
    through again one difference at a time.  Past _RHO_MAX_STEPS
    squarings in all it raises UnsupportedPrimeError."""
    steps, c = 0, 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        # a round costs at most 2r squarings
        while g == 1 and steps + 2 * r <= _RHO_MAX_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += r + min(k, r)
            r *= 2
        if g == 1:
            raise UnsupportedPrimeError(
                "cannot factor %d: Pollard-Brent rho found no divisor in "
                "%d squarings" % (n, _RHO_MAX_STEPS)
            )
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


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


def has_root_mod(f: list[int], p: int, k: int = 1) -> bool:
    """Does f have a root in F_(p^k)?  True when f vanishes mod p, else
    whether gcd(f, x^(p^k) - x) has positive degree: x^(p^k) - x is the
    product of every monic irreducible of degree dividing k."""
    if not is_prime(p):
        raise ValueError("has_root_mod needs a prime modulus")
    fp = polp_trim(f, p)
    return not fp or len(_frobenius_gcd(fp, p, k)) > 1


def _frobenius_gcd(fp: list[int], p: int, k: int) -> list[int]:
    """gcd(fp, x^(p^k) - x) mod p for fp nonzero mod p: the product of the
    distinct monic irreducible factors of fp whose degree divides k."""
    s = polp_powmod([0, 1], p**k, fp, p) + [0, 0]
    s[1] -= 1
    return polp_gcd(fp, s, p)


def poly_roots_mod(f: list[int], p: int) -> list[int]:
    """Sorted roots mod p of f, of degree at most 2 mod p: the residues 0
    and 1 at which f vanishes when p = 2, else one inverse for a linear f
    and the quadratic formula, with a Tonelli-Shanks square root, for a
    quadratic.  ValueError on degree 3 and up."""
    if not is_prime(p):
        raise ValueError("poly_roots_mod needs a prime modulus")
    fp = polp_trim(f, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    if len(fp) > 3:
        raise ValueError("poly_roots_mod takes degree at most 2 mod p")
    if p == 2:
        return [x for x in (0, 1) if poly_eval(fp, x) % 2 == 0]
    if len(fp) == 3:
        return _roots_quadratic(fp, p)
    return [-fp[0] * pow(fp[1], -1, p) % p] if len(fp) == 2 else []


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
# an exact rational bound for square roots (no floats)

# the bound lies within 1/_SQRT_SCALE of sqrt(x)
_SQRT_SCALE = 10**9


def sqrt_ub(x: Fraction) -> Fraction:
    """Rational upper bound on sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * _SQRT_SCALE**2)
    return Fraction(s + 1, x.denominator * _SQRT_SCALE)
