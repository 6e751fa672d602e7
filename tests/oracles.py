"""Helpers that only the tests use.

Test helpers, not collected by pytest.  The group law on binary forms
(`compose`, by Shanks' algorithm, with `form_inverse` and `form_pow`) and
the invariant factors it gives (`form_structure`) check that the reduced
forms the library counts make up the class group; the library itself
reads only their number.  `brute_force_represent`, `rel_norm_EF`,
`principal_generator` and `primes_upto` are helpers that nothing in the
library calls.
"""

from math import isqrt

from nforders.biquadratic import BiquadElem, BiquadField, _reduce_inverse
from nforders.criteria import verify_identity
from nforders.intmath import factorize, xgcd
from nforders.lattice import IntModule, find_generator, identity_module
from nforders.quadratic import (
    BinaryForm,
    QuadElem,
    QuadField,
    from_integral_coords,
    principal_form,
)

# ---------------------------------------------------------------------------
# integers


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


# ---------------------------------------------------------------------------
# binary quadratic forms


def form_inverse(f: BinaryForm) -> BinaryForm:
    return BinaryForm(f.a, -f.b, f.c).reduce()


def compose(f1: BinaryForm, f2: BinaryForm) -> BinaryForm:
    """The reduced composite of two primitive positive definite forms of one
    discriminant, by Shanks' composition (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 5.4.7): two extended gcds give the
    united form (a1*a2/d1^2, b3, c3), d1 = gcd(a1, a2, (b1 + b2)/2), which
    is then reduced."""
    assert f1.disc == f2.disc
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, a2, c2 = f1.a, f2.a, f2.c
    s = (f1.b + f2.b) // 2
    n = f2.b - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = xgcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, y2 = xgcd(s, d)
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3, b3 = v1 * v2, f2.b + 2 * v2 * r
    c3, rest = divmod(b3 * b3 - f1.disc, 4 * a3)
    assert rest == 0
    return BinaryForm(a3, b3, c3).reduce()


def form_pow(f: BinaryForm, e: int) -> BinaryForm:
    if e < 0:
        return form_pow(form_inverse(f), -e)
    r = principal_form(f.disc).reduce()
    base = f
    while e:
        if e & 1:
            r = compose(r, base)
        e >>= 1
        if e:
            base = compose(base, base)
    return r


def form_structure(forms) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of the class group on the given
    reduced forms (all those of one discriminant).

    Counts the forms killed by p^k for each prime p; those counts pin down
    the partition of p-ranks, hence the structure.
    """
    n = len(forms)
    if n == 1:
        return ()
    identity = principal_form(forms[0].disc).reduce()
    # elementary divisors per prime
    per_prime: dict[int, list[int]] = {}
    for p, e in factorize(n).items():
        counts = [1]  # N_k = #{g : g^(p^k) = id}
        powers = list(forms)  # g^(p^k) for each g, raised by p per step
        for k in range(1, e + 1):
            powers = [form_pow(g, p) for g in powers]
            counts.append(sum(1 for g in powers if g == identity))
        # N_k = p^(sum_i min(lambda_i, k)); recover the partition lambda
        exps = []
        for k in range(1, e + 1):
            v = 0
            c = counts[k] // counts[k - 1]
            while c > 1:
                c //= p
                v += 1
            exps.append(v)  # number of lambda_i >= k
        partition = []
        for k, cnt in enumerate(exps, start=1):
            nxt = exps[k] if k < len(exps) else 0
            partition.extend([k] * (cnt - nxt))
        per_prime[p] = sorted((p**x for x in partition), reverse=True)
    # glue into invariant factors
    depth = max(len(v) for v in per_prime.values())
    invs = []
    for i in range(depth):
        d = 1
        for p, divs in per_prime.items():
            if i < len(divs):
                d *= divs[i]
        invs.append(d)
    return tuple(sorted(invs))


# ---------------------------------------------------------------------------
# p = x^2 + n*y^2 by box scan


def brute_force_represent(p, n: int, F: QuadField | None, box: int):
    """Exhaustive scan for p = x^2 + n*y^2 with all coordinates in
    [-box, box]; F None means plain integers.  None is only a statement
    about the box."""
    coords = sorted(range(-box, box + 1), key=lambda t: (abs(t), t < 0))
    if F is None:
        for x in coords:
            for y in coords:
                if x * x + n * y * y == p:
                    return x, y
        return None
    target = p if isinstance(p, QuadElem) else F(p)
    sq = {}
    for y1 in coords:
        for y2 in coords:
            y = from_integral_coords(F, y1, y2)
            sq.setdefault(n * y * y, y)
    for x1 in coords:
        for x2 in coords:
            x = from_integral_coords(F, x1, x2)
            y = sq.get(target - x * x)
            if y is not None:
                assert verify_identity(target, x, y, n)
                return x, y
    return None


# ---------------------------------------------------------------------------
# the quartic field E = Q(sqrt(-d), sqrt(-n))


def rel_norm_EF(e: BiquadElem) -> QuadElem:
    """e * bar(e) as an element of Q(sqrt(-d)): the norm for the quadratic
    step down to the fixed field of bar."""
    a, b, c, ee = (e * e.bar()).naive()
    assert c == 0 and ee == 0
    return QuadElem(QuadField(-e.field.d), a, b)


def principal_generator(E: BiquadField, m: IntModule):
    """Generator of m as a fractional ideal of the maximal order, or None;
    the search runs on a norm-reduced ideal so enumeration stays small."""
    beta, c = _reduce_inverse(m)
    lam = find_generator(c, c.covolume())
    if lam is None:
        return None
    g = beta / lam
    assert identity_module(E).transform(E.mult_matrix(g)) == m
    return g
