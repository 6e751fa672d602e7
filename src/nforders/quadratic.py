"""Quadratic fields Q(sqrt(D)): elements, splitting, form class groups, Pell.

The integral basis is {1, w} with w = (1+sqrt(D))/2 when D = 1 mod 4 and
w = sqrt(D) otherwise.  Field elements of either degree, quadratic here
and quartic in biquadratic.py, are integer coordinates over the integral
basis and one denominator (FieldElem).  Class numbers are counted on
reduced binary quadratic forms (imaginary side only), and Pell equations
solved through the continued fraction of sqrt(D), whose cycle is also cut
into the windows of the rank-4 generator search (lattice.find_generator).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, cycle, islice
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from .intmath import (
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    jacobi,
    poly_roots_mod,
    sqrt_mod,
)


class UnsupportedFieldError(ValueError):
    pass


class UnresolvedError(Exception):
    pass


class Keyed:
    """Equality and hash on the tuple _key(), within one class: an instance
    never equals one of another class, a tuple of its fields included."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# integer structure constants, shared by the quadratic and quartic fields


def integer_coords(coords) -> tuple[tuple, int]:
    """(u, den) with coords = u / den, u a tuple of integers and den the
    lcm of the coordinates' denominators."""
    den = 1
    for c in coords:
        den = lcm(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def integer_rows(rows, what: str) -> tuple:
    """The rows as a tuple of integer tuples; ValueError naming `what` when
    an entry is not an integer."""
    out = []
    for row in rows:
        if any(Fraction(c).denominator != 1 for c in row):
            raise ValueError("%s is not integral" % what)
        out.append(tuple(int(c) for c in row))
    return tuple(out)


def table_matrix(T, u) -> list[list[int]]:
    """Multiplication matrix of the element with integer coordinates u
    under the structure constants T[i][j] = coords(b_i * b_j): row i is
    coords(b_i * u) = sum_k u[k] * T[i][k], so coords(x * u) = coords(x) M."""
    n = len(u)
    out = []
    for Ti in T:
        row = [0] * n
        for uk, Tik in zip(u, Ti):
            if uk:
                for j in range(n):
                    row[j] += uk * Tik[j]
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# field elements of any degree

_SCALARS = (int, Fraction)


class FieldElem(Keyed):
    """The element u/den of a number field: u a tuple of ints over the
    field's integral basis, whose first member is 1, and den > 0 coprime
    to the content of u, so equal elements compare and hash equal (Cohen,
    GTM 138, section 4.2.2).  What does not depend on the degree lives
    here, the norm among it; each subclass brings its product and
    conjugates."""

    def __init__(self, field, u: tuple, den: int = 1):
        if len(u) != field.degree:
            raise ValueError("need %d coordinates" % field.degree)
        if not den:
            raise ZeroDivisionError("element with denominator 0")
        g = gcd(den, *u) if den > 0 else -gcd(den, *u)
        if g != 1 or type(u) is not tuple:
            u, den = tuple(x // g for x in u), den // g
        self.field, self.u, self.den = field, u, den

    def _key(self) -> tuple:
        return self.field, self.u, self.den

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def _scale(self, s):
        """self * s for a rational s."""
        return type(self)(
            self.field, tuple(x * s.numerator for x in self.u), self.den * s.denominator
        )

    def _image(self, M, den: int):
        """The element (u M) / den, M an integer matrix on row coordinates."""
        return type(self)(
            self.field, tuple(sum(map(mul, self.u, col)) for col in zip(*M)), den
        )

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = self.field.one()._scale(other)
        self._check(other)
        a, b = self.den, other.den
        return type(self)(
            self.field, tuple(x * b + y * a for x, y in zip(self.u, other.u)), a * b
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.field, tuple(-x for x in self.u), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(Fraction(1, other))
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self if e else self.field.one()
        for bit in bin(e)[3:]:  # the bits below the top one, from the left
            r = r * r
            if bit == "1":
                r = r * self
        return r

    def is_zero(self) -> bool:
        return not any(self.u)

    def __bool__(self):
        return not self.is_zero()

    def is_integral(self) -> bool:
        return self.den == 1

    def is_rational(self) -> bool:
        return not any(self.u[1:])

    def basis_coords(self) -> tuple:
        """The rational coordinates u/den over the integral basis."""
        return tuple(Fraction(x, self.den) for x in self.u)

    def norm(self) -> Fraction:
        """Product of the conjugates: the field's integer norm form of u
        over den to the degree."""
        return Fraction(self.field.norm_form(self.u), self.den**self.field.degree)

    def abs_norm(self) -> Fraction:
        return abs(self.norm())


class QuadField(Keyed):
    """Q(sqrt(D)) for squarefree D != 0, 1."""

    degree = 2

    def __init__(self, D: int):
        if D in (0, 1) or not is_squarefree(D):
            raise ValueError("QuadField needs squarefree D != 0, 1, got %d" % D)
        self.D = D

    def _key(self) -> tuple:
        return (self.D,)

    @property
    def disc(self) -> int:
        return self.D if self.D % 4 == 1 else 4 * self.D

    def __call__(self, a, b=0) -> "QuadElem":
        """a + b*sqrt(D) for rational a, b; sqrt(D) = 2w - 1 when
        D = 1 mod 4."""
        if self.D % 4 == 1:
            return self.from_basis_coords((a - b, 2 * b))
        return self.from_basis_coords((a, b))

    def omega_minpoly(self) -> list[int]:
        # constant term first; x^2 - x - (D-1)/4 or x^2 - D
        if self.D % 4 == 1:
            return [-(self.D - 1) // 4, -1, 1]
        return [-self.D, 0, 1]

    def from_basis_coords(self, coords) -> "QuadElem":
        """Element x + y*w from rational coordinates (x, y)."""
        return QuadElem(self, *integer_coords(coords))

    def one(self) -> "QuadElem":
        return QuadElem(self, (1, 0))

    def t2_gram_matrix(self) -> tuple:
        """Gram matrix of T2 on the basis {1, w}, T2 the sum of |x|^2 over
        both embeddings; its determinant is |disc|."""
        D = abs(self.D)
        if self.D % 4 == 1:
            return ((2, 1), (1, (1 + D) // 2))
        return ((2, 0), (0, 2 * D))

    @cached_property
    def mult_table(self) -> tuple:
        """Structure constants T[i][j] = coords(b_i * b_j) over the integral
        basis {b_0, b_1} = {1, w}, as integer pairs: with omega_minpoly()
        = [m0, m1, 1], w^2 = -m0 - m1*w."""
        m0, m1, _ = self.omega_minpoly()
        return (((1, 0), (0, 1)), ((0, 1), (-m0, -m1)))

    @cached_property
    def conj_matrix(self) -> tuple:
        """Integer matrix of the conjugation sqrt(D) -> -sqrt(D) on row
        coordinates: row i is coords(conj(b_i)), and conj(w) = -m1 - w is
        the other root of omega_minpoly() = [m0, m1, 1]."""
        _, m1, _ = self.omega_minpoly()
        return ((1, 0), (-m1, -1))

    def norm_form(self, u) -> int:
        """N(x + y w) = (x + y w)(x + y w') = x^2 + c1 x y - c0 y^2, as
        w + w' = c1 and w w' = -c0 for w^2 = c0 + c1 w."""
        x, y = u
        c0, c1 = self.mult_table[1][1]
        return x * x + c1 * x * y - c0 * y * y

    def prime_rows(self, q: int) -> list:
        """HNF rows over {1, w} of the primes above the rational prime q,
        by Kummer-Dedekind (O_K = Z[w]): one prime (q, w - r) for each root
        r of omega_minpoly() mod q, in the order of the roots, and q O_K
        itself when there is none."""
        roots = poly_roots_mod(self.omega_minpoly(), q)
        if not roots:
            return [((q, 0), (0, q))]
        return [((q, 0), ((-r) % q, 1)) for r in roots]

    def class_number(self) -> int:
        return form_class_group(self.disc).h

    @cached_property
    def genus_characters(self) -> tuple:
        """The prime discriminants p* of disc when D < 0, none when D > 0.
        For D < 0 the genus field K(sqrt(p*), p* | disc) is unramified over
        K, so (p*/|N(alpha)|) = 1 for every alpha with |N(alpha)| coprime
        to p* (lattice.find_generator).  A real K has a real place, at
        which K(sqrt(p*)) ramifies for p* < 0: in Q(sqrt(3)), 1 + 2*sqrt(3)
        has |N| = 11 and (-4/11) = -1."""
        return prime_discriminants(self.disc) if self.D < 0 else ()

    def residue_unit_counts(self, fac) -> tuple[int, int]:
        """(#(O_K/f O_K)^x, #(o/f O_K)^x) for o = Z + f*O_K, the order of
        index f = prod q^e over the pairs (q, e) of fac, its factorization,
        whose conductor is f*O_K (Cox, Primes of the form x^2 + ny^2,
        section 7).  O_K/f O_K is the product over q^e || f of the
        O_K/q^e O_K, with q^(2e) (1 - 1/q)(1 - chi(q)/q) units, chi(q) = 1,
        -1 or 0 as q splits, stays inert or ramifies; and o/f O_K is Z/f,
        with phi(f) units.  Both are 1 for f = 1."""
        phi = psi = 1  # phi(f), and f * prod (1 - chi(q)/q)
        for q, e in fac:
            chi = {"split": 1, "inert": -1, "ramified": 0}[split_kind(self, q)]
            phi *= q ** (e - 1) * (q - 1)
            psi *= q ** (e - 1) * (q - chi)
        return phi * psi, phi

    def __repr__(self):
        return "QuadField(%d)" % self.D


def prime_discriminants(disc: int) -> tuple:
    """The prime discriminants whose product is the fundamental
    discriminant disc (Cox, Primes of the form x^2 + ny^2, section 6):
    p* = (-1)^((p-1)/2) p for each odd prime p | disc, all 1 mod 4, and
    first, when disc is even, its 2-part disc / prod p*, which is -4, 8
    or -8."""
    odd = [p if p % 4 == 1 else -p for p in factorize(disc) if p != 2]
    two = disc // prod(odd)
    assert two in (1, -4, 8, -8), disc
    return tuple([two] * (two != 1) + odd)


class QuadElem(FieldElem):
    """x + y*w = a + b*sqrt(D), held as u = (x, y) over den."""

    @property
    def a(self) -> Fraction:
        x, y = self.u
        if self.field.D % 4 == 1:
            return Fraction(2 * x + y, 2 * self.den)
        return Fraction(x, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.u[1], (2 if self.field.D % 4 == 1 else 1) * self.den)

    def __mul__(self, other):
        """(x1 + y1 w)(x2 + y2 w), with w^2 = c0 + c1 w read off
        mult_table[1][1]."""
        if isinstance(other, _SCALARS):
            return self._scale(other)
        self._check(other)
        (x1, y1), (x2, y2) = self.u, other.u
        c0, c1 = self.field.mult_table[1][1]
        yy = y1 * y2
        return QuadElem(
            self.field,
            (x1 * x2 + c0 * yy, x1 * y2 + y1 * x2 + c1 * yy),
            self.den * other.den,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadElem":
        return self._image(self.field.conj_matrix, self.den)

    def inverse(self) -> "QuadElem":
        return self.conj() / self.norm()

    def __repr__(self):
        return "QuadElem(%s + %s*sqrt(%d))" % (self.a, self.b, self.field.D)


# ---------------------------------------------------------------------------
# prime splitting


class SplitResult(NamedTuple):
    kind: str  # "split" | "inert" | "ramified"
    # q when inert, else an element of norm q off a form reduction: None
    # when there is none, and always None in a real field
    pi: QuadElem | None
    pibar: QuadElem | None


def split_kind(F: QuadField, q: int) -> str:
    """"split", "inert" or "ramified": how the rational prime q splits in
    O_F, read off disc mod 8 for q = 2 and off the Jacobi symbol
    (disc | q) otherwise."""
    disc = F.disc
    if q == 2:
        if disc % 2 == 0:
            return "ramified"
        return "split" if disc % 8 == 1 else "inert"
    j = jacobi(disc, q)
    return "split" if j == 1 else "inert" if j == -1 else "ramified"


def split_prime(F: QuadField, q: int) -> SplitResult:
    """Splitting behavior of the rational prime q in O_F and, for q split or
    ramified in an imaginary field, the element (u + v*sqrt(D))/s of norm q
    (s = 2 when D = 1 mod 4, else 1) of least |v|, then with v, u >= 0,
    from principal_representation.  The prime ideals are prime_rows."""
    if not is_prime(q):
        raise ValueError("split_prime needs a prime, got %d" % q)
    kind = split_kind(F, q)
    if kind == "inert":
        return SplitResult("inert", F(q), F(q))
    rep = principal_representation(F.disc, q) if F.D < 0 else None
    if rep is None:
        return SplitResult(kind, None, None)
    # sign and conjugation flip the signs of u and v; up to sign only the
    # units i and (+-1 + sqrt(-3))/2 move |v|
    x, y = rep
    s = 2 if F.D % 4 == 1 else 1
    u, v = (2 * x + y, y) if s == 2 else (x, y)
    pairs = [(u, v)]
    if F.D == -1:
        pairs.append((v, u))
    elif F.D == -3:
        pairs += [((u - 3 * v) // 2, (u + v) // 2), ((u + 3 * v) // 2, (v - u) // 2)]
    v, u = min((abs(v), abs(u)) for u, v in pairs)
    pi = F(Fraction(u, s), Fraction(v, s))
    return SplitResult(kind, pi, pi.conj())


# ---------------------------------------------------------------------------
# binary quadratic forms


class BinaryForm(NamedTuple):
    """a*x^2 + b*xy + c*y^2; compares, hashes and sorts as (a, b, c)."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def reduction(self) -> tuple["BinaryForm", tuple]:
        """The reduced form F' and ((p, q), (r, t)) in SL2(Z) with
        F'(x, y) = F(p x + q y, r x + t y), from reduce_form."""
        a, b, c, p, q, r, t = reduce_form(*self)
        return BinaryForm(a, b, c), ((p, q), (r, t))


def reduce_form(a: int, b: int, c: int) -> tuple:
    """(a', b', c', p, q, r, t): the reduced form of the positive definite
    a*x^2 + b*xy + c*y^2 and ((p, q), (r, t)) in SL2(Z) with
    F'(x, y) = F(p x + q y, r x + t y), built up move by move on ints."""
    if a <= 0 or b * b >= 4 * a * c:
        raise ValueError("reduction implemented for positive definite forms")
    p, q, r, t = 1, 0, 0, 1
    while True:
        if c < a or (c == a and b < 0):  # swap by ((0, -1), (1, 0))
            a, b, c = c, -b, a
            p, q, r, t = q, -p, t, -r
        elif b > a or b <= -a:  # translate b into (-a, a] by ((1, k), (0, 1))
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, c + k * b + k * k * a
            q, t = q + k * p, t + k * r
        else:
            return a, b, c, p, q, r, t


def principal_form(disc: int) -> BinaryForm:
    if disc % 4 == 0:
        return BinaryForm(1, 0, -disc // 4)
    if disc % 4 == 1:
        return BinaryForm(1, 1, (1 - disc) // 4)
    raise ValueError("discriminant must be 0 or 1 mod 4")


def principal_representation(disc: int, q: int) -> tuple[int, int] | None:
    """(x, y) at which principal_form(disc) takes the value q, for disc < 0
    and q prime, or None when there is none (Cox, Primes of the form x^2 +
    ny^2, section 2): the forms that represent q are the classes of (q, +-b,
    c) with b^2 = disc (mod 4q), inverse to each other, and the reduction
    ((p, s), (r, t)) of one sends (t, -r) to (1, 0), where it is q."""
    if q == 2:
        b = next((b for b in range(4) if (b * b - disc) % 8 == 0), None)
    elif (b := sqrt_mod(disc, q)) is not None:
        b += q * ((b - disc) % 2)  # b = disc mod 2, so b^2 = disc mod 4q
    if b is None:
        return None
    f, (_, (r, t)) = BinaryForm(q, b, (b * b - disc) // (4 * q)).reduction()
    return (t, -r) if f == principal_form(disc) else None


# |disc| above which reduced_forms refuses to run: its loops take about
# |disc|/10 steps, 0.1 s at this bound on a 2-vCPU machine
_REDUCED_FORMS_MAX_DISC = 10**7


def reduced_forms(disc: int) -> list[BinaryForm]:
    """All reduced primitive positive definite forms of the discriminant,
    sorted, for |disc| up to _REDUCED_FORMS_MAX_DISC; UnsupportedFieldError
    past it.  For each b = disc mod 2, 0 <= b <= sqrt(|disc|/3), one
    comprehension takes the a in [b, sqrt(m)] dividing m = (b^2 - disc)/4
    with gcd(a, b, m/a) = 1; (a, -b, c) joins when 0 < b < a < c."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant = 0 or 1 mod 4")
    if -disc > _REDUCED_FORMS_MAX_DISC:
        raise UnsupportedFieldError(
            "reduced forms of discriminant %d: |disc| exceeds the limit %d"
            % (disc, _REDUCED_FORMS_MAX_DISC)
        )
    out = []
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        out += [
            BinaryForm(a, b, m // a)
            for a in range(max(b, 1), isqrt(m) + 1)
            if m % a == 0 and gcd(a, b, m // a) == 1
        ]
    return sorted(out + [BinaryForm(a, -b, c) for a, b, c in out if 0 < b < a < c])


class ClassGroupResult(NamedTuple):
    """The reduced forms of a negative discriminant and their number h."""

    disc: int
    h: int
    forms: tuple[BinaryForm, ...]


def form_class_group(disc: int) -> ClassGroupResult:
    forms = reduced_forms(disc)
    assert principal_form(disc) in forms
    return ClassGroupResult(disc, len(forms), tuple(forms))


# ---------------------------------------------------------------------------
# continued fractions and Pell equations


class CFExpansion(NamedTuple):
    D: int
    a0: int
    period: tuple[int, ...]
    norms: tuple[int, ...]  # h_k^2 - D q_k^2 = (-1)^(k+1) Q_(k+1), k < len(period)


_CF_MAX_PERIOD = 2**20  # the longest period cf_sqrt expands, about 0.6 s


def _cf_period(D: int, a0: int) -> int:
    """The period l of sqrt(D), walked to its midpoint storing nothing, or
    UnsupportedFieldError past _CF_MAX_PERIOD.

    With x_k = (P_k + sqrt(D))/Q_k the complete quotients and x_(l+1-k) =
    -1/x'_k (PellData), P_(s+1) = P_s, s >= 1, gives Q_(s+1) = Q_(s-1), as
    D - P_k^2 = Q_k Q_(k-1), so x_(s+1) = -1/x'_s = x_(l+1-s); and
    Q_(s+1) = Q_s gives x_(s+1) = -1/x'_(s+1) = x_(l-s).  The x_k of a
    period are distinct, so the first s with either is l/2 or (l-1)/2,
    met after about l/2 steps."""
    m, d, a = 0, 1, a0
    for s in range(_CF_MAX_PERIOD // 2 + 1):
        m1 = d * a - m
        d1 = (D - m1 * m1) // d
        if d1 == d or m1 == m:
            l = 2 * s + (d1 == d)
            if l <= _CF_MAX_PERIOD:
                return l
            break
        m, d, a = m1, d1, (a0 + m1) // d1
    msg = "the continued fraction of sqrt(%d) has a period past the expansion's limit %d"
    raise UnsupportedFieldError(msg % (D, _CF_MAX_PERIOD))


def cf_sqrt(D: int) -> CFExpansion:
    """Periodic continued fraction of sqrt(D) via the exact P,Q recurrence.
    The period l is found first (_cf_period), so a period past
    _CF_MAX_PERIOD is refused before anything is stored.  Then the first
    l//2 quotients and Q_k are walked again and mirrored: the period is
    symmetric, a_(l-k) = a_k and Q_(l-k) = Q_k for 0 < k < l, and ends in
    a_l = 2*a0 and Q_l = 1 (Cohen, GTM 138, 5.7; Perron, Die Lehre von den
    Kettenbrüchen, section 24)."""
    if D <= 0 or is_square(D):
        raise ValueError("cf_sqrt needs a positive nonsquare")
    a0 = isqrt(D)
    l = _cf_period(D, a0)
    m, d, a = 0, 1, a0
    quots, Qs = [], []
    for _ in range(l // 2):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        quots.append(a)
        Qs.append(d)
    back = slice(None, None, -1) if l % 2 else slice(-2, None, -1)
    period = quots + quots[back] + [2 * a0]
    norms = [q if k % 2 else -q for k, q in enumerate(Qs + Qs[back] + [1])]
    return CFExpansion(D, a0, tuple(period), tuple(norms))


def cf_convergents(cf: CFExpansion, count: int):
    """Yield the first `count` convergents (h_k, q_k) of the expansion cf,
    h_k = a_k*h_(k-1) + h_(k-2) and likewise q_k."""
    h, h2, q, q2 = 1, 0, 0, 1  # h_(k-1), h_(k-2), q_(k-1), q_(k-2)
    for a in islice(chain((cf.a0,), cycle(cf.period)), count):
        h, h2, q, q2 = a * h + h2, h, a * q + q2, q
        yield h, q


class PellData:
    """The expansion `cf` of sqrt(D) and `half`, the pair (mid, unit) read
    off its first ceil(l/2) convergents g_k = h_k + q_k*sqrt(D), l the
    period and s = l//2: mid is g_(s-1) (g_-1 = 1), and unit the Pell unit
    eps = g_(l-1), the least unit above 1 of Z[sqrt(D)], of norm (-1)^l
    (Cohen, GTM 138, 5.7).  Both are (h, q) pairs, walked on the first
    read of `half`, after a caller's limit on l.

    With ' the conjugate and x_k = (P_k + sqrt(D))/Q_k the complete
    quotients of cf_sqrt, x_k = -g'_(k-2)/g'_(k-1) (g_-2 = sqrt(D)), so x_1
    ... x_k = (-1)^k/g'_(k-1) = g_(k-1)/Q_k, and the symmetric period,
    Q_(l-k) = Q_k and P_(l+1-k) = P_k (Perron, Die Lehre von den
    Kettenbrüchen, section 24), gives x_(l+1-k) = -1/x'_k, as D - P_k^2 =
    Q_k Q_(k-1).  So eps = x_1 ... x_l (Q_l = 1), whose last s factors are
    (-1)^s/(x_1 ... x_s)' = (-1)^s Q_s/g'_(s-1): for l = 2s, eps =
    (g_(s-1)/Q_s) (-1)^s Q_s/g'_(s-1) = g_(s-1)^2/|N(g_(s-1))|, and for l =
    2s + 1, eps = (g_s/Q_(s+1)) (-1)^s Q_s/g'_(s-1) = g_(s-1) g_s/|N(g_(s-1))|,
    as Q_(s+1) = Q_s.  Each division is checked exact, and the unit's norm.
    """

    def __init__(self, D: int):
        self.cf = cf_sqrt(D)

    @cached_property
    def half(self) -> tuple:
        D, l = self.cf.D, len(self.cf.period)
        last = deque(chain([(1, 0)], cf_convergents(self.cf, (l + 1) // 2)), maxlen=2)
        (h, q), (h2, q2) = last if l % 2 else (last[-1],) * 2
        c = abs(h * h - D * q * q)
        x, rx = divmod(h * h2 + D * q * q2, c)
        y, ry = divmod(h * q2 + h2 * q, c)
        assert rx == ry == 0 and x * x - D * y * y == (-1) ** l
        return (h, q), (x, y)


@lru_cache(maxsize=1)
def pell_data(D: int) -> PellData:
    """PellData(D), which the callers of one field, running in turn, share.
    Only the last one read is kept, and it is dropped before the next is
    built: the process holds at most the one expansion a call needs."""
    pell_data.cache_clear()
    return PellData(D)


class PellSolution(Keyed):
    def __init__(self, D: int, N: int, x: int, y: int):
        assert x * x - D * y * y == N
        self.D, self.N, self.x, self.y = D, N, x, y

    def _key(self) -> tuple:
        return self.D, self.N, self.x, self.y


def pell_solve(D: int, N: int) -> PellSolution | None:
    """The least positive solution of x^2 - D y^2 = N for N = +-1, or None.

    The Pell unit of pell_data has norm (-1)^l, l the period of sqrt(D), so
    N = -1 is solvable exactly when l is odd, and N = +1 is solved by that
    unit, or by its square when l is odd.  Other N raise ValueError.
    """
    if N not in (1, -1):
        raise ValueError("pell_solve decides N = +-1 only, got %d" % N)
    P = pell_data(D)  # ValueError unless D is a positive nonsquare
    l = len(P.cf.period)
    if l % 2 == 0 and N == -1:
        return None
    x, y = P.half[1]
    if l % 2 and N == 1:
        x, y = x * x + D * y * y, 2 * x * y
    return PellSolution(D, N, x, y)


# ---------------------------------------------------------------------------
# the cycle of sqrt(D0) in Z[sqrt(D0)]: the windows of lattice.find_generator


def _rmul(x, y, D0) -> tuple:
    """The product of x = h + k*sqrt(D0) and y in Z[sqrt(D0)], as (h, k)."""
    return x[0] * y[0] + D0 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _before(x, y, D0) -> bool:
    """l(x) < l(y) for nonzero x, y in Z[sqrt(D0)], l(z) = log|z/z'|.  With
    x*conj(y) = H + K*sqrt(D0), l(x) - l(y) = l(H + K*sqrt(D0)), which is
    negative exactly when (H + K sqrt(D0))^2 < (H - K sqrt(D0))^2, that is
    when H*K < 0."""
    (a, b), (c, d) = x, y
    return (a * c - D0 * b * d) * (b * c - a * d) < 0


def _twist(ea, eb, D0) -> tuple:
    """An element c of Z[sqrt(D0)] with l(c) near the midpoint of l(ea) and
    l(eb): c = s_b*ea + s_a*eb, s = isqrt|N(e)|, once ea and eb are positive
    at the first place and, where their norms differ in sign, eb is taken
    times sqrt(D0).  Then ea and eb have the same sign at each place, so
    l(c) lies between l(ea) and l(eb), and with exact square roots c =
    sqrt|N(ea) N(eb)| (ea/sqrt|N(ea)| + eb/sqrt|N(eb)|) would have l(c) the
    midpoint.  The window's ball is computed from c itself."""

    def positive(e):
        h, k = e
        return e if (h if h * h > D0 * k * k else k) > 0 else (-h, -k)

    ea, eb = positive(ea), positive(eb)
    na, nb = ea[0] ** 2 - D0 * ea[1] ** 2, eb[0] ** 2 - D0 * eb[1] ** 2
    if (na > 0) != (nb > 0):
        eb, nb = (D0 * eb[1], eb[0]), -D0 * nb
    sa, sb = isqrt(abs(na)), isqrt(abs(nb))
    return sb * ea[0] + sa * eb[0], sb * ea[1] + sa * eb[1]


def _stretches(D0, gammas) -> list:
    """The stretches (c, ea, eb) the ladder over the rungs gammas = [1,
    gamma_1, ..., gamma_T], T >= 2, searches, in order of l: the edges ea,
    eb are in Z[sqrt(D0)], each stretch's eb is the next one's ea, and c is
    its twist (_twist).  With P = l(gamma_T) and L = min(l_i - r_i) = min
    l(gamma_i^2 * conj(gamma_(i+1))), the edges run from L through the
    translates gamma_i*conj(gamma_T) above it, 1 and the rungs to L + P,
    so the stretches tile J = [L, L + P]; where L < -P/2 they run to the
    first rung at or past P/2 instead and cover J = [-P/2, P/2]
    (docs/generator-search.md, "Centred windows")."""
    T = len(gammas) - 1
    gT, one = gammas[T], (1, 0)
    low = None
    for g, (h2, k2) in zip(gammas, gammas[1:]):
        e = _rmul(_rmul(g, g, D0), (h2, -k2), D0)
        if low is None or _before(e, low, D0):
            low = e
    if _before(_rmul(_rmul(low, low, D0), gT, D0), one, D0):  # L < -P/2
        high = next(g for g in gammas if not _before(_rmul(g, g, D0), gT, D0))
    else:
        high = _rmul(low, gT, D0)
    shifted = (_rmul(g, (gT[0], -gT[1]), D0) for g in gammas[:T])
    edges = [low] + [t for t in shifted if _before(low, t, D0) and _before(t, one, D0)]
    edges += [one] + [g for g in gammas[1:T] if _before(g, high, D0)] + [high]
    return [(_twist(ea, eb, D0), ea, eb) for ea, eb in zip(edges, edges[1:])]


@lru_cache(maxsize=None)
def _ladder_windows(D0: int, T: int) -> tuple:
    """(windows, edges, walk) of the ladder over the convergents gamma_0 =
    1, ..., gamma_T of pell_data(D0).cf.  `windows` holds one record ((p,
    hk), rho, (a, b)) per stretch of _stretches: its twist c = h +
    k*sqrt(D0) as p = p(c) and hk, its ball at the farther edge as ball^2
    = N rho on norm-N searches, and a/b = cosh(l(near)) at its edge nearer
    lam = 0, a = p(near) and b = |N(near)|, p(h + k*sqrt(D0)) = h^2 +
    D0*k^2.  For T = 1 one window twisted by 1, a/b = 1, covers J = [-P/2,
    P/2], with cosh(P/2)^2 = (p_T + |N(gamma_T)|) / (2|N(gamma_T)|).  The
    pick is the least norm-N point with lam in [L, P]: `edges` is (E_L^2,
    gamma_T^2) for _in_range, E_L the stretches' first edge, conj(gamma_1)
    for T = 1.  `walk` is the indices of the two sides searched, out from
    the stretch ending at lam = 0."""
    gammas = [(1, 0)] + list(cf_convergents(pell_data(D0).cf, T))
    h, k = gammas[T]
    high = h * h + D0 * k * k, 2 * h * k  # gamma_T^2

    def cosh(h, k):  # (p, |N|) of h + k*sqrt(D0): cosh(l) = p/|N|
        return h * h + D0 * k * k, abs(h * h - D0 * k * k)

    def window(c, ea, eb, near):
        # the ball at the farther edge e: T2(x * conj(c)) = 4 sqrt(N) |N(c)|
        # cosh(lam - l(c)) on norm-N points, and |N(c)| cosh(l(e) - l(c)) =
        # p(c*conj(e)) / |N(e)|
        def ball2(h, k):
            return Fraction(4 * cosh(*_rmul(c, (h, -k), D0))[0], cosh(h, k)[1]) ** 2

        return (cosh(*c)[0], c[0] * c[1]), max(ball2(*ea), ball2(*eb)), cosh(*near)

    if T == 1:
        p, n = cosh(h, k)
        windows = (((1, 0), Fraction(8 * (p + n), n), (1, 1)),)
        return windows, ((p, -high[1]), high), ((0,), ())
    stretches = _stretches(D0, gammas)
    centre = next(i for i, (_, _, eb) in enumerate(stretches) if eb == (1, 0))
    walk = tuple(range(centre, len(stretches))), tuple(range(centre - 1, -1, -1))
    windows = tuple(
        window(c, ea, eb, ea if i > centre else eb) for i, (c, ea, eb) in enumerate(stretches)
    )
    low = stretches[0][1]
    return windows, (_rmul(low, low, D0), high), walk


def _in_range(D0, edges, t: int, c: int) -> bool:
    """L <= lam <= P for a norm-N point u with t = u G u^t, c = u C u^t
    and the edges (E_L^2, gamma_T^2) of _ladder_windows, exactly: z =
    2*D0*t + c*sqrt(D0) has z/z' = A1/A2, the ratio of u's squared
    absolute values at the two places, so l(z) = 2*lam."""
    z, (low, high) = (2 * D0 * t, c), edges
    return not (_before(z, low, D0) or _before(high, z, D0))
