"""Quadratic fields Q(sqrt(D)): elements, splitting, form class groups, Pell.

Elements are a + b*sqrt(D) with exact rational a, b.  The integral basis is
{1, w} with w = (1+sqrt(D))/2 when D = 1 mod 4 and w = sqrt(D) otherwise.
Class numbers are counted on reduced binary quadratic forms (imaginary
side only), and Pell equations solved through the continued fraction of
sqrt(D).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from .intmath import (
    is_prime,
    is_square,
    is_squarefree,
    jacobi,
    poly_roots_mod,
)


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


# ---------------------------------------------------------------------------
# integer structure constants, shared by the quadratic and quartic fields


def integer_coords(coords) -> tuple[list[int], int]:
    """(u, den) with coords = u / den, u integers and den the lcm of the
    coordinates' denominators."""
    den = 1
    for c in coords:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coords], den


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


def table_mult_matrix(field, e) -> tuple:
    """Rational multiplication matrix M of the element e, rows indexed by
    the basis: coords(x * e) = coords(x) * M.  Computed on integers through
    field.mult_table and divided once by the denominator of e."""
    u, den = integer_coords(e.basis_coords())
    return tuple(
        tuple(Fraction(x, den) for x in row)
        for row in table_matrix(field.mult_table, u)
    )


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(D)) for squarefree D != 0, 1."""

    D: int
    degree = 2

    def __post_init__(self):
        if self.D in (0, 1) or not is_squarefree(self.D):
            raise ValueError("QuadField needs squarefree D != 0, 1, got %d" % self.D)

    @property
    def disc(self) -> int:
        return self.D if self.D % 4 == 1 else 4 * self.D

    def __call__(self, a, b=0) -> "QuadElem":
        return QuadElem(self, _rat(a), _rat(b))

    def sqrt_gen(self) -> "QuadElem":
        return QuadElem(self, Fraction(0), Fraction(1))

    def omega(self) -> "QuadElem":
        if self.D % 4 == 1:
            return QuadElem(self, Fraction(1, 2), Fraction(1, 2))
        return self.sqrt_gen()

    def omega_minpoly(self) -> list[int]:
        # constant term first; x^2 - x - (D-1)/4 or x^2 - D
        if self.D % 4 == 1:
            return [-(self.D - 1) // 4, -1, 1]
        return [-self.D, 0, 1]

    def from_basis_coords(self, coords) -> "QuadElem":
        """Element x + y*w from rational coordinates (x, y)."""
        x, y = (_rat(c) for c in coords)
        if self.D % 4 == 1:
            return QuadElem(self, x + y / 2, y / 2)
        return QuadElem(self, x, y)

    def one(self) -> "QuadElem":
        return self(1)

    def torsion_units(self) -> list:
        """The roots of unity of an imaginary field (just +-1 for a real
        one)."""
        if self.disc == -3:
            w = self.omega()  # (1+sqrt(-3))/2, a sixth root of unity
            return [self(1), -self(1), w, -w, w * w, -(w * w)]
        if self.disc == -4:
            i = self.sqrt_gen()
            return [self(1), -self(1), i, -i]
        return [self(1), -self(1)]

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
        basis {b_0, b_1} = {1, w}, as integer pairs.  Built once per field
        instance from the element arithmetic and checked integral."""
        basis = (self(1), self.omega())
        return tuple(
            integer_rows([(x * y).integral_coords() for y in basis], "basis product")
            for x in basis
        )

    @cached_property
    def conj_matrix(self) -> tuple:
        """Integer matrix of the conjugation sqrt(D) -> -sqrt(D) on row
        coordinates: row i is coords(conj(b_i))."""
        basis = (self(1), self.omega())
        return integer_rows([x.conj().integral_coords() for x in basis], "conjugate")

    def mult_matrix(self, e: "QuadElem") -> tuple:
        """Rows M[i] = coords(b_i * e), so coords(x*e) = coords(x)*M."""
        return table_mult_matrix(self, e)

    def __repr__(self):
        return "QuadField(%d)" % self.D


@dataclass(frozen=True)
class QuadElem:
    field: QuadField
    a: Fraction
    b: Fraction

    def _check(self, other: "QuadElem"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, self.a + other, self.b)
        self._check(other)
        return QuadElem(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadElem) else -_rat(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, self.a * other, self.b * other)
        self._check(other)
        D = self.field.D
        return QuadElem(
            self.field,
            self.a * other.a + D * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadElem(self.field, self.a / other, self.b / other)
        self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError
        num = self * other.conj()
        return QuadElem(self.field, num.a / n, num.b / n)

    def __pow__(self, e: int):
        if e < 0:
            return (self.field(1) / self) ** (-e)
        r = self.field(1)
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def conj(self) -> "QuadElem":
        return QuadElem(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.D * self.b * self.b

    def abs_norm(self) -> Fraction:
        return abs(self.norm())

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return self.b == 0

    def integral_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (x, y) with self = x + y*w in the {1, w} basis."""
        if self.field.D % 4 == 1:
            return self.a - self.b, 2 * self.b
        return self.a, self.b

    basis_coords = integral_coords

    def is_integral(self) -> bool:
        x, y = self.integral_coords()
        return x.denominator == 1 and y.denominator == 1

    def __repr__(self):
        return "QuadElem(%s + %s*sqrt(%d))" % (self.a, self.b, self.field.D)


def from_integral_coords(F: QuadField, x, y) -> QuadElem:
    return F.from_basis_coords((x, y))


# ---------------------------------------------------------------------------
# prime splitting


@dataclass(frozen=True)
class SplitResult:
    kind: str  # "split" | "inert" | "ramified"
    # q when inert, else an element of norm q: None when there is none,
    # and always None in a real field
    pi: QuadElem | None
    pibar: QuadElem | None
    hnf: tuple[tuple[int, int], tuple[int, int]]  # prime ideal in {1, w} basis


def _norm_form_element(F: QuadField, q: int) -> QuadElem | None:
    """An integral element of norm q in an imaginary field, the one of
    least |v| then with u >= 0: (u + v*sqrt(D))/s with u^2 + |D| v^2 =
    s^2 q, s = 2 and u = v mod 2 when D = 1 mod 4, else s = 1.  None for a
    real field, or when there is none."""
    D = F.D
    if D > 0:
        return None
    s = 2 if D % 4 == 1 else 1
    for v in range(isqrt(s * s * q // -D) + 1):
        u2 = s * s * q + D * v * v
        if is_square(u2):
            u = isqrt(u2)
            if (u - v) % s == 0:
                return QuadElem(F, Fraction(u, s), Fraction(v, s))
    return None


def split_prime(F: QuadField, q: int) -> SplitResult:
    """Splitting behavior of the rational prime q in O_F.

    For split/ramified primes also tries to produce a prime element by a
    norm form search; the HNF rows of one prime ideal above q (in the
    {1, w} basis) are returned in every case.
    """
    if not is_prime(q):
        raise ValueError("split_prime needs a prime, got %d" % q)
    disc = F.disc
    if q == 2:
        if disc % 2 == 0:
            kind = "ramified"
        elif disc % 8 == 1:
            kind = "split"
        else:
            kind = "inert"
    else:
        j = jacobi(disc, q)
        kind = "split" if j == 1 else "inert" if j == -1 else "ramified"

    if kind == "inert":
        return SplitResult("inert", F(q), F(q), ((q, 0), (0, q)))

    # Kummer: root of the minimal polynomial of w mod q gives the ideal
    r = poly_roots_mod(F.omega_minpoly(), q)[0]
    hnf = ((q, 0), ((-r) % q, 1))
    pi = _norm_form_element(F, q)
    pibar = pi.conj() if pi is not None else None
    return SplitResult(kind, pi, pibar, hnf)


# ---------------------------------------------------------------------------
# binary quadratic forms


@dataclass(frozen=True)
class BinaryForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def reduce(self) -> "BinaryForm":
        a, b, c = self.a, self.b, self.c
        if a <= 0 or self.disc >= 0:
            raise ValueError("reduction implemented for positive definite forms")
        while True:
            if c < a:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # translate b into (-a, a]
                k = (a - b) // (2 * a)
                b2 = b + 2 * k * a
                c = c + k * b + k * k * a
                b = b2
                continue
            break
        if (abs(b) == a or a == c) and b < 0:
            b = -b
        return BinaryForm(a, b, c)


def principal_form(disc: int) -> BinaryForm:
    if disc % 4 == 0:
        return BinaryForm(1, 0, -disc // 4)
    if disc % 4 == 1:
        return BinaryForm(1, 1, (1 - disc) // 4)
    raise ValueError("discriminant must be 0 or 1 mod 4")


def reduced_forms(disc: int) -> list[BinaryForm]:
    """All reduced primitive positive definite forms of the discriminant."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant = 0 or 1 mod 4")
    out = []
    b = disc % 2
    while 3 * b * b <= -disc:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                f = BinaryForm(a, b, c)
                if f.is_primitive():
                    out.append(f)
                    if 0 < b < a < c:
                        out.append(BinaryForm(a, -b, c))
            a += 1
        b += 2
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


@dataclass(frozen=True)
class ClassGroupResult:
    """The reduced forms of a negative discriminant and their number h."""

    disc: int
    h: int
    forms: tuple[BinaryForm, ...]


def form_class_group(disc: int) -> ClassGroupResult:
    forms = reduced_forms(disc)
    assert principal_form(disc).reduce() in forms
    return ClassGroupResult(disc, len(forms), tuple(forms))


# ---------------------------------------------------------------------------
# continued fractions and Pell equations


@dataclass(frozen=True)
class CFExpansion:
    D: int
    a0: int
    period: tuple[int, ...]


def cf_sqrt(D: int) -> CFExpansion:
    """Periodic continued fraction of sqrt(D) via the exact P,Q recurrence."""
    if D <= 0 or is_square(D):
        raise ValueError("cf_sqrt needs a positive nonsquare")
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    period = []
    states = {}
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        if (m, d) in states:
            break
        states[(m, d)] = len(period)
        period.append(a)
    return CFExpansion(D, a0, tuple(period))


def cf_convergents(cf: CFExpansion, count: int):
    """Yield the first `count` convergents (h_k, q_k) of the expansion cf,
    h_k = a_k*h_(k-1) + h_(k-2) and likewise q_k."""

    def quotients():
        yield cf.a0
        while True:
            yield from cf.period

    h1, h2 = 1, 0  # h_{k-1}, h_{k-2}
    q1, q2 = 0, 1
    gen = quotients()
    for _ in range(count):
        a = next(gen)
        h = a * h1 + h2
        q = a * q1 + q2
        yield h, q
        h2, h1 = h1, h
        q2, q1 = q1, q


@dataclass(frozen=True)
class PellSolution:
    D: int
    N: int
    x: int
    y: int

    def __post_init__(self):
        assert self.x * self.x - self.D * self.y * self.y == self.N


@dataclass(frozen=True)
class PellResult:
    solution: PellSolution | None
    proven: bool  # for solution=None: True means proven unsolvable


def _cf_fundamental(D: int) -> tuple[int, int, int]:
    """(x, y, period length) with x^2 - D y^2 = (-1)^len(period): the last
    convergent of the first period."""
    cf = cf_sqrt(D)
    l = len(cf.period)
    *_, (h, k) = cf_convergents(cf, l)
    assert h * h - D * k * k == (-1) ** l
    return h, k, l


def pell_solve(D: int, N: int, y_max: int = 10**5) -> PellResult:
    """Solve x^2 - D y^2 = N in positive integers.

    N = +-1 goes through the continued fraction of sqrt(D) and is decided
    exactly (fundamental solution, or proven-none for N = -1 with even
    period).  Other N fall back to a convergent scan plus a direct search
    over y <= y_max; a miss there is reported as unproven.
    """
    if D <= 0 or is_square(D):
        raise ValueError("pell_solve needs a positive nonsquare D")
    if N == 0:
        raise ValueError("N = 0 has no positive solutions")
    x0, y0, l = _cf_fundamental(D)
    if N == 1:
        if l % 2 == 0:
            return PellResult(PellSolution(D, 1, x0, y0), True)
        x1 = x0 * x0 + D * y0 * y0
        y1 = 2 * x0 * y0
        return PellResult(PellSolution(D, 1, x1, y1), True)
    if N == -1:
        if l % 2 == 1:
            return PellResult(PellSolution(D, -1, x0, y0), True)
        return PellResult(None, True)
    # general N: direct scan (smallest y first), then convergent backstop
    # for solutions whose y lies past the scan window
    for y in range(1, y_max + 1):
        x2 = N + D * y * y
        if x2 > 0 and is_square(x2):
            return PellResult(PellSolution(D, N, isqrt(x2), y), False)
    cf = cf_sqrt(D)
    for h, q in cf_convergents(cf, 2 * len(cf.period) + 2):
        if h * h - D * q * q == N:
            return PellResult(PellSolution(D, N, h, q), False)
    return PellResult(None, False)
