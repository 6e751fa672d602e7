"""The fields Q(sqrt(-d), sqrt(-n)): integral bases, the bar action and
relative norms down to Q(sqrt(-d)), prime factorization, the Minkowski
bound, class groups, and the norm-map cardinality condition.

Elements are held in exact coordinates over a verified integral basis.  The
basis itself is stored in "naive" coordinates over {1, sqrt(-d), sqrt(-n),
sqrt(d*n)}, which fixes the multiplication table once: the integer structure
constants BiquadField.mult_table, through which products, multiplication
matrices and norms run.  Nothing downstream touches radicals again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import gcd, isqrt
from operator import add, mul

from .intmath import (
    is_prime,
    is_squarefree,
    jacobi,
    poly_discriminant,
    poly_eval,
    poly_roots_mod,
    polp_factor,
    sqrt_ub,
    squarefree_part,
)
from .lattice import (
    IntModule,
    UnsupportedFieldError,
    _det_int,
    _pair_coeffs,
    _pair_products,
    _scaled_matrix,
    _times,
    adjugate_int,
    enumerate_by_t2,
    find_generator,
    hnf,
    identity_module,
    smith_normal_form,
)
from .quadratic import (
    QuadField,
    form_class_group,
    integer_coords,
    integer_rows,
    table_matrix,
    table_mult_matrix,
)


class UnsupportedPrimeError(ValueError):
    """Every scanned equation order has index divisible by the prime."""


# ---------------------------------------------------------------------------
# naive-coordinate arithmetic

# Basis {1, s, t, u} with s = sqrt(-d), t = sqrt(-n), u = sqrt(d*n) and
# s*t = -u, s*u = d*t, t*u = n*s.


def _nmul(d: int, n: int, x, y):
    a, b, c, e = x
    a2, b2, c2, e2 = y
    return (
        a * a2 - d * b * b2 - n * c * c2 + d * n * e * e2,
        a * b2 + b * a2 + n * (c * e2 + e * c2),
        a * c2 + c * a2 + d * (b * e2 + e * b2),
        a * e2 + e * a2 - (b * c2 + c * b2),
    )


def _mat_inv(rows):
    """Inverse of a rational square matrix: with rows = A / L, A integer,
    it is L * adj(A) / det(A)."""
    L, A = _scaled_matrix(rows)
    det = _det_int(A)
    if det == 0:
        raise ValueError("singular basis matrix")
    return tuple(tuple(Fraction(L * x, det) for x in row) for row in adjugate_int(A))


def _naive_to_coords(Bi, naive) -> list:
    """Basis coordinates of the element with the given naive coordinates,
    Bi the inverse of the basis matrix."""
    nv = [Fraction(x) for x in naive]
    return [sum(nv[i] * Bi[i][j] for i in range(4)) for j in range(4)]


def _products_table(d: int, n: int, rows, Bi) -> tuple:
    """T[i][j] = coords(b_i * b_j) for the basis rows (naive coordinates),
    as integers; ValueError when a product leaves the basis span."""
    T = []
    for i in range(4):
        Ti = []
        for j in range(4):
            c = _naive_to_coords(Bi, _nmul(d, n, rows[i], rows[j]))
            if any(x.denominator != 1 for x in c):
                raise ValueError(
                    "basis is not closed under multiplication at pair (%d, %d)"
                    % (i, j)
                )
            Ti.append(tuple(int(x) for x in c))
        T.append(tuple(Ti))
    return tuple(T)


# ---------------------------------------------------------------------------
# the field and its elements


def check_field_params(d: int, n: int) -> None:
    """Raise ValueError unless d and n are distinct positive squarefree
    integers, as the field Q(sqrt(-d), sqrt(-n)) needs."""
    for name, m in (("d", d), ("n", n)):
        if m <= 0 or not is_squarefree(m):
            raise ValueError("%s must be positive squarefree, got %d" % (name, m))
    if d == n:
        raise ValueError("d and n must be distinct, got %d twice" % d)


@dataclass(frozen=True)
class BiquadField:
    """Q(sqrt(-d), sqrt(-n)) together with a fixed integral basis.

    Rows of `intbasis` give the basis elements in naive coordinates; the
    first row must be the element 1.  Construct through integral_basis(),
    which verifies the ring axioms, rather than directly.
    """

    d: int
    n: int
    intbasis: tuple
    disc: int

    degree = 4

    def __post_init__(self):
        check_field_params(self.d, self.n)
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.intbasis)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("intbasis must be 4x4")
        object.__setattr__(self, "intbasis", rows)
        object.__setattr__(self, "disc", int(self.disc))

    def from_basis_coords(self, coords) -> "BiquadElem":
        return BiquadElem(self, tuple(Fraction(c) for c in coords))

    def from_naive(self, naive) -> "BiquadElem":
        return self.from_basis_coords(_naive_to_coords(self.basis_inverse, naive))

    @cached_property
    def basis_inverse(self) -> tuple:
        """Inverse of the basis matrix: naive coordinates times it give
        basis coordinates."""
        return _mat_inv(self.intbasis)

    @cached_property
    def mult_table(self) -> tuple:
        """Structure constants T[i][j] = coords(b_i * b_j) over the integral
        basis, as integer 4-tuples.  Built once per field instance from the
        naive multiplication and checked integral; all element products,
        multiplication matrices and norms run through it."""
        return _products_table(self.d, self.n, self.intbasis, self.basis_inverse)

    @cached_property
    def conj_matrix(self) -> tuple:
        """Integer matrix of the bar action (sqrt(-n) -> -sqrt(-n)) on row
        coordinates: row i is coords(bar(b_i))."""
        return integer_rows(
            [
                _naive_to_coords(self.basis_inverse, (a, b, -c, -e))
                for a, b, c, e in self.intbasis
            ],
            "bar of a basis element",
        )

    def one(self) -> "BiquadElem":
        return self.from_naive((1, 0, 0, 0))

    def gens(self):
        """(sqrt(-d), sqrt(-n), sqrt(d*n)) as field elements."""
        return self._gens

    @cached_property
    def _gens(self) -> tuple:
        return (
            self.from_naive((0, 1, 0, 0)),
            self.from_naive((0, 0, 1, 0)),
            self.from_naive((0, 0, 0, 1)),
        )

    def t2_gram_matrix(self) -> tuple:
        """Gram matrix of T2 on the integral basis: entry (i, j) is the
        trace of b_i * conj(b_j), conj the complex conjugation, a trace of
        an algebraic integer and so an integer.  Built once per field."""
        return self._t2_gram_rows

    @cached_property
    def _t2_gram_rows(self) -> tuple:
        els = [
            self.from_basis_coords([1 if j == i else 0 for j in range(4)])
            for i in range(4)
        ]
        out = []
        for x in els:
            row = []
            for y in els:
                t = (x * y.complex_conj()).trace()
                assert t.denominator == 1
                row.append(int(t))
            out.append(tuple(row))
        return tuple(out)

    def real_subfield_data(self) -> tuple[int, int]:
        """(D0, s) with d*n = s*s*D0 and D0 squarefree; Q(sqrt(D0)) is the
        real quadratic subfield."""
        D0 = squarefree_part(self.d * self.n)
        s = isqrt(self.d * self.n // D0)
        return D0, s

    @cached_property
    def norm_forms(self) -> tuple:
        """(D0, S, G, C): S the integer matrix of sqrt(D0), G the T2 Gram
        and C = S G + G S^t, all integer.  For x = u/den let A1, A2 be
        |x|^2 at the two complex places, sqrt(D0) > 0 at the first.  Then
        t = u G u^t = T2(u) = 2(A1 + A2) den^2 and c = u C u^t =
        2 Tr(sqrt(D0) u conj(u)) = 4 sqrt(D0)(A1 - A2) den^2, so
        4 D0 t^2 - c^2 = 64 D0 A1 A2 den^4 = 64 D0 N(u): the norm on
        integers, from two quadratic forms (norm, lattice._norm_filter).
        The window ladder reads its matrices from here (ladder_data)."""
        D0, _ = self.real_subfield_data()
        S = integer_rows(self.mult_matrix(self.from_real_quadratic(0, 1)), "sqrt(D0)")
        G = self.t2_gram_matrix()
        SG, GSt = _times(S, G), _times(G, tuple(zip(*S)))
        return D0, S, G, tuple(tuple(map(add, a, b)) for a, b in zip(SG, GSt))

    def from_real_quadratic(self, x, y) -> "BiquadElem":
        """x + y*sqrt(D0), embedded via sqrt(D0) = sqrt(d*n)/s."""
        _, s = self.real_subfield_data()
        return self.from_naive((Fraction(x), 0, 0, Fraction(y) / s))

    def mult_matrix(self, e: "BiquadElem"):
        """Rows M[i] = coords(basis_i * e), so coords(x*e) = coords(x)*M."""
        return table_mult_matrix(self, e)

    def relative_order_rows(self):
        """Coordinate rows of {1, w, sqrt(-n), w*sqrt(-n)} with w the ring
        generator of the integers of Q(sqrt(-d))."""
        if self.d % 4 == 3:
            w = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        else:
            w = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        wn = _nmul(self.d, self.n, w, (0, 0, 1, 0))
        rows = []
        for naive in ((1, 0, 0, 0), w, (0, 0, 1, 0), wn):
            c = self.from_naive(naive).coords
            if any(x.denominator != 1 for x in c):
                raise ValueError("relative order does not lie in the basis span")
            rows.append([int(x) for x in c])
        return rows

    def torsion_units(self) -> tuple:
        """All roots of unity: exactly the integral elements with T2 = 4."""
        return self._roots_of_unity

    @cached_property
    def _roots_of_unity(self) -> tuple:
        out = []
        for v in enumerate_by_t2(identity_module(self), self.t2_gram_matrix(), 4):
            u = self.from_basis_coords(v)
            out.extend((u, -u))
        one = self.one()
        for u in out:
            pw = u
            for _ in range(12):
                if pw == one:
                    break
                pw = pw * u
            else:
                raise AssertionError("non-torsion unit in the T2 = 4 shell")
        return tuple(sorted(out, key=lambda z: z.coords))

    def __repr__(self):
        return "BiquadField(%d, %d)" % (self.d, self.n)


@dataclass(frozen=True)
class BiquadElem:
    field: BiquadField
    coords: tuple

    def __post_init__(self):
        c = tuple(Fraction(x) for x in self.coords)
        if len(c) != 4:
            raise ValueError("need 4 coordinates")
        object.__setattr__(self, "coords", c)

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def naive(self):
        B = self.field.intbasis
        return tuple(
            sum(self.coords[i] * B[i][j] for i in range(4)) for j in range(4)
        )

    def basis_coords(self):
        return self.coords

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        nv = self.naive()
        return nv[1] == 0 and nv[2] == 0 and nv[3] == 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_naive((other, 0, 0, 0))
        self._check(other)
        return BiquadElem(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return BiquadElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other if isinstance(other, BiquadElem) else -Fraction(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiquadElem(self.field, tuple(a * other for a in self.coords))
        self._check(other)
        u, a = integer_coords(self.coords)
        w, b = integer_coords(other.coords)
        cols = zip(*table_matrix(self.field.mult_table, w))
        return BiquadElem(
            self.field,
            tuple(Fraction(sum(x * y for x, y in zip(u, c)), a * b) for c in cols),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiquadElem(
                self.field, tuple(a / Fraction(other) for a in self.coords)
            )
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self.field.one()
        base = self
        while e:
            if e & 1:
                r = r * base
            base = base * base
            e >>= 1
        return r

    def bar(self) -> "BiquadElem":
        """Negates sqrt(-n); fixes Q(sqrt(-d)) pointwise."""
        a, b, c, e = self.naive()
        return self.field.from_naive((a, b, -c, -e))

    def complex_conj(self) -> "BiquadElem":
        a, b, c, e = self.naive()
        return self.field.from_naive((a, -b, -c, e))

    def trace(self) -> Fraction:
        return 4 * self.naive()[0]

    def norm(self) -> Fraction:
        """Product of all four conjugates, nonnegative as the field is
        totally imaginary; read off two integer quadratic forms
        (BiquadField.norm_forms)."""
        u, den = integer_coords(self.coords)
        D0, _, G, C = self.field.norm_forms
        m = _pair_products(u)
        t = sum(map(mul, _pair_coeffs(G), m))
        c = sum(map(mul, _pair_coeffs(C), m))
        return Fraction((4 * D0 * t * t - c * c) // (64 * D0), den**4)

    def abs_norm(self) -> Fraction:
        return self.norm()

    def inverse(self) -> "BiquadElem":
        t = self.bar() * self.complex_conj() * self.complex_conj().bar()
        nv = _nmul(self.field.d, self.field.n, self.naive(), t.naive())
        if nv[0] == 0:
            raise ZeroDivisionError
        assert nv[1] == 0 and nv[2] == 0 and nv[3] == 0
        return t / nv[0]

    def __repr__(self):
        return "BiquadElem(%s)" % (self.coords,)


# ---------------------------------------------------------------------------
# integral bases

_NATIVE_ROWS = (
    (1, 0, 0, 0),
    (Fraction(1, 2), Fraction(1, 2), 0, 0),
    (0, 0, 1, 0),
    (0, 0, Fraction(1, 2), Fraction(-1, 2)),
)

_IDENTITY4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def integral_basis(d: int, n: int, basis=None, disc: int | None = None) -> BiquadField:
    """Verified integral basis for Q(sqrt(-d), sqrt(-n)).

    Without a basis argument this requires d = 3 mod 4, n = 1 or 2 mod 4,
    and gcd(d, n) = 1, where {1, w, sqrt(-n), w*sqrt(-n)} works, w being
    (1 + sqrt(-d))/2.  Outside those congruence classes callers must supply
    the basis rows in naive {1, sqrt(-d), sqrt(-n), sqrt(d*n)} coordinates
    (first row the element 1) together with the intended field discriminant.
    Supplied data is accepted only if the rows span a ring containing 1 and
    all three radicals whose trace-form determinant equals `disc`; whether
    that ring is genuinely maximal is the caller's responsibility.

    The built-in basis is verified once per (d, n) and its field is cached;
    a supplied basis is verified on every call.
    """
    if basis is not None:
        return _verified_field(d, n, basis, disc)
    field = _native_field(d, n)
    if disc is not None and field.disc != disc:
        raise ValueError(
            "trace-form discriminant %s does not match declared %d" % (field.disc, disc)
        )
    return field


@lru_cache(maxsize=None)
def _native_field(d: int, n: int) -> BiquadField:
    check_field_params(d, n)
    if not (d % 4 == 3 and n % 4 in (1, 2) and gcd(d, n) == 1):
        raise UnsupportedFieldError(
            "no built-in integral basis for (%d, %d); supply one" % (d, n)
        )
    field = _verified_field(d, n, _NATIVE_ROWS, None)
    # the built-in rows are literally {1, w, sqrt(-n), w*sqrt(-n)}, so
    # that order being maximal is the same as the rows being identity
    assert field.relative_order_rows() == _IDENTITY4
    return field


def _verified_field(d: int, n: int, basis, disc: int | None) -> BiquadField:
    rows = tuple(tuple(Fraction(x) for x in row) for row in basis)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("basis must be 4x4")
    if rows[0] != (1, 0, 0, 0):
        raise ValueError("first basis row must be the element 1")
    Bi = _mat_inv(rows)
    for nv in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        if any(c.denominator != 1 for c in _naive_to_coords(Bi, nv)):
            raise ValueError("basis span misses one of the radical generators")
    _products_table(d, n, rows, Bi)
    # trace pairing: Tr picks 4 times the rational naive coordinate; the
    # rows span a ring, so every product is integral and so is its trace
    tg = integer_rows(
        [[4 * _nmul(d, n, rows[i], rows[j])[0] for j in range(4)] for i in range(4)],
        "trace form",
    )
    D = _det_int(tg)
    if D == 0:
        raise ValueError("degenerate trace form")
    if disc is not None and D != disc:
        raise ValueError(
            "trace-form discriminant %s does not match declared %d" % (D, disc)
        )
    return BiquadField(d, n, rows, D)


# ---------------------------------------------------------------------------
# prime factorization through a primitive element


@dataclass(frozen=True)
class PrimeFactor:
    """One prime of the maximal order above a rational prime: the ideal,
    its ramification index and its residue degree."""

    ideal: object
    e: int
    f: int


def ideal_of_elements(E: BiquadField, gens) -> IntModule:
    """The ideal of the maximal order generated by the integral elements
    gens: the HNF of their stacked integer multiplication matrices."""
    rows = []
    for g in gens:
        u, den = integer_coords(g.coords)
        assert den == 1
        rows += table_matrix(E.mult_table, u)
    return hnf(E, rows)


def _minpoly4(theta: BiquadElem):
    """Constant-first monic minimal polynomial when theta generates the
    whole field, else None."""
    pows = [theta.field.one()]
    for _ in range(4):
        pows.append(pows[-1] * theta)
    # solve x * A = b with rows A[i] = coords(theta^i), b = coords(theta^4):
    # x = b * adj(A) / det(A), on the integer-scaled rows
    _, S = _scaled_matrix([p.coords for p in pows])
    A, b = S[:4], S[4]
    det = _det_int(A)
    if det == 0:
        return None
    out = []
    for c in _times([b], adjugate_int(A))[0]:
        q, rem = divmod(c, det)
        assert rem == 0  # theta is integral, so the minpoly is
        out.append(-q)
    out.append(1)
    assert poly_eval(out, theta).is_zero()
    return out


def _primitive_candidates(E: BiquadField):
    combos = sorted(iter_product(range(4), repeat=3), key=lambda t: (max(t), sum(t), t))
    for c1, c2, c3 in combos:
        if c1 == c2 == c3 == 0:
            continue
        theta = E.from_basis_coords((0, c1, c2, c3))
        f = _minpoly4(theta)
        if f is not None:
            yield theta, f


def factor_rational_prime(E: BiquadField, q: int):
    """Primes of the maximal order above q as PrimeFactor entries, read off
    the factorization mod q of the minimal polynomial of the first
    primitive element whose equation order has index coprime to q."""
    from .orders import OrderIdeal, maximal_order

    if not is_prime(q):
        raise ValueError("%d is not prime" % q)
    for theta, f in _primitive_candidates(E):
        idx2, rem = divmod(poly_discriminant(f), E.disc)
        assert rem == 0 and idx2 > 0
        idx = isqrt(idx2)
        assert idx * idx == idx2
        if gcd(idx, q) != 1:
            continue
        O = maximal_order(E)
        out = []
        total = 0
        for g, mult in polp_factor(f, q):
            mod = ideal_of_elements(E, (E.one() * q, poly_eval(g, theta)))
            deg = len(g) - 1
            assert mod.covolume() == q**deg
            out.append(PrimeFactor(OrderIdeal(O, mod), mult, deg))
            total += mult * deg
        assert total == 4
        return sorted(out, key=lambda pf: (pf.f, pf.e, pf.ideal.module.rows))
    if E.disc % q:
        return _factor_obstructed(E, q)
    raise UnsupportedPrimeError(
        "every scanned equation order has index divisible by %d" % q
    )


def _subfield_omegas(E: BiquadField):
    """(field, naive coords of the subfield integer w) for the three
    quadratic subfields."""
    D0, s = E.real_subfield_data()
    out = []
    for D, root in (
        (-E.d, (0, 1, 0, 0)),
        (-E.n, (0, 0, 1, 0)),
        (D0, (0, 0, 0, Fraction(1, s))),
    ):
        om = tuple(Fraction(c) for c in root)
        if D % 4 == 1:
            om = tuple(
                (Fraction(1 if i == 0 else 0) + c) / 2 for i, c in enumerate(om)
            )
        out.append((QuadField(D), om))
    return out


def _factor_obstructed(E: BiquadField, q: int):
    """Primes above an unramified q for which no scanned equation order has
    coprime index.  That happens exactly when q has more residue-degree-f
    primes than there are monic irreducibles of degree f mod q (q = 2 or 3
    splitting completely, or q = 2 with two degree-2 primes), so the primes
    are built from the quadratic subfields instead: primes of a split
    subfield extend to primes or to products of two primes, and ideal sums
    pick out the common factors.
    """
    from .orders import OrderIdeal, maximal_order, module_mul

    split = []
    for F, om in _subfield_omegas(E):
        # the minimal polynomial of w has two roots mod q exactly when q
        # splits in F (q is unramified in F); q and w - r generate a prime
        # above it in F, extended here to the maximal order of E
        roots = poly_roots_mod(F.omega_minpoly(), q)
        if len(roots) == 2:
            w = E.from_naive(om)
            split.append([ideal_of_elements(E, (E.one() * q, w - r)) for r in roots])
    f = residue_degree(E, q)
    if f == 2:
        # split in exactly one subfield, inert in the other two; the two
        # extended ideals are already prime
        (mods,) = split
    else:
        # split in all three; each pairwise sum over two subfields is one of
        # the four primes, and the four pairs hit all of them
        mods = [hnf(E, m1.rows + m2.rows) for m1 in split[0] for m2 in split[1]]
    for m in mods:
        assert m.den == 1 and m.covolume() == q**f
    assert len(set(mods)) == len(mods) == 4 // f
    prod = mods[0]
    for m in mods[1:]:
        prod = module_mul(prod, m)
    assert prod == hnf(E, [[q if i == j else 0 for j in range(4)] for i in range(4)])
    O = maximal_order(E)
    out = [PrimeFactor(OrderIdeal(O, m), 1, f) for m in mods]
    return sorted(out, key=lambda pf: (pf.f, pf.e, pf.ideal.module.rows))


# ---------------------------------------------------------------------------
# Minkowski bound and the class group

_PI_LO = Fraction(3141592653, 10**9)  # < pi, so dividing by it rounds up

_BOUND_CAP = 120


def residue_degree(E: BiquadField, q: int) -> int:
    """Common residue degree of the primes above q: 2 when q is inert in at
    least one quadratic subfield, else 1.  (Inert in all three is
    impossible; the three Frobenius images multiply to the identity.)"""
    D0, _ = E.real_subfield_data()
    for D in (QuadField(-E.d).disc, QuadField(-E.n).disc, QuadField(D0).disc):
        if q == 2:
            if D % 2 and D % 8 == 5:
                return 2
        elif D % q and jacobi(D % q, q) == -1:
            return 2
    return 1


def minkowski_bound(E: BiquadField) -> Fraction:
    """(4/pi)^2 * (4!/4^4) * sqrt(|disc|) as an exact rational upper
    estimate; every ideal class contains an integral ideal of norm at most
    this."""
    return Fraction(3, 2) * sqrt_ub(Fraction(abs(E.disc))) / _PI_LO**2


def _short_element(m: IntModule) -> BiquadElem:
    """Nonzero module element of smallest T2."""
    E = m.ambient
    G = E.t2_gram_matrix()
    ball = 2 * sqrt_ub(m.covolume() * sqrt_ub(Fraction(abs(E.disc))))
    while True:
        pts = enumerate_by_t2(m, G, ball)
        if pts:
            return E.from_basis_coords([Fraction(c, m.den) for c in pts[0]])
        ball *= 2


def _reduce_inverse(m: IntModule):
    """(beta, c) with beta a shortest element of m and c = beta * m^(-1),
    an integral ideal of small norm in the inverse class of m."""
    from .orders import module_colon

    E = m.ambient
    beta = _short_element(m)
    inv = module_colon(identity_module(E), m)
    c = inv.transform(E.mult_matrix(beta))
    assert c.den == 1
    return beta, c


def _class_rep(m: IntModule):
    """(rep, inv): small-norm integral ideals in the class of m and in its
    inverse class."""
    inv = _reduce_inverse(m)[1]
    return _reduce_inverse(inv)[1], inv


def _principal_class(m: IntModule) -> bool:
    _, c = _reduce_inverse(m)
    return find_generator(c, c.covolume()) is not None


@dataclass(frozen=True)
class BiquadClassGroup:
    disc: int
    h: int
    structure: tuple


@lru_cache(maxsize=None)
def class_group(E: BiquadField) -> BiquadClassGroup:
    """Class group of the maximal order by Minkowski-bounded enumeration:
    factor every rational prime below the bound and keep as generators the
    prime classes outside the subgroup the earlier ones span.  The walk
    that grows that subgroup lists every class once and gives each
    generator one relation; their Smith form gives the invariant factors.
    """
    from .orders import module_mul

    B = minkowski_bound(E)
    if B > _BOUND_CAP:
        raise UnsupportedFieldError(
            "minkowski bound %s exceeds the configured cap %d" % (B, _BOUND_CAP)
        )
    prime_mods = []
    for q in range(2, int(B) + 1):
        if not is_prime(q):
            continue
        # all primes above q share one residue degree; skip q outright when
        # even its smallest primes land beyond the bound
        if Fraction(q) ** residue_degree(E, q) > B:
            continue
        for pf in factor_rational_prime(E, q):
            if Fraction(q) ** pf.f <= B:
                prime_mods.append(pf.ideal.module)
    prime_mods.sort(key=lambda m: (m.covolume(), m.rows))

    # a prime class becomes a generator only when the subgroup H the earlier
    # generators span misses it, so there are k <= log2(h) of them.  H grows
    # by the cosets r^j * H for j below the order e of r modulo H, and
    # r^e in H is the new generator's relation.  span holds, per class of
    # H, a small ideal, one of the inverse class (None for the principal
    # class) and the exponents of the class on the generators.
    def find(a, classes):
        """Index of the entry of classes that holds the class of a, or None."""
        return next(
            (
                i
                for i, (_, inv, _) in enumerate(classes)
                if _principal_class(a if inv is None else module_mul(a, inv))
            ),
            None,
        )

    span = [(identity_module(E), None, ())]
    relations = []
    for m in prime_mods:
        r, rinv = _class_rep(m)
        if find(r, span) is not None:
            continue
        H, span = span, [(x, inv, vec + (0,)) for x, inv, vec in span]
        (power, pinv), e, hit = (r, rinv), 1, None
        while hit is None:
            for x, inv, vec in H:
                y, yinv = (power, pinv) if inv is None else _class_rep(module_mul(power, x))
                span.append((y, yinv, vec + (e,)))
            (power, pinv), e = _class_rep(module_mul(power, r)), e + 1
            hit = find(power, H)
        relations.append(tuple(-v for v in H[hit][2]) + (e,))

    h, k = len(span), len(relations)
    if k == 0:
        return BiquadClassGroup(E.disc, 1, ())
    factors = smith_normal_form([rel + (0,) * (k - len(rel)) for rel in relations])
    assert len(factors) == k
    prod_h = 1
    for dd in factors:
        prod_h *= dd
    assert prod_h == h
    return BiquadClassGroup(E.disc, h, tuple(dd for dd in factors if dd > 1))


# ---------------------------------------------------------------------------
# the norm-map cardinality condition


@dataclass(frozen=True)
class NormMapCondition:
    inj_iso: bool
    h_F: int
    h_E: int
    odd_equal: bool


def norm_map_condition(d: int, n: int) -> NormMapCondition:
    """Class-number comparison between F = Q(sqrt(-d)) and E = F(sqrt(-n)).

    Equal numbers make the norm map between the class groups a bijection;
    equal odd numbers is the stronger hypothesis consumed by the
    representation criteria.
    """
    h_F = form_class_group(QuadField(-d).disc).h
    h_E = class_group(integral_basis(d, n)).h
    eq = h_F == h_E
    return NormMapCondition(eq, h_F, h_E, eq and h_F % 2 == 1)
