"""The fields Q(sqrt(-d), sqrt(-n)): integral bases, the bar action and
relative norms down to Q(sqrt(-d)), prime factorization, the Minkowski
bound, class groups, and the norm-map cardinality condition.

Elements are integer coordinates over a verified integral basis and one
denominator, as in a quadratic field (quadratic.FieldElem).  The basis
itself is stored in "naive" coordinates over {1, sqrt(-d), sqrt(-n),
sqrt(d*n)}, which fixes once per field the integer structure constants
BiquadField.mult_table, through which products and module transforms
run, the integer norm form, and the integer matrices of the two
conjugations bar and complex_conj.  Nothing downstream touches radicals
again.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, gcd, isqrt, prod
from operator import add, mul
from typing import NamedTuple

from .intmath import (
    is_prime,
    is_squarefree,
    sqrt_ub,
    squarefree_part,
)
from .lattice import (
    IntModule,
    UnsupportedFieldError,
    _det_int,
    _pair_coeffs,
    _pair_products,
    _times,
    adjugate_int,
    find_generator,
    hnf,
    identity_module,
    kernel_int,
    lll_reduce,
    module_colon,
    module_mul,
    smith_normal_form,
)
from .quadratic import (
    _SCALARS,
    FieldElem,
    Keyed,
    QuadField,
    UnresolvedError,
    integer_coords,
    integer_rows,
    prime_discriminants,
    split_kind,
    table_matrix,
)


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


def _mat_inv(rows) -> tuple:
    """Inverse of a rational square matrix as (M, D), M an integer matrix
    and D > 0: with rows = A / L, A integer, it is L * adj(A) / det(A)."""
    n = len(rows)
    flat, L = integer_coords([x for row in rows for x in row])
    A = [flat[i : i + n] for i in range(0, n * n, n)]
    det = _det_int(A)
    if det == 0:
        raise ValueError("singular basis matrix")
    L = L if det > 0 else -L
    return tuple(tuple(L * x for x in row) for row in adjugate_int(A)), abs(det)


def _naive_row(Bi, naive) -> tuple:
    """(c, den) with c / den the basis coordinates of the element with the
    given naive coordinates: one integer row times M of Bi = (M, D), the
    inverse of the basis matrix."""
    v, e = integer_coords(naive)
    return _times([v], Bi[0])[0], e * Bi[1]


def _integral_row(Bi, naive, what: str) -> tuple:
    """_naive_row's coordinates as integers; ValueError naming `what`
    unless each numerator is 0 mod the denominator."""
    c, den = _naive_row(Bi, naive)
    if any(x % den for x in c):
        raise ValueError(what)
    return tuple(x // den for x in c)


def _products_table(d: int, n: int, rows, Bi) -> tuple:
    """T[i][j] = coords(b_i * b_j) for the basis rows (naive coordinates),
    as integers; ValueError when a product leaves the basis span.  With
    rows = A / L, A integer, and Bi = (M, D), b_i * b_j has the coordinates
    _nmul(A_i, A_j) M / (D L^2), each numerator 0 mod D L^2 if integral."""
    what = "basis is not closed under multiplication at pair (%d, %d)"
    flat, L = integer_coords([x for row in rows for x in row])
    A, M, den = [flat[i : i + 4] for i in range(0, 16, 4)], Bi[0], Bi[1] * L * L
    out = []
    for i, ai in enumerate(A):
        c = _times([_nmul(d, n, ai, aj) for aj in A], M)
        for j, cj in enumerate(c):
            if any(x % den for x in cj):
                raise ValueError(what % (i, j))
        out.append(tuple(tuple(x // den for x in cj) for cj in c))
    return tuple(out)


def _trace_form(T, rows) -> list:
    """Tr(b_i * b_j) = sum_k T[i][j][k] Tr(b_k) for the structure constants
    T of the basis rows (naive coordinates), Tr(b_k) being 4 times the
    rational naive coordinate of b_k; ValueError unless those are integers,
    as they are when the rows span a ring."""
    (tr,) = integer_rows([[4 * row[0] for row in rows]], "trace form")
    return [[sum(map(mul, Tij, tr)) for Tij in Ti] for Ti in T]


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


class BiquadField(Keyed):
    """Q(sqrt(-d), sqrt(-n)) together with a fixed integral basis.

    Rows of `intbasis` give the basis elements in naive coordinates; the
    first row must be the element 1.  Construct through integral_basis(),
    which verifies the ring axioms, rather than directly.
    """

    degree = 4

    def __init__(self, d: int, n: int, intbasis: tuple, disc: int):
        self.d, self.n, self.intbasis, self.disc = d, n, intbasis, disc

    def _key(self) -> tuple:
        return self.d, self.n, self.intbasis, self.disc

    def __hash__(self):
        # equal fields have equal (d, n, disc); hashing the Fraction basis
        # entries costs more than a lookup keyed on the field should
        return hash((self.d, self.n, self.disc))

    def from_basis_coords(self, coords) -> "BiquadElem":
        return BiquadElem(self, *integer_coords(coords))

    def from_naive(self, naive) -> "BiquadElem":
        return BiquadElem(self, *_naive_row(self.basis_inverse, naive))

    @cached_property
    def basis_inverse(self) -> tuple:
        """Inverse of the basis matrix as (M, D), M an integer matrix over
        the denominator D > 0: naive coordinates times M / D give basis
        coordinates."""
        return _mat_inv(self.intbasis)

    @cached_property
    def mult_table(self) -> tuple:
        """Structure constants T[i][j] = coords(b_i * b_j) over the integral
        basis, as integer 4-tuples.  Built once per field instance from the
        naive multiplication and checked integral; all element products and
        module transforms run through it."""
        return _products_table(self.d, self.n, self.intbasis, self.basis_inverse)

    @cached_property
    def conj_matrix(self) -> tuple:
        """Integer matrix of the bar action (sqrt(-n) -> -sqrt(-n)) on row
        coordinates: row i is coords(bar(b_i))."""
        return self._sign_matrix((1, 1, -1, -1))

    @cached_property
    def complex_conj_matrix(self) -> tuple:
        """Integer matrix of complex conjugation (sqrt(-d) -> -sqrt(-d),
        sqrt(-n) -> -sqrt(-n)) on row coordinates, as conj_matrix."""
        return self._sign_matrix((1, -1, -1, 1))

    def _sign_matrix(self, signs) -> tuple:
        """Rows coords(s(b_i)) for the automorphism s that multiplies the
        naive coordinates by these signs."""
        return tuple(
            _integral_row(
                self.basis_inverse,
                tuple(map(mul, signs, row)),
                "conjugate of a basis element is not integral",
            )
            for row in self.intbasis
        )

    def one(self) -> "BiquadElem":
        return BiquadElem(self, (1, 0, 0, 0))

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
        # Tr(b_i * conj(b_j)) = sum_m C[j][m] Tr(b_i * b_m), row j of C
        # the coordinates of conj(b_j)
        P = _trace_form(self.mult_table, self.intbasis)
        return tuple(_times(P, tuple(zip(*self.complex_conj_matrix))))

    def real_subfield_data(self) -> tuple[int, int]:
        """(D0, s) with d*n = s*s*D0 and D0 squarefree; Q(sqrt(D0)) is the
        real quadratic subfield."""
        D0 = squarefree_part(self.d * self.n)
        s = isqrt(self.d * self.n // D0)
        return D0, s

    @cached_property
    def subfields(self) -> tuple:
        """(F, w) for the quadratic subfields Q(sqrt(-d)), Q(sqrt(-n)) and
        Q(sqrt(D0)), in that order: F a QuadField and w the naive
        coordinates of the generator of its integers, (1 + sqrt(D))/2 when
        D = 1 mod 4 and sqrt(D) otherwise.  Built once per field."""
        D0, s = self.real_subfield_data()
        out = []
        for D, w in (
            (-self.d, (0, 1, 0, 0)),
            (-self.n, (0, 0, 1, 0)),
            (D0, (0, 0, 0, Fraction(1, s))),
        ):
            if D % 4 == 1:
                w = (Fraction(1, 2),) + tuple(Fraction(c) / 2 for c in w[1:])
            out.append((QuadField(D), w))
        return tuple(out)

    @cached_property
    def norm_forms(self) -> tuple:
        """(D0, G, C): G the T2 Gram and C = S G + G S^t, S the integer
        matrix of sqrt(D0), all integer.  For x = u/den let A1, A2 be
        |x|^2 at the two complex places, sqrt(D0) > 0 at the first.  Then
        t = u G u^t = T2(u) = 2(A1 + A2) den^2 and c = u C u^t =
        2 Tr(sqrt(D0) u conj(u)) = 4 sqrt(D0)(A1 - A2) den^2, so
        4 D0 t^2 - c^2 = 64 D0 A1 A2 den^4 = 64 D0 N(u): the norm on
        integers, from two quadratic forms (norm_form).  The window ladder
        twists by p t - hk c (lattice._twisted_gram)."""
        D0, _ = self.real_subfield_data()
        sq = self.from_real_quadratic(0, 1)
        if not sq.is_integral():
            raise ValueError("sqrt(D0) is not integral")
        S = tuple(map(tuple, table_matrix(self.mult_table, sq.u)))
        G = self.t2_gram_matrix()
        SG, GSt = _times(S, G), _times(G, tuple(zip(*S)))
        return D0, G, tuple(tuple(map(add, a, b)) for a, b in zip(SG, GSt))

    @cached_property
    def genus_characters(self) -> tuple:
        """The prime discriminants p* of the three quadratic subfields
        Q(sqrt(-d)), Q(sqrt(-n)) and Q(sqrt(D0)), each once, sorted.  Each
        K(sqrt(p*)), p* | disc K, is unramified over K at every prime, so
        its compositum with the field is unramified over the field at every
        prime, and at infinity too, as the field is totally imaginary: the
        real subfield's p* < 0 count here, where QuadField(D0) has none
        (lattice.find_generator)."""
        primes = {p for F, _ in self.subfields for p in prime_discriminants(F.disc)}
        return tuple(sorted(primes))

    def from_real_quadratic(self, x, y) -> "BiquadElem":
        """x + y*sqrt(D0), embedded via sqrt(D0) = sqrt(d*n)/s."""
        _, s = self.real_subfield_data()
        return self.from_naive((Fraction(x), 0, 0, Fraction(y) / s))

    @cached_property
    def _norm_pairs(self) -> tuple:
        """(D0, G, C) of norm_forms, G and C as their coefficients on the
        products u_i u_j (lattice._pair_coeffs)."""
        D0, G, C = self.norm_forms
        return D0, _pair_coeffs(G), _pair_coeffs(C)

    def norm_form(self, u) -> int:
        """N(u), the product of the four conjugates of the integer vector u,
        nonnegative as the field is totally imaginary: (4 D0 t^2 - c^2) /
        (64 D0) for the two integer quadratic forms t and c of norm_forms,
        an exact division."""
        D0, gq, cq = self._norm_pairs
        m = _pair_products(u)
        t = sum(map(mul, gq, m))
        c = sum(map(mul, cq, m))
        return (4 * D0 * t * t - c * c) // (64 * D0)

    def prime_rows(self, q: int) -> list:
        """HNF rows of the primes of the maximal order above the rational
        prime q, in the order of factor_rational_prime."""
        return [pf.module.rows for pf in factor_rational_prime(self, q)]

    def class_number(self) -> int:
        return class_group(self).h

    def residue_unit_counts(self, fac) -> tuple[int, int]:
        """The Picard formula's residue counts for the order of index f =
        prod q^e over the pairs (q, e) of fac: (1, 1) for f = 1, the maximal
        order, which is its own conductor, so both quotients are the zero
        ring, counted as 1.  The conductor of a smaller quartic order is not
        read off its index, so f > 1 raises UnresolvedError."""
        if fac:
            raise UnresolvedError(
                "residue counts of a quartic order of index %d are not decided"
                % prod(q**e for q, e in fac)
            )
        return 1, 1

    @cached_property
    def relative_order_rows(self) -> tuple:
        """Coordinate rows of {1, w, sqrt(-n), w*sqrt(-n)} with w the ring
        generator of the integers of Q(sqrt(-d)), built once per field."""
        w, t = self.from_naive(self.subfields[0][1]), self.gens()[1]
        els = (self.one(), w, t, w * t)
        if any(e.den != 1 for e in els):
            raise ValueError("relative order does not lie in the basis span")
        return tuple(e.u for e in els)

    def __repr__(self):
        return "BiquadField(%d, %d)" % (self.d, self.n)


class BiquadElem(FieldElem):
    """An element of Q(sqrt(-d), sqrt(-n)) over the field's integral basis."""

    coords = property(FieldElem.basis_coords)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        self._check(other)
        M = table_matrix(self.field.mult_table, other.u)
        return self._image(M, self.den * other.den)

    __rmul__ = __mul__

    def bar(self) -> "BiquadElem":
        """Negates sqrt(-n); fixes Q(sqrt(-d)) pointwise."""
        return self._image(self.field.conj_matrix, self.den)

    def complex_conj(self) -> "BiquadElem":
        return self._image(self.field.complex_conj_matrix, self.den)

    def inverse(self) -> "BiquadElem":
        """The product of the three other conjugates over the norm."""
        cc = self.complex_conj()
        return self.bar() * cc * cc.bar() / self.norm()

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

_IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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
    assert field.relative_order_rows == _IDENTITY4
    return field


def _verified_field(d: int, n: int, basis, disc: int | None) -> BiquadField:
    rows = tuple(tuple(Fraction(x) for x in row) for row in basis)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("basis must be 4x4")
    if rows[0] != (1, 0, 0, 0):
        raise ValueError("first basis row must be the element 1")
    Bi = _mat_inv(rows)
    for nv in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        _integral_row(Bi, nv, "basis span misses one of the radical generators")
    table = _products_table(d, n, rows, Bi)
    D = _det_int(_trace_form(table, rows))
    if D == 0:
        raise ValueError("degenerate trace form")
    if disc is not None and D != disc:
        raise ValueError(
            "trace-form discriminant %s does not match declared %d" % (D, disc)
        )
    check_field_params(d, n)
    field = BiquadField(d, n, rows, D)
    # the verified tables are the field's: seed the cached properties
    vars(field).update(basis_inverse=Bi, mult_table=table)
    return field


# ---------------------------------------------------------------------------
# prime factorization through the q-radical


class PrimeFactor(NamedTuple):
    """One prime of the maximal order above a rational prime: its module,
    its ramification index and its residue degree."""

    module: IntModule
    e: int
    f: int


def ideal_of_elements(E: BiquadField, gens) -> IntModule:
    """The ideal of the maximal order generated by the integral elements
    gens: the HNF of their stacked integer multiplication matrices."""
    rows = []
    for g in gens:
        assert g.den == 1
        rows += table_matrix(E.mult_table, g.u)
    return hnf(E, rows)


def _power_mod(E: BiquadField, u, k: int, q: int) -> tuple:
    """Coordinates of u^k mod q for the integer coordinates u: square and
    multiply through E.mult_table."""
    out = E.one().u
    for bit in bin(k)[2:]:
        out = _times([out], table_matrix(E.mult_table, out))[0]
        if bit == "1":
            out = _times([out], table_matrix(E.mult_table, u))[0]
        out = tuple(c % q for c in out)
    return out


def factor_rational_prime(E: BiquadField, q: int):
    """Primes of the maximal order above q as PrimeFactor entries, sorted
    by (f, e, rows).

    R = rad(q O_E), the product of the primes P above q, is the kernel of
    the F_q-linear map x -> x^k on O_E/q for a power k >= 4 of q, as every
    e(P) <= 4 (Cohen, GTM 138, §6.1): its matrix M has rows b_i^k mod q,
    and R is the first four coordinates of the integer kernel of [M; q I].
    A prime p of a quadratic subfield F in which q splits, one of the two
    F.prime_rows(q) (Kummer-Dedekind), is lifted to O_E by its generators,
    its rows (x, y) read as x + y*w for w of E.subfields; p O_E is the
    product of the P above p, to powers, and in a Dedekind ring a sum of
    ideals is their gcd: m + p O_E, for m a product of distinct P, is the
    product of those above p, of covolume 1 when there are none.  So
    refining R by both primes of every split subfield leaves one module
    per prime: P and sP, s in V4 outside the decomposition group D, lie
    above distinct primes of the fixed field of H = D (of any H but <s>
    when D = 1), in which q has [V4 : DH] = 2 primes.  Each module has
    covolume q^f, f <= 2 (V4 is not cyclic), and e = 4 / (g f).
    """
    if not is_prime(q):
        raise ValueError("%d is not prime" % q)
    k = q * q if q < 4 else q
    unit = identity_module(E).rows
    M = [_power_mod(E, b, k, q) for b in unit] + [[q * c for c in b] for b in unit]
    mods = [hnf(E, [v[:4] for v in kernel_int(M)])]
    for F, om in E.subfields:
        rows = F.prime_rows(q)
        if len(rows) == 2:
            w = E.from_naive(om)
            primes = [ideal_of_elements(E, [w * y + x for x, y in p]) for p in rows]
            sums = (m.add(p) for m in mods for p in primes)
            mods = [m for m in sums if m.covolume() > 1]
    g, f = len(mods), 1 if mods[0].covolume() == q else 2
    assert all(m.covolume() == q**f for m in mods) and 4 % (g * f) == 0
    out = [PrimeFactor(m, 4 // (g * f), f) for m in mods]
    return sorted(out, key=lambda pf: (pf.f, pf.e, pf.module.rows))


# ---------------------------------------------------------------------------
# Minkowski bound and the class group

_PI_LO = Fraction(3141592653, 10**9)  # < pi, so dividing by it rounds up

_BOUND_CAP = 120


def residue_degree(E: BiquadField, q: int) -> int:
    """Common residue degree of the primes above q: 2 when q is inert in at
    least one of E.subfields, else 1.  (Inert in all three is impossible;
    the three Frobenius images multiply to the identity.)"""
    return 2 if any(split_kind(F, q) == "inert" for F, _ in E.subfields) else 1


def minkowski_bound(E: BiquadField) -> Fraction:
    """(4/pi)^2 * (4!/4^4) * sqrt(|disc|) as an exact rational upper
    estimate; every ideal class contains an integral ideal of norm at most
    this."""
    return Fraction(3, 2) * sqrt_ub(Fraction(abs(E.disc))) / _PI_LO**2


def _reduce_inverse(m: IntModule):
    """(beta, c) with beta the first row of an LLL basis of m under T2 and
    c = beta * m^(-1), an integral ideal of small norm in the inverse class
    of m.  In rank 4 that row's T2 is within a factor 8 of the least
    (Cohen, GTM 138, §2.6), and any nonzero beta in m would do."""
    E = m.ambient
    red = lll_reduce(m, E.t2_gram_matrix())
    beta = E.from_basis_coords([Fraction(c, red.den) for c in red.rows[0]])
    c = module_colon(identity_module(E), m).transform(beta)
    assert c.den == 1
    return beta, c


def _class_rep(m: IntModule):
    """(rep, inv): small-norm integral ideals in the class of m and in its
    inverse class."""
    inv = _reduce_inverse(m)[1]
    return _reduce_inverse(inv)[1], inv


class BiquadClassGroup(NamedTuple):
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
    B = minkowski_bound(E)
    if B > _BOUND_CAP:
        raise UnsupportedFieldError(
            "minkowski bound %d exceeds the configured cap %d" % (ceil(B), _BOUND_CAP)
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
                prime_mods.append(pf.module)
    prime_mods.sort(key=lambda m: (m.covolume(), m.rows))

    # a prime class becomes a generator only when the subgroup H the earlier
    # generators span misses it, so there are k <= log2(h) of them.  H grows
    # by the cosets r^j * H for j below the order e of r modulo H, and
    # r^e in H is the new generator's relation.  span holds, per class of
    # H, a small ideal, one of the inverse class (None for the principal
    # class) and the exponents of the class on the generators.
    def find(a, classes):
        """Index of the entry of classes that holds the class of a, or None:
        the first whose inverse times a has a generator.  The search runs
        on that integral ideal as it is, as reducing it first would not
        shrink a window: the ball's volume and the covolume both scale
        with the norm."""
        for i, (_, inv, _) in enumerate(classes):
            b = a if inv is None else module_mul(a, inv)
            if find_generator(b, b.covolume()) is not None:
                return i
        return None

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


class NormMapCondition(NamedTuple):
    inj_iso: bool
    h_F: int
    h_E: int
    odd_equal: bool


@lru_cache(maxsize=None)
def norm_map_condition(d: int, n: int) -> NormMapCondition:
    """Class-number comparison between F = Q(sqrt(-d)) and E = F(sqrt(-n)).

    Equal numbers make the norm map between the class groups a bijection;
    equal odd numbers is the stronger hypothesis consumed by the
    representation criteria.
    """
    E = integral_basis(d, n)
    h_F = E.subfields[0][0].class_number()
    h_E = E.class_number()
    eq = h_F == h_E
    return NormMapCondition(eq, h_F, h_E, eq and h_F % 2 == 1)
