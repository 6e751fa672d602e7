"""Orders in quadratic and biquadratic fields, and their ideal theory.

An order is a finite-index subring of the maximal order, stored as an
IntModule over the ambient integral basis.  Ideals carry their order and a
module; fractional ideals use the module denominator.  Everything reduces
to exact integer linear algebra on the HNF rows: a lattice is an ideal when
each row times each of the order's integer multiplication matrices passes
an integer back-substitution (_closed_under), so no product module is
built to test it; conductors are colon modules, taken with one HNF;
an ideal a is invertible when 1 lies in a * (o : a), one more HNF and a
back-substitution; factorization is trial division with HNF comparison;
and Picard groups come out of the unit/residue counting formula
#Pic(o) = h_K * #(O_K/f)^x / ([O_K^x : o^x] * #(o/f)^x), f the conductor,
with an independent brute-force count to check it, which keys each
primitive ideal [a, (-b + sqrt(disc o))/2] by its reduced form.  Each residue
count is closed: for an ideal f of an order o,
#(o/f)^x = [o : f] * prod (1 - 1/[o : p]) over the primes p of o that
contain f, found among the primes above the rational divisors of [o : f].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, gcd

from .intmath import factorize, sqrt_ub
from .lattice import (
    IntModule,
    _det_int,
    _in_lattice,
    _times,
    adjugate_int,
    find_generator,
    hnf,
    hnf_matrix,
    identity_module,
)
from .quadratic import (
    BinaryForm,
    QuadField,
    form_class_group,
    split_prime,
    table_matrix,
)


class PreconditionError(ValueError):
    pass


class UnresolvedError(Exception):
    pass


class AuditFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# module arithmetic

# The module operations below run on the integer rows only, through the
# field's structure constants T[i][j] = coords(b_i * b_j) and its integer
# conjugation matrix; no field element is built.


def _product_rows(m1: IntModule, m2: IntModule) -> list:
    """The integer rows r1 (x) r2 through the table: they span m1 * m2
    over the denominator den1 * den2."""
    T = m1.ambient.mult_table
    rows = []
    for r1 in m1.rows:
        rows += _times(m2.rows, table_matrix(T, r1))
    return rows


def module_mul(m1: IntModule, m2: IntModule) -> IntModule:
    """Z-span of all pairwise products of the two bases."""
    return IntModule(m1.ambient, tuple(_product_rows(m1, m2)), m1.den * m2.den)


def module_colon(m1: IntModule, m2: IntModule) -> IntModule:
    """(m1 : m2) = {x in the field : x*m2 is contained in m1}, with one HNF.

    With B the rows of m1 and M_r the integer multiplication matrix of a
    row r of m2, x * r / den2 lies in m1 iff x * M_r * adj(B) * den1 lies
    in E * Z^n, E = den2 * det(B).  Put the columns of every
    M_r * adj(B) * den1 together and let K have as columns a basis of the
    lattice they span: the condition on all r reads x * K in E * Z^n, so
    the colon is E * Z^n * K^(-1), the rows E * adj(K) over det(K)."""
    B = m1.rows
    adjB = adjugate_int(B)
    T = m1.ambient.mult_table
    cols = []
    for r in m2.rows:
        cols += zip(*_times(table_matrix(T, r), adjB, m1.den))
    K = [list(c) for c in zip(*hnf_matrix(cols))]
    E = m2.den * _det_int(B)
    rows = tuple(tuple(E * x for x in row) for row in adjugate_int(K))
    return IntModule(m1.ambient, rows, _det_int(K))


def module_conj(m: IntModule) -> IntModule:
    """Image of m under the field's conjugation (the quadratic bar, or the
    biquadratic bar action)."""
    return IntModule(m.ambient, tuple(_times(m.rows, m.ambient.conj_matrix)), m.den)


# ---------------------------------------------------------------------------
# orders


@dataclass(frozen=True)
class OrderRep:
    field: object
    module: IntModule

    def __post_init__(self):
        m = self.module
        if m.den != 1:
            raise ValueError("an order must consist of integral elements")
        if not m.contains_coords(self.field.one().basis_coords()):
            raise ValueError("an order must contain 1")
        if not _closed_under(self, m.rows):
            raise ValueError("module is not multiplicatively closed")

    @cached_property
    def mult_matrices(self) -> tuple:
        """Integer multiplication matrices, through the field's table, of
        the basis rows of the order other than 1 itself: a lattice is
        closed under the order iff it is closed under each of them."""
        one = tuple(self.field.one().basis_coords())
        T = self.field.mult_table
        return tuple(table_matrix(T, r) for r in self.module.rows if r != one)

    @property
    def is_maximal(self) -> bool:
        return self.module == identity_module(self.field)

    def index_in_maximal(self) -> int:
        idx = self.module.index_in(identity_module(self.field))
        assert idx.denominator == 1
        return int(idx)


def _closed_under(o: OrderRep, rows) -> bool:
    """Is the lattice with the canonical HNF rows `rows` (over any common
    denominator) closed under multiplication by the order o?  Each row
    times each of o's multiplication matrices must lie in the row span,
    which integer back-substitution decides.  As 1 is in o, this is the
    test o * m == m."""
    return all(
        _in_lattice(rows, v) for M in o.mult_matrices for v in _times(rows, M)
    )


def maximal_order(field) -> OrderRep:
    return OrderRep(field, identity_module(field))


def order_zsqrt(field: QuadField) -> OrderRep:
    """Z[sqrt(D)] inside Q(sqrt(D))."""
    if field.D % 4 == 1:
        rows = [[1, 0], [-1, 2]]
    else:
        rows = [[1, 0], [0, 1]]
    return OrderRep(field, hnf(field, rows))


def order_with_index(field, f: int) -> OrderRep:
    """Z + f*O_K, the unique order of index f in a quadratic field."""
    if f < 1:
        raise ValueError("index must be positive")
    rows = [[1, 0], [0, f]]
    return OrderRep(field, hnf(field, rows))


@lru_cache(maxsize=None)
def relative_order(field) -> OrderRep:
    """O_F + O_F*sqrt(-n) inside the biquadratic field, built and checked
    once per field."""
    return OrderRep(field, hnf(field, field.relative_order_rows()))


@lru_cache(maxsize=None)
def conductor(o: OrderRep) -> "OrderIdeal":
    """Largest O_K-ideal contained in o: the colon (o : O_K)."""
    f = module_colon(o.module, identity_module(o.field))
    assert identity_module(o.field).contains_module(f)
    return OrderIdeal(o, f)


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class OrderIdeal:
    order: OrderRep
    module: IntModule

    def __post_init__(self):
        if not _closed_under(self.order, self.module.rows):
            raise ValueError("module is not stable under the order")

    @property
    def field(self):
        return self.order.field

    def is_integral(self) -> bool:
        return self.order.module.contains_module(self.module)

    def norm(self) -> Fraction:
        """Index [o : a] (a rational for fractional ideals)."""
        return self.module.index_in(self.order.module)

    def conj(self) -> "OrderIdeal":
        return OrderIdeal(self.order, module_conj(self.module))


def principal_ideal(o: OrderRep, e) -> OrderIdeal:
    if e.is_zero():
        raise ValueError("zero element generates no ideal")
    return OrderIdeal(o, o.module.transform(o.field.mult_matrix(e)))


def ideal_mul(a: OrderIdeal, b: OrderIdeal) -> OrderIdeal:
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    return OrderIdeal(a.order, module_mul(a.module, b.module))


def unit_ideal(o: OrderRep) -> OrderIdeal:
    return OrderIdeal(o, o.module)


def is_invertible(a: OrderIdeal) -> bool:
    """a * (o : a) = o.  The product always lies in o and is an o-ideal,
    so the test is whether it contains 1: one HNF of the product rows and
    a back-substitution, with no product module built."""
    if all(all(x == 0 for x in row) for row in a.module.rows):
        raise ValueError("zero ideal")
    inv = module_colon(a.order.module, a.module)
    H = hnf_matrix(_product_rows(a.module, inv))
    den = a.module.den * inv.den
    return _in_lattice(H, [den * c for c in a.field.one().basis_coords()])


def is_coprime_to_conductor(a: OrderIdeal) -> bool:
    f = conductor(a.order)
    return a.module.add(f.module) == a.order.module


def is_regular_prime(p: OrderIdeal) -> bool:
    return is_coprime_to_conductor(p)


# ---------------------------------------------------------------------------
# factorization coprime to the conductor


@dataclass(frozen=True)
class IdealFactorization:
    factors: tuple  # ((OrderIdeal, exponent), ...)

    def remultiply(self, o: OrderRep) -> OrderIdeal:
        out = unit_ideal(o)
        for p, e in self.factors:
            for _ in range(e):
                out = ideal_mul(out, p)
        return out


def _primes_above(o: OrderRep, q: int):
    """Prime ideals of o above the rational prime q, by contracting the
    ambient factorization."""
    field = o.field
    out = []
    if field.degree == 2:
        s = split_prime(field, q)
        mods = [hnf(field, [list(r) for r in s.hnf])]
        if s.kind == "split":
            mods.append(module_conj(mods[0]))
    else:
        from .biquadratic import factor_rational_prime

        mods = [pf.ideal.module for pf in factor_rational_prime(field, q)]
    for m in mods:
        contracted = m.intersect(o.module)
        out.append(OrderIdeal(o, contracted))
    # dedupe (ramified / inert give one prime)
    uniq = []
    for p in out:
        if p not in uniq:
            uniq.append(p)
    return uniq


def factor_ideal(a: OrderIdeal) -> IdealFactorization:
    if not a.is_integral():
        raise PreconditionError("can only factor integral ideals")
    if not is_coprime_to_conductor(a):
        raise PreconditionError("ideal is not coprime to the conductor")
    o = a.order
    N = a.norm()
    assert N.denominator == 1
    N = int(N)
    factors = []
    rest = a
    for q in sorted(factorize(N)):
        for p in _primes_above(o, q):
            if not is_coprime_to_conductor(p):
                continue
            pinv = module_colon(o.module, p.module)
            e = 0
            while True:
                cand = module_mul(rest.module, pinv)
                if not o.module.contains_module(cand):
                    break
                rest = OrderIdeal(o, cand)
                e += 1
            if e:
                factors.append((p, e))
    if rest.module != o.module:
        raise PreconditionError("factorization into regular primes failed")
    factors.sort(key=lambda pe: (int(pe[0].norm()), pe[0].module.rows))
    fac = IdealFactorization(tuple(factors))
    assert fac.remultiply(o) == a
    return fac


# ---------------------------------------------------------------------------
# residue and unit counting


def residue_unit_count(o: OrderRep, f) -> int:
    """#(o/f)^x for an ideal f of o, given as an OrderIdeal or its module.

    o/f is a finite ring, the product of its localisations at the primes p
    of o that contain f, so #(o/f)^x = [o : f] * prod (1 - 1/[o : p]).
    Such a p contains [o : f], so it lies above a prime q dividing it.
    The trivial quotient counts as 1."""
    fmod = f.module if isinstance(f, OrderIdeal) else f
    if not (o.module.contains_module(fmod) and _closed_under(o, fmod.rows)):
        raise ValueError("f must be an ideal of the order")
    idx = fmod.index_in(o.module)
    assert idx.denominator == 1
    count = int(idx)
    for q in factorize(count):
        for p in _primes_above(o, q):
            if p.module.contains_module(fmod):
                Np = int(p.norm())
                count = count // Np * (Np - 1)
    return count


def unit_index(o: OrderRep) -> int:
    """[O_K^x : o^x].  Decided for imaginary quadratic fields, whose unit
    group is the torsion, and for the maximal order of a quartic field.
    A non-maximal quartic order raises UnresolvedError: the Pell unit of
    the real quadratic subfield need not generate O_E^x modulo torsion, so
    the first of its powers that lies in o does not give the index."""
    field = o.field
    if field.degree == 2 and field.D > 0:
        raise UnresolvedError("real quadratic unit index not supported")
    if field.degree == 4 and not o.is_maximal:
        raise UnresolvedError(
            "unit index of a non-maximal quartic order needs the unit group of E"
        )
    tors = field.torsion_units()
    inside = [z for z in tors if o.module.contains_coords(z.basis_coords())]
    assert len(tors) % len(inside) == 0
    return len(tors) // len(inside)


def class_number(field) -> int:
    if field.degree == 2:
        return form_class_group(field.disc).h
    from .biquadratic import class_group

    return class_group(field).h


@dataclass(frozen=True)
class PicardTerms:
    """#Pic(o) = h_K * #(O_K/f)^x / ([O_K^x:o^x] * #(o/f)^x), f the
    conductor of o, with each term of the formula."""

    h_K: int
    unit_index: int
    units_max: int  # #(O_K/f)^x
    units_o: int  # #(o/f)^x
    picard: int


def picard_terms(o: OrderRep) -> PicardTerms:
    """The Picard formula for o, each residue count taken once."""
    field = o.field
    u = unit_index(o)  # first: an unresolved index raises before the class group
    h_K = class_number(field)
    f = conductor(o)
    omax = maximal_order(field)
    nf_max = residue_unit_count(omax, f.module)
    nf_o = residue_unit_count(o, f.module)
    num = h_K * nf_max
    den = u * nf_o
    if num % den:
        raise AuditFailure(
            "Picard formula is not integral: %d / %d" % (num, den)
        )
    return PicardTerms(h_K, u, nf_max, nf_o, num // den)


def picard_number(o: OrderRep) -> int:
    """#Pic(o) = h_K * #(O_K/f)^x / ([O_K^x:o^x] * #(o/f)^x)."""
    return picard_terms(o).picard


# ---------------------------------------------------------------------------
# brute-force Picard count


@dataclass(frozen=True)
class BruteClassCount:
    count: int
    norm_bound: int
    minkowski_bound: Fraction
    complete: bool


def is_principal(o: OrderRep, m: IntModule):
    """Generator of the o-ideal with module m, or None.  Fractional input is
    scaled integral first; the result is scaled back.  The index of the
    integral module in o is the quotient of the two determinants."""
    d = m.den
    m_int = m if d == 1 else IntModule(o.field, m.rows, 1)
    idx, rest = divmod(_det_int(m_int.rows), _det_int(o.module.rows))
    assert rest == 0
    g = find_generator(m_int, idx)
    if g is None:
        return None
    return g / d


def _primitive_ideals(o: OrderRep, scan: int):
    """The primitive o-ideals I = [a, (-b + sqrt(disc o))/2], b^2 = disc o
    mod 4a and b in (-a, a], whose lattices I/q in O_K have index
    [O_K : I/q] = a*f/q^2 <= scan, f = [O_K : o] and q the content of I in
    O_K (rank 2 only).  Yields (a, b, c, rows) with c = (b^2 - disc o)/4a
    and rows the HNF of I over the basis {1, w} of O_K.

    (-b + sqrt(disc o))/2 is g0 + f*w with g0 = -(b + s*f)/2, s = disc K
    mod 2, so I has the rows (a, 0) and (g0, f), and its content is
    gcd(a, g0, f), a divisor q of f.  For each q the loop takes a in qZ and
    b = -s*f mod 2q, which makes q divide g0, and keeps the ideals whose
    content is exactly q."""
    f = o.index_in_maximal()
    s = o.field.disc % 2
    disc = o.field.disc * f * f
    for q in range(1, f + 1):
        if f % q:
            continue
        for a in range(q, scan * q * q // f + 1, q):
            lo = 1 - a
            for b in range(lo + (-s * f - lo) % (2 * q), a + 1, 2 * q):
                c, r = divmod(b * b - disc, 4 * a)
                if r:
                    continue
                g0 = -(b + s * f) // 2
                if gcd(gcd(a, g0), f) == q:
                    yield a, b, c, ((a, 0), (g0 % a, f))


def pic_brute_force(o: OrderRep, norm_bound: int | None = None) -> BruteClassCount:
    """Class count of invertible ideals modulo principals, by enumeration.

    The bound is on the index [O_K : L] of the lattices L in O_K whose
    multiplier ring is o, not on their o-norm.  Each such L is I/q for a
    primitive o-ideal I and a divisor q of its content in O_K
    (_primitive_ideals), the least index coming with q the content, so
    the scan takes each primitive I whose I/content is in range.

    The scan to (2/pi)*sqrt(|disc o|) is complete.  For a class C take M
    invertible in C^(-1) and, by Minkowski, x in O_K*M with |N(x)| <=
    (2/pi)*sqrt(|disc K|)*[O_K : O_K*M]; then L = x*M^(-1) lies in O_K
    and in C, and as [O_K*M : M] = f = [O_K : o], [O_K : L] <=
    (2/pi)*sqrt(|disc K|)*f = (2/pi)*sqrt(|disc o|).  So the scan stops
    there whatever the bound; a smaller explicit bound makes the result a
    lower bound only (complete=False).

    I is invertible exactly when gcd(a, b, c) = 1, and then its class is
    the class of the form (a, b, c) (Cox, Primes of the form x^2 + ny^2,
    section 7), so the reduced form is its key and the count is the
    number of keys.  Every ideal after the first of its key is checked
    against that first one: I * conj(rep) must be principal, else
    AuditFailure."""
    if o.field.degree != 2 or o.field.D > 0:
        raise UnresolvedError("brute-force Picard count is rank-2 imaginary only")
    disc_o = o.field.disc * o.index_in_maximal() ** 2
    mink = Fraction(2, 3) * sqrt_ub(Fraction(-disc_o))  # 2/pi < 2/3 slack upward
    if norm_bound is None:
        norm_bound = ceil(mink)
        complete = True
    else:
        complete = Fraction(norm_bound) >= mink
    scan = min(norm_bound, ceil(mink))
    # reduced form -> conjugate module of the first ideal of its class
    rep_conjs: dict[BinaryForm, IntModule] = {}
    for a, b, c, rows in _primitive_ideals(o, scan):
        if gcd(gcd(a, b), c) != 1:
            continue
        key = BinaryForm(a, b, c).reduce()
        ideal = IntModule(o.field, rows, 1)
        rc = rep_conjs.get(key)
        if rc is None:
            rep_conjs[key] = module_conj(ideal)
        elif is_principal(o, module_mul(ideal, rc)) is None:
            raise AuditFailure(
                "ideal %r has the reduced form %r of a class it is not in"
                % (rows, key)
            )
    return BruteClassCount(len(rep_conjs), norm_bound, mink, complete)
