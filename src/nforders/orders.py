"""Orders in quadratic and biquadratic fields, and their ideal theory.

An order is a finite-index subring of the maximal order, stored as an
IntModule over the ambient integral basis.  Ideals carry their order and a
module; fractional ideals use the module denominator.  Everything reduces
to exact integer linear algebra on the HNF rows, with the module products
and colons of lattice: an order is proven one on the products of its
rows, and a lattice is an ideal when each row times each of the order's
integer multiplication matrices passes an integer back-substitution
(_closed_under), so no product module is built to test either;
conductors are colon modules; an ideal a is invertible when 1 lies in
a * (o : a), one more HNF and a back-substitution; factorization is trial
division with HNF comparison; and Picard groups come out of the
unit/residue counting formula
#Pic(o) = h_K * #(O_K/f)^x / ([O_K^x : o^x] * #(o/f)^x), f the conductor,
with an independent brute-force count to check it, which scans the
primitive ideals [a, (-b + sqrt(disc o))/2] in place on integers, b >= 0
only with each -b mirrored, drops the non-invertible ones there and keys
each invertible one, mirror or not, by its reduced form (reduce_form,
audited).  Both residue counts are read off the
factorization of the index [O_K : o] by the field (residue_unit_counts),
and the scan's divisors off the same factorization, found once per order:
a quadratic order of index f is Z + f*O_K, with conductor f*O_K and o/f =
Z/f, and a maximal order of any degree is its own conductor, so no
conductor or prime ideal is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .intmath import _SQRT_SCALE, divisors, factorize
from .lattice import (
    IntModule,
    _in_lattice,
    _product_rows,
    _times,
    find_generator,
    hnf,
    hnf_matrix,
    identity_module,
    module_colon,
    module_mul,
)
from .quadratic import BinaryForm, Keyed, QuadField, UnresolvedError, reduce_form, table_matrix


class PreconditionError(ValueError):
    pass


class AuditFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# orders


class OrderRep(Keyed):
    """An order, proven one on its integer rows when built: integral, with
    1 = (1, 0, ...) in their span, which in a canonical HNF makes it row
    0, and holding the product r_i * r_j, i <= j, of each two other rows,
    read on integers off the field's mult_table (by bilinearity, o is
    then closed).  mult_matrices, which _closed_under reads for an
    OrderIdeal, is built on first use; the index [O_K : o] once, when
    built, as the module's covolume, the diagonal product of its HNF."""

    def __init__(self, field, module: IntModule):
        rows = module.rows
        if module.den != 1:
            raise ValueError("an order must consist of integral elements")
        if not _in_lattice(rows, (1,) + (0,) * (len(rows) - 1)):
            raise ValueError("an order must contain 1")
        T, gens = field.mult_table, rows[1:]
        for i, x in enumerate(gens):
            if not all(_in_lattice(rows, v) for v in _times(gens[i:], table_matrix(T, x))):
                raise ValueError("module is not multiplicatively closed")
        self.field, self.module, self._index = field, module, int(module.covolume())

    def _key(self) -> tuple:
        return self.field, self.module

    @cached_property
    def mult_matrices(self) -> tuple:
        T = self.field.mult_table
        return tuple(table_matrix(T, r) for r in self.module.rows[1:])

    @property
    def is_maximal(self) -> bool:
        return self.index_in_maximal() == 1

    def index_in_maximal(self) -> int:
        return self._index


def _closed_under(o: OrderRep, rows) -> bool:
    """Is the lattice with the canonical HNF rows `rows` (over any common
    denominator) closed under multiplication by the order o?  Each row
    times each of o's multiplication matrices must lie in the row span,
    which integer back-substitution decides.  As 1 is in o, this is the
    test o * m == m."""
    return all(
        _in_lattice(rows, v) for M in o.mult_matrices for v in _times(rows, M)
    )


@lru_cache(maxsize=None)
def maximal_order(field) -> OrderRep:
    return OrderRep(field, identity_module(field))


def order_zsqrt(field: QuadField) -> OrderRep:
    """Z[sqrt(D)] inside Q(sqrt(D)): Z + 2*O_K when D = 1 mod 4, as
    sqrt(D) = 2w - 1, and O_K otherwise."""
    return order_with_index(field, 2 if field.D % 4 == 1 else 1)


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
    return OrderRep(field, hnf(field, field.relative_order_rows))


@lru_cache(maxsize=None)
def conductor(o: OrderRep) -> "OrderIdeal":
    """Largest O_K-ideal contained in o: the colon (o : O_K), or o = O_K."""
    if o.is_maximal:
        return OrderIdeal(o, o.module)
    f = module_colon(o.module, identity_module(o.field))
    assert identity_module(o.field).contains_module(f)
    return OrderIdeal(o, f)


# ---------------------------------------------------------------------------
# ideals


class OrderIdeal(Keyed):
    def __init__(self, order: OrderRep, module: IntModule):
        if not _closed_under(order, module.rows):
            raise ValueError("module is not stable under the order")
        self.order, self.module = order, module

    def _key(self) -> tuple:
        return self.order, self.module

    @property
    def field(self):
        return self.order.field

    def is_integral(self) -> bool:
        return self.order.module.contains_module(self.module)

    def norm(self) -> Fraction:
        """Index [o : a] (a rational for fractional ideals)."""
        return self.module.index_in(self.order.module)


def principal_ideal(o: OrderRep, e) -> OrderIdeal:
    if e.is_zero():
        raise ValueError("zero element generates no ideal")
    return OrderIdeal(o, o.module.transform(e))


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
    return _in_lattice(H, [den * c for c in a.field.one().u])


def is_coprime_to_conductor(a: OrderIdeal) -> bool:
    f = conductor(a.order)
    return a.module.add(f.module) == a.order.module


# ---------------------------------------------------------------------------
# factorization coprime to the conductor


class IdealFactorization(NamedTuple):
    factors: tuple  # ((OrderIdeal, exponent), ...)

    def remultiply(self, o: OrderRep) -> OrderIdeal:
        out = unit_ideal(o)
        for p, e in self.factors:
            for _ in range(e):
                out = ideal_mul(out, p)
        return out


@lru_cache(maxsize=None)
def _prime_modules(field, q: int) -> tuple:
    """The field's prime_rows(q) as modules, built once per field and q."""
    return tuple(hnf(field, rows) for rows in field.prime_rows(q))


def _contractions(o: OrderRep, q: int) -> list:
    """Modules of the prime ideals of o above the rational prime q: the
    contractions P & o of the primes P of O_K above q, each once.  A
    contraction c is a maximal ideal of o, so a P that contains c has
    P & o = c: P & o is taken only for a P that contains none of the
    contractions found so far, once per prime of o."""
    out = []
    for P in _prime_modules(o.field, q):
        if not any(P.contains_module(c) for c in out):
            out.append(P if o.is_maximal else P.intersect(o.module))
    return out


def _primes_above(o: OrderRep, q: int):
    """Prime ideals of o above the rational prime q, each once."""
    return [OrderIdeal(o, c) for c in _contractions(o, q)]


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


def unit_index(o: OrderRep) -> int:
    """[O_K^x : o^x].  Decided for imaginary quadratic fields, whose unit
    group is the torsion, and for the maximal order of a quartic field.
    A non-maximal quartic order raises UnresolvedError: the Pell unit of
    the real quadratic subfield need not generate O_E^x modulo torsion, so
    the first of its powers that lies in o does not give the index.

    A maximal order has index 1.  A non-maximal imaginary quadratic o = Z
    + f*O_K (Cox, Primes of the form x^2 + ny^2, section 7) has o^x = O_K^x
    & o = {+-1}, as a root of unity other than +-1 comes only with disc K =
    -3 or -4 and generates O_K there; so the index is #(O_K^x)/2, read
    off disc K: 6/2 at -3, 4/2 at -4 and 2/2 otherwise."""
    field = o.field
    if field.degree == 2 and field.D > 0:
        raise UnresolvedError("real quadratic unit index not supported")
    if field.degree == 4 and not o.is_maximal:
        raise UnresolvedError(
            "unit index of a non-maximal quartic order needs the unit group of E"
        )
    if o.is_maximal:
        return 1
    return {-3: 3, -4: 2}.get(field.disc, 1)


class PicardTerms(NamedTuple):
    """#Pic(o) = h_K * #(O_K/f)^x / ([O_K^x:o^x] * #(o/f)^x), f the
    conductor of o, with each term of the formula."""

    h_K: int
    unit_index: int
    units_max: int  # #(O_K/f)^x
    units_o: int  # #(o/f)^x
    picard: int


@lru_cache(maxsize=None)
def _index_factors(o: OrderRep) -> tuple:
    """The pairs (q, e) of the factorization of f = [O_K : o], found once
    per order for both the Picard formula and the brute-force count."""
    return tuple(factorize(o.index_in_maximal()).items())


def picard_terms(o: OrderRep) -> PicardTerms:
    """The Picard formula for o, with both residue counts read off the
    factorization of its index f = [O_K : o] by field.residue_unit_counts.

    A quadratic order of index f is
    Z + f*O_K (Cox, Primes of the form x^2 + ny^2, section 7): its
    conductor is f*O_K, so #(O_K/f)^x = f^2 prod (1 - 1/q)(1 - chi(q)/q)
    over the primes q | f, chi(q) = 1, -1, 0 as q splits, stays inert or
    ramifies, and o/f = Z/f has phi(f) units.  A maximal order is its
    own conductor, so both quotients are the zero ring and count 1.  A
    non-maximal quartic order raises UnresolvedError at its unit index,
    before any count."""
    field = o.field
    u = unit_index(o)  # first: an unresolved index raises before the class group
    h_K = field.class_number()
    nf_max, nf_o = field.residue_unit_counts(_index_factors(o))
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


# (a, b) pairs past which pic_brute_force refuses to scan, counted over the
# full range b in (-a, a] though the scan tests only b >= 0, about half of
# them.  The complete scan of Z + 2000*Z[i] counts 4,935,847 in about 0.2
# s on a 2-vCPU machine, and that of any order with |disc o| <= 10^7 fewer.
_BRUTE_FORCE_MAX_PAIRS = 6 * 10**6


def _scan_pairs(f: int, scan: int, divs) -> int:
    """The number of (a, b) pairs the scan of pic_brute_force visits for an
    order of index f with the divisors divs: for each k | f, a = j*k for
    j = 1..m, m = scan*k // f, and j values of b for each."""
    return sum(m * (m + 1) // 2 for m in (scan * k // f for k in divs))


class BruteClassCount(NamedTuple):
    count: int
    norm_bound: int
    minkowski_bound: Fraction
    complete: bool


def is_principal(o: OrderRep, m: IntModule):
    """Generator of the o-ideal with module m, or None.  Fractional input is
    scaled integral first; the result is scaled back.  The norm searched
    for is the index of the integral module in o."""
    d = m.den
    m_int = m if d == 1 else IntModule(o.field, m.rows, 1)
    idx = m_int.index_in(o.module)
    assert idx.denominator == 1
    g = find_generator(m_int, idx)
    if g is None:
        return None
    return g / d


def pic_brute_force(o: OrderRep, norm_bound: int | None = None) -> BruteClassCount:
    """Class count of invertible ideals modulo principals, by enumeration.

    The bound is on the index [O_K : L] of the lattices L in O_K whose
    multiplier ring is o, not on their o-norm.  Each such L is I/k for a
    primitive o-ideal I = [a, (-b + sqrt(disc o))/2], b^2 = disc o mod 4a
    and b in (-a, a], and a divisor k of its content in O_K, the least
    index a*f/k^2 coming with k the content; so the scan takes each
    primitive I whose I/content is in range.  (-b + sqrt(disc o))/2 is
    g0 + f*w with g0 = -(b + s*f)/2, s = disc K mod 2, so I has the rows
    (a, 0) and (g0, f) over {1, w}, and its content is gcd(a, g0, f), a
    divisor k of f.  For each k the scan runs in place over b = -s*f mod
    2k, which makes k divide g0 (and b, as k | s*f), and over a in kZ
    from b up, and takes the (a, b) with a | (b^2 - disc o)/4, an integer
    as b = disc o mod 2, so b^2 = disc o mod 4a; content exactly k; and
    an invertible ideal: nothing is built for the others.  It runs b
    over [0, a] only, and adds the mirror (a, -b) of each ideal it takes
    with 0 < b < a: as k | s*f the progression is symmetric, b^2 and c
    are unchanged, and g0' = (b - s*f)/2 = -g0 - s*f gives the same
    content, as f | s*f.  A mirror is reduced and audited as every other
    ideal is.

    The scan to (2/pi)*sqrt(|disc o|) is complete.  For a class C take M
    invertible in C^(-1) and, by Minkowski, x in O_K*M with |N(x)| <=
    (2/pi)*sqrt(|disc K|)*[O_K : O_K*M]; then L = x*M^(-1) lies in O_K
    and in C, and as [O_K*M : M] = f = [O_K : o], [O_K : L] <=
    (2/pi)*sqrt(|disc K|)*f = (2/pi)*sqrt(|disc o|).  So the scan stops
    there whatever the bound; a smaller explicit bound makes the result a
    lower bound only (complete=False).  As 2/pi < 2/3, minkowski_bound is
    (2/3)*sqrt_ub(|disc o|) = num/den, num = 2*(isqrt(|disc o|*S^2) + 1) and
    den = 3*S for S = _SQRT_SCALE, as sqrt_ub(x) = (isqrt(x*S^2) + 1)/S; so
    its ceiling is -(-num // den), and B reaches it exactly when B*den >= num.

    I is invertible exactly when its form (a, b, c), c = (b^2 - disc o)/4a,
    is primitive, and then its class is the class of the form (Cox, Primes
    of the form x^2 + ny^2, section 7), so the reduced form (a', b', c') is
    its key and the count is the number of keys.  Only invertible ideals
    reach the reduction and its audit: each is proven to lie in its key's
    class by the matrix ((p, q), (r, t)) of reduce_form, which takes I's
    basis (a, -tau), tau = g0 + f*w, to b1 = p*a - r*tau, b2 = q*a - t*tau;
    with det 1 and a'*b2 = -b1*tau', tau' = g0' + f*w for g0' = -(b' +
    s*f)/2, I = (b1/a') * [a', -tau'], the key's ideal.  A failed check
    raises AuditFailure."""
    if o.field.degree != 2 or o.field.D > 0:
        raise UnresolvedError("brute-force Picard count is rank-2 imaginary only")
    f = o.index_in_maximal()
    s = o.field.disc % 2
    disc = o.field.disc * f * f
    c0, c1 = o.field.mult_table[1][1]  # w^2 = c0 + c1*w
    num, den = 2 * (isqrt(-disc * _SQRT_SCALE**2) + 1), 3 * _SQRT_SCALE
    ceil_mink = -(-num // den)
    if norm_bound is None:
        norm_bound = ceil_mink
    complete = norm_bound * den >= num
    scan = min(norm_bound, ceil_mink)
    divs = divisors(_index_factors(o))
    pairs = _scan_pairs(f, scan, divs)
    if pairs > _BRUTE_FORCE_MAX_PAIRS:
        raise UnresolvedError(
            "brute-force Picard count would scan %d (a, b) pairs, past the "
            "limit %d" % (pairs, _BRUTE_FORCE_MAX_PAIRS)
        )
    keys = set()
    for k in divs:
        top = scan * k * k // f
        ideals = [
            (a, b, n // a, g0)
            for b in range(-s * f % (2 * k), top + 1, 2 * k)
            for n, g0 in [((b * b - disc) // 4, -(b + s * f) // 2)]
            for a in range(max(b, k), top + 1, k)
            if n % a == 0 and gcd(a, g0, f) == k and gcd(a, b, n // a) == 1
        ]
        ideals += [(a, -b, c, g0 + b) for a, b, c, g0 in ideals if 0 < b < a]
        for a, b, c, g0 in ideals:
            ka, kb, kc, p, q, r, t = reduce_form(a, b, c)  # key (a', b', c')
            g1 = -(kb + s * f) // 2
            x, y = p * a - r * g0, -r * f  # b1 = x + y*w; (u0, u1) = a'*b2 + b1*tau'
            u0 = ka * (q * a - t * g0) + x * g1 + c0 * y * f
            u1 = -ka * t * f + x * f + y * g1 + c1 * y * f
            if p * t - q * r != 1 or u0 or u1:
                raise AuditFailure(
                    "ideal %r has the reduced form %r of a class it is not in"
                    % (((a, 0), (g0 % a, f)), BinaryForm(ka, kb, kc))
                )
            keys.add((ka, kb, kc))
    return BruteClassCount(len(keys), norm_bound, Fraction(num, den), complete)
