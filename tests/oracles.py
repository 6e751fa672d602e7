"""Helpers that only the tests use.

Test helpers, not collected by pytest.  The group law on binary forms
(`compose`, by Shanks' algorithm, with `form_inverse` and `form_pow`) and
the invariant factors it gives (`form_structure`) check that the reduced
forms the library counts make up the class group; the library itself
reads only their number.  `brute_force_represent`, `rel_norm_EF`,
`principal_generator`, `fundamental_unit`, `is_reduced`, `to_module`,
`mult_matrix`, `transform_by_matrix`, `from_integral_coords`,
`fraction_inverse`, `naive`, `trace`, `naive_to_coords`, `primes_upto`,
`sqrt_lb`, `unit_equation_scan` and `witness_box` are helpers that nothing
in the library calls.  `kuroda_class_number` (with `wide_class_number`)
gives h_E by Kuroda's formula, a check of the class-group walk that
shares nothing with it.  `unit_equation_by_pell_unit` is the closed form the
unit equation was decided by before it was read off the norms of one
period of sqrt(dn), and `unit_equation_by_norm_scan` that scan of the
norms, before only the midpoint was read.  `pell_unit_by_full_period` is
the walk over a whole period of sqrt(D) that `pell_solve` and the window
ladder ran before the Pell unit was read off half of it, and
`cf_sqrt_by_full_period` the expansion as `cf_sqrt` stored it before it
found the period first and mirrored half of it.  `residue_unit_count` is the prime-contraction count of
#(o/f)^x for any ideal f of any order, which the Picard formula ran twice
per order before it read both counts off the index; it is the oracle for
the closed forms of `QuadField.residue_unit_counts`.
`unit_index_by_torsion`, `brute_force_bound_by_fraction` and
`reduced_forms_by_loop` are `unit_index`, the Minkowski bound of
`pic_brute_force` and `reduced_forms` as they were before they became
a closed form, integers and comprehensions; `torsion_units` gives the
roots of unity of a quadratic or quartic field, the former as
`QuadField.torsion_units` listed them and the latter by the T2 = 4
enumeration `BiquadField.torsion_units` ran, before nothing in the library
read them.  `primitive_ideals` is the scan `pic_brute_force` ran as a
generator, every primitive ideal with its HNF rows, before it dropped the
non-invertible ones in place, and `brute_force_by_primitive_ideals` the
count it made over them with `BinaryForm.reduction`.
`full_range_ideals` and `brute_force_by_full_range` are the scan and
count that replaced them, in place on integers with b over the whole
(-a, a], as they ran before the scan took b >= 0 and mirrored the rest,
and `order_proof_by_matrices` is the proof `OrderRep` gave on the
multiplication matrices of all its rows before it took the products of
its rows.  `full_ladder_search` is `find_generator`'s rank-4 search as it
ran before it stopped early, every window in `l` order, and
`full_ladder_points` the norm-N points of each of those windows;
`rung_windows` are the balls of the windows twisted by the rungs, whose
union a candidate had to lie in before find_generator tested
`L <= lam <= P`, and `canonical_pick` the least candidate it picked.
`range_reach_search` is the early stop as it ran before it read each
stretch's edge nearer 0: `range_reach` bounds a window by the end of its
ball's `lam` range nearer 0, and each side stops on the least of those
reaches over the window and the rest of its side.
`oracle_norm_form_element` is the scan `split_prime` ran for its element
before it read it off a form reduction.  `residue_data_by_root_search`,
`prime_above_by_generators` (through `embed_F`) and `split_relative_naive`
are the paths `represent` took from a prime element to the searched
module and back before it read each in closed form, and
`products_table_by_fractions` and `trace_form_by_fractions` the Fraction
products a supplied basis was verified with.  `trace_form_by_naive_traces`
and `t2_gram_by_naive_traces` are the trace form and the T2 Gram of a
quartic field as they were built on the naive traces of its basis, and
`t2_gram_by_closed_form` the Gram `QuadField` wrote in closed form, before
both degrees read them off `trace_form(mult_table)`.  `FracQuad` and
`FracBiquad` are the field elements as they were before they became
integer coordinates over one denominator: exact `Fraction` arithmetic,
kept as the oracle for the elements that replaced them.
`factor_by_primitive_element` (with `_minpoly4`, `_primitive_candidates`
and `_factor_obstructed`) is `factor_rational_prime` as it ran before the
q-radical: Kummer-Dedekind on the first primitive element whose equation
order has index prime to q, and sums of subfield primes where none has.
`polp_factor` (with `_split_equal_degree` and `poly_mul`) is the complete
Cantor-Zassenhaus factorization mod p that the root tests of the library
ran before they took one gcd with x^(p^k) - x.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product as iter_product, zip_longest
from math import ceil, gcd, isqrt, lcm
from operator import mul

from nforders.biquadratic import (
    BiquadElem,
    BiquadField,
    PrimeFactor,
    _integral_row,
    _nmul,
    _reduce_inverse,
    ideal_of_elements,
    residue_degree,
)
from nforders import criteria
from nforders.criteria import _divides, verify_identity
from nforders.intmath import (
    _SQRT_SCALE,
    _frobenius_gcd,
    _roots_quadratic,
    UnsupportedPrimeError,
    divisors,
    factorize,
    is_prime,
    poly_discriminant,
    poly_eval,
    poly_roots_mod,
    poly_trim,
    polp_divmod,
    polp_gcd,
    polp_mulmod,
    polp_powmod,
    polp_trim,
    sqrt_ub,
    xgcd,
)
from nforders.lattice import (
    IntModule,
    LatticeBasis,
    _budget,
    _det_int,
    _element,
    _form_value,
    _in_lattice,
    _norm_filter,
    _times,
    _twisted_gram,
    _unit_ladder,
    adjugate_int,
    enumerate_by_t2,
    find_generator,
    hnf,
    identity_module,
    lll_reduce,
    module_mul,
)
from nforders.orders import (
    AuditFailure,
    BruteClassCount,
    OrderIdeal,
    OrderRep,
    _closed_under,
    _contractions,
)
from nforders.quadratic import (
    BinaryForm,
    CFExpansion,
    QuadElem,
    QuadField,
    UnsupportedFieldError,
    _before,
    _in_range,
    _ladder_windows,
    _rmul,
    _stretches,
    cf_convergents,
    cf_sqrt,
    integer_coords,
    integer_rows,
    pell_solve,
    principal_form,
    reduce_form,
    split_kind,
    table_matrix,
)

# ---------------------------------------------------------------------------
# integers


def omega(F: QuadField) -> QuadElem:
    """w, the second element of the integral basis {1, w} of F."""
    return QuadElem(F, (0, 1))


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


def sqrt_lb(x: Fraction) -> Fraction:
    """Rational lower bound on sqrt(x) for x >= 0, within 1/_SQRT_SCALE:
    the partner of the library's sqrt_ub."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s = isqrt(x.numerator * x.denominator * _SQRT_SCALE**2)
    return Fraction(s, x.denominator * _SQRT_SCALE)


def oracle_norm_form_element(F: QuadField, q: int) -> QuadElem | None:
    """The integral element of norm q in an imaginary field of least |v|,
    then with u >= 0, by a scan over v: (u + v*sqrt(D))/s with u^2 +
    |D| v^2 = s^2 q, s = 2 and u = v mod 2 when D = 1 mod 4, else s = 1.
    None when there is none."""
    D = F.D
    s = 2 if D % 4 == 1 else 1
    for v in range(isqrt(s * s * q // -D) + 1):
        u2 = s * s * q + D * v * v
        u = isqrt(u2)
        if u * u == u2 and (u - v) % s == 0:
            return F(Fraction(u, s), Fraction(v, s))
    return None


# ---------------------------------------------------------------------------
# residue counts


def residue_unit_count(o: OrderRep, f) -> int:
    """#(o/f)^x for an ideal f of o, given as an OrderIdeal or its module.

    o/f is a finite ring, the product of its localisations at the primes p
    of o that contain f, so #(o/f)^x = [o : f] * prod (1 - 1/[o : p]).
    By lying over, the p are the contractions P & o of the primes P of O_K,
    and as f lies in o, P & o contains f exactly when P does; such a P
    contains [o : f], so lies above a prime q dividing it.  _contractions
    takes one intersection per prime of o above q, none when o is
    maximal.  Each index is a quotient of covolumes.  The trivial
    quotient counts as 1."""
    fmod = f.module if isinstance(f, OrderIdeal) else f
    if not (o.module.contains_module(fmod) and _closed_under(o, fmod.rows)):
        raise ValueError("f must be an ideal of the order")
    n_o = o.index_in_maximal()
    count = int(fmod.covolume()) // n_o
    for q in factorize(count):
        for p in _contractions(o, q):
            if p.contains_module(fmod):
                Np = int(p.covolume()) // n_o
                count = count // Np * (Np - 1)
    return count


@lru_cache(maxsize=None)
def torsion_units(field) -> tuple:
    """The roots of unity of a quadratic or quartic field (the library read
    them until its unit index became a closed form).  A quadratic one has
    +-1, and the powers of w = (1+sqrt(-3))/2 or i = sqrt(-1) at disc -3
    and -4 (just +-1 for a real one).  A quartic one has exactly the
    integral elements with T2 = 4, found by enumeration."""
    if field.degree == 2:
        one, w = field.one(), omega(field)
        if field.disc == -3:  # w is a sixth root of unity
            return (one, -one, w, -w, w * w, -(w * w))
        if field.disc == -4:  # w = sqrt(-1)
            return (one, -one, w, -w)
        return (one, -one)
    out = []
    red = lll_reduce(identity_module(field), field.t2_gram_matrix)
    for v in enumerate_by_t2(red, 4):
        u = field.from_basis_coords(v)
        out.extend((u, -u))
    one = field.one()
    for u in out:
        pw = u
        for _ in range(12):
            if pw == one:
                break
            pw = pw * u
        else:
            raise AssertionError("non-torsion unit in the T2 = 4 shell")
    return tuple(sorted(out, key=lambda z: z.basis_coords()))


def unit_index_by_torsion(o: OrderRep) -> int:
    """[O_K^x : o^x] as unit_index found it before its closed form, for an
    imaginary quadratic order or a maximal order: the roots of unity of
    the field over those the order's module contains."""
    tors = torsion_units(o.field)
    inside = [z for z in tors if o.module.contains(z)]
    assert len(tors) % len(inside) == 0
    return len(tors) // len(inside)


def brute_force_bound_by_fraction(o: OrderRep, norm_bound=None) -> tuple:
    """(norm_bound, minkowski_bound, complete) as pic_brute_force set them
    before its bound was kept in integers: the Fraction (2/3)*sqrt_ub(|disc
    o|), its ceiling for a missing bound, and whether the bound reaches it."""
    f = o.index_in_maximal()
    mink = Fraction(2, 3) * sqrt_ub(Fraction(-o.field.disc * f * f))
    if norm_bound is None:
        return ceil(mink), mink, True
    return norm_bound, mink, Fraction(norm_bound) >= mink


# ---------------------------------------------------------------------------
# binary quadratic forms


def primitive_ideals(o: OrderRep, scan: int):
    """The primitive o-ideals I = [a, (-b + sqrt(disc o))/2] that
    pic_brute_force scans, as a generator, the scan as it ran before it
    took only invertible ideals in place: b^2 = disc o mod 4a, b in (-a,
    a], and the lattice I/q in O_K of index [O_K : I/q] = a*f/q^2 <=
    scan, f = [O_K : o] and q the content of I in O_K.  Yields (a, b, c,
    rows) with c = (b^2 - disc o)/4a and rows the HNF of I over the basis
    {1, w} of O_K, invertible or not.

    (-b + sqrt(disc o))/2 is g0 + f*w with g0 = -(b + s*f)/2, s = disc K
    mod 2, so I has the rows (a, 0) and (g0, f), and its content is
    gcd(a, g0, f), a divisor q of f.  For each q the loop takes a in qZ and
    b = -s*f mod 2q, which makes q divide g0, and keeps the ideals whose
    content is exactly q."""
    f = o.index_in_maximal()
    s = o.field.disc % 2
    disc = o.field.disc * f * f
    for q in divisors(factorize(f).items()):
        for a in range(q, scan * q * q // f + 1, q):
            for b in range(1 - a + (a - 1 - s * f) % (2 * q), a + 1, 2 * q):
                if b * b % (4 * a) != disc % (4 * a):
                    continue
                g0 = -(b + s * f) // 2
                if gcd(a, g0, f) == q:
                    yield a, b, (b * b - disc) // (4 * a), ((a, 0), (g0 % a, f))


def brute_force_by_primitive_ideals(o: OrderRep, norm_bound=None) -> tuple:
    """(count, norm_bound, complete) of pic_brute_force as it ran over
    primitive_ideals: the ideals whose form is primitive, keyed by
    BinaryForm.reduction, to the bound brute_force_bound_by_fraction sets."""
    norm_bound, mink, complete = brute_force_bound_by_fraction(o, norm_bound)
    keys = {
        BinaryForm(a, b, c).reduction()[0]
        for a, b, c, _ in primitive_ideals(o, min(norm_bound, ceil(mink)))
        if gcd(a, b, c) == 1
    }
    return len(keys), norm_bound, complete


def full_range_ideals(o: OrderRep, scan: int) -> list:
    """(a, b, c, g0) of each invertible primitive ideal pic_brute_force
    reduces, as its scan took them in place before it ran b over [0, a]
    and mirrored each 0 < b < a: for each content k | f, a in kZ up to
    scan*k^2/f and b over the whole (-a, a] in the progression b = -s*f
    mod 2k, kept when b^2 = disc o mod 4a, the content gcd(a, g0, f) is
    k and the form (a, b, c) is primitive."""
    f = o.index_in_maximal()
    s = o.field.disc % 2
    disc = o.field.disc * f * f
    out = []
    for k in divisors(factorize(f).items()):
        out += [
            (a, b, c, g0)
            for a in range(k, scan * k * k // f + 1, k)
            for m, dm in [(4 * a, disc % (4 * a))]
            for b in range(1 - a + (a - 1 - s * f) % (2 * k), a + 1, 2 * k)
            if b * b % m == dm
            for g0, c in [(-(b + s * f) // 2, (b * b - disc) // m)]
            if gcd(a, g0, f) == k and gcd(a, b, c) == 1
        ]
    return out


def brute_force_by_full_range(o: OrderRep, norm_bound=None) -> BruteClassCount:
    """pic_brute_force as it ran over full_range_ideals: the integer
    Minkowski bound, and each ideal keyed by reduce_form and audited by
    its determinant and basis equation before its key is counted."""
    f = o.index_in_maximal()
    s = o.field.disc % 2
    c0, c1 = o.field.mult_table[1][1]
    num = 2 * (isqrt(-o.field.disc * f * f * _SQRT_SCALE**2) + 1)
    den = 3 * _SQRT_SCALE
    ceil_mink = -(-num // den)
    if norm_bound is None:
        norm_bound = ceil_mink
    keys = set()
    for a, b, c, g0 in full_range_ideals(o, min(norm_bound, ceil_mink)):
        ka, kb, kc, p, q, r, t = reduce_form(a, b, c)
        g1 = -(kb + s * f) // 2
        x, y = p * a - r * g0, -r * f
        u0 = ka * (q * a - t * g0) + x * g1 + c0 * y * f
        u1 = -ka * t * f + x * f + y * g1 + c1 * y * f
        if p * t - q * r != 1 or u0 or u1:
            raise AuditFailure("ideal %r: reduced form of another class" % ((a, b),))
        keys.add((ka, kb, kc))
    complete = norm_bound * den >= num
    return BruteClassCount(len(keys), norm_bound, Fraction(num, den), complete)


def order_proof_by_matrices(field, module: IntModule):
    """The ValueError message OrderRep gave the module before it proved an
    order on the products of its rows, or None for an order: integral,
    holding 1, and each row times the field-table matrix of each row other
    than 1, built for every order, in the row span."""
    rows = module.rows
    if module.den != 1:
        return "an order must consist of integral elements"
    one = (1,) + (0,) * (len(rows) - 1)
    if not _in_lattice(rows, one):
        return "an order must contain 1"
    mats = [table_matrix(field.mult_table, r) for r in rows if r != one]
    if not all(_in_lattice(rows, v) for M in mats for v in _times(rows, M)):
        return "module is not multiplicatively closed"
    return None


def reduced_forms_by_loop(disc: int) -> list:
    """The reduced primitive forms of a negative discriminant as
    reduced_forms listed them before its candidate a became one
    comprehension: a while loop over b and one over a, each form checked
    for primitivity, sorted by (a, b, c)."""
    out = []
    b = disc % 2
    while 3 * b * b <= -disc:
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                f = BinaryForm(a, b, c)
                if gcd(*f) == 1:
                    out.append(f)
                    if 0 < b < a < c:
                        out.append(BinaryForm(a, -b, c))
            a += 1
        b += 2
    return sorted(out, key=lambda f: (f.a, f.b, f.c))


def is_reduced(f: BinaryForm) -> bool:
    """Imaginary reduction: |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    if not (abs(b) <= a <= c):
        return False
    return not ((abs(b) == a or a == c) and b < 0)


def form_inverse(f: BinaryForm) -> BinaryForm:
    return BinaryForm(f.a, -f.b, f.c).reduction()[0]


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
    return BinaryForm(a3, b3, c3).reduction()[0]


def form_pow(f: BinaryForm, e: int) -> BinaryForm:
    if e < 0:
        return form_pow(form_inverse(f), -e)
    r = principal_form(f.disc).reduction()[0]
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
    identity = principal_form(forms[0].disc).reduction()[0]
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
# the unit equations by bounded search


def unit_equation_scan(d: int, n: int, v_max: int = 10**5):
    """The least (u, v) with d*u^2 - n*v^2 = 1 and 0 < v <= v_max, or None,
    which is only a statement about the bound: the scan criteria once ran
    as x^2 - dn*y^2 = d over y <= v_max.  Only v with n*v^2 = -1 mod d can
    work, so it steps through those classes mod d, in increasing v."""
    starts = [r for r in range(d) if (n * r * r + 1) % d == 0]
    for base in range(0, v_max + 1, d):
        for r in starts:
            v = base + r
            if 0 < v <= v_max:
                u2 = (1 + n * v * v) // d
                u = isqrt(u2)
                if u * u == u2:
                    return u, v
    return None


def unit_equation_by_pell_unit(d: int, n: int):
    """The least (u, v) in positive integers with d*u^2 - n*v^2 = 1, or
    None, by the closed form criteria once ran: with a + b*sqrt(dn) the
    least unit of norm 1 of Z[sqrt(dn)], a solution exists exactly when
    (a + 1)/2 = d*u^2 and (a - 1)/2 = n*v^2 in integers."""
    a = pell_solve(d * n, 1).x
    u2, ru = divmod(a + 1, 2 * d)
    v2, rv = divmod(a - 1, 2 * n)
    u, v = isqrt(u2), isqrt(v2)
    if ru or rv or u * u != u2 or v * v != v2:
        return None
    return u, v


def unit_equation_by_norm_scan(d: int, n: int):
    """The least (u, v) in positive integers with d*u^2 - n*v^2 = 1, or
    None, off the norms N_k = h_k^2 - dn*q_k^2 of the first period of
    sqrt(dn): the first k with N_k = d gives (h_k/d, q_k), with N_k = -n
    (q_k, h_k/n).  A match k past criteria._WITNESS_MAX_CONVERGENTS is not
    built: k is returned."""
    cf = cf_sqrt(d * n)
    k = next((k for k, N in enumerate(cf.norms) if N == d or N == -n), None)
    if k is None or k >= criteria._WITNESS_MAX_CONVERGENTS:
        return k
    ((h, q),) = deque(cf_convergents(cf, k + 1), maxlen=1)
    u, v = (h // d, q) if cf.norms[k] == d else (q, h // n)
    assert d * u * u - n * v * v == 1
    return u, v


def pell_unit_by_full_period(D: int) -> tuple:
    """(x, y) of the last convergent of the first period of sqrt(D), the
    fundamental unit x + y*sqrt(D) of Z[sqrt(D)], of norm (-1)^l for l the
    period length (Cohen, GTM 138, 5.7).  Only the last convergent is kept:
    the k-th has about k*log(a0) bits."""
    cf = cf_sqrt(D)
    l = len(cf.period)
    ((x, y),) = deque(cf_convergents(cf, l), maxlen=1)
    assert x * x - D * y * y == (-1) ** l
    return x, y


def cf_sqrt_by_full_period(D: int, limit: int = 2**20) -> CFExpansion:
    """cf_sqrt as it ran before it found the period first and mirrored
    its first half: every quotient and norm of the period stored as the
    recurrence walks it, and UnsupportedFieldError past `limit` of them."""
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    period, norms = [], []
    for _ in range(limit):
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period.append(a)
        norms.append(d if len(norms) % 2 else -d)
        if d == 1:
            break
    else:
        raise UnsupportedFieldError("period of sqrt(%d) past %d" % (D, limit))
    assert a == 2 * a0
    return CFExpansion(D, a0, tuple(period), tuple(norms))


def witness_box(d: int, n: int, box: int):
    """Integer coordinate pairs ((a1, a2), (b1, b2)) over {1, w} in
    [-box, box] with -1 = alpha^2 + n*beta^2 in O_F, F = Q(sqrt(-d)), or
    None, which is only a statement about the box.  The values n*beta^2
    sit in a dict keyed by their coordinates."""
    c0, c1, _ = QuadField(-d).omega_minpoly()
    coords = range(-box, box + 1)

    def square(a, b):  # (a + b*w)^2 with w^2 = -c1*w - c0
        return a * a - c0 * b * b, 2 * a * b - c1 * b * b

    scaled = {}
    for b in ((b1, b2) for b1 in coords for b2 in coords):
        s0, s1 = square(*b)
        scaled.setdefault((n * s0, n * s1), b)
    for a in ((a1, a2) for a1 in coords for a2 in coords):
        s0, s1 = square(*a)
        b = scaled.get((-1 - s0, -s1))
        if b is not None:
            return a, b
    return None


# ---------------------------------------------------------------------------
# the quartic field E = Q(sqrt(-d), sqrt(-n))


def trace(x) -> Fraction:
    """Sum of the conjugates of a field element of either degree: Tr(b_j)
    is the trace of the matrix of b_j, the sum over i of
    mult_table[i][j][i]."""
    T = x.field.mult_table
    tr = [sum(T[i][j][i] for i in range(len(T))) for j in range(len(T))]
    return Fraction(sum(map(mul, x.u, tr)), x.den)


def naive(x: BiquadElem) -> tuple:
    """The coordinates of x over {1, sqrt(-d), sqrt(-n), sqrt(d*n)}, as
    Fractions, through the basis rows."""
    return tuple(sum(map(mul, x.u, col)) / x.den for col in zip(*x.field.intbasis))


def fundamental_unit(E: BiquadField) -> BiquadElem:
    """The continued-fraction unit of the real quadratic subfield,
    embedded; taken from x^2 - D0*y^2 = -1 when that has a solution.  It is
    the Pell unit the generator search's window ladder uses."""
    D0, _ = E.real_subfield_data()
    r = pell_solve(D0, -1) or pell_solve(D0, 1)
    return E.from_real_quadratic(r.x, r.y)


def rel_norm_EF(e: BiquadElem) -> QuadElem:
    """e * conj(e) as an element of Q(sqrt(-d)): the norm for the quadratic
    step down to the fixed field of conj."""
    a, b, c, ee = naive(e * e.conj())
    assert c == 0 and ee == 0
    return QuadField(-e.field.d)(a, b)


def principal_generator(E: BiquadField, m: IntModule):
    """Generator of m as a fractional ideal of the maximal order, or None.
    The search runs on c = beta * m^(-1), which is integral for any m:
    m = (beta / lam) exactly when c = (lam)."""
    beta, c = _reduce_inverse(m)
    lam = find_generator(c, c.covolume())
    if lam is None:
        return None
    g = beta / lam
    assert identity_module(E).transform(g) == m
    return g


def wide_class_number(D: int) -> int:
    """Class number of the real quadratic field of fundamental discriminant
    D = 4*m, m = 2, 3 (mod 4), from the forms alone.  The primitive reduced
    forms (a, b, c) of discriminant D, 0 < b < sqrt(D) and
    sqrt(D) - b < 2|a| < sqrt(D) + b, fall into cycles under
    rho(a, b, c) = (c, b', *), b' = -b (mod 2|c|) in (sqrt(D) - 2|c|,
    sqrt(D)), one cycle per narrow class (Cohen, GTM 138, §5.6).  The
    narrow class number is twice the wide one exactly when the fundamental
    unit has norm +1."""
    r = isqrt(D)
    forms = set()
    for b in range(2, r + 1, 2):
        ac = (b * b - D) // 4
        for a in range(max(1, (r - b) // 2 + 1), (r + b) // 2 + 1):
            if ac % a == 0 and gcd(a, b, ac // a) == 1:
                forms |= {(a, b, ac // a), (-a, b, -ac // a)}
    cycles = 0
    while forms:
        cycles += 1
        a, b, c = start = forms.pop()
        while True:
            b = r - (r + b) % (2 * abs(c))
            a, c = c, (b * b - D) // (4 * c)
            if (a, b, c) == start:
                break
            forms.remove((a, b, c))
    x, y = pell_unit_by_full_period(D // 4)
    return cycles // 2 if x * x - D // 4 * y * y == 1 else cycles


def kuroda_class_number(d: int, n: int) -> int:
    """h_E of the native field (d, n), d > 3 and n > 1 so that W_E = {+-1},
    by Kuroda's formula h_E = Q h(-d) h(-4n) h(4dn) / 2 (Lemmermeyer,
    Acta Arith. 66, 1994), with nothing from the class-group walk.  The
    unit index Q = [O_E^x : <-1, eps0>] is 2 exactly when some unit of E
    squares to -eps0 (to eps0 it cannot: E = k(sqrt(-d)), k = Q(sqrt(dn)),
    holds sqrt(x) for x in k only when x is in k^2 or -d k^2, and eps0 > 0
    at one place), that is when d*eps0 = (a + b sqrt(dn))^2, a, b >= 0:
    d x = a^2 + dn b^2 and d y = 2ab for eps0 = x + y sqrt(dn), and
    a^2 - dn b^2 = s d with s = +-1, so a^2 = d(x + s)/2 and
    b^2 = (x - s)/2n."""
    assert d > 3 and n > 1
    x, y = pell_unit_by_full_period(d * n)

    def root(a, b):
        return a * a + d * n * b * b == d * x and 2 * a * b == d * y

    q = 2 if any(root(isqrt(d * (x + s) // 2), isqrt((x - s) // (2 * n))) for s in (1, -1)) else 1
    h = len(reduced_forms_by_loop(-d)) * len(reduced_forms_by_loop(-4 * n))
    return q * h * wide_class_number(4 * d * n) // 2


# ---------------------------------------------------------------------------
# the primes above q as they were found before the q-radical


def _minpoly4(theta: BiquadElem):
    """Constant-first monic minimal polynomial when theta generates the
    whole field, else None."""
    pows = [theta.field.one()]
    for _ in range(4):
        pows.append(pows[-1] * theta)
    # solve x * A = b with rows A[i] = coords(theta^i), b = coords(theta^4):
    # x = b * adj(A) / det(A); theta is integral, so the rows are integers
    A, b = [p.u for p in pows[:4]], pows[4].u
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


def factor_by_primitive_element(E: BiquadField, q: int):
    """factor_rational_prime as it ran before the q-radical: the primes
    read off the factorization mod q of the minimal polynomial of the first
    primitive element whose equation order has index coprime to q
    (Kummer-Dedekind), else the subfield sums of _factor_obstructed."""
    if not is_prime(q):
        raise ValueError("%d is not prime" % q)
    for theta, f in _primitive_candidates(E):
        idx2, rem = divmod(poly_discriminant(f), E.disc)
        assert rem == 0 and idx2 > 0
        idx = isqrt(idx2)
        assert idx * idx == idx2
        if gcd(idx, q) != 1:
            continue
        out = []
        total = 0
        for g, mult in polp_factor(f, q):
            mod = ideal_of_elements(E, (E.one() * q, poly_eval(g, theta)))
            deg = len(g) - 1
            assert mod.covolume() == q**deg
            out.append(PrimeFactor(mod, mult, deg))
            total += mult * deg
        assert total == 4
        return sorted(out, key=lambda pf: (pf.f, pf.e, pf.module.rows))
    if E.disc % q:
        return _factor_obstructed(E, q)
    raise UnsupportedPrimeError(
        "every scanned equation order has index divisible by %d" % q
    )


def _factor_obstructed(E: BiquadField, q: int):
    """Primes above an unramified q for which no scanned equation order has
    coprime index.  That happens exactly when q has more residue-degree-f
    primes than there are monic irreducibles of degree f mod q (q = 2 or 3
    splitting completely, or q = 2 with two degree-2 primes), so the primes
    are built from the quadratic subfields instead: primes of a split
    subfield extend to primes or to products of two primes, and ideal sums
    pick out the common factors.
    """
    split = []
    for F, om in E.subfields:
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
    out = [PrimeFactor(m, 1, f) for m in mods]
    return sorted(out, key=lambda pf: (pf.f, pf.e, pf.module.rows))


# ---------------------------------------------------------------------------
# represent's input path as it ran before its closed forms


def residue_data_by_root_search(p: QuadElem):
    """(q, deg, r) of criteria._residue_data, found as it was: for N(p) = q
    prime, the root r of omega's minimal polynomial mod q with p | w - r;
    for N(p) = q^2, p and q dividing each other and q inert."""
    F = p.field
    if not p.is_integral():
        raise ValueError("not an integral element: %r" % (p,))
    nrm = abs(F.norm_form(p.u))
    if is_prime(nrm):
        for r in poly_roots_mod(F.omega_minpoly(), nrm):
            if _divides(p, omega(F) - r):
                return nrm, 1, r
        raise AssertionError("norm-q element outside every ideal above q")
    q = isqrt(nrm)
    if q * q == nrm and is_prime(q) and _divides(F(q), p) and _divides(p, q):
        if split_kind(F, q) == "inert":
            return q, 2, None
    raise ValueError("not a prime element: %r" % (p,))


def embed_F(E: BiquadField, x: QuadElem) -> BiquadElem:
    """x in Q(sqrt(-d)) as an element of E, through the first two rows of
    E.relative_order_rows, the coordinates of 1 and w."""
    assert x.field.D == -E.d
    return BiquadElem(E, _times([x.u], E.relative_order_rows[:2])[0], x.den)


def prime_above_by_generators(E: BiquadField, p: QuadElem, root: QuadElem) -> IntModule:
    """The prime of O_E above p as the HNF of the ideal p*O_E + (root -
    sqrt(-n))*O_E, built from its two generators' multiplication matrices."""
    return ideal_of_elements(E, (embed_F(E, p), embed_F(E, root) - E.gens[1]))


def split_relative_naive(alpha: BiquadElem) -> tuple:
    """(x, y) with alpha = x + y*sqrt(-n), read off alpha's naive
    coordinates over {1, sqrt(-d), sqrt(-n), sqrt(d*n)}: sqrt(d*n) =
    -sqrt(-d)*sqrt(-n), so the last one feeds y negatively."""
    F = QuadField(-alpha.field.d)
    c0, c1, c2, c3 = naive(alpha)
    return F(c0, c1), F(c2, -c3)


def products_table_by_fractions(d: int, n: int, rows, Bi) -> tuple:
    """The structure constants of the basis rows (naive coordinates), each
    product taken in Fractions and mapped to basis coordinates; ValueError
    when one is not integral."""
    what = "basis is not closed under multiplication at pair (%d, %d)"
    return tuple(
        tuple(
            _integral_row(Bi, _nmul(d, n, ri, rj), what % (i, j))
            for j, rj in enumerate(rows)
        )
        for i, ri in enumerate(rows)
    )


def trace_form_by_fractions(d: int, n: int, rows) -> tuple:
    """The trace form Tr(b_i * b_j) of the basis rows, 4 times the rational
    naive coordinate of each product in Fractions; ValueError when an
    entry is not an integer."""
    return integer_rows(
        [[4 * _nmul(d, n, ri, rj)[0] for rj in rows] for ri in rows], "trace form"
    )


def trace_form_by_naive_traces(T, rows) -> list:
    """Tr(b_i * b_j) = sum_k T[i][j][k] Tr(b_k) for the structure constants
    T of the basis rows (naive coordinates), Tr(b_k) being 4 times the
    rational naive coordinate of b_k; ValueError unless those are integers,
    as they are when the rows span a ring."""
    (tr,) = integer_rows([[4 * row[0] for row in rows]], "trace form")
    return [[sum(map(mul, Tij, tr)) for Tij in Ti] for Ti in T]


def t2_gram_by_naive_traces(E: BiquadField) -> tuple:
    """E's T2 Gram, Tr(b_i * conj(b_j)) = sum_m C[j][m] Tr(b_i * b_m), row j
    of C the coordinates of conj(b_j), conj the complex conjugation, on
    the trace form of the naive traces."""
    P = trace_form_by_naive_traces(E.mult_table, E.intbasis)
    return tuple(_times(P, tuple(zip(*E.complex_conj_matrix))))


def t2_gram_by_closed_form(F: QuadField) -> tuple:
    """Gram matrix of T2 on the basis {1, w}, T2 the sum of |x|^2 over
    both embeddings, in closed form; its determinant is |disc|."""
    D = abs(F.D)
    if F.D % 4 == 1:
        return ((2, 1), (1, (1 + D) // 2))
    return ((2, 0), (0, 2 * D))


# ---------------------------------------------------------------------------
# lattices


def to_module(basis: LatticeBasis) -> IntModule:
    """The IntModule the rows of an LLL-reduced basis span."""
    return IntModule(basis.ambient, basis.rows, basis.den)


def mult_matrix(field, e) -> tuple:
    """The rational multiplication matrix M of the element e, rows indexed
    by the integral basis, so coords(x * e) = coords(x) * M: the integer
    matrix of e.u through field.mult_table over e.den."""
    return tuple(
        tuple(Fraction(x, e.den) for x in row)
        for row in table_matrix(field.mult_table, e.u)
    )


def transform_by_matrix(m: IntModule, M) -> IntModule:
    """The module the images row * M of m's basis rows span, M a rational
    matrix on integral-basis coordinates: the rows times M times the lcm L
    of M's denominators, over den * L."""
    L = lcm(*(Fraction(x).denominator for row in M for x in row))
    cols = list(zip(*M))
    rows = [[L * sum(map(mul, r, c)) for c in cols] for r in m.rows]
    return IntModule(m.ambient, tuple(map(tuple, rows)), m.den * L)


def ladder_rungs(D0, T) -> list:
    """The rungs 1, gamma_1, ..., gamma_T of the ladder over the
    convergents gamma_i = h_i + k_i*sqrt(D0), as (h, k) pairs."""
    return [(1, 0)] + list(cf_convergents(cf_sqrt(D0), T))


def full_ladder_points(module, norm) -> list:
    """The norm-N points of every centred window of the module's rank-4
    ladder, N = norm, window by window in l order, each LLL started from
    the basis the window before reduced: the windows find_generator
    searched before it stopped early, in the order it searched them."""
    norm = Fraction(norm)
    keep = _norm_filter(module, norm)
    D0, G, C = module.ambient.norm_forms
    windows = _ladder_windows(D0, _unit_ladder(module.ambient, module))[0]
    den = module.den
    out = []
    red = module
    for w, rho, _ in windows:
        red = lll_reduce(red, _twisted_gram(G, C, *w))
        bound = Fraction(_budget(rho, norm, den), den * den)
        out.append([u for u in enumerate_by_t2(red, bound) if keep(u)])
    return out


def rung_windows(module, norm) -> list:
    """(weights (p, hk), budget) of the windows of the module's ladder
    twisted by the rungs gamma_0 = 1, ..., gamma_(T-1), each with its ball
    at the next rung, on norm-N searches: window i holds the norm-N points
    with lam in [l_i - r_i, l_(i+1)], and those intervals chain from L to
    P.  Each ball is ball^2 = N rho, rho = (4 p(c conj(e)) / N(e))^2 for
    the twist c = gamma_i and the edge e = gamma_(i+1), as _ladder_windows
    built it before find_generator tested L <= lam <= P, and floored by
    _budget."""
    D0 = module.ambient.norm_forms[0]
    gammas = ladder_rungs(D0, _unit_ladder(module.ambient, module))
    out = []
    for (h, k), (h2, k2) in zip(gammas, gammas[1:]):
        w0, w1 = _rmul((h, k), (h2, -k2), D0)
        rho = Fraction(4 * (w0 * w0 + D0 * w1 * w1), h2 * h2 - D0 * k2 * k2) ** 2
        out.append(((h * h + D0 * k * k, h * k), _budget(rho, Fraction(norm), module.den)))
    return out


def canonical_pick(module, cands):
    """The candidate of least (u G u^t, u), G the T2 Gram, as a field
    element u/den, None when there is none: the points enumerate_by_t2
    returns have their first nonzero coordinate positive and share the
    module's den > 0, so this is the order of (T2(v), v) on v = u/den."""
    G = module.ambient.t2_gram_matrix
    return _element(module, min(cands, key=lambda u: (_form_value(G, u), u), default=None))


def full_ladder_search(module, norm):
    """find_generator on a rank-4 module as it ran before it stopped early
    and before it tested L <= lam <= P: the norm-N points of every window
    (full_ladder_points), those in some rung window's ball (rung_windows)
    kept, and the least of them picked."""
    _, G, C = module.ambient.norm_forms
    bounds = [(_twisted_gram(G, C, *w), B) for w, B in rung_windows(module, norm)]
    cands = [
        u
        for points in full_ladder_points(module, norm)
        for u in points
        if any(_form_value(g, u) <= B for g, B in bounds)
    ]
    return canonical_pick(module, cands)


def range_reach(D0, c, near, far) -> Fraction:
    """The reach of the window twisted by c over the stretch from near, the
    edge nearer lam = 0, to far, as find_generator bounded it before it
    read the near edge alone: cosh at the end of the window's lam range
    nearer 0, l(near) or l(c^2 conj(far)), or 1 where that range holds 0."""
    x = _rmul(_rmul(c, c, D0), (far[0], -far[1]), D0)
    s = near[0] * near[1]  # l(h + k sqrt(D0)) has the sign of h*k
    h, k = x if _before(x, near, D0) == (s > 0) else near
    return Fraction(h * h + D0 * k * k, abs(h * h - D0 * k * k)) if h * k * s > 0 else Fraction(1)


def range_reaches(D0, T) -> list:
    """Each centred window's range_reach, in l order, on the ladder of
    sqrt(D0) over T rungs."""
    if T == 1:
        return [Fraction(1)]  # the one window's range holds 0
    stretches = _stretches(D0, ladder_rungs(D0, T))
    centre = _ladder_windows(D0, T)[2][0][0]
    return [
        range_reach(D0, c, *((ea, eb) if i > centre else (eb, ea)))
        for i, (c, ea, eb) in enumerate(stretches)
    ]


def range_reach_search(module, norm) -> tuple:
    """(the generator, the windows searched) of find_generator's rank-4
    walk as it stopped before it read each stretch's near edge: a side
    stopped at the first window whose range_reach, and that of every
    window after it on its side (a suffix minimum), no point could pass
    with a T2 below the best candidate kept."""
    field = module.ambient
    norm = Fraction(norm)
    keep = _norm_filter(module, norm)
    T = _unit_ladder(field, module)
    D0, G, C = field.norm_forms
    windows, edges, walk = _ladder_windows(D0, T)
    reach = range_reaches(D0, T)
    den = module.den
    best = centre = None
    searched = 0
    for side in walk:
        red = centre or module
        least = list(accumulate((reach[i] for i in side[::-1]), min))[::-1]
        for i, r in zip(side, least):
            if best is not None and 16 * norm * den**4 * r * r > best[0] ** 2:
                break
            w, rho, _ = windows[i]
            red = lll_reduce(red, _twisted_gram(G, C, *w))
            centre = centre or red
            searched += 1
            bound = Fraction(_budget(rho, norm, den), den * den)
            for u in filter(keep, enumerate_by_t2(red, bound)):
                t = _form_value(G, u)
                if best is None or (t, u) < best:
                    if _in_range(D0, edges, t, _form_value(C, u)):
                        best = t, u
    return _element(module, None if best is None else best[1]), searched


# ---------------------------------------------------------------------------
# field elements in Fraction coordinates


def fraction_inverse(rows) -> tuple:
    """Inverse of a nonsingular rational square matrix by Gauss-Jordan
    elimination in Fraction arithmetic."""
    n = len(rows)
    A = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if A[i][col])
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        for i in range(n):
            if i != col and A[i][col]:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    return tuple(tuple(r[n:]) for r in A)


def naive_to_coords(E: BiquadField, naive) -> tuple:
    """Basis coordinates of the element with these naive coordinates over
    {1, sqrt(-d), sqrt(-n), sqrt(d*n)}, as Fractions, through
    fraction_inverse of the basis matrix."""
    Bi = _basis_fraction_inverse(E)
    nv = [Fraction(x) for x in naive]
    return tuple(sum(nv[i] * Bi[i][j] for i in range(4)) for j in range(4))


@lru_cache(maxsize=None)
def _basis_fraction_inverse(E: BiquadField) -> tuple:
    return fraction_inverse(E.intbasis)


def from_integral_coords(F: QuadField, x, y) -> QuadElem:
    """x + y*w in the quadratic field F."""
    return F.from_basis_coords((x, y))


_RATIONAL = (int, Fraction)


@dataclass(frozen=True)
class FracQuad:
    """a + b*sqrt(D) with Fraction a and b."""

    field: QuadField
    a: Fraction
    b: Fraction

    @classmethod
    def of(cls, e: QuadElem) -> "FracQuad":
        """The element e, read through its basis coordinates x + y*w."""
        x, y = e.basis_coords()
        if e.field.D % 4 == 1:
            return cls(e.field, x + y / 2, y / 2)
        return cls(e.field, x, y)

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            return FracQuad(self.field, self.a + other, self.b)
        return FracQuad(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FracQuad(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return FracQuad(self.field, self.a * other, self.b * other)
        D = self.field.D
        return FracQuad(
            self.field,
            self.a * other.a + D * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            return FracQuad(self.field, self.a / other, self.b / other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError
        num = self * other.conj()
        return FracQuad(self.field, num.a / n, num.b / n)

    def __pow__(self, e: int):
        if e < 0:
            return (FracQuad(self.field, Fraction(1), Fraction(0)) / self) ** (-e)
        r = FracQuad(self.field, Fraction(1), Fraction(0))
        for _ in range(e):
            r = r * self
        return r

    def conj(self):
        return FracQuad(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.D * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def inverse(self):
        return self.conj() / self.norm()

    def is_rational(self) -> bool:
        return self.b == 0

    def integral_coords(self) -> tuple:
        """Coordinates (x, y) with self = x + y*w."""
        if self.field.D % 4 == 1:
            return self.a - self.b, 2 * self.b
        return self.a, self.b

    def to_elem(self) -> QuadElem:
        return self.field.from_basis_coords(self.integral_coords())


@dataclass(frozen=True)
class FracBiquad:
    """Fraction coordinates over the integral basis of a quartic field;
    the conjugates, the trace and rationality are read off the naive
    coordinates over {1, sqrt(-d), sqrt(-n), sqrt(d*n)}."""

    field: BiquadField
    coords: tuple

    @classmethod
    def of(cls, e: BiquadElem) -> "FracBiquad":
        return cls(e.field, e.basis_coords())

    def _from_naive(self, naive):
        return FracBiquad(self.field, naive_to_coords(self.field, naive))

    def naive(self):
        B = self.field.intbasis
        return tuple(
            sum(self.coords[i] * B[i][j] for i in range(4)) for j in range(4)
        )

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            other = self._from_naive((other, 0, 0, 0))
        return FracBiquad(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return FracBiquad(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            return FracBiquad(self.field, tuple(a * other for a in self.coords))
        u, a = integer_coords(self.coords)
        w, b = integer_coords(other.coords)
        cols = zip(*table_matrix(self.field.mult_table, w))
        return FracBiquad(
            self.field,
            tuple(Fraction(sum(x * y for x, y in zip(u, c)), a * b) for c in cols),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            return FracBiquad(
                self.field, tuple(a / Fraction(other) for a in self.coords)
            )
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self._from_naive((1, 0, 0, 0))
        for _ in range(e):
            r = r * self
        return r

    def bar(self):
        a, b, c, e = self.naive()
        return self._from_naive((a, b, -c, -e))

    def complex_conj(self):
        a, b, c, e = self.naive()
        return self._from_naive((a, -b, -c, e))

    def trace(self) -> Fraction:
        return 4 * self.naive()[0]

    def norm(self) -> Fraction:
        """The product of the four conjugates, in naive coordinates."""
        a, b, c, e = x = self.naive()
        d, n = self.field.d, self.field.n
        for conj in ((a, b, -c, -e), (a, -b, -c, e), (a, -b, c, -e)):
            x = _nmul(d, n, x, conj)
        assert x[1] == 0 and x[2] == 0 and x[3] == 0
        return Fraction(x[0])

    def inverse(self):
        t = self.bar() * self.complex_conj() * self.complex_conj().bar()
        nv = _nmul(self.field.d, self.field.n, self.naive(), t.naive())
        if nv[0] == 0:
            raise ZeroDivisionError
        assert nv[1] == 0 and nv[2] == 0 and nv[3] == 0
        return t / nv[0]

    def is_rational(self) -> bool:
        nv = self.naive()
        return nv[1] == 0 and nv[2] == 0 and nv[3] == 0


# ---------------------------------------------------------------------------
# full factorization and roots in any degree mod p, as the library ran
# them before its root tests took one gcd with x^(p^k) - x


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


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


def roots_by_splitting(f: list[int], p: int) -> list[int]:
    """Sorted roots of f mod p in any degree, as the library found them
    before poly_roots_mod took degree 2 at most.

    When p <= deg f the roots are the residues 0..p-1 at which f vanishes,
    found by evaluating f at each of them.  Otherwise a quadratic goes
    through the quadratic formula, and anything else reads the roots off
    the linear factors of gcd(f, x^p - x), which _split_linear separates.
    """
    if not is_prime(p):
        raise ValueError("roots_by_splitting needs a prime modulus")
    fp = polp_trim(f, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    if p < len(fp):
        return [x for x in range(p) if not poly_eval(fp, x) % p]
    if len(fp) == 3:
        return _roots_quadratic(fp, p)
    return sorted(-h[0] % p for h in _split_linear(_frobenius_gcd(fp, p, 1), p))


def _split_linear(g: list[int], p: int) -> list[list[int]]:
    """The monic linear factors of g, a monic product of distinct linear
    factors mod p, where p is odd or g has degree at most 1.

    Cantor-Zassenhaus in degree 1: the probe x + c splits a part h along
    gcd(h, (x + c)^((p-1)/2) - 1), the product of its x - r with r + c a
    nonzero square.  The nonzero squares mod an odd p are no translate of
    themselves, so some c in 0..p-1 separates any two roots, and the loop
    over c = 0, 1, ... ends.
    """
    parts, c = [g] if len(g) > 1 else [], 0
    while any(len(h) > 2 for h in parts):
        split = []
        for h in parts:
            if len(h) > 2:
                s = polp_powmod([c, 1], (p - 1) // 2, h, p) or [0]
                s[0] -= 1
                a = polp_gcd(h, s, p)
                if 1 < len(a) < len(h):
                    split += [a, polp_divmod(h, a, p)[0]]
                    continue
            split.append(h)
        parts, c = split, c + 1
    return parts


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
