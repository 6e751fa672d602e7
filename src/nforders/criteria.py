"""Solvability criteria and solvers for p = x^2 + n*y^2.

The rational-integer story (a form reduction plus a polynomial root test)
sits next to its order-level analogue: a prime element p of Q(sqrt(-d)) is
tested in its actual residue field, and a positive verdict is made
constructive by digging a generator out of a rank-4 ideal lattice and
normalizing the sign through the unit identity -1 = alpha^2 + n*beta^2.
Each criterion returns a report listing every hypothesis it checked, so an
inapplicable case never masquerades as a negative one.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .biquadratic import (
    _IDENTITY4,
    BiquadElem,
    BiquadField,
    check_field_params,
    integral_basis,
    norm_map_condition,
)
from .intmath import (
    has_root_mod,
    is_prime,
    jacobi,
    poly_discriminant,
    poly_eval,
    poly_trim,
    sqrt_mod,
)
from .lattice import IntModule, UnsupportedFieldError, find_generator
from .quadratic import (
    Keyed,
    QuadElem,
    QuadField,
    pell_data,
    principal_representation,
    split_kind,
    split_prime,
)

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
UNKNOWN = "unknown"


class _Unresolved:
    """Search gave up without a proof either way; distinct from None."""

    __slots__ = ()

    def __repr__(self):
        return "unresolved"

    def __bool__(self):
        return False


UNRESOLVED = _Unresolved()


class CriterionReport(Keyed):
    # hypotheses: (name, passed, detail) triples, in evaluation order
    def __init__(self, criterion, hypotheses, applicable, verdict, representation=None):
        assert verdict in (SOLVABLE, UNSOLVABLE, UNKNOWN)
        if not applicable:
            assert verdict == UNKNOWN
        if representation is not None:
            assert verdict == SOLVABLE
        self.criterion, self.hypotheses = criterion, hypotheses
        self.applicable, self.verdict = applicable, verdict
        self.representation = representation

    def _key(self) -> tuple:
        return (
            self.criterion, self.hypotheses, self.applicable, self.verdict,
            self.representation,
        )


class UnitWitness(Keyed):
    def __init__(self, alpha: QuadElem, beta: QuadElem, n: int):
        assert alpha**2 + n * beta**2 == alpha.field(-1)
        self.alpha, self.beta, self.n = alpha, beta, n

    def _key(self) -> tuple:
        return self.alpha, self.beta, self.n


# ---------------------------------------------------------------------------
# rational level


def cornacchia(p: int, n: int) -> tuple[int, int] | None:
    """Solve x^2 + n*y^2 = p over Z, x > 0, y >= 0 and x > y when n = 1,
    or prove there is nothing: x^2 + n*y^2 is the principal form of
    discriminant -4n, so principal_representation decides it."""
    if p == 2 or not is_prime(p):
        raise ValueError("cornacchia needs an odd prime, got %d" % p)
    if n <= 0:
        raise ValueError("n must be positive")
    if n % p == 0:
        raise ValueError("p divides n")
    rep = principal_representation(-4 * n, p)
    if rep is None:
        return None
    x, y = sorted(map(abs, rep), reverse=True) if n == 1 else map(abs, rep)
    assert x > 0 and y >= 0 and x * x + n * y * y == p
    return x, y


def cox_criterion(p: int, n: int, f_n) -> CriterionReport:
    """Root test for p = x^2 + n*y^2 over Z: p is representable iff -n is a
    residue mod p and the supplied class polynomial has a root mod p.  A
    positive verdict is cross-checked against cornacchia and the found
    pair is attached.  A polynomial or a leading coefficient that vanishes
    mod p raises ValueError, whatever the residue symbol."""
    if n <= 0:
        raise ValueError("n must be positive, got %d" % n)
    if p == 2 or not is_prime(p):
        raise ValueError("needs an odd prime, got %d" % p)
    f_n = [int(c) for c in f_n]
    # a linear f_n with p | content passes the disc test (disc = 1) but is
    # no class polynomial mod p
    if not any(c % p for c in f_n):
        raise ValueError("polynomial vanishes mod p")
    if poly_trim(f_n)[-1] % p == 0:
        raise ValueError("leading coefficient vanishes mod p")
    hyps = [("p_coprime_to_n", n % p != 0, "n = %d" % n)]
    if hyps[0][1]:
        d = poly_discriminant(f_n)
        hyps.append(("p_coprime_to_poly_disc", d % p != 0, "disc = %d" % d))
    if not all(h[1] for h in hyps):
        return CriterionReport("cox", tuple(hyps), False, UNKNOWN)
    solv = jacobi(-n % p, p) == 1 and has_root_mod(f_n, p)
    rep = None
    if solv:
        rep = cornacchia(p, n)
        if rep is not None:
            assert rep[0] ** 2 + n * rep[1] ** 2 == p
    verdict = SOLVABLE if solv else UNSOLVABLE
    return CriterionReport("cox", tuple(hyps), True, verdict, rep)


# ---------------------------------------------------------------------------
# the unit equation

# the coordinate bound of unit_witness's search for n in {1, 3}
_WITNESS_BOX = 8

# the most convergents of sqrt(dn) a witness is built from (5 s for 227,102)
_WITNESS_MAX_CONVERGENTS = 2**15


@lru_cache(maxsize=None)
def unit_witness(d: int, n: int) -> UnitWitness | None:
    """O_F-solution of -1 = alpha^2 + n*beta^2 with F = Q(sqrt(-d)), d > 3.

    x^2 - dn*y^2 = -1 gives alpha = x, beta = y*sqrt(-d); the unit
    equation d*u^2 - n*v^2 = 1 gives alpha = u*sqrt(-d), beta = v.  Both
    are decided exactly off one expansion of sqrt(dn), the first by the
    Pell unit of an odd period (pell_data).  For n not in {1, 3}
    nothing else exists, so None is a proof: w = alpha + beta*sqrt(-n) is
    a unit of relative norm -1 in the CM field E = F(sqrt(-n)), whose
    roots of unity are only +-1, so w/conj(w) = +-1 and w lies in K0 =
    Q(sqrt(dn)) or in sqrt(-d)*K0.
    With alpha, beta in O_F that is w = x + y*sqrt(-d)*sqrt(-n) or
    w = u*sqrt(-d) + v*sqrt(-n), x, y, u, v in Z, of relative norms
    x^2 - dn*y^2 and n*v^2 - d*u^2.  For n in {1, 3}, where E holds i or
    sqrt(-3), a coordinate box is searched too, and None is a bounded
    miss.  Past _WITNESS_MAX_CONVERGENTS it raises UnsupportedFieldError.
    """
    check_field_params(d, n)
    if d <= 3:
        raise ValueError("needs d > 3, got %d" % d)
    F = QuadField(-d)
    P = pell_data(d * n)
    l = len(P.cf.period)
    if l % 2:
        if l > _WITNESS_MAX_CONVERGENTS:
            raise UnsupportedFieldError(_unit_detail(d, n, l - 1))
        x, y = P.half[1]
        return UnitWitness(F(x), F(0, y), n)
    uv = _unit_equation(d, n)
    if type(uv) is int:
        raise UnsupportedFieldError(_unit_detail(d, n, uv))
    if uv is not None:
        return UnitWitness(F(0, uv[0]), F(uv[1]), n)
    if n not in (1, 3):
        return None
    coords = sorted(
        range(-_WITNESS_BOX, _WITNESS_BOX + 1), key=lambda t: (abs(t), t < 0)
    )
    box = [QuadElem(F, (c1, c2)) for c1 in coords for c2 in coords]
    scaled = {}  # n*beta^2 -> the first beta in box order
    for beta in box:
        scaled.setdefault(n * beta**2, beta)
    for alpha in box:
        beta = scaled.get(F(-1) - alpha**2)
        if beta is not None:
            return UnitWitness(alpha, beta, n)
    return None


def _unit_equation(d: int, n: int):
    """The least (u, v) in positive integers with d*u^2 - n*v^2 = 1, or
    None; d, n squarefree, 1 < d != n.  It reads one convergent g_k = h_k +
    q_k*sqrt(dn) of pell_data(dn), of norm N_k (CFExpansion.norms): k = l/2
    - 1 for an even period l, the Pell unit k = l - 1 for an odd one.  N_k
    = d gives (h_k/d, q_k), N_k = -n (q_k, h_k/n); any other N_k proves
    there is no solution.  A match past _WITNESS_MAX_CONVERGENTS is not
    built: k is returned.

    A match solves the equation: d | h_k^2 forces d | h_k, d squarefree,
    and N_k/d = 1; likewise for -n.  A solution gamma = u*sqrt(d) +
    v*sqrt(n) gives h + q*sqrt(dn) = sqrt(d)*gamma of norm d and
    sqrt(n)*gamma of norm -n, coprime pairs; the one of |norm| m = min(d,
    n) < sqrt(dn) is a convergent (Lagrange; Niven, Zuckerman and
    Montgomery, section 7.8).  gamma^2 has norm 1, so it is eta^e, eta the
    least unit of norm 1 of Z[sqrt(dn)].  e = 2j would make gamma = eta^j =
    x + y*sqrt(dn), and the rational parts of gamma^2 = eta^2j give d*u^2 =
    x^2, which squarefree d > 1 forbids.  For e = 2j + 1, gamma*eta^-j =
    (u*x - n*v*y)*sqrt(d) + (v*x - d*u*y)*sqrt(n) is a solution squaring to
    eta, so the least solution gamma_0 has gamma_0^2 = eta.  A match at t
    has g_t = sqrt(|N_t|)*gamma, so f(t) = g_t^2/|N_t| = g_t/|g'_t| is
    gamma^2 = eta^(2j+1); f grows strictly, as g_t grows and |g'_t| falls
    (PellData's x_k > 1), and f(k) = eta (PellData).  So the convergent
    sqrt(m)*gamma_0 is g_k, and a match at t < l, where f(t) <= f(l - 1),
    eta or eta^2, has f(t) = eta and t = k.
    """
    P = pell_data(d * n)
    l = len(P.cf.period)
    k = l - 1 if l % 2 else l // 2 - 1
    N = P.cf.norms[k]
    if N != d and N != -n:
        return None
    if k >= _WITNESS_MAX_CONVERGENTS:
        return k
    h, q = P.half[l % 2]
    u, v = (h // d, q) if N == d else (q, h // n)
    assert d * u * u - n * v * v == 1
    return u, v


def _unit_detail(d: int, n: int, uv) -> str:
    """unit_equation_solvable's detail: (u, v), their bit lengths where one
    has more digits than Python prints, or a witness index past the limit."""
    if uv is None:
        return "no solution, decided from the Pell unit of Z[sqrt(%d)]" % (d * n)
    if type(uv) is int:
        msg = "solvable, not built: the witness is convergent %d of sqrt(%d), past the limit %d"
        return msg % (uv, d * n, _WITNESS_MAX_CONVERGENTS)
    try:
        return "(u, v) = %r" % (uv,)
    except ValueError:
        bits = tuple(x.bit_length() for x in uv)
        return "%d*u^2 - %d*v^2 = 1 with u of %d bits and v of %d bits" % ((d, n) + bits)


# ---------------------------------------------------------------------------
# residue fields of prime elements


def _residue_data(p: QuadElem):
    """(q, deg, r) for the residue field of a prime element p = x + y*w:
    F_q with omega mapping to a root r (deg 1), or F_{q^2} for p an
    associate of an inert rational prime (deg 2, r None).  For N(p) = q,
    q does not divide y (else q | x and q^2 | N(p) = x^2 + c1*x*y - c0*y^2,
    w^2 = c0 + c1*w), and with r = -x/y mod q a root of omega's minimal
    polynomial, (q, w - r) is a prime of norm q holding p = (x + y*r) +
    y*(w - r), so it is (p).  For N(p) = q^2, p is an associate of q
    exactly when q divides x and y."""
    F = p.field
    if not p.is_integral():
        raise ValueError("not an integral element: %r" % (p,))
    x, y = p.u
    nrm = abs(F.norm_form(p.u))
    if is_prime(nrm):
        q = nrm
        r = -x * pow(y, -1, q) % q
        assert poly_eval(F.omega_minpoly(), r) % q == 0 and (x + y * r) % q == 0
        return q, 1, r
    q = isqrt(nrm)
    # an associate of q is prime only when q stays inert
    if q * q == nrm and is_prime(q) and not x % q and not y % q:
        if split_kind(F, q) == "inert":
            return q, 2, None
    raise ValueError("not a prime element: %r" % (p,))


def _prime_field(p: QuadElem, d: int):
    """(F, q, deg, r): F = Q(sqrt(-d)) and _residue_data(p).  The one gate
    for p: ValueError unless p is a prime element of O_F.  (p) meets Z in
    qZ, so p divides a rational integer m exactly when q divides m."""
    F = QuadField(-d)
    if p.field != F:
        raise ValueError("p must live in Q(sqrt(%d))" % -d)
    if p.is_zero():
        raise ValueError("zero is not a prime element")
    if p.abs_norm() == 1 and p.is_integral():
        raise ValueError("a unit is not a prime element")
    return (F,) + _residue_data(p)


def _divides(p: QuadElem, x) -> bool:
    """Does the nonzero integral p divide x in O_F?  x / p = y / N(p) with
    y = x * conj(p): y integral, each coordinate 0 mod N(p)."""
    x = x if isinstance(x, QuadElem) else p.field(x)
    y = x * p.conj()
    nrm = p.field.norm_form(p.u)
    return y.den == 1 and not any(c % nrm for c in y.u)


def _roots_in_residue_field(coeffs, q: int, deg: int, r, F: QuadField) -> bool:
    """Does the polynomial g with these coefficients have a root in
    O_F/pO_F?

    For deg 1 the residue field is F_q and g maps to its image h under
    w -> r.  For deg 2 the residue field is F_(q^2), and h is the norm
    polynomial g*conj(g), which lies in Z[x].  Conjugation induces
    Frobenius on O_F/qO_F, so a root of h in F_(q^2) is a root of g or
    the Frobenius image of one.  Either way g has a root exactly when h
    has one in F_(q^deg), which has_root_mod decides.
    """
    g = [c if isinstance(c, QuadElem) else F(c) for c in coeffs]
    assert all(c.is_integral() for c in g)
    if deg == 1:
        h = [x + y * r for x, y in (c.u for c in g)]
    else:
        h = [F(0)] * (2 * len(g) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(g):
                h[i + j] += a * b.conj()
        assert all(c.is_rational() for c in h)
        h = [c.a for c in h]
    return has_root_mod([int(c) for c in h], q, deg)


def _sqrt_minus_n(F: QuadField, q: int, deg: int, n: int) -> QuadElem | None:
    """Element a + b*w of O_F whose square is -n in the residue field, or
    None; the one with least b, then least a, 0 <= a, b < q.

    When -n is not a square mod q but q is inert, the root lies off F_q:
    with w^2 + c1*w + c0 = 0, (a + b*w)^2 = -n and b != 0 force a =
    c1*b/2 and b^2 = -4n/disc, disc = c1^2 - 4*c0.
    """
    r = sqrt_mod(-n, q)
    if r is not None or deg == 1:
        return None if r is None else F(r)
    c0, c1, _ = F.omega_minpoly()
    b = sqrt_mod(-4 * n * pow(c1 * c1 - 4 * c0, -1, q), q)
    return QuadElem(F, (c1 * b * pow(2, -1, q) % q, b))


# ---------------------------------------------------------------------------
# order-level criteria


def criterion_quadr(p: QuadElem, d: int, n: int, g_n=None) -> CriterionReport:
    """Root test over the order O_F + O_F*sqrt(-n): solvable iff the
    supplied class polynomial g_n has a root in O_F/pO_F.  The polynomial
    is an external input; without it the verdict stays unknown, and so it
    does past unit_witness's limits, where unit_witness_found is
    undecided.  A polynomial or a leading coefficient that vanishes in
    O_F/pO_F raises ValueError."""
    F, q, deg, r = _prime_field(p, d)
    if g_n is not None and all(_divides(p, c) for c in g_n):
        raise ValueError("polynomial vanishes mod p")
    if g_n is not None and _divides(p, poly_trim(g_n)[-1]):
        raise ValueError("leading coefficient vanishes mod p")
    hyps = []

    def check(name, ok, detail=None):
        hyps.append((name, bool(ok), detail))
        return ok

    done = lambda: CriterionReport("quadr", tuple(hyps), False, UNKNOWN)
    if not check("d_exceeds_3", d > 3, "d = %d" % d):
        return done()
    try:
        w = unit_witness(d, n)
    except UnsupportedFieldError as err:
        check("unit_witness_found", False, "undecided: %s" % err)
        return done()
    if not check("unit_witness_found", w is not None):
        return done()
    if not check("p_coprime_to_2n", (2 * n) % q, "2n = %d" % (2 * n)):
        return done()
    if not check(
        "defining_poly_supplied", g_n is not None, "class polynomials are inputs"
    ):
        return done()
    disc = poly_discriminant(g_n)  # an element of O_F when g_n is over O_F
    if not check("p_coprime_to_poly_disc", not _divides(p, disc)):
        return done()
    solv = _roots_in_residue_field(g_n, q, deg, r, F)
    return CriterionReport(
        "quadr", tuple(hyps), True, SOLVABLE if solv else UNSOLVABLE
    )


_BUILTIN_POLY = {(59, 2): (-1, 2, 0, 1)}  # x^3 + 2x - 1


@lru_cache(maxsize=None)
def _poly_disc(f: tuple):
    """poly_discriminant of the coefficients f, once per polynomial."""
    return poly_discriminant(list(f))


def criterion_hilbert(p: QuadElem, d: int, n: int, f=None) -> CriterionReport:
    """Residue test for p = x^2 + n*y^2 over O_F, F = Q(sqrt(-d)): under
    the congruence, unit-equation and class-number hypotheses the verdict
    is exactly "-n is a square in O_F/pO_F", which _sqrt_minus_n decides,
    as represent does; for an inert p it always is, and the root is
    computed rather than asserted.  Past cf_sqrt's limit or the class
    group's cap, unit_equation_solvable or norm_map_injective is
    undecided, and the verdict unknown."""
    check_field_params(d, n)
    F, q, deg, _ = _prime_field(p, d)
    hyps = []

    def check(name, ok, detail=None):
        hyps.append((name, bool(ok), detail))
        return ok

    done = lambda: CriterionReport("hilbert", tuple(hyps), False, UNKNOWN)
    if not check("d_n_coprime", gcd(d, n) == 1):
        return done()
    if not check("d_is_3_mod_4", d % 4 == 3, "d = %d" % d):
        return done()
    if not check("n_is_1_or_2_mod_4", n % 4 in (1, 2), "n = %d" % n):
        return done()
    try:
        uv = _unit_equation(d, n)
    except UnsupportedFieldError as err:
        check("unit_equation_solvable", False, "undecided: %s" % err)
        return done()
    if not check("unit_equation_solvable", uv is not None, _unit_detail(d, n, uv)):
        return done()
    try:
        nm = norm_map_condition(d, n)
    except UnsupportedFieldError as err:
        check("norm_map_injective", False, "undecided: %s" % err)
        return done()
    if not check(
        "norm_map_injective",
        nm.inj_iso,
        "h_F = %d, h_E = %d, odd_equal = %s" % (nm.h_F, nm.h_E, nm.odd_equal),
    ):
        return done()
    if not check("p_coprime_to_2n", (2 * n) % q, "2n = %d" % (2 * n)):
        return done()
    if f is None:
        f = _BUILTIN_POLY.get((d, n))
    if not check(
        "defining_poly_known",
        f is not None,
        "coeffs %r" % (tuple(f),)
        if f is not None
        else "no class field polynomial on record for (%d, %d)" % (d, n),
    ):
        return done()
    fd = _poly_disc(tuple(f))
    if not check("p_coprime_to_poly_disc", fd % q, "disc = %d" % fd):
        return done()
    solv = _sqrt_minus_n(F, q, deg, n) is not None
    return CriterionReport(
        "hilbert", tuple(hyps), True, SOLVABLE if solv else UNSOLVABLE
    )


# ---------------------------------------------------------------------------
# representation solver over O_F


def _prime_above(
    E: BiquadField, F: QuadField, q: int, deg: int, r, root: QuadElem
) -> IntModule:
    """The prime P of O_E above the prime element p of O_F, F = Q(sqrt(-d)),
    with _residue_data (q, deg, r): the kernel of the ring map O_E -> O_F/p,
    t = sqrt(-n) -> root, onto a field of q^deg elements.  It is a ring map
    as root^2 + n lies in p, and P = p*O_E + (root - t)*O_E, as O_E = O_F
    + O_F*t.  Over {1, w, t, w*t} its rows are already the canonical HNF:
    the HNF rows of p*O_F, then t - root and w*t - w*root with root and
    w*root reduced mod p, to an integer through w -> r for deg 1."""
    assert E.relative_order_rows == _IDENTITY4
    c0, c1 = F.mult_table[1][1]
    a, b = root.u
    wa, wb = c0 * b, a + c1 * b  # w*root
    if deg == 1:
        a, b, wa, wb = a + b * r, 0, wa + wb * r, 0
    assert (a * a + b * wa + E.n) % q == 0 and (a + wb) * b % q == 0
    top = ((q, 0, 0, 0), (-r % q, 1, 0, 0)) if deg == 1 else ((q, 0, 0, 0), (0, q, 0, 0))
    return IntModule(E, top + ((-a % q, -b % q, 1, 0), (-wa % q, -wb % q, 0, 1)), 1)


def _split_relative(alpha: BiquadElem, F: QuadField) -> tuple[QuadElem, QuadElem]:
    """alpha = x + y*sqrt(-n) with x, y in F = Q(sqrt(-d)), over the basis
    {1, w, sqrt(-n), w*sqrt(-n)} of the fields _prime_above searches."""
    u0, u1, u2, u3 = alpha.u
    return QuadElem(F, (u0, u1), alpha.den), QuadElem(F, (u2, u3), alpha.den)


def represent(p: QuadElem, d: int, n: int):
    """(x, y) in O_F^2 with p = x^2 + n*y^2, exactly verified.

    None is a proof.  A pair gives beta = x + y*sqrt(-n) of relative norm
    p, a generator of the prime P above p that the root of -n gives or of
    its conjugate.  So None follows when -n is not a square in the residue
    field, when P has no generator (a genus character of E at q^deg, or
    the exhaustive enumeration, proves it: find_generator), and
    when the generator alpha has relative norm -p and no unit of O_E = O_F
    + O_F*sqrt(-n) has relative norm -1, which unit_witness's None proves
    for d > 3 and n not in {1, 3}: the generators of P and its conjugate
    are the unit multiples of alpha and conj(alpha) (see "What None
    means" in docs/generator-search.md).  UNRESOLVED is an honest shrug,
    never a wrong answer: the generator has relative norm -p and that
    proof does not apply, or its relative norm is p times a unit other
    than +-1.
    """
    check_field_params(d, n)
    F, q, deg, r = _prime_field(p, d)
    if (2 * n) % q == 0:
        raise ValueError("p divides 2n")
    root = _sqrt_minus_n(F, q, deg, n)
    if root is None:
        return None
    P = _prime_above(integral_basis(d, n), F, q, deg, r, root)
    alpha = find_generator(P, q**deg)
    if alpha is None:
        return None  # the ideal is not principal, so no pair exists
    x, y = _split_relative(alpha, F)
    nu = x**2 + n * y**2
    if nu == -p:
        w = unit_witness(d, n) if d > 3 else None
        if w is None:
            return None if d > 3 and n not in (1, 3) else UNRESOLVED
        x, y = w.alpha * x - n * w.beta * y, w.alpha * y + w.beta * x
    elif nu != p:
        return UNRESOLVED  # unit beyond +-1, outside this solver's remit
    assert verify_identity(p, x, y, n)
    return x, y


def verify_identity(p, x, y, n: int) -> bool:
    """Exact check of p = x^2 + n*y^2, lifting integers as needed."""
    field = next(
        (e.field for e in (p, x, y) if isinstance(e, QuadElem)), None
    )
    if field is None:
        return p == x * x + n * y * y
    p, x, y = (e if isinstance(e, QuadElem) else field(e) for e in (p, x, y))
    return p == x**2 + n * y**2


# ---------------------------------------------------------------------------
# sweep support


def prime_elements(F: QuadField, bound: int) -> list[QuadElem]:
    """Prime elements of O_F with absolute norm <= bound, one generator per
    prime ideal that has one: inert rational primes enter once, split
    principal primes enter with both conjugates, ramified ones once."""
    out = []
    q = 2
    while q <= bound:
        if is_prime(q):
            s = split_prime(F, q)
            if s.kind == "inert":
                if q * q <= bound:
                    out.append(F(q))
            elif s.pi is not None:
                out.append(s.pi)
                if s.kind == "split":
                    out.append(s.pibar)
        q += 1
    return out
