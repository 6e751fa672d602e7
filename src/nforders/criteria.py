"""Solvability criteria and solvers for p = x^2 + n*y^2.

The rational-integer story (Cornacchia descent plus a polynomial root test)
sits next to its order-level analogue: a prime element p of Q(sqrt(-d)) is
tested in its actual residue field, and a positive verdict is made
constructive by digging a generator out of a rank-4 ideal lattice and
normalizing the sign through the unit identity -1 = alpha^2 + n*beta^2.
Each criterion returns a report listing every hypothesis it checked, so an
inapplicable case never masquerades as a negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .biquadratic import (
    BiquadElem,
    BiquadField,
    check_field_params,
    ideal_of_elements,
    integral_basis,
)
from .intmath import (
    is_prime,
    jacobi,
    poly_discriminant,
    poly_roots_mod,
    polp_factor,
    polp_trim,
    sqrt_mod,
)
from .lattice import find_generator
from .orders import relative_order
from .quadratic import QuadElem, QuadField, from_integral_coords, pell_solve, split_prime

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


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    hypotheses: tuple  # (name, passed, detail) triples, in evaluation order
    applicable: bool
    verdict: str
    representation: tuple | None = None

    def __post_init__(self):
        assert self.verdict in (SOLVABLE, UNSOLVABLE, UNKNOWN)
        if not self.applicable:
            assert self.verdict == UNKNOWN
        if self.representation is not None:
            assert self.verdict == SOLVABLE


@dataclass(frozen=True)
class UnitWitness:
    alpha: QuadElem
    beta: QuadElem
    n: int

    def __post_init__(self):
        F = self.alpha.field
        assert self.alpha**2 + self.n * self.beta**2 == F(-1)


# ---------------------------------------------------------------------------
# rational level


def cornacchia(p: int, n: int) -> tuple[int, int] | None:
    """Solve x^2 + n*y^2 = p over Z, x > 0, y >= 0, or prove there is
    nothing: take a square root of -n mod p and run the Euclidean descent
    until the remainder drops under sqrt(p)."""
    if p == 2 or not is_prime(p):
        raise ValueError("cornacchia needs an odd prime, got %d" % p)
    if n <= 0:
        raise ValueError("n must be positive")
    if n % p == 0:
        raise ValueError("p divides n")
    if jacobi(-n % p, p) != 1:
        return None
    r = p - sqrt_mod(-n, p)  # the larger square root of -n
    a, b = p, r
    bound = isqrt(p)
    while b > bound:
        a, b = b, a % b
    x = b
    rest, rem = divmod(p - x * x, n)
    if rem:
        return None
    y = isqrt(rest)
    if y * y != rest:
        return None
    assert x > 0 and y >= 0 and x * x + n * y * y == p
    return x, y


def cox_criterion(p: int, n: int, f_n, solve: bool = False) -> CriterionReport:
    """Root test for p = x^2 + n*y^2 over Z: p is representable iff -n is a
    residue mod p and the supplied class polynomial has a root mod p.  With
    solve=True a positive verdict is cross-checked against cornacchia and
    the found pair is attached."""
    if p == 2 or not is_prime(p):
        raise ValueError("needs an odd prime, got %d" % p)
    f_n = [int(c) for c in f_n]
    hyps = [("p_coprime_to_n", n % p != 0, "n = %d" % n)]
    if hyps[0][1]:
        d = poly_discriminant(f_n)
        hyps.append(("p_coprime_to_poly_disc", d % p != 0, "disc = %d" % d))
    if not all(h[1] for h in hyps):
        return CriterionReport("cox", tuple(hyps), False, UNKNOWN)
    solv = jacobi(-n % p, p) == 1 and poly_roots_mod(f_n, p) != []
    rep = None
    if solv and solve:
        rep = cornacchia(p, n)
        if rep is not None:
            assert rep[0] ** 2 + n * rep[1] ** 2 == p
    verdict = SOLVABLE if solv else UNSOLVABLE
    return CriterionReport("cox", tuple(hyps), True, verdict, rep)


# ---------------------------------------------------------------------------
# the unit equation

# the coordinate bound of unit_witness's last-resort search
_WITNESS_BOX = 8


def unit_witness(d: int, n: int) -> UnitWitness | None:
    """O_F-solution of -1 = alpha^2 + n*beta^2 with F = Q(sqrt(-d)).

    x^2 - dn*y^2 = -1 gives a rational alpha; the unit equation
    d*u^2 - n*v^2 = 1 gives alpha = u*sqrt(-d); a small coordinate box
    catches anything else.  None is a bounded miss, not a proof.
    """
    check_field_params(d, n)
    if d <= 3:
        raise ValueError("needs d > 3, got %d" % d)
    F = QuadField(-d)
    r = pell_solve(d * n, -1)
    if r.solution is not None:
        return UnitWitness(F(r.solution.x), F(0, r.solution.y), n)
    uv = _unit_equation(d, n)
    if uv is not None:
        return UnitWitness(F(0, uv[0]), F(uv[1]), n)
    coords = sorted(
        range(-_WITNESS_BOX, _WITNESS_BOX + 1), key=lambda t: (abs(t), t < 0)
    )
    target = F(-1)
    squares = [
        (from_integral_coords(F, b1, b2), from_integral_coords(F, b1, b2) ** 2)
        for b1 in coords
        for b2 in coords
    ]
    for a1 in coords:
        for a2 in coords:
            want = target - from_integral_coords(F, a1, a2) ** 2
            for beta, b2 in squares:
                if n * b2 == want:
                    return UnitWitness(from_integral_coords(F, a1, a2), beta, n)
    return None


# ---------------------------------------------------------------------------
# residue fields of prime elements


def _residue_data(p: QuadElem):
    """(q, deg) for the residue field of a prime element: F_q with omega
    mapping to a root r (deg 1), or F_{q^2} for p an associate of an inert
    rational prime (deg 2, r None)."""
    F = p.field
    nrm = p.abs_norm()
    if nrm.denominator != 1:
        raise ValueError("not an integral element: %r" % (p,))
    nrm = int(nrm)
    if is_prime(nrm):
        q = nrm
        for r in poly_roots_mod(F.omega_minpoly(), q):
            if ((F.omega() - r) / p).is_integral():
                return q, 1, r
        raise AssertionError("norm-q element outside every ideal above q")
    q = isqrt(nrm)
    if q * q == nrm and is_prime(q):
        if (p / F(q)).is_integral() and (F(q) / p).is_integral():
            # an associate of q is prime only when q stays inert
            if split_prime(F, q).kind == "inert":
                return q, 2, None
    raise ValueError("not a prime element: %r" % (p,))


def _prime_field(p: QuadElem, d: int) -> QuadField:
    """Q(sqrt(-d)), once p is checked to be an element of it that is
    neither zero nor a unit."""
    F = QuadField(-d)
    if p.field != F:
        raise ValueError("p must live in Q(sqrt(%d))" % -d)
    if p.is_zero():
        raise ValueError("zero is not a prime element")
    if p.abs_norm() == 1 and p.is_integral():
        raise ValueError("a unit is not a prime element")
    return F


def _divides(p: QuadElem, x) -> bool:
    x = x if isinstance(x, QuadElem) else p.field(x)
    return (x / p).is_integral()


def _roots_in_residue_field(coeffs, q: int, deg: int, r, F: QuadField) -> bool:
    """Does the polynomial g with these coefficients have a root in
    O_F/pO_F?

    For deg 1 the residue field is F_q and g maps to its image h under
    w -> r.  For deg 2 the residue field is F_(q^2), and h is the norm
    polynomial g*conj(g), which lies in Z[x].  Conjugation induces
    Frobenius on O_F/qO_F, so a root of h in F_(q^2) is a root of g or
    the Frobenius image of one.  Either way g has a root exactly when h
    vanishes mod q or has an irreducible factor whose degree divides deg.
    """
    g = [c if isinstance(c, QuadElem) else F(c) for c in coeffs]
    assert all(c.is_integral() for c in g)
    if deg == 1:
        h = [x + y * r for x, y in (c.integral_coords() for c in g)]
    else:
        h = [F(0)] * (2 * len(g) - 1)
        for i, a in enumerate(g):
            for j, b in enumerate(g):
                h[i + j] += a * b.conj()
        assert all(c.is_rational() for c in h)
        h = [c.a for c in h]
    h = polp_trim([int(c) for c in h], q)
    return not h or any(deg % (len(f) - 1) == 0 for f, _ in polp_factor(h, q))


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
    return from_integral_coords(F, c1 * b * pow(2, -1, q) % q, b)


# ---------------------------------------------------------------------------
# order-level criteria


def criterion_quadr(p: QuadElem, d: int, n: int, g_n=None) -> CriterionReport:
    """Root test over the order O_F + O_F*sqrt(-n): solvable iff the
    supplied class polynomial g_n has a root in O_F/pO_F.  The polynomial
    is an external input; without it the verdict stays unknown."""
    F = _prime_field(p, d)
    hyps = []

    def check(name, ok, detail=None):
        hyps.append((name, bool(ok), detail))
        return ok

    done = lambda: CriterionReport("quadr", tuple(hyps), False, UNKNOWN)
    if not check("d_exceeds_3", d > 3, "d = %d" % d):
        return done()
    w = unit_witness(d, n)
    if not check("unit_witness_found", w is not None):
        return done()
    if not check("p_coprime_to_2n", not _divides(p, 2 * n), "2n = %d" % (2 * n)):
        return done()
    if not check(
        "defining_poly_supplied", g_n is not None, "class polynomials are inputs"
    ):
        return done()
    disc = poly_discriminant(g_n)
    if not check("p_coprime_to_poly_disc", not _divides(p, disc)):
        return done()
    q, deg, r = _residue_data(p)
    solv = _roots_in_residue_field(g_n, q, deg, r, F)
    return CriterionReport(
        "quadr", tuple(hyps), True, SOLVABLE if solv else UNSOLVABLE
    )


_BUILTIN_POLY = {(59, 2): (-1, 2, 0, 1)}  # x^3 + 2x - 1


def criterion_hilbert(p: QuadElem, d: int, n: int, f=None) -> CriterionReport:
    """Residue test for p = x^2 + n*y^2 over O_F, F = Q(sqrt(-d)): under
    the congruence, unit-equation and class-number hypotheses the verdict
    is exactly "-n is a square in O_F/pO_F".  For an inert p that square
    test runs in the degree-2 residue field, where it always passes; the
    computation is done rather than asserted."""
    from .biquadratic import norm_map_condition

    _prime_field(p, d)
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
    uv = _unit_equation(d, n)
    if not check(
        "unit_equation_solvable",
        uv is not None,
        "(u, v) = %r" % (uv,) if uv else "bounded search missed; not exhaustive",
    ):
        return done()
    nm = norm_map_condition(d, n)
    if not check(
        "norm_map_injective",
        nm.inj_iso,
        "h_F = %d, h_E = %d, odd_equal = %s" % (nm.h_F, nm.h_E, nm.odd_equal),
    ):
        return done()
    if not check("p_coprime_to_2n", not _divides(p, 2 * n), "2n = %d" % (2 * n)):
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
    fd = poly_discriminant(f)
    if not check("p_coprime_to_poly_disc", not _divides(p, fd), "disc = %d" % fd):
        return done()
    q, deg, _ = _residue_data(p)
    if deg == 1:
        solv = jacobi(-n % q, q) == 1
    else:
        # every prime-field element is a square in F_{q^2}; compute it
        solv = pow(-n % q, (q * q - 1) // 2, q) == 1
    return CriterionReport(
        "hilbert", tuple(hyps), True, SOLVABLE if solv else UNSOLVABLE
    )


def _unit_equation(d: int, n: int):
    """(u, v) with d*u^2 - n*v^2 = 1, via x^2 - dn*y^2 = d, or None."""
    r = pell_solve(d * n, d)
    if r.solution is None or r.solution.x % d:
        return None
    u, v = r.solution.x // d, r.solution.y
    assert d * u * u - n * v * v == 1
    return u, v


# ---------------------------------------------------------------------------
# representation solver over O_F


def _embed_F(E: BiquadField, x: QuadElem) -> BiquadElem:
    # Q(sqrt(-d)) sits on the first two naive coordinates
    assert x.field.D == -E.d
    return E.from_naive((x.a, x.b, 0, 0))


def _split_relative(alpha: BiquadElem) -> tuple[QuadElem, QuadElem]:
    """alpha = x + y*sqrt(-n) with x, y in Q(sqrt(-d))."""
    F = QuadField(-alpha.field.d)
    c0, c1, c2, c3 = alpha.naive()
    # sqrt(d*n) = -sqrt(-d)*sqrt(-n), so the last slot feeds y negatively
    return QuadElem(F, c0, c1), QuadElem(F, c2, -c3)


def represent(p: QuadElem, d: int, n: int):
    """(x, y) in O_F^2 with p = x^2 + n*y^2, exactly verified.

    None is a proof of impossibility: either -n is not a square in the
    residue field, or the ideal above p has no generator of the right norm
    (the enumeration is exhaustive).  UNRESOLVED is an honest shrug from
    the sign-normalization step, never a wrong answer.
    """
    check_field_params(d, n)
    F = _prime_field(p, d)
    if _divides(p, 2 * n):
        raise ValueError("p divides 2n")
    q, deg, _ = _residue_data(p)
    root = _sqrt_minus_n(F, q, deg, n)
    if root is None:
        return None
    E = integral_basis(d, n)
    # the prime of O_E above p: p*O_E + (root - sqrt(-n))*O_E
    mod = ideal_of_elements(E, (_embed_F(E, p), _embed_F(E, root) - E.gens()[1]))
    o = relative_order(E)
    if o.module.den != 1 or o.module.rows != tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    ):
        mod = mod.intersect(o.module)
    nrm = mod.covolume()
    assert nrm == q**deg
    alpha = find_generator(mod, nrm)
    if alpha is None:
        return None  # the ideal is not principal, so no pair exists
    x, y = _split_relative(alpha)
    nu = x**2 + n * y**2
    if nu == -p:
        w = unit_witness(d, n)
        if w is None:
            return UNRESOLVED
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
