"""Exact lattice algorithms on rank-2 and rank-4 modules in number fields.

Modules are Z-lattices given by integer basis rows over a common denominator,
kept in a canonical Hermite normal form: row i has its pivot on the diagonal,
zeros to the right of it, pivots positive, and the entries below each pivot
reduced modulo the pivot.  All reductions, enumerations and generator
searches run in exact integer/rational arithmetic; square roots only ever
enter as explicit rational upper/lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, starmap
from math import gcd, isqrt, lcm
from operator import mul

from .intmath import sqrt_lb, sqrt_ub, xgcd
from .quadratic import (
    CFExpansion,
    cf_convergents,
    cf_sqrt,
    integer_coords,
    pell_solve,
)


class UnsupportedFieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer row HNF


def _echelon(A: list[list[int]], ncols: int) -> int:
    """Bring the integer rows A, in place, to row echelon form on their
    first ncols columns, pivots left to right and positive; returns the
    number r of pivot rows.  The rows from r on are zero on those columns.

    Each pair (pivot row P, row R below it) takes one unimodular step
    (Cohen, section 2.4): with g = s*a + t*b = gcd(a, b) of their entries
    in the pivot column, P <- s*P + t*R and R <- (b/g)*P - (a/g)*R, which
    clears R's entry.  A pivot dividing the entry takes a plain
    subtraction instead."""
    m = len(A)
    row = 0
    for col in range(ncols):
        if row == m:
            break
        piv = next((i for i in range(row, m) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        P = A[row]
        for i in range(row + 1, m):
            R = A[i]
            b = R[col]
            if not b:
                continue
            a = P[col]
            if b % a == 0:
                q = b // a
                A[i] = [y - q * x for x, y in zip(P, R)]
                continue
            g, s, t = xgcd(a, b)
            ag, bg = a // g, b // g
            P, A[i] = (
                [s * x + t * y for x, y in zip(P, R)],
                [bg * x - ag * y for x, y in zip(P, R)],
            )
        if P[col] < 0:
            P = [-x for x in P]
        A[row] = P
        row += 1
    return row


def _hnf_upper(rows) -> list[list[int]]:
    """Row echelon HNF, pivots left to right; zero rows dropped at the end."""
    A = [list(r) for r in rows]
    if not A:
        return A
    A = A[: _echelon(A, len(A[0]))]
    # reduce entries above each pivot
    pivots = [next(j for j, x in enumerate(r) if x) for r in A]
    for i, pc in enumerate(pivots):
        p = A[i][pc]
        for k in range(i):
            q = A[k][pc] // p
            if q:
                A[k] = [a - q * b for a, b in zip(A[k], A[i])]
    return A


def hnf_matrix(rows) -> list[list[int]]:
    """Canonical HNF with pivots on the diagonal and zeros above-right.

    Columns are processed right to left, so for a full-rank square input the
    result is lower triangular with reduced entries below each pivot; this is
    the shape all modules in this package are stored in.
    """
    rev = [list(r)[::-1] for r in rows]
    H = _hnf_upper(rev)
    return [r[::-1] for r in reversed(H)]


def kernel_int(rows) -> list[list[int]]:
    """Saturated basis of the left kernel {x integer : x*rows = 0}: the
    identity parts of the rows of [rows | I], echelonised on the rows
    columns only, whose rows part is zero.  The identity parts of all rows
    form a unimodular matrix and the pivot rows are independent, so those
    rows span every integer kernel vector."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    return [h[n:] for h in A[_echelon(A, n) :]]


def _in_lattice(H, w) -> bool:
    """Is the integer vector w in the row span of the full-rank lower
    triangular rows H?  Integer back-substitution: column i meets only
    rows i, ..., n-1, so from the last column down each coefficient is
    w[i] / H[i][i], which must be exact."""
    w = list(w)
    for i in range(len(H) - 1, -1, -1):
        Hi = H[i]
        q, r = divmod(w[i], Hi[i])
        if r:
            return False
        if q:
            for j in range(i):
                w[j] -= q * Hi[j]
    return True


def _is_canonical(H) -> bool:
    """Is the square integer matrix H in the canonical HNF hnf_matrix
    returns: lower triangular, positive pivots on the diagonal, and the
    entries below each pivot in [0, pivot)?"""
    n = len(H)
    if any(len(row) != n for row in H):
        return False
    for i, row in enumerate(H):
        p = row[i]
        if p <= 0 or any(row[i + 1 :]):
            return False
        if not all(0 <= H[k][i] < p for k in range(i + 1, n)):
            return False
    return True


def _times(rows, M, scale: int = 1) -> list:
    """The integer rows times the integer matrix M, times scale."""
    cols = list(zip(*M))
    return [tuple([scale * sum(map(mul, r, c)) for c in cols]) for r in rows]


def _scaled_matrix(rows):
    """(L, L*rows) for a matrix of ints and Fractions, L the lcm of the
    entries' denominators, so that L*rows is an integer matrix."""
    L = 1
    for row in rows:
        for x in row:
            L = lcm(L, x.denominator)
    return L, [[x.numerator * (L // x.denominator) for x in row] for row in rows]


def _det_int(rows) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination: every division is exact, and a zero pivot is replaced by
    a row swap from below (the determinant is 0 when there is none)."""
    A = [list(r) for r in rows]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        Ak = A[k]
        if Ak[k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k]), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            Ak = A[k]
            sign = -sign
        akk = Ak[k]
        for Ai in A[k + 1 :]:
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (akk * Ai[j] - aik * Ak[j]) // prev
        prev = akk
    return sign * A[n - 1][n - 1] if n else 1


def adjugate_int(M) -> list[list[int]]:
    """adj(M) of a square integer matrix, so that M adj(M) = det(M) I:
    entry (j, i) is the signed (i, j) cofactor."""
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        minor_rows = M[:i] + M[i + 1 :]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in minor_rows]
            adj[j][i] = (-1) ** (i + j) * _det_int(minor)
    return adj


def smith_normal_form(rows) -> list[int]:
    """Invariant factors d1 | d2 | ... of the integer row lattice, by
    elimination (Cohen, Algorithm 2.4.14) on its HNF.

    Each step takes a block B whose rows are independent and moves a
    nonzero column of it first.  _echelon's gcd steps then clear column 0
    below the pivot, on the rows, and row 0 right of it, on the rows of the
    transpose, in turn until both are clear.  If the pivot fails to divide
    an entry of the rest of B, that entry's row is added to row 0 and the
    clearing repeats; the pivot then falls to a proper divisor, so the loop
    ends.  The pivot is the next factor, and the rest of B the next block.
    Rank-deficient input returns fewer factors than columns."""
    B = hnf_matrix(rows)
    out = []
    while B:
        j = next(j for j in range(len(B[0])) if any(row[j] for row in B))
        for row in B:
            row[0], row[j] = row[j], row[0]
        while True:
            _echelon(B, 1)
            if not any(B[0][1:]):
                p = B[0][0]
                bad = next((r for r in B[1:] if any(x % p for x in r[1:])), None)
                if bad is None:
                    break
                B[0] = [x + y for x, y in zip(B[0], bad)]
            Bt = [list(c) for c in zip(*B)]
            _echelon(Bt, 1)
            B = [list(r) for r in zip(*Bt)]
        out.append(B[0][0])
        B = [row[1:] for row in B[1:]]
    return out


# ---------------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class IntModule:
    """(1/den) times the row span of `rows`, in ambient integral-basis
    coordinates.  Construction canonicalizes, so equal modules compare equal."""

    ambient: object
    rows: tuple
    den: int

    def __post_init__(self):
        rows = [list(map(int, r)) for r in self.rows]
        den = int(self.den)
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            den = -den
        H = rows if _is_canonical(rows) else hnf_matrix(rows)
        r = getattr(self.ambient, "degree", None) or len(H)
        if len(H) != r:
            raise ValueError("module is not full rank")
        g = den
        for row in H:
            for x in row:
                g = gcd(g, x)
        H = [[x // g for x in row] for row in H]
        den //= g
        object.__setattr__(self, "rows", tuple(tuple(r) for r in H))
        object.__setattr__(self, "den", den)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def covolume(self) -> Fraction:
        det = 1
        for i in range(self.rank):
            det *= self.rows[i][i]
        return Fraction(det, self.den**self.rank)

    def contains_coords(self, coords) -> bool:
        """Membership of the ambient element with the given rational
        integral-basis coordinates u / den_u: is u * den = x * rows * den_u
        for an integer x?  Decided on integers: den_u must divide
        u * den, and the quotient must be in the row span."""
        u, den_u = integer_coords(list(coords))
        return self._contains_int(u, den_u)

    def contains_module(self, other: "IntModule") -> bool:
        return all(self._contains_int(row, other.den) for row in other.rows)

    def _contains_int(self, u, den_u: int) -> bool:
        w = [c * self.den for c in u]
        if any(c % den_u for c in w):
            return False
        return _in_lattice(self.rows, [c // den_u for c in w])

    def add(self, other: "IntModule") -> "IntModule":
        L = lcm(self.den, other.den)
        rows = [[c * (L // self.den) for c in r] for r in self.rows] + [
            [c * (L // other.den) for c in r] for r in other.rows
        ]
        return IntModule(self.ambient, tuple(map(tuple, rows)), L)

    def intersect(self, other: "IntModule") -> "IntModule":
        L = lcm(self.den, other.den)
        B1 = [[c * (L // self.den) for c in r] for r in self.rows]
        B2 = [[c * (L // other.den) for c in r] for r in other.rows]
        stacked = B1 + [[-c for c in r] for r in B2]
        r = self.rank
        ker = [vec[:r] for vec in kernel_int(stacked)]
        return IntModule(self.ambient, tuple(_times(ker, B1)), L)

    def transform(self, M) -> "IntModule":
        """Module spanned by the images row*M of the basis rows, with M a
        rational matrix acting on integral-basis coordinates."""
        d, Md = _scaled_matrix(M)
        return IntModule(self.ambient, tuple(_times(self.rows, Md)), self.den * d)

    def index_in(self, other: "IntModule") -> Fraction:
        """[other : self] as a positive rational (integer iff self <= other)."""
        return self.covolume() / other.covolume()


def hnf(ambient, rows, den: int = 1) -> IntModule:
    return IntModule(ambient, tuple(tuple(int(x) for x in r) for r in rows), den)


def identity_module(ambient) -> IntModule:
    r = ambient.degree
    rows = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    return IntModule(ambient, rows, 1)


# ---------------------------------------------------------------------------
# exact LLL


@dataclass(frozen=True)
class LatticeBasis:
    """A not-necessarily-HNF basis (LLL output keeps the reduced order).
    `gso` is the integral Gram-Schmidt data (d, lam) of the rows under the
    integer form LLL ran on (see _integral_gso)."""

    ambient: object
    rows: tuple
    den: int
    gso: tuple = dc_field(compare=False)


def _basis_gram(rows, g):
    """Integer Gram matrix rows * g * rows^t of integer basis rows."""
    return _times(_times(rows, g), tuple(zip(*rows)))


def _integral_gso(G):
    """Integral Gram-Schmidt data of an integer Gram matrix G (Cohen,
    Alg. 2.6.7, step 2): d[0] = 1, d[i] the i-th leading principal minor,
    and lam[i][j] = d[j+1] * mu[i][j] for j < i, all integers.  Then
    |b_i*|^2 = d[i+1] / d[i].  Raises ValueError unless every d[i] > 0."""
    n = len(G)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        li = lam[i]
        for j in range(i + 1):
            lj = lam[j]
            u = G[i][j]
            for l in range(j):
                u = (d[l + 1] * u - li[l] * lj[l]) // d[l]
            if j < i:
                li[j] = u
            elif u <= 0:
                raise ValueError("Gram form must be positive definite")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(m, g: tuple, delta: Fraction = Fraction(3, 4)) -> LatticeBasis:
    """LLL reduction of the module's basis under the integer Gram matrix g
    (a tuple of int rows), delta in (1/4, 1], default 3/4.

    This is Cohen's integral LLL (A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): the Gram-Schmidt data d[i] and
    lam[k][j] = d[j+1]*mu[k][j] are integers, updated in place on each
    size reduction and swap.  It makes the same decisions in the same
    order as LLL on exact rational Gram-Schmidt data: row k is
    size-reduced against j = k-1, ..., 0 with q = floor(mu[k][j] + 1/2)
    before the Lovasz test, so the reduced basis is the rational one.
    Raises ValueError on a non-int entry of g, which the exact floors
    would otherwise round."""
    if not all(isinstance(x, int) for row in g for x in row):
        raise ValueError("Gram form must have int entries")
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta <= 1:
        raise ValueError("delta must satisfy 1/4 < delta <= 1")
    dnum, dden = delta.numerator, delta.denominator
    basis = [list(r) for r in m.rows]
    n = len(basis)
    d, lam = _integral_gso(_basis_gram(basis, g))
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lk[j] + dj) // (2 * dj)
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                lk[j] -= q * dj
                lj = lam[j]
                for l in range(j):
                    lk[l] -= q * lj[l]
        la = lk[k - 1]
        if dden * d[k + 1] * d[k - 1] >= dnum * d[k] * d[k] - dden * la * la:
            k += 1
            continue
        # swap rows k-1 and k (Cohen's SWAPI)
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        lp = lam[k - 1]
        for j in range(k - 1):
            lk[j], lp[j] = lp[j], lk[j]
        bk = (d[k - 1] * d[k + 1] + la * la) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - la * t) // d[k]
            li[k - 1] = (bk * t + la * li[k]) // d[k + 1]
        d[k] = bk
        k = max(k - 1, 1)
    # d and lam were kept exact through every step: they are the data of
    # the reduced rows
    return LatticeBasis(m.ambient, tuple(map(tuple, basis)), m.den, (d, lam))


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration


def enumerate_by_t2(m, g: tuple, bound) -> list:
    """All nonzero lattice vectors v = u/den of the module with
    v g v^t <= bound, g an integer Gram matrix and den the module's
    denominator, one of each +-pair, as the integer numerator tuples u.
    Sorted by (u g u^t, u); complete by exact pruning.

    The search runs on integers: with A the Gram matrix of the reduced rows
    under g and d, lam its integral Gram-Schmidt data,
    x A x^t = sum_i y_i^2 / (d[i] d[i+1]) with y_i = d[i+1] x_i +
    sum_{j>i} lam[j][i] x_j, and the point u = x*rows is in the ball when
    x A x^t <= bound * den^2; lll_reduce hands over d and lam.  The
    remaining budget is kept as an integer over one common denominator, so
    each level's range of x_i is exact and each point's form value falls
    out of the descent.  The descent visits one x of each pair x, -x: at
    a level where every higher x_j is 0, it takes x_i >= 0 only."""
    bound = Fraction(bound)
    if bound <= 0:
        return []
    red = lll_reduce(m, g)
    rows = red.rows
    n = len(rows)
    den = red.den
    d, lam = red.gso
    budget = bound * (den * den)
    # scale: a common denominator of the budget and of every level's
    # weight 1 / (d[i] d[i+1])
    P = 1
    for i in range(n):
        P = lcm(P, d[i] * d[i + 1])
    scale = P * budget.denominator
    c = [scale // (d[i] * d[i + 1]) for i in range(n)]
    total = budget.numerator * P
    cols = list(zip(*rows))
    seen = {}
    x = [0] * n

    def descend(i, rem, top):
        # rem: remaining budget at level i, in units of 1 / scale; top: every
        # x_j above level i is 0
        if i < 0:
            vec = [sum(map(mul, x, col)) for col in cols]
            for v in vec:
                if v:
                    if v < 0:
                        vec = [-y for y in vec]
                    break
            seen[tuple(vec)] = total - rem
            return
        D = d[i + 1]
        S = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        s = isqrt(rem // c[i])
        # x and -x give one point: below an all-zero top, take x_i >= 0
        lo = 0 if top else -((s + S) // D)
        for xi in range(lo, (s - S) // D + 1):
            y = D * xi + S
            x[i] = xi
            descend(i - 1, rem - c[i] * y * y, top and not xi)
        x[i] = 0

    descend(n - 1, total, True)
    seen.pop((0,) * len(cols), None)
    return sorted(seen, key=lambda u: (seen[u], u))


# ---------------------------------------------------------------------------
# principal-ideal generator search


def _canonical_pick(module, cands, g: tuple):
    """The candidate of least (u g u^t, u) as a field element u/den, None
    when there is none; the candidates are points u enumerate_by_t2
    returned for the module, so each has its first nonzero coordinate
    positive.  All share the module's den > 0, so this is the order of
    (g(v), v) on the points v = u/den."""
    if not cands:
        return None
    best = min(
        cands, key=lambda u: (sum(a * sum(map(mul, row, u)) for a, row in zip(u, g)), u)
    )
    return module.ambient.from_basis_coords([Fraction(c, module.den) for c in best])


def _pair_coeffs(g) -> tuple:
    """The form u g u^t of a symmetric integer matrix g as its coefficients
    on the products u_i u_j, i <= j, listed in the order of
    combinations_with_replacement (see _pair_products)."""
    return tuple(
        g[i][j] * (1 if i == j else 2)
        for i, j in combinations_with_replacement(range(len(g)), 2)
    )


def _pair_products(u) -> list:
    """The products u_i u_j, i <= j, in the order of _pair_coeffs."""
    return list(starmap(mul, combinations_with_replacement(u, 2)))


def _norm_filter(module, norm: Fraction):
    """Predicate on the points u enumerate_by_t2 returns for the module:
    |N(u/den)| == norm, den the module's denominator.  The norm is read
    exactly off integer quadratic forms in u: T2 = 2|N| in an imaginary
    quadratic field, so u G u^t == 2 norm den^2 with G the T2 Gram; in a
    quartic field 4 D0 t^2 - c^2 = 64 D0 N(u) for t = u G u^t and
    c = u C u^t (BiquadField.norm_forms)."""
    field = module.ambient
    den = module.den
    if field.degree == 2:
        g = _pair_coeffs(field.t2_gram_matrix())
        target = 2 * norm * den**2

        def keep(u) -> bool:
            return sum(map(mul, g, _pair_products(u))) == target

        return keep
    D0, _, G, C = field.norm_forms
    gq, cq = _pair_coeffs(G), _pair_coeffs(C)
    target = 64 * D0 * norm * den**4

    def keep(u) -> bool:
        m = _pair_products(u)
        t = sum(map(mul, gq, m))
        c = sum(map(mul, cq, m))
        return 4 * D0 * t * t - c * c == target

    return keep


# the largest power of the fundamental unit _unit_ladder tries
_LADDER_MAX_POWER = 64


@dataclass(frozen=True)
class LadderData:
    """What the rank-4 window ladder needs of a field, built once per field
    (ladder_data).  `unit` is the Pell unit (x0, y0), eps = x0 + y0*sqrt(D0),
    and `E` its integer multiplication matrix x0*I + y0*S, S that of
    sqrt(D0).  With G the T2 Gram, an integer matrix, `cross` =
    S G + G S^t and `outer` = S G S^t: the twisted Gram M G M^t of
    M = h*I - k*S, the matrix of h - k*sqrt(D0), is then
    h^2 G - hk cross + k^2 outer."""

    D0: int
    cf: CFExpansion
    unit: tuple
    E: tuple
    G: tuple
    cross: tuple
    outer: tuple


@lru_cache(maxsize=None)
def ladder_data(field) -> LadderData:
    """The field's LadderData; its Pell unit is the least solution of
    x^2 - D0*y^2 = -1, or of = +1 when -1 has none.  D0, S, G and cross
    are the field's norm_forms."""
    D0, S, G, cross = field.norm_forms
    r = pell_solve(D0, -1)
    if r.solution is None:
        r = pell_solve(D0, 1)  # always solvable
    x0, y0 = r.solution.x, r.solution.y
    E = tuple(
        tuple(x0 * (i == j) + y0 * sij for j, sij in enumerate(Si))
        for i, Si in enumerate(S)
    )
    outer = tuple(_times(_times(S, G), tuple(zip(*S))))
    return LadderData(D0, cf_sqrt(D0), (x0, y0), E, G, cross, outer)


def _twisted_gram(lad: LadderData, h: int, k: int) -> tuple:
    """The Gram of T2(x * conj(gamma)), gamma = h + k*sqrt(D0): the integer
    matrix M G M^t = h^2 G - hk cross + k^2 outer of LadderData, M = h*I -
    k*S the matrix of conj(gamma)."""
    hh, hk, kk = h * h, h * k, k * k
    return tuple(
        tuple(hh * a - hk * b + kk * c for a, b, c in zip(ra, rb, rc))
        for ra, rb, rc in zip(lad.G, lad.cross, lad.outer)
    )


def _unit_ladder(field, module):
    """Smallest m >= 1 with eps^m stabilizing the module, eps the Pell unit
    of the real quadratic subfield; returns (D0, m, convergent list over m
    periods).  Decided on integers: rows <- rows*E is the module's HNF rows
    times E^m, and since eps^m has norm 1, eps^m * module = module exactly
    when each of those rows lies in the module's lattice."""
    lad = ladder_data(field)
    H = module.rows
    rows = H
    for m in range(1, _LADDER_MAX_POWER + 1):
        rows = _times(rows, lad.E)
        if all(_in_lattice(H, r) for r in rows):
            break
    else:
        raise UnsupportedFieldError(
            "no power of the fundamental unit up to %d stabilizes the module"
            % _LADDER_MAX_POWER
        )
    # convergents gamma_{-1} = 1, gamma_0, ..., gamma_{m*l - 1} = eps^m
    gammas = [(1, 0)] + list(cf_convergents(lad.cf, m * len(lad.cf.period)))
    return lad.D0, m, gammas


def find_generator(module: IntModule, norm):
    """Element alpha of the module with |absolute norm| equal to `norm`,
    which forces alpha*O = module for any order O the module is an ideal of
    with index `norm`; None when the exhaustive search ball is empty, which
    proves no such element exists.

    The search ball is exact for rank 2 (finite unit group).  For rank 4
    the module is swept window by window along the continued-fraction
    convergents of the real quadratic subfield, which tile one fundamental
    domain of the unit action on the ratio of the two complex absolute
    values.
    """
    field = module.ambient
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("norm must be positive")
    G = field.t2_gram_matrix()
    keep = _norm_filter(module, norm)
    if field.degree == 2:
        if field.D > 0:
            raise UnsupportedFieldError("generator search needs an imaginary field")
        cands = [u for u in enumerate_by_t2(module, G, 2 * norm) if keep(u)]
        return _canonical_pick(module, cands, G)

    # window ladder over the real-subfield convergents
    D0, m, gammas = _unit_ladder(field, module)
    lad = ladder_data(field)
    su = sqrt_ub(Fraction(D0))
    sl = sqrt_lb(Fraction(D0))
    cands = []
    for i in range(len(gammas) - 1):
        h, k = gammas[i]
        h2, k2 = gammas[i + 1]
        Q = abs(h * h - D0 * k * k)  # |N(gamma_i)|
        # window width g = (eta/eta')^2 = eta^4 / N(eta)^2, eta = gamma_{i+1}*conj(gamma_i)
        A = h2 * h - D0 * k2 * k
        Bc = k2 * h - h2 * k
        n_eta = A * A - D0 * Bc * Bc
        # eta^2 = (A^2 + D0 B^2) + 2AB sqrt(D0); eta^4 = its square
        p2, q2 = A * A + D0 * Bc * Bc, 2 * A * Bc
        P4 = p2 * p2 + D0 * q2 * q2
        Q4 = 2 * p2 * q2
        g_ub = Fraction(P4 + Q4 * (su if Q4 > 0 else sl), n_eta * n_eta)
        g_lb = Fraction(P4 + Q4 * (sl if Q4 > 0 else su), n_eta * n_eta)
        if g_lb <= 0:
            g_lb = Fraction(1)
        # T2(alpha * conj(gamma_i)) <= 2 Q (sqrt(norm*g) + sqrt(norm/g))
        ball = 2 * Q * (sqrt_ub(norm * g_ub) + sqrt_ub(norm / g_lb))
        Gi = _twisted_gram(lad, h, k)
        cands.extend(u for u in enumerate_by_t2(module, Gi, ball) if keep(u))
    return _canonical_pick(module, cands, G)
