"""Exact lattice algorithms on rank-2 and rank-4 modules in number fields.

Modules are Z-lattices given by integer basis rows over a common denominator,
kept in a canonical Hermite normal form: row i has its pivot on the diagonal,
zeros to the right of it, pivots positive, and the entries below each pivot
reduced modulo the pivot.  Products and colons of modules run on the
rows through the field's structure constants.  All reductions,
enumerations and generator searches run in exact integer/rational
arithmetic; square roots only ever enter as explicit rational upper/lower
bounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from .intmath import jacobi, xgcd
from .quadratic import (
    Keyed,
    UnsupportedFieldError,
    _in_range,
    _ladder_windows,
    integer_rows,
    pell_data,
    table_matrix,
)


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
    for row in H:
        if len(row) != n:
            return False
    for i, row in enumerate(H):
        p = row[i]
        if p <= 0:
            return False
        for k in range(i + 1, n):
            if row[k] or not 0 <= H[k][i] < p:
                return False
    return True


def _times(rows, M, scale: int = 1) -> list:
    """The integer rows times the integer matrix M, times scale."""
    cols = list(zip(*M))
    return [tuple([scale * sum(map(mul, r, c)) for c in cols]) for r in rows]


def _diagonal_product(H) -> int:
    """Determinant of the square triangular integer matrix H, a canonical
    HNF or its transpose: the product of its diagonal (Cohen, GTM 138,
    section 2.4)."""
    return prod(row[i] for i, row in enumerate(H))


def _det_int(rows) -> int:
    """Determinant of a dense square integer matrix by Bareiss fraction-free
    elimination: every division is exact, and a zero pivot is replaced by
    a row swap from below (the determinant is 0 when there is none).  A
    triangular HNF's determinant is _diagonal_product."""
    n = len(rows)
    A = [list(r) for r in rows]
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
    entry (j, i) is the signed (i, j) cofactor, a Bareiss determinant at
    every size.  The empty minor has determinant 1, so a 1x1 M gives
    [[1]] and a 2x2 one [[d, -b], [-c, a]]."""
    n = len(M)
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


class IntModule(Keyed):
    """(1/den) times the row span of `rows`, in ambient integral-basis
    coordinates.  The entries of `rows` and `den` must be integers (ints,
    or Fractions with denominator 1); any other value raises ValueError.
    Construction canonicalizes, so equal modules compare equal: rows that
    are already a canonical HNF tuple of tuples are kept as given."""

    def __init__(self, ambient, rows: tuple, den: int):
        if type(den) is not int or not all(type(x) is int for r in rows for x in r):
            den = integer_rows([[den]], "module denominator")[0][0]
            rows = integer_rows(rows, "module entry")
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            den = -den
        if not _is_canonical(rows):
            rows = hnf_matrix(rows)
        r = getattr(ambient, "degree", None) or len(rows)
        if len(rows) != r:
            raise ValueError("module is not full rank")
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows))
            if g > 1:
                rows = [[x // g for x in row] for row in rows]
                den //= g
        if type(rows) is not tuple or not all(type(row) is tuple for row in rows):
            rows = tuple(map(tuple, rows))
        self.ambient, self.rows, self.den = ambient, rows, den

    def _key(self) -> tuple:
        return self.ambient, self.rows, self.den

    @property
    def rank(self) -> int:
        return len(self.rows)

    def covolume(self) -> Fraction:
        return Fraction(_diagonal_product(self.rows), self.den**self.rank)

    def contains(self, e) -> bool:
        """Membership of the field element e = u / den_u: is u * den =
        x * rows * den_u for an integer x?  Decided on integers: den_u must
        divide u * den, and the quotient must be in the row span."""
        return self._contains_int(e.u, e.den)

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

    def transform(self, e) -> "IntModule":
        """The module e * self for a field element e = u / den_e: the rows
        times the integer multiplication matrix of u, over den * den_e."""
        M = table_matrix(self.ambient.mult_table, e.u)
        return IntModule(self.ambient, tuple(_times(self.rows, M)), self.den * e.den)

    def index_in(self, other: "IntModule") -> Fraction:
        """[other : self] as a positive rational (integer iff self <= other)."""
        return self.covolume() / other.covolume()


def hnf(ambient, rows, den: int = 1) -> IntModule:
    return IntModule(ambient, tuple(map(tuple, rows)), den)


@lru_cache(maxsize=None)
def identity_module(ambient) -> IntModule:
    """The maximal order as a module: the unit rows over the integral
    basis, built once per field."""
    r = ambient.degree
    rows = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    return IntModule(ambient, rows, 1)


# ---------------------------------------------------------------------------
# module arithmetic


def module_mul(m1: IntModule, m2: IntModule) -> IntModule:
    """Z-span of all pairwise products of the two bases: the integer rows
    r1 (x) r2 through the table T[i][j] = coords(b_i * b_j), over the
    denominator den1 * den2, in one HNF."""
    T = m1.ambient.mult_table
    rows = []
    for r1 in m1.rows:
        rows += _times(m2.rows, table_matrix(T, r1))
    return IntModule(m1.ambient, tuple(rows), m1.den * m2.den)


def module_colon(m1: IntModule, m2: IntModule) -> IntModule:
    """(m1 : m2) = {x in the field : x*m2 is contained in m1}, with one HNF.

    With B the rows of m1 and M_r the integer multiplication matrix of a
    row r of m2, x * r / den2 lies in m1 iff x * M_r * adj(B) * den1 lies
    in E * Z^n, E = den2 * det(B).  Put the columns of every
    M_r * adj(B) * den1 together and let K have as columns a basis of the
    lattice they span: the condition on all r reads x * K in E * Z^n, so
    the colon is E * Z^n * K^(-1), the rows E * adj(K) over det(K).  B is
    a canonical HNF and K the transpose of one, so both determinants are
    diagonal products."""
    B = m1.rows
    adjB = adjugate_int(B)
    T = m1.ambient.mult_table
    cols = []
    for r in m2.rows:
        cols += zip(*_times(table_matrix(T, r), adjB, m1.den))
    K = [list(c) for c in zip(*hnf_matrix(cols))]
    E = m2.den * _diagonal_product(B)
    rows = tuple(tuple(E * x for x in row) for row in adjugate_int(K))
    return IntModule(m1.ambient, rows, _diagonal_product(K))


# ---------------------------------------------------------------------------
# exact LLL


class LatticeBasis(NamedTuple):
    """A not-necessarily-HNF basis (LLL output keeps the reduced order).
    `gso` is the integral Gram-Schmidt data (d, lam) of the rows under the
    integer form LLL ran on (see _integral_gso).  Nothing compares or
    hashes a basis (lll_reduce and enumerate_by_t2 read its fields), so
    `gso`, whose lists make it unhashable, is a plain field."""

    ambient: object
    rows: tuple
    den: int
    gso: tuple


def _basis_gram(B, g):
    """Entries j <= i of the integer Gram B g B^t of basis rows B: all _integral_gso reads."""
    return [[sum(map(mul, r, B[j])) for j in range(i + 1)] for i, r in enumerate(_times(B, g))]


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


def lll_reduce(m, g: tuple) -> LatticeBasis:
    """LLL reduction of the basis rows of m, an IntModule or a LatticeBasis
    (only .rows, .den and .ambient are read), under the integer Gram
    matrix g (a tuple of int rows), with Lovasz constant delta = 3/4.

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
    basis = list(m.rows)
    n = len(basis)
    d, lam = _integral_gso(_basis_gram(basis, g))
    k = 1
    while k < n:
        lk = lam[k]
        row = basis[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lk[j] + dj) // (2 * dj)
            if q:
                row = [a - q * b for a, b in zip(row, basis[j])]
                lk[j] -= q * dj
                lj = lam[j]
                for l in range(j):
                    lk[l] -= q * lj[l]
        basis[k] = row
        la = lk[k - 1]
        # Lovasz: |b_k*|^2 >= (3/4 - mu^2) |b_(k-1)*|^2, times 4 d[k] d[k-1]
        if 4 * (d[k + 1] * d[k - 1] + la * la) >= 3 * d[k] * d[k]:
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
        if k > 1:
            k -= 1
    # d and lam were kept exact through every step: they are the data of
    # the reduced rows
    return LatticeBasis(m.ambient, tuple(map(tuple, basis)), m.den, (d, lam))


# ---------------------------------------------------------------------------
# Fincke-Pohst enumeration


def enumerate_by_t2(red: LatticeBasis, bound) -> list:
    """All nonzero vectors v = u/den of the lattice of red, an lll_reduce
    output under the integer Gram g, with v g v^t <= bound, one of each
    +-pair, as the integer numerator tuples u.  Sorted by (u g u^t, u), so
    the list does not depend on which reduced basis comes in; complete by
    exact pruning.

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


def _element(module, u):
    """The point u/den of the module as a field element, None for None."""
    den = module.den
    return None if u is None else module.ambient.from_basis_coords([Fraction(c, den) for c in u])


def _form_value(g, u) -> int:
    """u g u^t of an integer vector u and an integer Gram g."""
    return sum(a * sum(map(mul, row, u)) for a, row in zip(u, g))


def _norm_filter(module, norm):
    """Predicate on the points u enumerate_by_t2 returns for the module:
    N(u/den) == norm, den the module's denominator, read exactly off the
    field's integer norm form: norm_form(u) == norm * den^degree, an int.
    When norm * den^degree is not an integer no point can match: the target
    is None and the predicate rejects every point.  The fields searched are
    totally imaginary, so N is |N|."""
    form = module.ambient.norm_form
    target = Fraction(norm) * module.den**module.ambient.degree
    n = target.numerator if target.denominator == 1 else None
    return lambda u: form(u) == n


# the most periods of convergents the window ladder of _unit_ladder runs
_LADDER_MAX_PERIODS = 64

# the longest period of sqrt(D0) ladder_data takes.  The windows list up
# to a period of convergents, whose digits grow with the period, so their
# memory grows as its square: the period 454,206 of sqrt(200000000006) ran
# out of memory, while 16,144 (sqrt(115344766)) still answers, in 51 s and
# 96 MB peak RSS on a 2-vCPU machine (represent 5 57672383 2)
_LADDER_MAX_PERIOD = 2**14


class LadderData(NamedTuple):
    """The ladder unit u of a field, built once per field (ladder_data):
    `U` is its integer multiplication matrix, and each power of u moves the
    ladder `step` convergents of sqrt(D0), of period `period`, on."""

    U: tuple
    step: int
    period: int


@lru_cache(maxsize=None)
def ladder_data(field) -> LadderData:
    """The field's LadderData, off pell_data(D0), D0 of the field's
    norm_forms: the expansion has period l, and the Pell unit eps = x0 +
    y0*sqrt(D0) is the least solution of x^2 - D0*y^2 = +-1 (Cohen, GTM
    138, 5.7).  The ladder unit is the midpoint unit v = conj(e)/sqrt(-c),
    with step mid, when l = 2*mid is even and the mid-th convergent e
    (PellData.half) has |N(e)| = c in {d, n}, read off the expansion's
    norms, and v is checked integral with v^2 = -eps^-1; else it is eps,
    with step l.  A period past _LADDER_MAX_PERIOD raises
    UnsupportedFieldError before any convergent is built."""
    D0 = field.norm_forms[0]
    P = pell_data(D0)
    l = len(P.cf.period)
    if l > _LADDER_MAX_PERIOD:
        raise UnsupportedFieldError(
            "the continued fraction of sqrt(%d) has period %d, past the ladder's "
            "limit %d" % (D0, l, _LADDER_MAX_PERIOD)
        )
    (h, k), (x0, y0) = P.half
    unit, step = field.from_real_quadratic(x0, y0), l
    if l % 2 == 0:
        c = abs(P.cf.norms[l // 2 - 1])
        if c in (field.d, field.n):
            v = field.from_real_quadratic(h, -k) * field.gens[c == field.n] / -c
            if v.is_integral() and v * v == -field.from_real_quadratic(x0, -y0):
                unit, step = v, l // 2
    U = tuple(map(tuple, table_matrix(field.mult_table, unit.u)))
    return LadderData(U, step, l)


def _twisted_gram(G, C, p: int, hk: int) -> tuple:
    """The Gram p*G - hk*C of T2(x * conj(gamma)), gamma = h + k*sqrt(D0),
    from its weights p = h^2 + D0*k^2 and hk and norm_forms G, C: M G M^t
    of M = h*I - k*S, S the matrix of sqrt(D0), is h^2 G - hk C + k^2 S G
    S^t, and S G S^t = D0 G, as T2(x * sqrt(D0)) = D0 T2(x), sqrt(D0) real."""
    return tuple(tuple(p * a - hk * b for a, b in zip(ra, rb)) for ra, rb in zip(G, C))


def _unit_ladder(field, module) -> int:
    """T = m*step, m >= 1 the least with u^m stabilizing the module, u the
    ladder unit of the field's LadderData: the ladder runs over the
    convergents gamma_1, ..., gamma_T, m periods for the Pell unit, m half
    periods for the midpoint unit.  Decided on integers: rows <- rows*U is
    the module's HNF rows times U^m, and since u^m has norm 1, u^m * module
    = module exactly when each of those rows lies in the module's lattice.
    Past _LADDER_MAX_PERIODS periods of windows it raises
    UnsupportedFieldError."""
    lad = ladder_data(field)
    H = rows = module.rows
    for m in range(1, _LADDER_MAX_PERIODS * lad.period // lad.step + 1):
        rows = _times(rows, lad.U)
        if all(_in_lattice(H, r) for r in rows):
            return m * lad.step
    raise UnsupportedFieldError(
        "no power of the ladder unit within %d periods stabilizes the module"
        % _LADDER_MAX_PERIODS
    )


def _budget(rho: Fraction, norm: Fraction, den: int) -> int:
    """floor(ball * den^2) for ball^2 = norm * rho, exactly: the integer
    budget u g u^t <= floor(ball * den^2) holds the points u/den of the
    ball, as each point's form value is an integer, and floor(sqrt(q)) =
    isqrt(floor(q)) for a rational q >= 0."""
    return isqrt(rho.numerator * norm.numerator * den**4 // (rho.denominator * norm.denominator))


def find_generator(module: IntModule, norm):
    """Element alpha of the module with |absolute norm| equal to `norm`,
    which forces alpha*O = module for any order O the module is an ideal of
    with index `norm`; None when no such element exists, which a None
    proves.

    A genus character of the field decides first: when `norm` is an odd
    integer N and (p*/N) = -1 for a prime discriminant p* of
    field.genus_characters, no element of the field has norm N, and the
    answer is None with no lattice search.  The field is totally
    imaginary and Galois over Q, and K(sqrt(p*)), K a quadratic subfield
    with p* | disc K, is unramified over K at every prime, so the field
    times sqrt(p*) is unramified over the field at every place.  The
    Artin symbol of the principal ideal (alpha) is then trivial, and its
    restriction to Q(sqrt(p*)) is (p*/N(alpha)): on a prime above q not
    dividing p* it is the Frobenius (p*/q) to the residue degree, and the
    primes above a p | p* are conjugate, with one value, and exponents
    summing to 0 when p does not divide N(alpha).  So (p*/N) = 1 whenever
    N(alpha) = N is coprime to p*, and jacobi is 0 when it is not
    (docs/generator-search.md, "What None means").

    Otherwise the search ball is exact for rank 2 (finite unit group), and
    rank 4 walks the windows of one period (_window_walk).
    """
    field = module.ambient
    norm = Fraction(norm)
    if norm <= 0:
        raise ValueError("norm must be positive")
    if field.degree == 2 and field.D > 0:
        raise UnsupportedFieldError("generator search needs an imaginary field")
    N = norm.numerator
    if norm.denominator == 1 and N % 2 and any(jacobi(p, N) == -1 for p in field.genus_characters):
        return None
    if field.degree == 2:
        # the points come sorted by (u G u^t, u): the first kept is the pick
        points = enumerate_by_t2(lll_reduce(module, field.t2_gram_matrix), 2 * norm)
        return _element(module, next(filter(_norm_filter(module, norm), points), None))
    return _window_walk(module, norm)


def _window_walk(module: IntModule, norm: Fraction):
    """find_generator's search of a rank-4 module, with no character test.

    The module is swept window by window, each a record of
    quadratic._ladder_windows over the convergents of sqrt(D0), which tile
    one fundamental domain of the unit action on the ratio of the two
    complex absolute values: m half periods when the midpoint unit v (v^2
    a unit of Q(sqrt(D0))) has v^m stabilizing the module, m periods of
    the Pell unit eps otherwise.  Each window is centred on its own stretch
    of one period, and a norm-N point counts only if L <= lam <= P, the
    union of the rung windows (_in_range): the pick is the one over whole
    periods of eps either way (docs/generator-search.md, "Half a period"
    and "Centred windows").  The pick lies in J, which the stretches tile,
    so each side is walked out from lam = 0 and stops at the first window
    whose a/b = cosh(l(near)) puts every T2 in it above the best candidate
    kept; a None searches every window ("Stopping early").
    """
    field = module.ambient
    keep = _norm_filter(module, norm)
    # centred windows over one period of the ladder unit's power, walked out from 0
    D0, G, C = field.norm_forms
    windows, edges, walk = _ladder_windows(D0, _unit_ladder(field, module))
    den = module.den
    best = centre = None  # best: the least (u G u^t, u) kept
    for side in walk:
        red = centre or module  # each window reduces the basis the one before reduced
        for i in side:
            w, rho, (a, b) = windows[i]
            if best is not None:
                # a norm-N point of this stretch, or of one after it on
                # this side, has T2 >= 4 sqrt(N) a/b, a/b = cosh(l(near))
                if 16 * norm.numerator * den**4 * a * a > norm.denominator * (best[0] * b) ** 2:
                    break  # best < 4 sqrt(N) den^2 a/b, strictly: a tie in G(u) goes to u
            red = lll_reduce(red, _twisted_gram(G, C, *w))
            centre = centre or red
            bound = Fraction(_budget(rho, norm, den), den * den)
            for u in filter(keep, enumerate_by_t2(red, bound)):
                t = _form_value(G, u)
                if best is None or (t, u) < best:
                    if _in_range(D0, edges, t, _form_value(C, u)):
                        best = t, u
    return _element(module, None if best is None else best[1])
