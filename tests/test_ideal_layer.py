"""The integer ideal layer against the module-building paths it replaced.

The oracles below are the earlier implementations: ideal candidates found
by building o * m and comparing it with m, membership by Fraction
back-substitution, invertibility by comparing the module a * (o : a)
with o, the colon as an intersection of one module per basis element,
and the HNF by a swap-and-subtract Euclid per column.  None of them calls
the closure test or the integer back-substitution.  The modules they build
go through the one HNF, which the property tests check against the Euclid
oracle.
"""

import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nforders.biquadratic import factor_rational_prime, integral_basis
from nforders.intmath import sqrt_ub
from nforders.lattice import (
    IntModule,
    _basis_gram,
    _det_int,
    _in_lattice,
    _integral_gso,
    _is_canonical,
    hnf_matrix,
    identity_module,
    kernel_int,
    lll_reduce,
    module_colon,
)
from nforders.orders import (
    OrderIdeal,
    _closed_under,
    is_invertible,
    maximal_order,
    module_mul,
    order_with_index,
    order_zsqrt,
    relative_order,
)
from nforders.quadratic import QuadField

from ideals import ideal_candidates


def _squarefree(n):
    return all(n % (q * q) for q in range(2, n + 1) if q * q <= n)


# Z[sqrt(-n)] for n <= 30 and Z + f*O_K for d <= 23, f <= 6, each order once
ORDERS = list(
    dict.fromkeys(
        [order_zsqrt(QuadField(-n)) for n in range(1, 31) if _squarefree(n)]
        + [
            order_with_index(QuadField(-d), f)
            for d in range(1, 24)
            if _squarefree(d)
            for f in range(1, 7)
        ]
    )
)


def order_id(o):
    return "%r/%r" % (o.field, o.module.rows)


def minkowski_bound(o):
    """The norm bound pic_brute_force takes for a complete count."""
    disc_o = o.field.disc * o.index_in_maximal() ** 2
    return ceil(Fraction(2, 3) * sqrt_ub(Fraction(-disc_o)))


# ---------------------------------------------------------------------------
# oracles


def oracle_ideal_candidates(o, bound):
    """Every (d1, c, d2) lattice m with o * m == m, the product built."""
    out = []
    for d1 in range(1, bound + 1):
        for d2 in range(1, bound // d1 + 1):
            for c in range(d1):
                m = IntModule(o.field, ((d1, 0), (c, d2)), 1)
                if module_mul(o.module, m) == m:
                    out.append(m)
    return out


def oracle_contains_coords(m, coords):
    """Fraction back-substitution on the triangular rows."""
    v = [Fraction(c) * m.den for c in coords]
    n = m.rank
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = v[i] - sum(x[k] * m.rows[k][i] for k in range(i + 1, n))
        x[i] = s / m.rows[i][i]
        if x[i].denominator != 1:
            return False
    return True


def oracle_contains_module(m, other):
    return all(
        oracle_contains_coords(m, [Fraction(c, other.den) for c in row])
        for row in other.rows
    )


def oracle_colon(m1, m2):
    """(m1 : m2) as the intersection over the basis elements e of m2 of
    m1 * e^(-1), one module each."""
    out = None
    f = m1.ambient
    for r in m2.rows:
        e = f.from_basis_coords([Fraction(c, m2.den) for c in r])
        scaled = m1.transform(f.one() / e)
        out = scaled if out is None else out.intersect(scaled)
    return out


def oracle_is_invertible(a):
    inv = oracle_colon(a.order.module, a.module)
    return module_mul(a.module, inv) == a.order.module


def oracle_hnf_upper(rows):
    """Swap-and-subtract Euclid per column, then reduction above pivots."""
    A = [list(r) for r in rows]
    if not A:
        return A
    m, n = len(A), len(A[0])
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if A[i][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        for i in range(row + 1, m):
            while A[i][col]:
                q = A[row][col] // A[i][col]
                A[row] = [a - q * b for a, b in zip(A[row], A[i])]
                A[row], A[i] = A[i], A[row]
        if A[row][col] < 0:
            A[row] = [-x for x in A[row]]
        row += 1
    A = A[:row]
    pivots = [next(j for j, x in enumerate(r) if x) for r in A]
    for i, pc in enumerate(pivots):
        p = A[i][pc]
        for k in range(i):
            q = A[k][pc] // p
            if q:
                A[k] = [a - q * b for a, b in zip(A[k], A[i])]
    return A


def oracle_hnf_matrix(rows):
    H = oracle_hnf_upper([list(r)[::-1] for r in rows])
    return [r[::-1] for r in reversed(H)]


# ---------------------------------------------------------------------------
# ideal candidates and invertibility


@pytest.mark.parametrize("o", ORDERS, ids=order_id)
def test_ideal_candidates_match_module_scan(o):
    bound = minkowski_bound(o)
    got = ideal_candidates(o, bound)
    assert [a.module for a in got] == oracle_ideal_candidates(o, bound)


@pytest.mark.parametrize("o", ORDERS[::4], ids=order_id)
def test_is_invertible_matches_product_test(o):
    for a in ideal_candidates(o, minkowski_bound(o)):
        assert is_invertible(a) == oracle_is_invertible(a), a.module


def test_closure_test_rejects_non_ideals():
    # [2, sqrt(-5)] is not closed under Z[sqrt(-5)]; [2, 1 + sqrt(-5)] is
    o = order_zsqrt(QuadField(-5))
    assert not _closed_under(o, ((2, 0), (0, 1)))
    assert _closed_under(o, ((2, 0), (1, 1)))
    with pytest.raises(ValueError, match="not stable"):
        OrderIdeal(o, IntModule(o.field, ((2, 0), (0, 1)), 1))
    # O_F[sqrt(-7)] in E37, of index 4 in O_E: O_E is an o-ideal, o is
    # not an O_E-ideal
    H, Q = Fraction(1, 2), Fraction(1, 4)
    E = integral_basis(
        3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
    )
    rel = relative_order(E)
    omax = maximal_order(E)
    assert rel.index_in_maximal() == 4
    assert _closed_under(rel, omax.module.rows)
    assert _closed_under(omax, omax.module.rows)
    assert not _closed_under(omax, rel.module.rows)


# ---------------------------------------------------------------------------
# membership


def rand_module(rng, r, field, span=6):
    """A full-rank module with a random denominator in {1, 2, 3, 6}."""
    while True:
        rows = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        if _det_int(rows):
            return IntModule(field, tuple(map(tuple, rows)), rng.choice((1, 2, 3, 6)))


@pytest.mark.parametrize("r", [2, 4])
def test_membership_matches_fraction_oracle(r):
    field = QuadField(-5) if r == 2 else integral_basis(59, 2)
    rng = random.Random(40 + r)
    hits = misses = 0
    for _ in range(150):
        m = rand_module(rng, r, field)
        for _ in range(8):
            if rng.random() < 0.5:
                # a member: an integer combination of the rows, over den
                x = [rng.randint(-4, 4) for _ in range(r)]
                coords = [
                    Fraction(sum(xi * row[j] for xi, row in zip(x, m.rows)), m.den)
                    for j in range(r)
                ]
            else:
                coords = [
                    Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))
                    for _ in range(r)
                ]
            got = m.contains(field.from_basis_coords(coords))
            assert got == oracle_contains_coords(m, coords), (m, coords)
            hits += got
            misses += not got
        other = rand_module(rng, r, field)
        assert m.contains_module(other) == oracle_contains_module(m, other)
        assert m.contains_module(m.intersect(other))
        assert m.add(other).contains_module(m)
    assert hits > 100 and misses > 100


def test_in_lattice_is_exact_on_the_boundary():
    H = ((3, 0), (1, 5))
    assert _in_lattice(H, (4, 5))  # row 0 + row 1
    assert not _in_lattice(H, (1, 0))
    assert not _in_lattice(H, (4, 10))  # 5 | 10 but 4 - 2 is not in 3Z
    assert _in_lattice(H, (5, 10))


# ---------------------------------------------------------------------------
# the colon


@pytest.mark.parametrize("r", [2, 4])
def test_module_colon_matches_intersection_oracle(r):
    # every pair of ideals of an order, integral and over 3, and random
    # lattices over 1, 2, 3 or 6, which are ideals of no order but Z: the
    # colon's determinants are diagonal products of triangular HNFs, so a
    # wrong one scales the result off the oracle's
    rng = random.Random(60 + r)
    if r == 2:
        field = QuadField(-5)
        o = order_with_index(field, 3)
        ideals = [a.module for a in ideal_candidates(o, minkowski_bound(o))]
    else:
        field = integral_basis(59, 2)
        ideals = [identity_module(field)] + [
            pf.module for q in (2, 3, 5, 7) for pf in factor_rational_prime(field, q)
        ]
    ideals += [IntModule(field, m.rows, 3) for m in ideals[:4]]
    pairs = [(a, b) for a in ideals for b in ideals]
    pairs += [(rand_module(rng, r, field), rand_module(rng, r, field)) for _ in range(60)]
    fractional = 0
    for m1, m2 in pairs:
        got = module_colon(m1, m2)
        assert got == oracle_colon(m1, m2), (m1.rows, m1.den, m2.rows, m2.den)
        fractional += m1.den > 1 or m2.den > 1
    assert len(ideals) >= 12 and fractional > 50


# ---------------------------------------------------------------------------
# the HNF and the kernel


def unimodular(draw, n):
    """A product of elementary integer row operations: swaps, sign flips
    and additions of a multiple of one row to another."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("swap", "neg", "add")))
        if kind == "swap":
            U[i], U[j] = U[j], U[i]
        elif kind == "neg":
            U[i] = [-x for x in U[i]]
        elif i != j:
            q = draw(st.integers(-5, 5))
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


@st.composite
def matrix_and_transform(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    A = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    return A, unimodular(draw, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrix_and_transform())
def test_hnf_is_canonical_under_unimodular_transforms(case):
    A, U = case
    UA = [[sum(u * a for u, a in zip(Ui, col)) for col in zip(*A)] for Ui in U]
    H = hnf_matrix(A)
    assert hnf_matrix(UA) == H
    assert H == oracle_hnf_matrix(A)
    if len(H) == len(A[0]) == len(A):
        assert _is_canonical(H)
        assert IntModule(None, tuple(map(tuple, A)), 1).rows == tuple(map(tuple, H))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_and_transform())
def test_kernel_spans_the_same_lattice_as_full_hnf_kernel(case):
    A, _ = case
    n = len(A[0])
    K = kernel_int(A)
    full = oracle_hnf_upper(
        [list(r) + [int(i == j) for j in range(len(A))] for i, r in enumerate(A)]
    )
    oracle = [h[n:] for h in full if not any(h[:n])]
    assert hnf_matrix(K) == hnf_matrix(oracle)


def test_is_canonical_rejects_each_shape_fault():
    assert _is_canonical(((3, 0), (2, 5)))
    assert not _is_canonical(((3, 1), (2, 5)))  # not triangular
    assert not _is_canonical(((-3, 0), (2, 5)))  # negative pivot
    assert not _is_canonical(((3, 0), (3, 5)))  # entry not reduced
    assert not _is_canonical(((3, 0), (-1, 5)))
    assert not _is_canonical(((3, 0), (2, 5), (0, 1)))  # not square
    assert not _is_canonical(((1, 0, 0), (0, 1, 0), (5,)))  # ragged


# ---------------------------------------------------------------------------
# the data handed from LLL to the enumeration


@pytest.mark.parametrize("field", [QuadField(-59), integral_basis(11, 10)], ids=repr)
def test_lll_hands_over_the_gso_of_its_rows(field):
    rng = random.Random(61)
    g = field.t2_gram_matrix
    if field.degree == 4:
        # a BiquadField builds its T2 Gram once
        assert field.t2_gram_matrix is g
    for _ in range(30):
        m = rand_module(rng, field.degree, field)
        red = lll_reduce(m, g)
        d, lam = red.gso
        d2, lam2 = _integral_gso(_basis_gram(red.rows, g))
        n = field.degree
        assert d == d2
        assert [lam[i][:i] for i in range(n)] == [lam2[i][:i] for i in range(n)]
