"""The integer structure-constant tables against the Fraction element paths.

The oracles below are the element-object implementations the table code
replaced: module products, colons and conjugates built from field elements
with Fraction coordinates, multiplication matrices from element products,
and norms from the conjugate formulas.  Quadratic products in the oracles
go through a + b*sqrt(D) (oracles.FracQuad) and quartic ones through the
naive {1, sqrt(-d), sqrt(-n), sqrt(d*n)} coordinates, so no oracle touches
a table.
"""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy

from nforders import biquadratic, lattice
from nforders.biquadratic import BiquadElem, integral_basis
from nforders.intmath import is_squarefree
from nforders.lattice import (
    IntModule,
    _det_int,
    _norm_filter,
    adjugate_int,
    enumerate_by_t2,
    lll_reduce,
)
from nforders.orders import module_colon, module_mul, relative_order
from nforders.quadratic import QuadElem, QuadField, integer_rows, trace_form
from ideals import module_conj
from oracles import (
    FracQuad,
    mult_matrix,
    naive,
    omega,
    t2_gram_by_closed_form,
    t2_gram_by_naive_traces,
    trace_form_by_naive_traces,
    transform_by_matrix,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)

QUAD_FIELDS = [QuadField(D) for D in (-1, -3, -5, -59, 2)]
QUARTIC_FIELDS = [integral_basis(59, 2), integral_basis(11, 10)]
FIELDS = QUAD_FIELDS + QUARTIC_FIELDS


# ---------------------------------------------------------------------------
# Fraction oracles


def naive_mul(x: BiquadElem, y: BiquadElem) -> BiquadElem:
    """x*y through naive coordinates, s*t = -u, s*u = d*t, t*u = n*s."""
    F = x.field
    d, n = F.d, F.n
    a, b, c, e = naive(x)
    a2, b2, c2, e2 = naive(y)
    return F.from_naive(
        (
            a * a2 - d * b * b2 - n * c * c2 + d * n * e * e2,
            a * b2 + b * a2 + n * (c * e2 + e * c2),
            a * c2 + c * a2 + d * (b * e2 + e * b2),
            a * e2 + e * a2 - (b * c2 + c * b2),
        )
    )


def oracle_mul(x, y):
    if isinstance(x, QuadElem):
        return (FracQuad.of(x) * FracQuad.of(y)).to_elem()
    return naive_mul(x, y)


def oracle_basis(field):
    return [
        field.from_basis_coords([int(i == j) for j in range(field.degree)])
        for i in range(field.degree)
    ]


def oracle_conj(e):
    if isinstance(e, QuadElem):
        return FracQuad.of(e).conj().to_elem()
    a, b, c, d = naive(e)
    return e.field.from_naive((a, b, -c, -d))


def oracle_inverse(e):
    if isinstance(e, QuadElem):
        return FracQuad.of(e).inverse().to_elem()
    F = e.field
    a, b, c, d = naive(e)
    cc = F.from_naive((a, -b, -c, d))
    t = naive_mul(naive_mul(oracle_conj(e), cc), oracle_conj(cc))
    nv = naive(naive_mul(e, t))
    assert nv[1:] == (0, 0, 0)
    return t / nv[0]


def oracle_abs_norm(e):
    if isinstance(e, QuadElem):
        return abs(FracQuad.of(e).norm())
    a, b, c, d = naive(naive_mul(e, oracle_conj(e)))
    assert c == 0 and d == 0
    return a * a + e.field.d * b * b


def oracle_quad_tables(field):
    """(mult_table, conj_matrix) of a quadratic field as QuadField built
    them before the closed forms: from Fraction products and conjugates of
    the basis {1, w}, checked integral."""
    basis = (FracQuad(field, Fraction(1), Fraction(0)), FracQuad.of(omega(field)))
    T = tuple(
        integer_rows([(x * y).integral_coords() for y in basis], "basis product")
        for x in basis
    )
    C = integer_rows([x.conj().integral_coords() for x in basis], "conjugate")
    return T, C


def oracle_mult_matrix(field, e):
    return tuple(tuple(oracle_mul(b, e).basis_coords()) for b in oracle_basis(field))


def oracle_elems_of(module):
    return [
        module.ambient.from_basis_coords([Fraction(c, module.den) for c in row])
        for row in module.rows
    ]


def oracle_module_mul(m1, m2):
    f = m1.ambient
    den = m1.den * m2.den
    rows = []
    for e1 in oracle_elems_of(m1):
        M = oracle_mult_matrix(f, e1)
        for r2 in m2.rows:
            n = len(r2)
            coords = [
                sum(Fraction(r2[i], m2.den) * M[i][j] for i in range(n))
                for j in range(n)
            ]
            assert all((c * den).denominator == 1 for c in coords)
            rows.append([int(c * den) for c in coords])
    return IntModule(f, tuple(map(tuple, rows)), den)


def oracle_module_colon(m1, m2):
    out = None
    for e in oracle_elems_of(m2):
        scaled = transform_by_matrix(
            m1, oracle_mult_matrix(m1.ambient, oracle_inverse(e))
        )
        out = scaled if out is None else out.intersect(scaled)
    return out


def oracle_module_conj(m):
    rows = [
        [int(c * m.den) for c in oracle_conj(e).basis_coords()]
        for e in oracle_elems_of(m)
    ]
    return IntModule(m.ambient, tuple(map(tuple, rows)), m.den)


# ---------------------------------------------------------------------------
# random inputs


def rand_elem(rng, field, span=9, dens=(1, 2, 3)):
    return field.from_basis_coords(
        [
            Fraction(rng.randint(-span, span), rng.choice(dens))
            for _ in range(field.degree)
        ]
    )


def rand_module(rng, field, span=6):
    """A full-rank module with a random denominator in {1, 2, 3, 6}."""
    r = field.degree
    while True:
        rows = [[rng.randint(-span, span) for _ in range(r)] for _ in range(r)]
        if _det_int(rows):
            return IntModule(field, tuple(map(tuple, rows)), rng.choice((1, 2, 3, 6)))


# ---------------------------------------------------------------------------
# tables


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_table_axioms(field):
    T = field.mult_table
    r = field.degree
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    # row 0 is the identity: b_0 = 1
    assert [T[0][j] for j in range(r)] == unit
    for i in range(r):
        for j in range(r):
            assert T[i][j] == T[j][i]
            for k in range(r):
                # (b_i b_j) b_k == b_i (b_j b_k), coordinate m
                left = [
                    sum(T[i][j][l] * T[l][k][m] for l in range(r)) for m in range(r)
                ]
                right = [
                    sum(T[j][k][l] * T[i][l][m] for l in range(r)) for m in range(r)
                ]
                assert left == right, (i, j, k)
    basis = oracle_basis(field)
    for i in range(r):
        for j in range(r):
            assert T[i][j] == tuple(oracle_mul(basis[i], basis[j]).basis_coords())
            assert all(type(c) is int for c in T[i][j])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_conj_matrix_matches_oracle(field):
    rows = tuple(tuple(oracle_conj(b).basis_coords()) for b in oracle_basis(field))
    assert field.conj_matrix == rows


def test_quadratic_tables_match_element_oracle():
    # every squarefree D in [-500, 500] but 0 and 1
    fields = [QuadField(D) for D in range(-500, 501) if D != 1 and is_squarefree(D)]
    assert len(fields) == 611
    for field in fields:
        T, C = oracle_quad_tables(field)
        assert field.mult_table == T, field
        assert field.conj_matrix == C, field
        assert all(type(x) is int for M in (*T, C) for row in M for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mult_matrix_and_norm_match_oracle(field):
    rng = random.Random(field.degree * 1000 + abs(getattr(field, "D", 0)))
    for _ in range(40):
        e = rand_elem(rng, field)
        assert mult_matrix(field, e) == oracle_mult_matrix(field, e)
        assert e.abs_norm() == oracle_abs_norm(e)


@pytest.mark.parametrize("field", QUARTIC_FIELDS, ids=repr)
def test_quartic_product_matches_naive(field):
    rng = random.Random(7)
    for _ in range(40):
        x, y = rand_elem(rng, field), rand_elem(rng, field)
        assert x * y == naive_mul(x, y)
        assert x.norm() == oracle_abs_norm(x)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_operations_match_oracle(field):
    rng = random.Random(field.degree * 31 + abs(getattr(field, "D", 0)))
    for _ in range(25 if field.degree == 2 else 8):
        m1, m2 = rand_module(rng, field), rand_module(rng, field)
        assert module_mul(m1, m2) == oracle_module_mul(m1, m2)
        assert module_colon(m1, m2) == oracle_module_colon(m1, m2)
        assert module_conj(m1) == oracle_module_conj(m1)


E37 = integral_basis(
    3,
    7,
    basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)),
)
NORM_FILTER_FIELDS = (
    [QuadField(-59)]
    + QUARTIC_FIELDS
    + [QuadField(-10), integral_basis(71, 2), integral_basis(23, 5), E37]
)


@pytest.mark.parametrize("field", NORM_FILTER_FIELDS, ids=repr)
def test_norm_filter_matches_oracle(field):
    rng = random.Random(11)
    G = field.t2_gram_matrix
    for _ in range(4):
        m = rand_module(rng, field, span=3)
        pts = enumerate_by_t2(lll_reduce(m, G), 40 * field.degree)[:150]
        assert pts
        norms = [
            oracle_abs_norm(field.from_basis_coords([Fraction(c, m.den) for c in u]))
            for u in pts
        ]
        for norm in sorted(set(norms))[:6] + [Fraction(1, 7)]:
            keep = _norm_filter(m, norm)
            assert [keep(v) for v in pts] == [x == norm for x in norms]
    # large random points, far outside any search ball: the filter keeps
    # each at its own norm and at no neighbouring one
    rng = random.Random(12)
    for _ in range(2000):
        m = rand_module(rng, field, span=3)
        u = tuple(rng.randint(-10**4, 10**4) for _ in range(field.degree))
        x = field.from_basis_coords([Fraction(c, m.den) for c in u])
        norm = oracle_abs_norm(x)
        assert x.abs_norm() == norm
        assert _norm_filter(m, norm)(u), (u, m.den)
        assert not _norm_filter(m, norm + 1)(u)
        assert not _norm_filter(m, norm - Fraction(1, m.den))(u)


def test_quartic_norm_needs_no_unit(monkeypatch):
    """The quartic norm reads the field's norm forms, never the window
    ladder's Pell unit."""

    def no_ladder(field):
        raise AssertionError("norm() reached ladder_data")

    # biquadratic does not import it at all; lattice defines it
    assert not hasattr(biquadratic, "ladder_data")
    monkeypatch.setattr(lattice, "ladder_data", no_ladder)
    E = integral_basis(3, 7, basis=E37.intbasis)  # fresh: nothing cached
    rng = random.Random(13)
    for _ in range(40):
        x = rand_elem(rng, E)
        assert x.norm() == oracle_abs_norm(x)


# ---------------------------------------------------------------------------
# the T2 Gram and the trace form, read off mult_table

# every squarefree D with |D| < 3000, D != 1: 3,647 quadratic fields
GRAM_QUAD_DS = [D for m in range(1, 3000) if is_squarefree(m) for D in (-m, m) if D != 1]


def gram_quartic_fields() -> list:
    """The 473 native fields with d < 200 and n <= 30, then the supplied
    bases of Q(zeta_8), E37 and E715."""
    native = [
        integral_basis(d, n)
        for d in range(3, 200, 4)
        if is_squarefree(d)
        for n in range(1, 31)
        if n % 4 in (1, 2) and is_squarefree(n) and gcd(d, n) == 1
    ]
    assert len(native) == 473
    z8 = ((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H))
    B = ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
    supplied = [
        integral_basis(1, 2, basis=z8),
        E37,
        integral_basis(7, 15, basis=B),
    ]
    return native + supplied


def test_quadratic_t2_gram_and_trace_form_match_closed_forms():
    assert len(GRAM_QUAD_DS) == 3647
    for D in GRAM_QUAD_DS:
        F = QuadField(D)
        assert F.t2_gram_matrix == t2_gram_by_closed_form(F), D
        assert _det_int(trace_form(F.mult_table)) == F.disc, D


def test_quartic_t2_gram_and_trace_form_match_naive_traces():
    # the discriminant is the product of the three quadratic subfields'
    # (the conductor-discriminant formula), which shares nothing with
    # the trace form
    for E in gram_quartic_fields():
        T = trace_form(E.mult_table)
        assert T == tuple(map(tuple, trace_form_by_naive_traces(E.mult_table, E.intbasis)))
        assert E.t2_gram_matrix == t2_gram_by_naive_traces(E), E
        assert _det_int(T) == E.disc == prod(F.disc for F, _ in E.subfields), E


# ---------------------------------------------------------------------------
# integer determinant and adjugate


def test_det_int_against_sympy():
    rng = random.Random(5)
    for n in range(1, 6):
        for trial in range(60):
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 0 and n > 1:
                A[0][0] = 0  # a zero first pivot forces a row swap
            if trial % 10 == 1 and n > 1:
                A[-1] = [2 * x for x in A[0]]  # singular
            if trial % 10 == 2:
                for row in A:
                    row[0] = 0  # zero column: no pivot at all
            assert _det_int(A) == sympy.Matrix(A).det(), A


def test_adjugate_int():
    rng = random.Random(6)
    for n in range(1, 6):
        for _ in range(20):
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            adj = adjugate_int(A)
            assert adj == [list(r) for r in sympy.Matrix(A).adjugate().tolist()]
            det = _det_int(A)
            prod = [
                [sum(A[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert prod == [[det if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# cached fields and orders


def test_native_field_and_relative_order_are_cached():
    E = integral_basis(59, 2)
    again = integral_basis(59, 2)
    assert again == E and again is E
    assert relative_order(again) is relative_order(E)


def test_supplied_basis_is_verified_on_every_call():
    z8 = ((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H))
    good = integral_basis(1, 2, basis=z8)
    assert integral_basis(1, 2, basis=z8) == good
    bad = ((1, 0, 0, 0), (0, H, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for _ in range(2):
        with pytest.raises(ValueError):
            integral_basis(7, 5, basis=bad)
