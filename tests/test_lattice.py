import random
from fractions import Fraction
from math import ceil, floor, lcm

from nforders.intmath import sqrt_ub
from nforders.lattice import (
    IntModule,
    UnsupportedFieldError,
    enumerate_by_t2,
    find_generator,
    hnf,
    hnf_matrix,
    identity_module,
    kernel_int,
    lll_reduce,
)
from nforders.quadratic import QuadField, from_integral_coords
from oracles import to_module


def random_unimodular(rng, n, steps=8):
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-3, 4)
        for k in range(n):
            U[i][k] += c * U[j][k]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
    return U


def matmul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def principal_module(F, alpha):
    rows = [alpha.integral_coords(), (alpha * F.omega()).integral_coords()]
    return hnf(F, [[int(x), int(y)] for x, y in rows])


def test_hnf_identity_and_example():
    assert hnf_matrix([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert hnf_matrix([[2, 0], [1, 1]]) == [[2, 0], [1, 1]]
    # generating set order must not matter
    assert hnf_matrix([[1, 1], [2, 0]]) == [[2, 0], [1, 1]]


def test_hnf_shape():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        H = hnf_matrix(rows)
        if len(H) < n:
            continue  # singular sample
        for i in range(n):
            assert H[i][i] > 0
            for j in range(i + 1, n):
                assert H[i][j] == 0
            for k in range(i + 1, n):
                assert 0 <= H[k][i] < H[i][i]


def test_hnf_unimodular_invariance():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        H = hnf_matrix(rows)
        if len(H) < n:
            continue
        U = random_unimodular(rng, n)
        assert hnf_matrix(matmul(U, rows)) == H


def test_hnf_rejects_rank_deficient():
    F = QuadField(-5)
    try:
        hnf(F, [[1, 2], [2, 4]])
        assert False
    except ValueError:
        pass


def test_module_normalization():
    F = QuadField(-5)
    m1 = hnf(F, [[2, 0], [0, 2]], den=2)
    assert m1 == identity_module(F)
    m2 = IntModule(F, ((4, 0), (2, 2)), 2)
    assert m2 == IntModule(F, ((2, 0), (1, 1)), 1)


def test_module_contains():
    F = QuadField(-5)
    m = hnf(F, [[2, 0], [1, 1]])
    assert m.contains_coords([2, 0])
    assert m.contains_coords([3, 1])
    assert not m.contains_coords([1, 0])
    assert not m.contains_coords([Fraction(1, 2), Fraction(1, 2)])
    half = hnf(F, [[1, 0], [0, 1]], den=2)
    assert half.contains_coords([Fraction(1, 2), 0])


def test_module_add_intersect_kernel():
    rng = random.Random(22)
    F = QuadField(-5)
    for _ in range(60):
        rows1 = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
        rows2 = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
        try:
            a = hnf(F, rows1, den=rng.choice([1, 2, 3]))
            b = hnf(F, rows2, den=rng.choice([1, 2]))
        except ValueError:
            continue
        s = a.add(b)
        i = a.intersect(b)
        assert s.contains_module(a) and s.contains_module(b)
        assert a.contains_module(i) and b.contains_module(i)
        # det identity: cov(A meet B) * cov(A join B) = cov(A) * cov(B)
        assert i.covolume() * s.covolume() == a.covolume() * b.covolume()


def test_kernel_int_against_sympy():
    # the basis lies in the kernel, has m - rank rows, and is saturated:
    # its Smith factors are all 1, so every integer kernel vector is an
    # integer combination of it
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(29)
    for trial in range(150):
        m = rng.choice([1, 2, 3, 4, 5, 6, 8])
        n = rng.choice([1, 2, 3, 4])
        A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        if trial % 3 == 1 and m >= 3:
            # rank-deficient: the last row a combination of the first two
            c1, c2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
            A[-1] = [c1 * a + c2 * b for a, b in zip(A[0], A[1])]
        elif trial % 3 == 2:
            for i in rng.sample(range(m), rng.randrange(1, m + 1)):
                A[i] = [0] * n
        K = kernel_int(A)
        assert len(K) == m - sympy.Matrix(A).rank(), A
        if not K:
            continue
        assert all(len(vec) == m for vec in K)
        assert sympy.Matrix(K) * sympy.Matrix(A) == sympy.zeros(len(K), n), A
        S = sympy_snf(sympy.Matrix(K))
        assert [S[i, i] for i in range(len(K))] == [1] * len(K), A


def test_t2_gram_det_is_abs_disc():
    from nforders.biquadratic import integral_basis
    from nforders.lattice import _det_int

    H = Fraction(1, 2)
    fields = [QuadField(D) for D in (-1, -2, -3, -5, -59, 2, 5, 13)] + [
        integral_basis(59, 2),
        integral_basis(11, 10),
        integral_basis(
            1, 2, basis=((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H)),
            disc=256,
        ),
    ]
    for F in fields:
        G = F.t2_gram_matrix()
        assert all(isinstance(x, int) for row in G for x in row), F
        assert _det_int(G) == abs(F.disc), F


def test_kernel_int():
    rng = random.Random(23)
    for _ in range(80):
        m = rng.choice([2, 3, 4])
        n = rng.choice([2, 3])
        A = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        K = kernel_int(A)
        for vec in K:
            assert all(
                sum(vec[i] * A[i][j] for i in range(m)) == 0 for j in range(n)
            )


def test_lll_preserves_module():
    rng = random.Random(24)
    F = QuadField(-59)
    g = F.t2_gram_matrix()
    for _ in range(40):
        rows = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(2)]
        try:
            m = hnf(F, rows, den=rng.choice([1, 2]))
        except ValueError:
            continue
        red = lll_reduce(m, g)
        assert to_module(red) == m


def test_lll_shortens_skewed_basis():
    F = QuadField(-5)
    ident = ((1, 0), (0, 1))
    m = hnf(F, [[1, 0], [10**6, 1]])
    red = lll_reduce(m, ident)
    # determinant 1 lattice (= Z^2): LLL must find a unit vector
    assert min(apply(ident, r) for r in red.rows) == 1
    # an orthogonal basis passes through up to sign/order
    m2 = hnf(F, [[3, 0], [0, 2]])
    red2 = lll_reduce(m2, ident)
    assert sorted(abs(r[0] * r[1]) == 0 for r in red2.rows) == [True, True]


# ---------------------------------------------------------------------------
# rational LLL and Fincke-Pohst: test-only oracles for the integral kernel.
# The oracles take a rational form g (a tuple of rows); the kernel takes its
# integer multiple L*g, and the bound times L.  LLL and the ball
# v g v^t <= bound do not change when both are scaled by the same L > 0.


def bilinear(g, u, v) -> Fraction:
    n = len(g)
    return sum(
        Fraction(u[i]) * g[i][j] * Fraction(v[j]) for i in range(n) for j in range(n)
    )


def apply(g, v) -> Fraction:
    return bilinear(g, v, v)


def integer_multiple(g):
    """(L, L*g) for the rational form g, L the lcm of its denominators."""
    L = lcm(*(Fraction(x).denominator for row in g for x in row))
    return L, tuple(tuple(int(L * x) for x in row) for row in g)


def form_int(g, u) -> int:
    """u g u^t for an integer form g and an integer vector u."""
    return sum(a * sum(b * c for b, c in zip(row, u)) for a, row in zip(u, g))


def rational_gso(basis, g):
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        B[i] = apply(g, basis[i])
        for j in range(i):
            mu[i][j] = bilinear(g, basis[i], basis[j])
            mu[i][j] -= sum(mu[i][l] * mu[j][l] * B[l] for l in range(j))
            mu[i][j] /= B[j]
            B[i] -= mu[i][j] * mu[i][j] * B[j]
    return mu, B


def rational_lll(m, g, delta=Fraction(3, 4)):
    """LLL recomputing exact rational Gram-Schmidt data after every step."""
    basis = [list(r) for r in m.rows]
    n = len(basis)
    mu, B = rational_gso(basis, g)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = floor(mu[k][j] + Fraction(1, 2))
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                mu, B = rational_gso(basis, g)
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, B = rational_gso(basis, g)
            k = max(k - 1, 1)
    return tuple(map(tuple, basis))


def rational_enumerate(m, g, bound):
    """Fincke-Pohst on the rational Cholesky form of the reduced Gram."""
    bound = Fraction(bound)
    if bound <= 0:
        return []
    rows = [list(r) for r in rational_lll(m, g)]
    n = len(rows)
    den = m.den
    q = [[bilinear(g, rows[i], rows[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        orig = [q[i][j] for j in range(i + 1, n)]
        for j in range(i + 1, n):
            q[i][j] = q[i][j] / q[i][i]
        for j in range(i + 1, n):
            t = orig[j - i - 1]
            for k in range(j, n):
                q[j][k] -= t * q[i][k]
    out = []
    x = [0] * n

    def descend(i, rem):
        if i < 0:
            if any(x):
                out.append(
                    tuple(
                        Fraction(sum(x[k] * rows[k][j] for k in range(n)), den)
                        for j in range(n)
                    )
                )
            return
        U = sum(q[i][j] * x[j] for j in range(i + 1, n))
        s = sqrt_ub(rem / q[i][i])
        for xi in range(ceil(-s - U), floor(s - U) + 1):
            t = q[i][i] * (xi + U) ** 2
            if t <= rem:
                x[i] = xi
                descend(i - 1, rem - t)
        x[i] = 0

    descend(n - 1, bound * den * den)
    seen = {}
    for vec in out:
        if next(c for c in vec if c) < 0:
            vec = tuple(-y for y in vec)
        seen[vec] = apply(g, vec)
    return sorted(seen, key=lambda v: (seen[v], v))


class Ambient:
    def __init__(self, degree):
        self.degree = degree


def random_form(rng, n):
    """B^t diag(D) B with B nonsingular and D positive, denominators | 6,
    as a tuple of Fraction rows."""
    while True:
        B = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        if len(hnf_matrix(B)) == n:
            break
    dens = rng.choice([(1,), (2,), (3,), (6,), (1, 2, 3, 6)])
    D = [Fraction(rng.randrange(1, 7), rng.choice(dens)) for _ in range(n)]
    return tuple(
        tuple(sum(B[k][i] * D[k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def random_module(rng, n, spread=40):
    while True:
        rows = [
            [rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)
        ]
        try:
            return hnf(Ambient(n), rows, den=rng.choice([1, 2, 3]))
        except ValueError:
            continue


def test_lll_matches_rational_lll():
    rng = random.Random(31)
    for trial in range(500):
        n = 2 if trial % 2 else 4
        g = random_form(rng, n)
        _, gL = integer_multiple(g)
        m = random_module(rng, n, spread=6)
        for delta in (Fraction(3, 4), Fraction(99, 100)):
            rows = lll_reduce(m, gL, delta).rows
            assert rows == rational_lll(m, g, delta), (m, g, delta)
            # independently: size-reduced and Lovasz with Fractions
            mu, B = rational_gso(rows, g)
            for k in range(1, n):
                assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
                assert B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]


def test_lll_tie_cases():
    # mu = 1/2 exactly: q = floor(mu + 1/2) = 1 acts (|2 lam| > d would not)
    ident = ((1, 0), (0, 1))
    m = hnf(Ambient(2), [[2, 0], [1, 1]])
    assert lll_reduce(m, ident).rows == rational_lll(m, ident) == ((-1, 1), (1, 1))
    # Lovasz with equality, B1 = (3/4 - 0) * B0 = 3: no swap
    g = ((1, 0), (0, 3))
    m = hnf(Ambient(2), [[2, 0], [0, 1]])
    assert lll_reduce(m, g).rows == rational_lll(m, g) == ((2, 0), (0, 1))


def test_lll_identity_form_against_sympy():
    import sympy

    rng = random.Random(32)
    for trial in range(60):
        n = 2 if trial % 2 else 4
        m = random_module(rng, n, spread=10**4)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        red = lll_reduce(m, ident)
        ref = sympy.Matrix([list(r) for r in m.rows]).lll()
        ref_rows = [[int(ref[i, j]) for j in range(n)] for i in range(n)]
        assert to_module(red) == hnf(m.ambient, ref_rows, m.den) == m


def test_lll_rejects_bad_delta():
    F = QuadField(-5)
    ident = ((1, 0), (0, 1))
    for delta in (Fraction(2), Fraction(1, 4), Fraction(0)):
        try:
            lll_reduce(identity_module(F), ident, delta)
            assert False, delta
        except ValueError:
            pass
    # the closed end of (1/4, 1] is accepted
    assert to_module(lll_reduce(identity_module(F), ident, Fraction(1))) == (
        identity_module(F)
    )


def test_enumerate_matches_rational_enumerate():
    rng = random.Random(33)
    for trial in range(160):
        n = 2 if trial % 2 else 4
        g = random_form(rng, n)
        L, gL = integer_multiple(g)
        m = random_module(rng, n, spread=12)
        shortest = min(apply(g, r) for r in rational_lll(m, g)) / m.den**2
        bound = shortest * Fraction(rng.randrange(1, 25), rng.choice([4, 6, 7]))
        got = [
            tuple(Fraction(c, m.den) for c in u)
            for u in enumerate_by_t2(m, gL, L * bound)
        ]
        assert got == rational_enumerate(m, g, bound), (m, g, bound)
        values = [apply(g, v) for v in got]
        assert values == sorted(values)
        assert all(0 < t <= bound for t in values)


def test_lll_rejects_indefinite():
    F = QuadField(-5)
    bad = ((1, 0), (0, -1))
    try:
        lll_reduce(identity_module(F), bad)
        assert False
    except ValueError:
        pass


def test_lll_rejects_fraction_entries():
    # the exact floors of the integral LLL would round a Fraction entry, so
    # the form ((1, 1/2), (1/2, 5/3)) is refused, not enumerated as if it
    # were its integer multiple ((6, 3), (3, 10)) by 6
    m = identity_module(QuadField(-5))
    g = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 3)))
    for call in (lambda: lll_reduce(m, g), lambda: enumerate_by_t2(m, g, 10)):
        try:
            call()
            assert False
        except ValueError:
            pass
    assert integer_multiple(g) == (6, ((6, 3), (3, 10)))
    assert enumerate_by_t2(m, ((6, 3), (3, 10)), 60)


def test_enumerate_z2():
    F = QuadField(-5)
    ident = ((1, 0), (0, 1))
    m = identity_module(F)
    assert enumerate_by_t2(m, ident, 0) == []
    vecs = enumerate_by_t2(m, ident, 2)
    assert vecs == [(0, 1), (1, 0), (1, -1), (1, 1)]


def test_enumerate_against_box_scan():
    rng = random.Random(25)
    F = QuadField(-2)
    for _ in range(15):
        rows = [[rng.randrange(-4, 5) for _ in range(2)] for _ in range(2)]
        g = ((2, 0), (0, 4))
        try:
            m = hnf(F, rows, den=rng.choice([1, 2]))
        except ValueError:
            continue
        bound = rng.randrange(5, 21)
        got = enumerate_by_t2(m, g, bound)
        # oracle: plain box scan over basis coefficients, on the numerators
        # u = den * v: v g v^t <= bound reads u g u^t <= bound * den^2
        expect = set()
        B = 80
        limit = bound * m.den**2
        for x in range(-B, B + 1):
            for y in range(-B, B + 1):
                if x == 0 and y == 0:
                    continue
                vec = tuple(x * m.rows[0][j] + y * m.rows[1][j] for j in range(2))
                if form_int(g, vec) <= limit:
                    for c in vec:
                        if c != 0:
                            if c < 0:
                                vec = tuple(-t for t in vec)
                            break
                    expect.add(vec)
        assert set(got) == expect
        assert len(got) == len(set(got))


def test_enumerate_amgm():
    F = QuadField(-59)
    g = F.t2_gram_matrix()
    m = identity_module(F)
    for vec in enumerate_by_t2(m, g, 40):
        e = F.from_basis_coords(vec)
        assert e.abs_norm() <= (apply(g, vec) / 2)


def test_find_generator_roundtrip():
    rng = random.Random(26)
    for D in (-59, -2, -1, -7):
        F = QuadField(D)
        for _ in range(8):
            x, y = rng.randrange(-8, 9), rng.randrange(-8, 9)
            if x == 0 and y == 0:
                continue
            alpha = from_integral_coords(F, x, y)
            m = principal_module(F, alpha)
            beta = find_generator(m, int(alpha.abs_norm()))
            assert beta is not None
            assert beta.abs_norm() == alpha.abs_norm()
            # same principal module means associate generators
            assert principal_module(F, beta) == m


def test_find_generator_prime_above_17():
    from nforders.quadratic import split_prime

    F = QuadField(-59)
    s = split_prime(F, 17)
    m = hnf(F, [list(r) for r in s.hnf])
    beta = find_generator(m, 17)
    assert beta is not None
    assert beta.abs_norm() == 17
    assert beta.is_integral()
    assert principal_module(F, beta) == m


def test_find_generator_nonprincipal():
    # (2, 1 + sqrt(-5)) in Z[sqrt(-5)] has norm 2 but x^2 + 5y^2 = 2 is empty
    F = QuadField(-5)
    m = hnf(F, [[2, 0], [1, 1]])
    assert m.covolume() == 2
    assert find_generator(m, 2) is None
    # a split prime above 3 in Q(sqrt(-59)) is non-principal (h = 3)
    F59 = QuadField(-59)
    from nforders.quadratic import split_prime

    s3 = split_prime(F59, 3)
    assert s3.kind == "split"
    m3 = hnf(F59, [list(r) for r in s3.hnf])
    assert find_generator(m3, 3) is None


def test_find_generator_rejects_real():
    F = QuadField(7)
    try:
        find_generator(identity_module(F), 1)
        assert False
    except UnsupportedFieldError:
        pass


def test_smith_normal_form_known():
    from nforders.lattice import smith_normal_form

    assert smith_normal_form([[2, 0], [0, 6]]) == [2, 6]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    # rank-deficient input yields fewer factors
    assert smith_normal_form([[2, 4], [1, 2]]) == [1]


def test_smith_normal_form_against_sympy():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    from nforders.lattice import smith_normal_form

    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = n + rng.choice([0, 1, 2])
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        got = smith_normal_form(A)
        S = sympy_snf(sympy.Matrix(A))
        want = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0]
        assert got == want, A


def test_smith_normal_form_against_sympy_deficient_tall_and_wide():
    # rank-deficient matrices (a row a combination of two others), more
    # rows than columns, and 18 columns, the width of a quartic class
    # group's relation matrix
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    from nforders.lattice import smith_normal_form

    rng = random.Random(71)
    for trial in range(60):
        n = rng.choice([2, 3, 5, 18])
        m = rng.choice([n, n + 1, 2 * n]) if n < 18 else rng.choice([18, 24])
        A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        if trial % 2:
            for i in range(rng.randrange(1, m)):
                a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
                A[i] = [a * x + b * y for x, y in zip(A[-1], A[-2])]
        got = smith_normal_form(A)
        S = sympy_snf(sympy.Matrix(A))
        want = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0]
        assert got == want, A
        assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_smith_normal_form_unimodular_invariance():
    from nforders.lattice import smith_normal_form

    rng = random.Random(14)
    for _ in range(25):
        n = rng.choice([2, 3])
        A = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)]
        U = random_unimodular(rng, n)
        V = random_unimodular(rng, n)
        assert smith_normal_form(matmul(matmul(U, A), V)) == smith_normal_form(A)


def test_enumerate_rank4_with_cross_terms():
    # Gram with off-diagonal entries; count vectors by brute force
    G = ((8, 0, -4, -4), (0, 8, -4, -4), (-4, -4, 8, 4), (-4, -4, 4, 8))
    F = QuadField(-1)  # placeholder ambient; only degree is read

    class Amb:
        degree = 4

    m = IntModule(Amb(), tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), 1)
    got = enumerate_by_t2(m, G, 40)
    brute = set()
    R = 6
    for x0 in range(-R, R + 1):
        for x1 in range(-R, R + 1):
            for x2 in range(-R, R + 1):
                for x3 in range(-R, R + 1):
                    v = (x0, x1, x2, x3)
                    if v == (0, 0, 0, 0):
                        continue
                    if form_int(G, v) <= 40:
                        if any(c != 0 for c in v) and next(c for c in v if c) < 0:
                            v = tuple(-c for c in v)
                        brute.add(v)
    assert set(got) == brute
