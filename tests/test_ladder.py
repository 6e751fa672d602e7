"""The integer window ladder of find_generator against the Fraction code it
replaced: the twisted Gram of every window, the stabilising power m of the
Pell unit, and the generator find_generator returns.  The oracles below
keep that earlier code as it was: Fraction multiplication matrices, a
transform/contains_module stabilisation test, and a Fincke-Pohst descent
over the whole ball."""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from nforders import criteria
from nforders.biquadratic import integral_basis
from nforders.criteria import prime_elements
from nforders.intmath import sqrt_lb, sqrt_ub
from nforders.lattice import (
    IntModule,
    UnsupportedFieldError,
    _det_int,
    _twisted_gram,
    _unit_ladder,
    find_generator,
    identity_module,
    ladder_data,
    lll_reduce,
)
from nforders.quadratic import (
    QuadField,
    cf_sqrt,
    integer_rows,
    pell_solve,
    table_matrix,
)
from oracles import fundamental_unit

H = Fraction(1, 2)
Q = Fraction(1, 4)

E59 = integral_basis(59, 2)
E1110 = integral_basis(11, 10)
E8 = integral_basis(
    1, 2, basis=((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H)), disc=256
)
E37 = integral_basis(
    3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=441
)
FIELDS = (E59, E1110, E8, E37)

# the prime elements of norm <= 1000 that reach the generator search
REPRESENT_FIELDS = ((59, 2), (11, 10))
REPRESENT_NORM = 1000
REPRESENT_POOL_SIZE = 109


# ---------------------------------------------------------------------------
# oracles: the Fraction ladder


def oracle_twisted_gram(field, h, k) -> tuple:
    """The Gram of T2(x * (h - k*sqrt(D0))) as the Fraction product
    (M G) M^t, M the multiplication matrix of h - k*sqrt(D0), checked
    integral."""
    G = field.t2_gram_matrix()
    M = field.mult_matrix(field.from_real_quadratic(Fraction(h), Fraction(-k)))
    MG = [[sum(Ma[i] * G[i][j] for i in range(4)) for j in range(4)] for Ma in M]
    return integer_rows(
        [[sum(x * y for x, y in zip(MGa, Mb)) for Mb in M] for MGa in MG],
        "twisted Gram",
    )


def oracle_power(field, module) -> int:
    """Smallest m >= 1 with eps^m * module inside the module, eps the Pell
    unit as a field element, decided by transform and contains_module."""
    D0, _ = field.real_subfield_data()
    r = pell_solve(D0, -1)
    if r.solution is None:
        r = pell_solve(D0, 1)
    eps = field.from_real_quadratic(Fraction(r.solution.x), Fraction(r.solution.y))
    for m in range(1, 65):
        if module.contains_module(module.transform(field.mult_matrix(eps**m))):
            return m
    raise UnsupportedFieldError("no stabilising power")


def oracle_ladder(field, module):
    m = oracle_power(field, module)
    D0, _ = field.real_subfield_data()
    cf = cf_sqrt(D0)
    quots = [cf.a0] + list(cf.period) * m
    gammas = [(1, 0)]
    h1, h2, k1, k2 = 1, 0, 0, 1
    for a in quots[: m * len(cf.period)]:
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        gammas.append((h1, k1))
    return D0, m, gammas


def oracle_enumerate(m, g, bound) -> list:
    """Fincke-Pohst over the whole ball, both signs of every point, with
    the integral Gram-Schmidt data of the LLL-reduced rows; the points are
    returned as Fraction coordinate tuples."""
    bound = Fraction(bound)
    if bound <= 0:
        return []
    red = lll_reduce(m, g)
    rows, den = red.rows, red.den
    n = len(rows)
    d, lam = red.gso
    budget = bound * (den * den)
    P = 1
    for i in range(n):
        P = lcm(P, d[i] * d[i + 1])
    scale = P * budget.denominator
    c = [scale // (d[i] * d[i + 1]) for i in range(n)]
    total = budget.numerator * P
    cols = list(zip(*rows))
    seen = {}
    x = [0] * n

    def descend(i, rem):
        if i < 0:
            vec = [sum(a * b for a, b in zip(x, col)) for col in cols]
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
        for xi in range(-((s + S) // D), (s - S) // D + 1):
            y = D * xi + S
            x[i] = xi
            descend(i - 1, rem - c[i] * y * y)
        x[i] = 0

    descend(n - 1, total)
    seen.pop((0,) * len(cols), None)
    return [
        tuple(Fraction(v, den) for v in vec)
        for vec in sorted(seen, key=lambda v: (seen[v], v))
    ]


def form_value(g, v) -> Fraction:
    """v g v^t in Fractions."""
    return sum(
        Fraction(a) * gij * b for a, row in zip(v, g) for gij, b in zip(row, v)
    )


def oracle_pick(field, coords_list, g):
    best = best_key = None
    for coords in coords_list:
        for c in coords:
            if c != 0:
                if c < 0:
                    coords = tuple(-y for y in coords)
                break
        key = (form_value(g, coords), coords)
        if best_key is None or key < best_key:
            best, best_key = coords, key
    return field.from_basis_coords(best) if best is not None else None


def oracle_norm_filter(module, norm):
    """|N(u/den)| == norm for the points u of the module, from the
    determinant of u's integer multiplication matrix: |N(u/den)| =
    |det M_u| / den^r."""
    T = module.ambient.mult_table
    target = norm * module.den**module.ambient.degree
    return lambda u: abs(_det_int(table_matrix(T, u))) == target


def oracle_find_generator(module, norm):
    """find_generator on the Fraction ladder, for rank-4 modules."""
    field = module.ambient
    norm = Fraction(norm)
    G = field.t2_gram_matrix()
    keep = oracle_norm_filter(module, norm)
    D0, m, gammas = oracle_ladder(field, module)
    su = sqrt_ub(Fraction(D0))
    sl = sqrt_lb(Fraction(D0))
    cands = []
    for i in range(len(gammas) - 1):
        h, k = gammas[i]
        h2, k2 = gammas[i + 1]
        Qn = abs(h * h - D0 * k * k)
        A = h2 * h - D0 * k2 * k
        Bc = k2 * h - h2 * k
        n_eta = A * A - D0 * Bc * Bc
        p2, q2 = A * A + D0 * Bc * Bc, 2 * A * Bc
        P4 = p2 * p2 + D0 * q2 * q2
        Q4 = 2 * p2 * q2
        g_ub = Fraction(P4 + Q4 * (su if Q4 > 0 else sl), n_eta * n_eta)
        g_lb = Fraction(P4 + Q4 * (sl if Q4 > 0 else su), n_eta * n_eta)
        if g_lb <= 0:
            g_lb = Fraction(1)
        ball = 2 * Qn * (sqrt_ub(norm * g_ub) + sqrt_ub(norm / g_lb))
        Gi = oracle_twisted_gram(field, h, k)
        cands.extend(
            v
            for v in oracle_enumerate(module, Gi, ball)
            if keep([int(c * module.den) for c in v])
        )
    return oracle_pick(field, cands, G)


# ---------------------------------------------------------------------------
# inputs


def represent_calls():
    """(module, norm) of every find_generator call represent makes on the
    prime elements of norm <= REPRESENT_NORM of (59, 2) and (11, 10)."""
    calls = []

    def record(module, norm):
        calls.append((module, norm))
        return find_generator(module, norm)

    saved = criteria.find_generator
    criteria.find_generator = record
    try:
        for d, n in REPRESENT_FIELDS:
            for p in prime_elements(QuadField(-d), REPRESENT_NORM):
                if not criteria._divides(p, 2 * n):
                    criteria.represent(p, d, n)
    finally:
        criteria.find_generator = saved
    return calls


@pytest.fixture(scope="module")
def pool():
    calls = represent_calls()
    assert len(calls) == REPRESENT_POOL_SIZE
    return calls


def random_modules(rng, field, count):
    """Full-rank modules f*Z^4 + (random rows), over a random denominator,
    for f in 2..6: most are not stabilised by eps itself."""
    out = []
    while len(out) < count:
        f = rng.randrange(2, 7)
        rows = [[rng.randrange(f) for _ in range(4)] for _ in range(rng.randrange(1, 3))]
        rows += [[f * (i == j) for j in range(4)] for i in range(4)]
        out.append(IntModule(field, tuple(map(tuple, rows)), rng.choice([1, 2, 3])))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedFieldError:
        return "unsupported"


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_window_grams_equal_fraction_products(field):
    rng = random.Random(71)
    modules = [identity_module(field)] + random_modules(rng, field, 6)
    seen = set()
    for module in modules:
        try:
            _, m, gammas = _unit_ladder(field, module)
        except UnsupportedFieldError:
            continue
        seen.add(m)
        for h, k in gammas[:-1]:
            want = oracle_twisted_gram(field, h, k)
            got = _twisted_gram(ladder_data(field), h, k)
            assert got == want
    assert len(seen) > 1  # windows over more than one period


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_power_matches_oracle_on_random_modules(field):
    rng = random.Random(100 * field.d + field.n)
    powers = []
    for module in random_modules(rng, field, 12):
        want = outcome(oracle_ladder, field, module)
        got = outcome(_unit_ladder, field, module)
        assert got == want
        powers.append(want if want == "unsupported" else want[1])
    assert any(p != 1 for p in powers)


def test_power_matches_oracle_on_represent_ideals(pool):
    for module, _ in pool:
        assert _unit_ladder(module.ambient, module) == oracle_ladder(
            module.ambient, module
        )


def test_find_generator_matches_oracle_on_represent_pool(pool):
    found = 0
    for module, norm in pool:
        want = oracle_find_generator(module, norm)
        assert find_generator(module, norm) == want
        found += want is not None
    # both outcomes are exercised: generators and proven non-principality
    assert 0 < found < len(pool)


def test_fundamental_unit_is_the_ladder_unit():
    for field in FIELDS:
        x0, y0 = ladder_data(field).unit
        eps = fundamental_unit(field)
        assert eps == field.from_real_quadratic(x0, y0)
        assert abs(x0 * x0 - field.real_subfield_data()[0] * y0 * y0) == 1


def test_ladder_data_is_integral():
    for field in FIELDS:
        lad = ladder_data(field)
        sq = field.from_real_quadratic(0, 1)
        assert [list(r) for r in lad.E] == [
            list(r) for r in field.mult_matrix(fundamental_unit(field))
        ]
        assert sq * sq == field.from_real_quadratic(lad.D0, 0)
        assert all(type(x) is int for M in (lad.G, lad.cross, lad.outer, lad.E)
                   for row in M for x in row)
