"""The integer window ladder of find_generator against the Fraction code it
replaced: the twisted Gram of every window, the ladder unit (the midpoint
unit v where the field has one, else the Pell unit eps) and its stabilising
power m, and the generator find_generator returns.  The oracles below keep
that earlier code as it was: Fraction multiplication matrices, a
transform/contains_module stabilisation test, and a Fincke-Pohst descent
over the whole ball of every window of whole periods of eps.  The early
stop of the walk is checked against oracles.full_ladder_search, the
search of every centred window it replaced, and against
oracles.range_reach_search, the stop on the reach of each window's lam
range that the stop at each stretch's edge nearer 0 replaced."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain
from math import floor, isqrt, lcm

import pytest

from nforders import criteria, lattice, quadratic
from nforders.biquadratic import factor_rational_prime, integral_basis
from nforders.criteria import prime_elements
from nforders.intmath import jacobi, sqrt_ub
from nforders.lattice import (
    IntModule,
    UnsupportedFieldError,
    _budget,
    _det_int,
    _norm_filter,
    _times,
    _twisted_gram,
    _unit_ladder,
    adjugate_int,
    enumerate_by_t2,
    find_generator,
    hnf,
    identity_module,
    ladder_data,
    lll_reduce,
)
from nforders.quadratic import (
    QuadField,
    _before,
    _in_range,
    _ladder_windows,
    _rmul,
    _stretches,
    cf_sqrt,
    integer_rows,
    table_matrix,
)
from oracles import (
    FracBiquad,
    canonical_pick,
    full_ladder_points,
    full_ladder_search,
    fundamental_unit,
    ladder_rungs,
    mult_matrix,
    naive_to_coords,
    range_reach_search,
    range_reaches,
    rung_windows,
    sqrt_lb,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)

E59 = integral_basis(59, 2)
E1110 = integral_basis(11, 10)
E8 = integral_basis(
    1, 2, basis=((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H))
)
E37 = integral_basis(
    3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
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
    G = field.t2_gram_matrix
    M = mult_matrix(field, field.from_real_quadratic(Fraction(h), Fraction(-k)))
    MG = [[sum(Ma[i] * G[i][j] for i in range(4)) for j in range(4)] for Ma in M]
    return integer_rows(
        [[sum(x * y for x, y in zip(MGa, Mb)) for Mb in M] for MGa in MG],
        "twisted Gram",
    )


def oracle_power(module, unit, max_power) -> int:
    """Smallest m in 1..max_power with unit^m * module inside the module,
    unit a field element, decided by transform and contains_module."""
    for m in range(1, max_power + 1):
        if module.contains_module(module.transform(unit**m)):
            return m
    raise UnsupportedFieldError("no stabilising power")


def oracle_convergents(D0, count):
    """1 and the first `count` convergents h + k*sqrt(D0) of sqrt(D0), by
    the recurrence on the partial quotients."""
    cf = cf_sqrt(D0)
    quots = [cf.a0] + list(cf.period) * (count // len(cf.period) + 1)
    gammas = [(1, 0)]
    h1, h2, k1, k2 = 1, 0, 0, 1
    for a in quots[:count]:
        h1, h2 = a * h1 + h2, h1
        k1, k2 = a * k1 + k2, k1
        gammas.append((h1, k1))
    return gammas


def period_length(field) -> int:
    return len(cf_sqrt(field.real_subfield_data()[0]).period)


def oracle_ladder(field, module):
    """(D0, m, convergents over m periods): the full ladder of the Pell
    unit eps, eps^m the least power that stabilises the module, m <= 64."""
    D0, _ = field.real_subfield_data()
    m = oracle_power(module, fundamental_unit(field), 64)
    return D0, m, oracle_convergents(D0, m * period_length(field))


def oracle_midpoint_unit(field):
    """(mid, v) with v = conj(e)/sqrt(-c) a FracBiquad, e = h + k*sqrt(D0)
    the convergent at mid = l/2 of an even period l and c = |N(e)| in
    {d, n}, built from naive coordinates; None when there is no such e."""
    D0, s = field.real_subfield_data()
    l = period_length(field)
    h, k = oracle_convergents(D0, l)[l // 2]
    c = abs(h * h - D0 * k * k)
    if l % 2 or c not in (field.d, field.n):
        return None
    conj_e = FracBiquad(field, naive_to_coords(field, (h, 0, 0, Fraction(-k, s))))
    root = (0, 1, 0, 0) if c == field.d else (0, 0, 1, 0)
    return l // 2, conj_e / FracBiquad(field, naive_to_coords(field, root))


def oracle_ladder_unit(field):
    """(step, u): the midpoint unit v of oracle_midpoint_unit as a field
    element, with step mid, when v is integral with v^2 = -eps^-1; else
    the Pell unit eps, with step l."""
    eps = fundamental_unit(field)
    mv = oracle_midpoint_unit(field)
    if mv is not None:
        mid, v = mv
        if all(c.denominator == 1 for c in v.coords) and v * v == -FracBiquad.of(
            eps.inverse()
        ):
            return mid, field.from_basis_coords(v.coords)
    return period_length(field), eps


def oracle_unit_ladder(field, module):
    """(D0, m, the convergents over m steps): u^m the least power of the
    ladder unit u of oracle_ladder_unit that stabilises the module, within
    64 periods."""
    D0, _ = field.real_subfield_data()
    step, unit = oracle_ladder_unit(field)
    m = oracle_power(module, unit, 64 * period_length(field) // step)
    return D0, m, oracle_convergents(D0, m * step)


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


def matrix_product(A, B) -> list:
    """A B of two matrices of Fractions or ints, entry by entry."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


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


def oracle_ball(D0, gammas, i, norm) -> Fraction:
    """Window i's ball as Fractions: the width w = eta^4 / N(eta)^2,
    eta = gamma_{i+1} * conj(gamma_i), bracketed on both edges with
    sqrt_lb/sqrt_ub of D0, and 2|N(gamma_i)| (sqrt(norm*w) +
    sqrt(norm/w)) rounded up."""
    norm = Fraction(norm)
    su = sqrt_ub(Fraction(D0))
    sl = sqrt_lb(Fraction(D0))
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
    return 2 * Qn * (sqrt_ub(norm * g_ub) + sqrt_ub(norm / g_lb))


def oracle_find_generator(module, norm):
    """find_generator on the Fraction ladder, for rank-4 modules."""
    field = module.ambient
    norm = Fraction(norm)
    G = field.t2_gram_matrix
    keep = oracle_norm_filter(module, norm)
    D0, m, gammas = oracle_ladder(field, module)
    cands = []
    for i in range(len(gammas) - 1):
        h, k = gammas[i]
        ball = oracle_ball(D0, gammas, i, norm)
        Gi = oracle_twisted_gram(field, h, k)
        cands.extend(
            v
            for v in oracle_enumerate(module, Gi, ball)
            if keep([int(c * module.den) for c in v])
        )
    return oracle_pick(field, cands, G)


def oracle_l(e, D0) -> Decimal:
    """l(e) = log|e/e'| of e = h + k*sqrt(D0), in decimals with enough digits
    to resolve the cancellation in e'."""
    h, k = e
    with localcontext() as ctx:
        ctx.prec = 60 + 3 * len(str(abs(h) + abs(k) * D0))
        s = Decimal(D0).sqrt()
        return +(abs(h + k * s) / abs(h - k * s)).ln()


def t2(field, x) -> Fraction:
    """T2(x) of a field element, from its basis coordinates and the T2 Gram."""
    return form_value(field.t2_gram_matrix, x.basis_coords())


def oracle_window_ball2(field, c, edges, norm) -> Fraction:
    """ball^2 of the twist by c = h + k*sqrt(D0) over a stretch, read off
    E's arithmetic: the norm-N points at l(e) have T2(x * conj(c)) =
    sqrt(N / N(e)) T2(e * conj(c)), as e itself is such a point for N =
    N(e); the ball is the larger of the two edges'."""
    conj_c = field.from_real_quadratic(c[0], -c[1])
    return max(
        Fraction(norm) * t2(field, x * conj_c) ** 2 / x.norm()
        for x in (field.from_real_quadratic(*e) for e in edges)
    )


# ---------------------------------------------------------------------------
# inputs


def represent_calls(fields=REPRESENT_FIELDS, bound=REPRESENT_NORM):
    """(module, norm) of every find_generator call represent makes on the
    prime elements of norm <= bound of the fields, by default those of
    norm <= REPRESENT_NORM of (59, 2) and (11, 10)."""
    calls = []

    def record(module, norm):
        calls.append((module, norm))
        return find_generator(module, norm)

    saved = criteria.find_generator
    criteria.find_generator = record
    try:
        for d, n in fields:
            for p in prime_elements(QuadField(-d), bound):
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


def ladder(field, module):
    """_unit_ladder's result in oracle_unit_ladder's terms: (D0, m, gammas),
    m = T / step and gammas the convergents 1, gamma_1, ..., gamma_T."""
    T = _unit_ladder(field, module)
    m, r = divmod(T, ladder_data(field).step)
    assert r == 0 and m >= 1
    D0 = field.norm_forms[0]
    return D0, m, ladder_rungs(D0, T)


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
    windows = []
    D0, G, C = field.norm_forms
    for module in modules:
        try:
            _, m, gammas = ladder(field, module)
        except UnsupportedFieldError:
            continue
        seen.add(m)
        T = len(gammas) - 1
        windows.append(T)
        # the centred windows' weights (p, hk) give the Gram of each twist
        twists = [(1, 0)] if T == 1 else [c for c, _, _ in _stretches(D0, gammas)]
        centred = _ladder_windows(D0, T)[0]
        assert len(centred) == len(twists)
        for (h, k), (w, _, _) in zip(twists, centred):
            assert w == (h * h + D0 * k * k, h * k)
            assert _twisted_gram(G, C, *w) == oracle_twisted_gram(field, h, k)
    # more than one power of the ladder unit, and windows over two periods
    assert len(seen) > 1
    assert max(windows) >= 2 * period_length(field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_power_matches_oracle_on_random_modules(field):
    rng = random.Random(100 * field.d + field.n)
    powers = []
    for module in random_modules(rng, field, 12):
        want = outcome(oracle_unit_ladder, field, module)
        got = outcome(ladder, field, module)
        assert got == want
        powers.append(want if want == "unsupported" else want[1])
    assert any(p != 1 for p in powers)


def test_power_matches_oracle_on_represent_ideals(pool):
    for module, _ in pool:
        field = module.ambient
        assert type(_unit_ladder(field, module)) is int
        assert ladder(field, module) == oracle_unit_ladder(field, module)


def test_find_generator_matches_oracle_on_represent_pool(pool):
    found = 0
    for module, norm in pool:
        want = oracle_find_generator(module, norm)
        assert find_generator(module, norm) == want
        found += want is not None
    # both outcomes are exercised: generators and proven non-principality
    assert 0 < found < len(pool)


def test_fundamental_unit_is_the_ladder_unit():
    # the last convergent of one period is the Pell unit eps, and the ladder
    # unit u steps the ladder by a whole period (u = eps) or by half of one
    # (u^2 = -eps^-1, so U U E = -I)
    minus_one = [[-int(i == j) for j in range(4)] for i in range(4)]
    for field in FIELDS:
        lad = ladder_data(field)
        l = period_length(field)
        x0, y0 = oracle_convergents(field.real_subfield_data()[0], l)[-1]
        eps = fundamental_unit(field)
        assert eps == field.from_real_quadratic(x0, y0)
        assert abs(x0 * x0 - field.real_subfield_data()[0] * y0 * y0) == 1
        E = mult_matrix(field, eps)
        if lad.step == l:
            assert [list(r) for r in lad.U] == [list(r) for r in E]
        else:
            assert 2 * lad.step == l
            assert [list(r) for r in _times(_times(lad.U, lad.U), E)] == minus_one


def test_ladder_data_is_integral():
    for field in FIELDS:
        lad = ladder_data(field)
        D0, G, C = field.norm_forms
        step, unit = oracle_ladder_unit(field)
        assert lad.step == step and lad.period == period_length(field)
        sq = field.from_real_quadratic(0, 1)
        assert [list(r) for r in lad.U] == [list(r) for r in mult_matrix(field, unit)]
        assert sq * sq == field.from_real_quadratic(D0, 0)
        assert all(type(x) is int for M in (G, C, lad.U)
                   for row in M for x in row)
        # C = S G + G S^t, S the matrix of sqrt(D0), in Fractions
        assert G == field.t2_gram_matrix
        SG = matrix_product(mult_matrix(field, sq), G)
        assert [list(r) for r in C] == [
            [SG[i][j] + SG[j][i] for j in range(4)] for i in range(4)
        ]


# ---------------------------------------------------------------------------
# half a period: the midpoint unit v of E


MIDPOINT_FIELDS = (E59, E1110, integral_basis(71, 2), integral_basis(79, 2),
                   integral_basis(31, 6))


@pytest.mark.parametrize("field", MIDPOINT_FIELDS, ids=repr)
def test_midpoint_unit_is_a_square_root_of_minus_eps_inverse(field):
    lad = ladder_data(field)
    mid, v = oracle_midpoint_unit(field)
    assert mid == lad.period // 2 == period_length(field) // 2 == lad.step
    assert _unit_ladder(field, identity_module(field)) == mid
    # v and v^-1 are integral: v is a unit of O_E
    assert all(c.denominator == 1 for c in v.coords)
    assert all(c.denominator == 1 for c in v.inverse().coords)
    V = mult_matrix(field, field.from_basis_coords(v.coords))
    assert [list(r) for r in lad.U] == [list(r) for r in V]
    assert all(type(x) is int for row in lad.U for x in row)
    # v^2 = -eps^-1, so v^-1 = -v*eps: V V E = -I
    eps = fundamental_unit(field)
    eps_inv = mult_matrix(field, eps.inverse())
    assert [list(r) for r in _times(lad.U, lad.U)] == [[-x for x in r] for r in eps_inv]
    minus_one = [[-int(i == j) for j in range(4)] for i in range(4)]
    E = mult_matrix(field, eps)
    assert [list(r) for r in _times(_times(lad.U, lad.U), E)] == minus_one


def test_no_midpoint_unit_on_23_5():
    E235 = integral_basis(23, 5)
    lad = ladder_data(E235)
    assert oracle_midpoint_unit(E235) is None
    # the ladder unit is eps, one period of 10 windows a step
    assert lad.step == lad.period == period_length(E235) == 10
    E = mult_matrix(E235, fundamental_unit(E235))
    assert [list(r) for r in lad.U] == [list(r) for r in E]
    assert _unit_ladder(E235, identity_module(E235)) == 10


def ladder_size(module) -> int:
    """The number of centred windows of the module's ladder."""
    T = _unit_ladder(module.ambient, module)
    return len(_ladder_windows(module.ambient.norm_forms[0], T)[0])


def test_represent_pool_runs_half_a_period(monkeypatch, pool):
    # 5 windows per (59, 2) ladder and 1 per (11, 10) ladder: 201 in all,
    # where the full period ran 402; stopping early, the walks run 161
    # of them, 75 on (59, 2).  The walk runs with no character test
    built = {E59: [], E1110: []}
    searched = {E59: [], E1110: []}
    lll = lattice.lll_reduce

    def count(m, g):
        searched[m.ambient][-1] += 1
        return lll(m, g)

    monkeypatch.setattr(lattice, "lll_reduce", count)
    for module, norm in pool:
        built[module.ambient].append(ladder_size(module))
        searched[module.ambient].append(0)
        lattice._window_walk(module, norm)
    assert set(built[E59]) == {5} and set(built[E1110]) == {1}
    assert sum(built[E59]) + sum(built[E1110]) == 201
    assert sum(searched[E59]) == 75 and sum(searched[E1110]) == 86
    assert sum(searched[E59]) + sum(searched[E1110]) == 161


def test_characters_decide_44_pool_nones_before_the_walk(monkeypatch, pool):
    # find_generator on the pool: a genus character of (11, 10) is -1 at 44
    # norms, all through (5/q) = (-8/q) = -1, and those 44 one-window
    # ladders are never built or searched; (59, 2), whose characters -59
    # and -8 are 1 at every norm of a prime with a root of -2, walks as
    # before.  117 LLL calls and 117 enumerations, where the walks make 161
    calls = {"lll": 0, "enum": 0}
    ladders = []
    lll, enum, ladder_of = lattice.lll_reduce, lattice.enumerate_by_t2, lattice._unit_ladder

    def count_lll(m, g):
        calls["lll"] += 1
        return lll(m, g)

    def count_enum(red, bound):
        calls["enum"] += 1
        return enum(red, bound)

    def count_ladder(field, module):
        ladders.append(field)
        return ladder_of(field, module)

    monkeypatch.setattr(lattice, "lll_reduce", count_lll)
    monkeypatch.setattr(lattice, "enumerate_by_t2", count_enum)
    monkeypatch.setattr(lattice, "_unit_ladder", count_ladder)
    decided = {E59: 0, E1110: 0}
    for module, norm in pool:
        before = calls["lll"], len(ladders)
        alpha = lattice.find_generator(module, norm)
        if (calls["lll"], len(ladders)) == before:
            assert alpha is None
            decided[module.ambient] += 1
            assert any(jacobi(p, norm) == -1 for p in module.ambient.genus_characters)
            assert [jacobi(p, norm) for p in (5, -8)] == [-1, -1]
    assert decided == {E59: 0, E1110: 44}
    assert calls == {"lll": 117, "enum": 117}
    assert len(ladders) == len(pool) - 44


def test_find_generator_matches_oracle_on_23_5_and_71_2():
    # (23, 5) has no midpoint unit and runs the full period; (71, 2) runs
    # half of it
    calls = represent_calls(((23, 5), (71, 2)))
    halves = {c[0].ambient: _unit_ladder(c[0].ambient, c[0]) for c in calls}
    assert halves == {integral_basis(23, 5): 10, integral_basis(71, 2): 2}
    found = 0
    for module, norm in calls:
        want = oracle_find_generator(module, norm)
        assert find_generator(module, norm) == want
        found += want is not None
    assert 0 < found < len(calls)


LADDER_FIELDS = FIELDS + MIDPOINT_FIELDS[2:] + (integral_basis(23, 5),)
E715 = integral_basis(
    7, 15, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
)


@pytest.mark.parametrize(
    "field", LADDER_FIELDS + (integral_basis(183, 1), E715), ids=repr
)
def test_outer_gram_is_d0_times_g(field):
    # S G S^t = D0 G, S the matrix of sqrt(D0): T2(x*sqrt(D0)) = D0 T2(x),
    # as sqrt(D0) is real; so a twist needs only G and C = S G + G S^t
    D0 = field.real_subfield_data()[0]
    S = mult_matrix(field, field.from_real_quadratic(0, 1))
    G = field.t2_gram_matrix
    SGSt = matrix_product(matrix_product(S, G), list(zip(*S)))
    assert SGSt == [[D0 * x for x in row] for row in G]


@pytest.fixture(scope="module")
def ladder_modules():
    """48 seeded random modules on each of the 8 fields of LADDER_FIELDS,
    as (module, the ladder's m and convergents, the full ladder of eps's
    convergents), where the full ladder is within 64 periods."""
    out = []
    for field in LADDER_FIELDS:
        rng = random.Random(1000 * field.d + field.n)
        for module in random_modules(rng, field, 48):
            full = outcome(oracle_ladder, field, module)
            if full != "unsupported":
                out.append((module, ladder(field, module)[1:], full[2]))
    assert len({module.ambient for module, _, _ in out}) == 8
    return out


def odd_power(module, m) -> bool:
    """Does an odd power v^m, m > 1, of the midpoint unit v stabilise the
    module, v itself not?"""
    lad = ladder_data(module.ambient)
    return m > 1 and m % 2 == 1 and 2 * lad.step == lad.period


def test_ladder_never_runs_more_windows_than_the_full_period(ladder_modules):
    # the ladder's windows are the first ones of the full ladder of eps:
    # half of them where an odd power v^m stabilises the module (m = 1 too),
    # else all
    halved = {True: 0, False: 0}
    for module, (m, gammas), full in ladder_modules:
        assert len(gammas) <= len(full) and gammas == full[: len(gammas)]
        lad = ladder_data(module.ambient)
        half = m % 2 == 1 and 2 * lad.step == lad.period
        assert len(gammas) - 1 == (len(full) - 1) // (2 if half else 1)
        halved[half] += 1
    assert halved[True] > 0 and halved[False] > 0
    assert sum(odd_power(module, m) for module, (m, _), _ in ladder_modules) > 0


def test_find_generator_matches_oracle_on_odd_powers(ladder_modules):
    # modules that only an odd power v^m, m > 1, stabilises run m half
    # periods, half the full ladder's m periods; the pick is the full
    # ladder's.  The norms are the covolume's and those of short elements,
    # so most searches find an element
    searches = found = 0
    fields = set()
    for module, (m, gammas), full in ladder_modules:
        if not odd_power(module, m):
            continue
        field = module.ambient
        fields.add(field)
        G = field.t2_gram_matrix
        short = enumerate_by_t2(lll_reduce(module, G), 12 * module.covolume())[:4]
        norms = {module.covolume()} | {
            field.from_basis_coords([Fraction(c, module.den) for c in u]).norm()
            for u in short
        }
        for norm in norms:
            want = oracle_find_generator(module, norm)
            assert find_generator(module, norm) == want
            searches += 1
            found += want is not None
    assert len(fields) > 1 and found > searches // 2


def test_find_generator_matches_oracle_on_e37_modules():
    # E37's modules with v*M = M run half a period and those with v*M != M
    # the full one; the norms are those of the module's covolume and of
    # short elements, so most searches find an element
    rng = random.Random(37)
    modules = [pf.module for q in (2, 3, 5) for pf in factor_rational_prime(E37, q)]
    modules += random_modules(rng, E37, 12)
    G = E37.t2_gram_matrix
    half = {True: 0, False: 0}
    found = 0
    for module in modules:
        if outcome(_unit_ladder, E37, module) == "unsupported":
            continue
        is_half = oracle_unit_ladder(E37, module)[2] != oracle_ladder(E37, module)[2]
        assert is_half == (_unit_ladder(E37, module) == 3)
        short = enumerate_by_t2(lll_reduce(module, G), 12)[:3]
        norms = {module.covolume()} | {
            E37.from_basis_coords([Fraction(c, module.den) for c in u]).norm()
            for u in short
        }
        for norm in norms:
            want = oracle_find_generator(module, norm)
            assert find_generator(module, norm) == want
            half[is_half] += 1
            found += want is not None
    assert half[True] > 0 and half[False] > 0 and found > len(modules) // 2


# ---------------------------------------------------------------------------
# the warm start: each window reduces the basis the window before reduced


def ladder_windows(monkeypatch, module, norm):
    """find_generator(module, norm) with, for each window in order, the
    basis its LLL started from, the window Gram, the reduced basis, the
    ball and the points enumerated."""
    lll, enum = lattice.lll_reduce, lattice.enumerate_by_t2
    starts, windows = [], []

    def record_lll(m, g):
        starts.append((m, g))
        return lll(m, g)

    def record_enum(red, bound):
        pts = enum(red, bound)
        windows.append(starts[-1] + (red, bound, pts))
        return pts

    with monkeypatch.context() as mp:
        mp.setattr(lattice, "lll_reduce", record_lll)
        mp.setattr(lattice, "enumerate_by_t2", record_enum)
        alpha = lattice.find_generator(module, norm)
    assert len(starts) == len(windows)
    return alpha, windows


@pytest.fixture(scope="module")
def warm_inputs(pool):
    """Seeded (module, norm) inputs: represent's ideals of (59, 2),
    (11, 10) and (23, 5), and primes and random modules of E37."""
    rng = random.Random(18)
    out = [c for c in pool if c[0].ambient == E59]
    out = rng.sample(out, 6) + rng.sample([c for c in pool if c[0].ambient == E1110], 6)
    out += rng.sample(represent_calls(((23, 5),), 400), 6)
    modules = [pf.module for q in (2, 3, 5, 7) for pf in factor_rational_prime(E37, q)]
    modules += random_modules(rng, E37, 6)
    for module in modules:
        if outcome(_unit_ladder, E37, module) != "unsupported":
            out.append((module, module.covolume()))
    assert len({c[0].ambient for c in out}) == 4 and len(out) > 24
    return out


def rung_balls(module, norm) -> list:
    """(Gram, budget) of the windows twisted by the rungs gamma_i, from the
    Fraction ladder: the balls a candidate of find_generator must lie in."""
    field = module.ambient
    D0, _, gammas = ladder(field, module)
    den2 = module.den**2
    return [
        (oracle_twisted_gram(field, *gammas[i]),
         floor(oracle_ball(D0, gammas, i, norm) * den2))
        for i in range(len(gammas) - 1)
    ]


def walk_order(module) -> tuple:
    """The indices, in l order, of the module's centred windows on each
    side of the walk: from the stretch that ends at lam = 0 rightward,
    then leftward from the one before it."""
    D0, _, gammas = ladder(module.ambient, module)
    if len(gammas) == 2:
        return [0], []
    stretches = _stretches(D0, gammas)
    centre = next(i for i, (_, _, eb) in enumerate(stretches) if eb == (1, 0))
    return list(range(centre, len(stretches))), list(range(centre - 1, -1, -1))


def test_warm_start_enumerates_the_cold_ball(monkeypatch, warm_inputs):
    # each window after the first starts LLL from the reduced basis of the
    # window searched before it on its side, the first on the left side
    # from the centre window's; its ball's points, and their order, are
    # those of a cold start from the HNF rows; the norm-N points in a
    # rung's ball are the candidates.  (71, 2) adds ladders whose walk has
    # a left side
    warm_differs = lefts = 0
    inputs = warm_inputs + represent_calls(((71, 2),), 400)
    for module, norm in inputs:
        alpha, windows = ladder_windows(monkeypatch, module, norm)
        keep = _norm_filter(module, norm)
        balls = rung_balls(module, norm)
        D0, G, C = module.ambient.norm_forms
        twists, _, (_, left) = _ladder_windows(D0, _unit_ladder(module.ambient, module))
        left = {_twisted_gram(G, C, *twists[i][0]) for i in left}
        first_left = next((i for i, w in enumerate(windows) if w[1] in left), None)
        lefts += first_left is not None
        cands = []
        for i, (start, g, red, bound, pts) in enumerate(windows):
            # the left side starts again from the centre window's basis
            assert start is (module if i == 0 else windows[0 if i == first_left else i - 1][2])
            cold = lll_reduce(module, g)
            cold_pts = enumerate_by_t2(cold, bound)
            assert cold_pts == pts
            warm_differs += cold.rows != red.rows
            cands += [
                u for u in cold_pts
                if keep(u) and any(form_value(gb, u) <= B for gb, B in balls)
            ]
        assert canonical_pick(module, cands) == alpha
        # and it is the full period's pick, as the Fraction ladder makes it
        assert alpha == oracle_find_generator(module, norm)
    # the warm start does reach other reduced bases than the cold one
    assert warm_differs > 0 and lefts > 0


def count_windows(monkeypatch, module, norm) -> tuple:
    """(the generator, lll_reduce calls, enumerate_by_t2 calls) of the
    window walk of find_generator(module, norm), run with no character
    test (lattice._window_walk)."""
    calls = {"lll": 0, "enum": 0}
    lll, enum = lattice.lll_reduce, lattice.enumerate_by_t2

    def count_lll(m, g):
        calls["lll"] += 1
        return lll(m, g)

    def count_enum(red, bound):
        calls["enum"] += 1
        return enum(red, bound)

    with monkeypatch.context() as mp:
        mp.setattr(lattice, "lll_reduce", count_lll)
        mp.setattr(lattice, "enumerate_by_t2", count_enum)
        alpha = lattice._window_walk(module, norm)
    return alpha, calls["lll"], calls["enum"]


def test_one_lll_and_one_enumeration_per_window(monkeypatch, budget_pool):
    # the benchmark traces lll_reduce and enumerate_by_t2: each window the
    # ladder searches makes one call of each
    for module, norm in budget_pool:
        if outcome(ladder, module.ambient, module) == "unsupported":
            continue
        _, lll, enum = count_windows(monkeypatch, module, norm)
        assert 1 <= lll == enum <= ladder_size(module)


def test_one_ladder_lookup_per_search(monkeypatch, pool):
    # find_generator looks the field's LadderData up once, in _unit_ladder,
    # and reads the windows off (D0, T)
    module, norm = next(c for c in pool if c[0].ambient == E59)
    lookups = []
    lookup = lattice.ladder_data

    def count(field):
        lookups.append(field)
        return lookup(field)

    monkeypatch.setattr(lattice, "ladder_data", count)
    lattice.find_generator(module, norm)
    assert lookups == [E59]


def test_a_warm_ladder_builds_no_convergent(monkeypatch, pool):
    # once a field's ladder and windows are cached, a search reads them:
    # _unit_ladder returns T, and builds no list of convergents; the
    # windows are walked off the convergents in quadratic alone
    want = [find_generator(module, norm) for module, norm in pool]
    calls = []
    convergents = quadratic.cf_convergents

    def count(*args):
        calls.append(args)
        return convergents(*args)

    monkeypatch.setattr(quadratic, "cf_convergents", count)
    assert [lattice.find_generator(module, norm) for module, norm in pool] == want
    assert calls == []


def test_interval_test_keeps_the_points_the_fraction_rung_balls_keep(pool):
    # find_generator keeps a norm-N point u of a window when L <= lam <= P,
    # read off t = u G u^t and c = u C u^t by _in_range: on every norm-N
    # point of every window, that is the test of the Fraction ladder's rung
    # balls, whose union is [L, P].  The integer rung windows of
    # oracles.full_ladder_search are those balls rung by rung: p t - hk c is
    # the Fraction twisted Gram's value, and the budget its floored ball.
    # The represent pool keeps every point; x = 57 - 5*sqrt(115) on (23, 5)
    # lies in a window but in no rung's ball
    E235 = integral_basis(23, 5)
    x = E235.from_real_quadratic(57, -5)
    kept = dropped = 0
    for module, norm in pool + [(identity_module(E235).transform(x), x.norm())]:
        D0, G, C = module.ambient.norm_forms
        T = _unit_ladder(module.ambient, module)
        edges = _ladder_windows(D0, T)[1]
        rungs = rung_windows(module, norm)
        fraction_balls = rung_balls(module, norm)
        assert len(rungs) == len(fraction_balls) == T
        for u in chain.from_iterable(full_ladder_points(module, norm)):
            t, c = form_value(G, u), form_value(C, u)
            inside = []
            for ((p, hk), budget), (g, B) in zip(rungs, fraction_balls):
                assert p * t - hk * c == form_value(g, u)
                assert budget == B
                inside.append(p * t - hk * c <= B)
            assert _in_range(D0, edges, t, c) == any(inside)
            kept += any(inside)
            dropped += not any(inside)
    assert kept > 40 and dropped > 0


@pytest.mark.parametrize(
    "dn", [(59, 2), (23, 5), (71, 2), (11, 10)], ids=["59_2", "23_5", "71_2", "11_10"]
)
def test_interval_test_keeps_its_closed_edges(dn):
    # on O_E, gamma_T has lam = P and E_L has lam = L, exactly on the edges
    # of [L, P], so both are kept; gamma_T*gamma_1 and E_L*conj(gamma_1)
    # lie past them and are dropped.  Each verdict is the Fraction rung
    # balls' at the norm N(e)^2 of the point.  (71, 2) has L < -P/2, and
    # (11, 10) has T = 1, where E_L = conj(gamma_1)
    field = integral_basis(*dn)
    R = identity_module(field)
    T = _unit_ladder(field, R)
    D0, G, C = field.norm_forms
    gammas = ladder(field, R)[2]
    edges = _ladder_windows(D0, T)[1]
    g1, gT = gammas[1], gammas[T]
    low = (g1[0], -g1[1]) if T == 1 else _stretches(D0, gammas)[0][1]
    points = (gT, low, _rmul(gT, g1, D0), _rmul(low, (g1[0], -g1[1]), D0))
    verdicts = []
    for e in points:
        x = field.from_real_quadratic(*e)
        assert x.den == 1
        t, c = form_value(G, x.u), form_value(C, x.u)
        kept = _in_range(D0, edges, t, c)
        assert kept == any(form_value(g, x.u) <= B for g, B in rung_balls(R, x.norm()))
        verdicts.append(kept)
    assert verdicts == [True, True, False, False]


# ---------------------------------------------------------------------------
# each window's integer budget against the Fraction ball


@pytest.fixture(scope="module")
def budget_pool(pool, warm_inputs):
    """The represent pool, the find_generator calls represent makes on the
    prime elements of norm <= REPRESENT_NORM of (23, 5) and (71, 2), and
    the warm-start inputs, whose E37 modules have denominators 2 and 3
    and norms that are not integers."""
    return pool + represent_calls(((23, 5), (71, 2))) + warm_inputs


def window_budgets(monkeypatch, module, norm) -> list:
    """The integer budget bound * den^2 that the window walk of
    find_generator(module, norm) hands enumerate_by_t2 in each window, in
    order; no window enumerates."""
    budgets = []

    def record(red, bound):
        budget = Fraction(bound) * red.den**2
        assert budget.denominator == 1
        budgets.append(budget.numerator)
        return []

    with monkeypatch.context() as mp:
        mp.setattr(lattice, "enumerate_by_t2", record)
        lattice._window_walk(module, norm)
    return budgets


def test_window_budget_is_the_floor_of_the_fraction_ball(monkeypatch, budget_pool):
    # each window's budget is the exact floor of its ball times den^2, with
    # every window searched: the
    # ball at the farther edge of its stretch, read off E's arithmetic, or,
    # where T = 1, the one window twisted by 1 over [-P/2, P/2], with
    # 16 cosh(P/2)^2 = 8 (cosh(P) + 1) and 4 sqrt(N(gamma_1)) cosh(P) =
    # T2(gamma_1)
    windows = 0
    fields = set()
    for module, norm in budget_pool:
        field = module.ambient
        if outcome(ladder, field, module) == "unsupported":
            continue
        fields.add(field)
        D0, _, gammas = ladder(field, module)
        T = len(gammas) - 1
        budgets = window_budgets(monkeypatch, module, norm)
        norm = Fraction(norm)
        den4 = module.den**4
        if T == 1:
            g1 = field.from_real_quadratic(*gammas[1])
            root = isqrt(int(g1.norm()))
            assert root * root == g1.norm()
            balls2 = [8 * norm * (t2(field, g1) / (4 * root) + 1)]
        else:
            # in the order of the walk, as no window here finds a point
            stretches = _stretches(D0, gammas)
            balls2 = [
                oracle_window_ball2(field, c, edges, norm)
                for c, *edges in (stretches[i] for side in walk_order(module) for i in side)
            ]
        assert len(budgets) == len(balls2)
        for B, ball2 in zip(budgets, balls2):
            assert B * B <= ball2 * den4 < (B + 1) ** 2
            windows += 1
        # and the rung windows of oracles.full_ladder_search are the
        # Fraction ladder's windows, floored
        rungs = rung_windows(module, norm)
        assert len(rungs) == T
        for i, (_, budget) in enumerate(rungs):
            assert budget == floor(oracle_ball(D0, gammas, i, norm) * module.den**2)
    assert fields == {E59, E1110, integral_basis(23, 5), integral_basis(71, 2), E37}
    assert {Fraction(norm).denominator for _, norm in budget_pool} > {1}
    assert {module.den for module, _ in budget_pool} > {1}
    assert windows > len(budget_pool)


# ---------------------------------------------------------------------------
# centred windows: the stretches of J and the associates at its ends


def check_stretches(field, T) -> str:
    """Check the windows of the field's ladder over T rungs against l in
    decimals; returns which of the three layouts they have."""
    D0, G, C = field.norm_forms
    gammas = ladder_rungs(D0, T)
    windows = _ladder_windows(D0, T)[0]
    assert T <= len(windows) <= T + 1
    if T == 1:
        assert len(windows) == 1
        assert _twisted_gram(G, C, *windows[0][0]) == tuple(map(tuple, field.t2_gram_matrix))
        return "one"
    ls = [oracle_l(g, D0) for g in gammas]
    P = ls[T]
    L = min(2 * ls[i] - ls[i + 1] for i in range(T))
    stretches = _stretches(D0, gammas)
    assert len(stretches) == len(windows)
    for (_, _, eb), (_, ea, _) in zip(stretches, stretches[1:]):
        assert eb == ea
    for (c, ea, eb), (w, _, _) in zip(stretches, windows):
        la, lc, lb = oracle_l(ea, D0), oracle_l(c, D0), oracle_l(eb, D0)
        assert la < lb and la <= lc <= lb
        assert _twisted_gram(G, C, *w) == oracle_twisted_gram(field, *c)
    first, last = oracle_l(stretches[0][1], D0), oracle_l(stretches[-1][2], D0)
    tol = Decimal(10) ** -40
    assert abs(first - L) < tol
    if L >= -P / 2 - tol:
        assert abs(last - (L + P)) < tol
        return "exact"
    assert first < -P / 2 and abs(last - min(l for l in ls if l >= P / 2)) < tol
    return "cover"


def test_stretches_tile_j():
    # consecutive stretches share an edge and climb in l, each twist lies
    # within its stretch, and the edges run from L to L + P: the stretches
    # span J = [L, L + P] exactly where L >= -P/2; where L < -P/2 they run
    # from L to the first rung at or past P/2, so they cover J = [-P/2,
    # P/2]; T = 1 runs one window.  No ladder gains more than one window
    with localcontext() as ctx:
        ctx.prec = 400
        kinds = [
            check_stretches(field, m * ladder_data(field).step)
            for field in LADDER_FIELDS
            for m in range(1, 5)
        ]
    assert set(kinds) == {"exact", "cover", "one"}


def odd_power_order(field, f):
    """Z[v^3] + f*O_E, v the midpoint unit: an order that v^3 stabilises, and
    for f = 5 on (59, 2) v itself not."""
    v = field.from_basis_coords(ladder_data(field).U[0])
    v3 = v * v * v
    rows = [p.u for p in (field.one(), v3, v3 * v3, v3 * v3 * v3)]
    return hnf(field, rows + [[f * (i == j) for j in range(4)] for i in range(4)])


@pytest.mark.parametrize(
    "field, order",
    [(E59, None), (integral_basis(23, 5), None), (E59, 5)],
    ids=["59_2", "23_5", "59_2_odd_power"],
)
def test_find_generator_reaches_both_ends_of_j(field, order):
    # x*R for x in the first stretch [L, 0), at L or at its twist, and in
    # the last stretch before L + P, at its left rung or at its twist, R
    # the maximal order or one only v^3 stabilises: the norm-N points of
    # x*R with lam in J are x times roots of unity, so a ladder that
    # dropped the first or the last window, or ran short of its period,
    # would find another associate or none.  On (59, 2) x = L lies on the
    # first window's sphere and in no other window's ball
    R = identity_module(field) if order is None else odd_power_order(field, order)
    D0, m, gammas = oracle_unit_ladder(field, R)
    assert m == (1 if order is None else 3)
    stretches = _stretches(D0, gammas)
    (c0, low, _), (c1, rung, _) = stretches[0], stretches[-1]
    for e in (low, c0, rung, c1):
        x = field.from_real_quadratic(*e)
        module = R.transform(x)
        norm = x.norm()
        got = find_generator(module, norm)
        assert got == oracle_find_generator(module, norm)
        assert t2(field, got) == t2(field, x)


def test_rung_balls_keep_the_pick_past_l():
    # x = 57 - 5*sqrt(115) on (23, 5) has l(x) below L, inside the first
    # window's ball but in no rung's, and its translate by eps lies in the
    # last stretch: find_generator drops x, as the Fraction ladder never
    # sees it, and returns the translate, though x has the smaller T2
    E235 = integral_basis(23, 5)
    T = _unit_ladder(E235, identity_module(E235))
    D0, G, C = E235.norm_forms
    gammas = ladder(E235, identity_module(E235))[2]
    x = E235.from_real_quadratic(57, -5)
    with localcontext() as ctx:
        ctx.prec = 100
        low = _stretches(D0, gammas)[0][1]
        assert oracle_l((57, -5), D0) < oracle_l(low, D0)
    module = identity_module(E235).transform(x)
    norm = x.norm()
    w, rho, _ = _ladder_windows(D0, T)[0][0]
    assert form_value(_twisted_gram(G, C, *w), x.basis_coords()) <= _budget(rho, norm, module.den)
    got = find_generator(module, norm)
    assert got == oracle_find_generator(module, norm)
    assert t2(E235, got) > t2(E235, x)


# ---------------------------------------------------------------------------
# stopping early: the walk skips a window whose every point has a larger T2
# than a candidate already kept


@pytest.fixture(scope="module")
def early_pool(budget_pool, ladder_modules):
    """budget_pool's searches on a supported ladder, and the odd-power
    modules of ladder_modules with the norms of their covolume and of
    three short elements."""
    out = [
        (module, norm)
        for module, norm in budget_pool
        if outcome(ladder, module.ambient, module) != "unsupported"
    ]
    for module, (m, _), _ in ladder_modules:
        if odd_power(module, m):
            field = module.ambient
            G = field.t2_gram_matrix
            short = enumerate_by_t2(lll_reduce(module, G), 12 * module.covolume())[:3]
            out.append((module, module.covolume()))
            out += [
                (module, field.from_basis_coords([Fraction(c, module.den) for c in u]).norm())
                for u in short
            ]
    return out


def test_early_exit_matches_the_full_ladder(early_pool):
    # the same pick and the same None as the search of every window
    found = 0
    for module, norm in early_pool:
        want = full_ladder_search(module, norm)
        assert find_generator(module, norm) == want
        found += want is not None
    assert 0 < found < len(early_pool)


def test_a_none_searches_every_window(monkeypatch, early_pool):
    # a None has no candidate to stop on, so its proof covers every window;
    # a search that finds one may stop early, and some do
    searched = total = nones = 0
    for module, norm in early_pool:
        alpha, lll, _ = count_windows(monkeypatch, module, norm)
        windows = ladder_size(module)
        if alpha is None:
            assert lll == windows
            nones += windows > 1
        searched += lll
        total += windows
    assert nones > 0 and searched < total


def cosh(x: Decimal) -> Decimal:
    return (x.exp() + (-x).exp()) / 2


def near_cosh(D0, near) -> Fraction:
    """cosh(l(near)) of near = h + k*sqrt(D0), exactly: (h^2 + D0*k^2) /
    |h^2 - D0*k^2|."""
    h, k = near
    return Fraction(h * h + D0 * k * k, abs(h * h - D0 * k * k))


def near_edges(D0, T) -> list:
    """Each centred window's stretch edge nearer lam = 0, off _stretches:
    eb up to the centre stretch, the one that ends at 1, and ea past it;
    1 for the one window of T = 1."""
    if T == 1:
        return [(1, 0)]
    stretches = _stretches(D0, ladder_rungs(D0, T))
    centre = next(i for i, (_, _, eb) in enumerate(stretches) if eb == (1, 0))
    return [ea if i > centre else eb for i, (_, ea, eb) in enumerate(stretches)]


def record_cosh(D0, T) -> list:
    """Each window record's a/b, the cosh find_generator stops a side on,
    checked to be that of the window's near edge."""
    windows = _ladder_windows(D0, T)[0]
    got = [Fraction(a, b) for _, _, (a, b) in windows]
    assert got == [near_cosh(D0, e) for e in near_edges(D0, T)]
    return got


REACH_FIELDS = LADDER_FIELDS + (integral_basis(183, 1),)


def test_near_edge_cosh_matches_the_decimal_range():
    # each window's record keeps a/b, cosh at the edge of its stretch nearer
    # lam = 0, over two steps of every field's ladder; the two windows beside
    # lam = 0 have the edge 1, with a/b = 1, and so has the one window of
    # T = 1
    with localcontext() as ctx:
        ctx.prec = 400
        checked = at_zero = 0
        for field in REACH_FIELDS:
            D0, T = field.norm_forms[0], 2 * ladder_data(field).step
            stretches = _stretches(D0, ladder_rungs(D0, T))
            for (_, ea, eb), near, r in zip(stretches, near_edges(D0, T), record_cosh(D0, T)):
                assert near == min((ea, eb), key=lambda e: abs(oracle_l(e, D0)))
                want = cosh(oracle_l(near, D0))
                err = abs(Decimal(r.numerator) / r.denominator - want)
                assert err < want * Decimal(10) ** -60
                at_zero += near == (1, 0)
                checked += 1
    assert checked > at_zero == 2 * len(REACH_FIELDS)
    assert _ladder_windows(E1110.norm_forms[0], 1)[0][0][2] == (1, 1)


def test_near_edges_on_both_sides_of_0():
    # the walk's first side runs from lam = 0 up, its near edges at l >= 0;
    # the second runs down, at l < 0, and where the ladder has one it starts
    # at the centre stretch's lower edge.  On (71, 2) over 6 rungs that is
    # -10 + sqrt(142), whose a/b is (100 + 142)/|100 - 142| = 121/21
    lefts = 0
    with localcontext() as ctx:
        ctx.prec = 200
        for field in REACH_FIELDS:
            D0 = field.norm_forms[0]
            for m in range(1, 4):
                T = m * ladder_data(field).step
                _, _, (right, left) = _ladder_windows(D0, T)
                near = near_edges(D0, T)
                assert all(oracle_l(near[i], D0) >= 0 for i in right)
                assert all(oracle_l(near[i], D0) < 0 for i in left)
                lefts += len(left) > 0
    assert lefts > 0
    D0 = integral_basis(71, 2).norm_forms[0]
    _, _, (right, left) = _ladder_windows(D0, 6)
    reach = record_cosh(D0, 6)
    assert [reach[i] for i in left] == [Fraction(121, 21)]
    assert [reach[i] for i in right] == [
        1, 1, Fraction(263, 21), 143, Fraction(34343, 21), 40897
    ]


def j_edges(D0, T) -> tuple:
    """(lo, hi) in Z[sqrt(D0)] with l(lo) = 2 min J and l(hi) = 2 max J, for
    _in_range: J = [L, L + P], or [-P/2, P/2] where L < -P/2, as for T = 1."""
    low2, high = _ladder_windows(D0, T)[1]  # E_L^2, gamma_T^2
    gT = ladder_rungs(D0, T)[-1]
    if _before(_rmul(low2, gT, D0), (1, 0), D0):  # 2L + P < 0
        return (gT[0], -gT[1]), gT
    return low2, _rmul(low2, high, D0)


def stretch_edges(D0, T) -> list:
    """Each centred window's stretch as (lo, hi) for _in_range: its edges
    squared, or J for the one window of T = 1."""
    if T == 1:
        return [j_edges(D0, T)]
    square = lambda e: _rmul(e, e, D0)
    return [(square(ea), square(eb)) for _, ea, eb in _stretches(D0, ladder_rungs(D0, T))]


def test_every_point_of_a_window_is_past_its_reach(early_pool):
    # every norm-N point the full ladder finds in a window's stretch has T2
    # at least 4 sqrt(N) cosh(l(near)), exactly on integers: G(u)^2 >= 16 N
    # den^4 (a/b)^2.  Every point it keeps, with lam in [L, P], either lies
    # in J, which the stretches tile, or has a translate by the ladder
    # unit's power in J with a smaller G(u): the pick lies in J
    points = tight = outside = 0
    for module, norm in early_pool:
        field = module.ambient
        T = _unit_ladder(field, module)
        D0, G, C = field.norm_forms
        _, edges, walk = _ladder_windows(D0, T)
        assert walk == tuple(map(tuple, walk_order(module)))
        J = j_edges(D0, T)
        U = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        lad = ladder_data(field)
        for _ in range(T // lad.step):
            U = _times(U, lad.U)
        units = (U, adjugate_int(U))  # u^m has norm 1
        forms = lambda u: (form_value(G, u), form_value(C, u))
        norm = Fraction(norm)
        scale = 16 * norm * module.den**4
        pts = full_ladder_points(module, norm)
        for r, stretch, found in zip(record_cosh(D0, T), stretch_edges(D0, T), pts):
            for u in found:
                t, c = forms(u)
                if _in_range(D0, stretch, t, c):
                    assert t * t >= scale * r * r
                    tight += t * t < 2 * scale * r * r
                    points += 1
                if _in_range(D0, edges, t, c) and not _in_range(D0, J, t, c):
                    moved = [v for M in units for v in _times([u], M)]
                    moved = [v for v in moved if _in_range(D0, J, *forms(v))]
                    assert len(moved) == 1 and forms(moved[0])[0] < t
                    outside += 1
    assert points > len(early_pool) and tight > 0 and outside > 0


def test_near_edge_reaches_never_fall_along_a_side():
    # the near edges move away from 0 along each side of the walk, so their
    # a/b grow and the first window out of reach ends its side; each is at
    # least the reach of the window's whole lam range (oracles.range_reach),
    # which can fall along a side: on (183, 1) the third window's range
    # reaches farther than the fourth's, 24.77 against 23.86
    for field in REACH_FIELDS:
        D0 = field.norm_forms[0]
        for m in range(1, 4):
            T = m * ladder_data(field).step
            walk = _ladder_windows(D0, T)[2]
            near = record_cosh(D0, T)
            for side in walk:
                reach = [near[i] for i in side]
                assert reach == sorted(reach)
            assert near[walk[0][0]] == 1
            assert all(a >= b for a, b in zip(near, range_reaches(D0, T)))
    E1831 = integral_basis(183, 1)
    own = range_reaches(E1831.norm_forms[0], ladder_data(E1831).step)
    assert own[2] > own[3] > own[1] == 1
    assert 23 < own[3] < 24 < own[2] < 25


def test_near_edge_walk_matches_the_range_reach_walk(monkeypatch, early_pool):
    # the walk that stops at each stretch's near edge picks what the walk on
    # the reaches of the windows' lam ranges picked (oracles.
    # range_reach_search), and never searches more windows; some fewer
    fewer = 0
    for module, norm in early_pool:
        want, searched = range_reach_search(module, norm)
        alpha, lll, _ = count_windows(monkeypatch, module, norm)
        assert alpha == want and lll <= searched
        fewer += lll < searched
    assert fewer > 0


@pytest.mark.parametrize("field", (E59, integral_basis(183, 1)), ids=repr)
def test_a_window_reach_is_attained(field):
    # a window's near edge x, in Z[sqrt(D0)], is a norm-N(x) point of O_E
    # in that window's ball with T2 exactly 4 sqrt(N) cosh(l(x)): the bound
    # is sharp, so only a strict test may stop a side, as a tie in T2 goes
    # to u
    D0, G, C = field.norm_forms
    T = ladder_data(field).step
    checked = 0
    windows = _ladder_windows(D0, T)[0]
    for (w, rho, _), near, r in zip(windows, near_edges(D0, T), record_cosh(D0, T)):
        if near == (1, 0):
            continue
        x = field.from_real_quadratic(*near)
        assert x.den == 1
        norm = x.norm()
        assert form_value(G, x.u) ** 2 == 16 * norm * r**2
        assert form_value(_twisted_gram(G, C, *w), x.u) <= _budget(rho, norm, 1)
        checked += 1
    assert checked >= 2
