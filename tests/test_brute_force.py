"""The brute-force Picard count by reduced forms against the pairwise count
it replaced (tests/ideals.py), on the orders of the picard benchmark pool:
Z[sqrt(-n)] for squarefree n <= 100 and Z + f*O_K in Q(sqrt(-d)) for
squarefree d <= 23 and f <= 6, each order once.  Each ideal's reduction
matrix certificate is checked against the lattice search it replaced, and
the scan that drops non-invertible ideals in place against the generator
of every primitive ideal it replaced (oracles.primitive_ideals), and the
scan that tests b >= 0 and mirrors the rest against the full-range scan
it replaced (oracles.full_range_ideals)."""

from math import ceil, gcd

import pytest

from nforders import lattice, orders
from nforders.intmath import is_squarefree
from nforders.lattice import IntModule, hnf
from nforders.orders import (
    AuditFailure,
    OrderIdeal,
    is_invertible,
    is_principal,
    module_mul,
    order_with_index,
    pic_brute_force,
)
from nforders.quadratic import (
    BinaryForm,
    QuadElem,
    QuadField,
    form_class_group,
    reduce_form,
    reduced_forms,
)

from ideals import ideal_candidates, module_conj, pic_pairwise, picard_pool
from oracles import (
    brute_force_bound_by_fraction,
    brute_force_by_full_range,
    brute_force_by_primitive_ideals,
    full_range_ideals,
    is_reduced,
    primitive_ideals,
    reduced_forms_by_loop,
)

POOL = picard_pool()


def test_pool_has_every_benchmark_order():
    assert len(POOL) == 141


@pytest.mark.parametrize("spec", sorted(POOL))
def test_count_matches_pairwise_oracle(spec):
    o = POOL[spec]
    for bound in [None] + list(range(1, 17)):
        r = pic_brute_force(o, bound)
        scan = min(r.norm_bound, ceil(r.minkowski_bound))
        assert r.count == pic_pairwise(o, scan), bound


def test_integer_bound_matches_the_fraction_oracle():
    # (norm_bound, minkowski_bound, complete) against the Fraction bound
    # they were read off before, and the count of the scan that drops
    # non-invertible ideals in place and reduces on ints against every
    # primitive ideal of the oracle generator, filtered by gcd and keyed by
    # BinaryForm.reduction, for no bound and every bound from 0 to one past
    # the ceiling of the Minkowski bound
    for spec, o in POOL.items():
        top = ceil(brute_force_bound_by_fraction(o)[1])
        for bound in [None] + list(range(top + 2)):
            r = pic_brute_force(o, bound)
            got = (r.norm_bound, r.minkowski_bound, r.complete)
            assert got == brute_force_bound_by_fraction(o, bound), (spec, bound)
            assert type(r.norm_bound) is int, (spec, bound)
            got = (r.count, r.norm_bound, r.complete)
            assert got == brute_force_by_primitive_ideals(o, bound), (spec, bound)


def _index_grid() -> dict:
    """Z + f*O_K in Q(sqrt(-d)) for squarefree d < 120 and f <= 12, as
    {(d, f): order}; it holds every order of the pool."""
    return {
        (d, f): order_with_index(QuadField(-d), f)
        for d in range(1, 120)
        if is_squarefree(d)
        for f in range(1, 13)
    }


def test_mirrored_scan_matches_the_full_range_oracle():
    # (count, norm_bound, complete) of the scan that takes b >= 0 and
    # mirrors the rest, against the scan over the whole (-a, a] it
    # replaced: for no bound on the 900 orders of the grid, and for every
    # bound from 0 to one past the ceiling of the Minkowski bound on the
    # pool, which lies inside the grid
    grid = _index_grid()
    assert len(grid) == 900
    assert set(POOL.values()) <= set(grid.values())
    fields = lambda r: (r.count, r.norm_bound, r.minkowski_bound, r.complete)
    for key, o in grid.items():
        assert fields(pic_brute_force(o)) == fields(brute_force_by_full_range(o)), key
    for spec, o in POOL.items():
        top = ceil(pic_brute_force(o).minkowski_bound)
        for bound in range(top + 2):
            got = fields(pic_brute_force(o, bound))
            assert got == fields(brute_force_by_full_range(o, bound)), (spec, bound)


def test_every_mirrored_ideal_is_reduced_and_audited(monkeypatch):
    # reduce_form, whose result the audit checks, is called once for each
    # invertible ideal of the full-range scan, the mirror of an ideal with
    # 0 < b < a included: none takes its key from its mirror
    calls = []

    def recording(a, b, c):
        calls.append((a, b, c))
        return reduce_form(a, b, c)

    monkeypatch.setattr(orders, "reduce_form", recording)
    mirrored = 0
    for spec, o in POOL.items():
        calls.clear()
        scan = ceil(pic_brute_force(o).minkowski_bound)
        want = sorted((a, b, c) for a, b, c, _ in full_range_ideals(o, scan))
        assert sorted(calls) == want, spec
        mirrored += sum(1 for a, b, _ in calls if b < 0)
    assert mirrored > 0


def test_reduce_form_matches_the_reduction():
    # every form the complete pool scan reaches, invertible or not, and
    # every (a, b, c) of the reduced_forms oracle's range, with a swap and
    # a translate of each so that the reduction moves: the integer kernel
    # is BinaryForm.reduction's key and matrix, flattened, and the matrix
    # has determinant 1 and takes the form to its key, which is reduced
    forms = set()
    for o in POOL.values():
        scan = ceil(pic_brute_force(o).minkowski_bound)
        forms.update((a, b, c) for a, b, c, _ in primitive_ideals(o, scan))
    for disc in range(-3, -1200, -1):
        if disc % 4 in (0, 1):
            for a, b, c in reduced_forms_by_loop(disc):
                forms.update([(a, b, c), (c, -b, a), (a, b + 2 * a, a + b + c)])
    assert len(forms) > 5000
    for a, b, c in sorted(forms):
        key, ((p, q), (r, t)) = BinaryForm(a, b, c).reduction()
        assert reduce_form(a, b, c) == (*key, p, q, r, t), (a, b, c)
        assert p * t - q * r == 1 and is_reduced(key), (a, b, c)
        assert key == (
            a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * t + q * r) + 2 * c * r * t,
            a * q * q + b * q * t + c * t * t,
        ), (a, b, c)


@pytest.mark.parametrize("spec", sorted(POOL))
def test_gcd_decides_invertibility(spec):
    # every primitive ideal the complete scan takes: the gcd of its form
    # against the ideal layer's invertibility test, and its rows against
    # the (a, b) it stands for
    o = POOL[spec]
    disc = o.field.disc * o.index_in_maximal() ** 2
    scan = ceil(pic_brute_force(o).minkowski_bound)
    seen = set()
    for a, b, c, rows in primitive_ideals(o, scan):
        assert -a < b <= a and b * b - 4 * a * c == disc
        assert rows not in seen
        seen.add(rows)
        ideal = OrderIdeal(o, IntModule(o.field, rows, 1))
        assert is_invertible(ideal) == (gcd(gcd(a, b), c) == 1), rows
    assert seen


@pytest.mark.parametrize("spec", ["zsqrt:-5", "index:-1:6", "index:-3:4", "index:-11:3"])
def test_scan_reaches_every_invertible_lattice(spec):
    # each invertible ideal of the old scan is I/q for an ideal I the new
    # scan takes, q its content in O_K
    o = POOL[spec]
    scan = ceil(pic_brute_force(o).minkowski_bound)
    primitive = set()
    for a, b, c, rows in primitive_ideals(o, scan):
        q = gcd(gcd(rows[0][0], rows[1][0]), rows[1][1])
        primitive.add(IntModule(o.field, rows, q))
    for L in ideal_candidates(o, scan):
        if not is_invertible(L):
            continue
        # L divided by its content in O_K, as I/q above
        content = gcd(gcd(L.module.rows[0][0], L.module.rows[1][0]), L.module.rows[1][1])
        assert IntModule(o.field, L.module.rows, content) in primitive, L.module


def _certificate(o, a, b, c):
    """The key of the ideal [a, (-b + sqrt(disc o))/2] and, from its
    reduction matrix, the element lam with I = lam * I', I' the ideal of
    the key: lam = b1/a', b1 = p*a - r*(g0 + f*w) as in pic_brute_force."""
    f, s = o.index_in_maximal(), o.field.disc % 2
    key, ((p, q), (r, t)) = BinaryForm(a, b, c).reduction()
    g0 = -(b + s * f) // 2
    lam = QuadElem(o.field, (p * a - r * g0, -r * f), key.a)
    return key, lam


def _ideal_of(o, a, b):
    """[a, (-b + sqrt(disc o))/2] as a module over {1, w}."""
    f, s = o.index_in_maximal(), o.field.disc % 2
    return hnf(o.field, [[a, 0], [-(b + s * f) // 2, f]])


@pytest.mark.parametrize("spec", sorted(POOL))
def test_principal_queries_match_eager_conjugates(spec):
    # every invertible ideal the complete scan takes is lam times the ideal
    # of its key, lam read off the reduction matrix; the lattice search the
    # count used before stays the oracle that the two share a class, asked
    # of I * conj(I'), the conjugate of each key's ideal I' taken once, on
    # the key's first arrival
    o = POOL[spec]
    scan = ceil(pic_brute_force(o).minkowski_bound)
    key_conjs = {}
    for a, b, c, rows in primitive_ideals(o, scan):
        if gcd(gcd(a, b), c) != 1:
            continue
        ideal = IntModule(o.field, rows, 1)
        key, lam = _certificate(o, a, b, c)
        ideal_key = _ideal_of(o, key.a, key.b)
        assert ideal == ideal_key.transform(lam), rows
        if key not in key_conjs:
            key_conjs[key] = module_conj(ideal_key)
        assert is_principal(o, module_mul(ideal, key_conjs[key])) is not None
    assert len(key_conjs) == form_class_group(o.field.disc * o.index_in_maximal() ** 2).h


def _as_kernel(reduction):
    """A reduce_form for the scan that runs reduction, a map of the form
    (a, b, c) to (key, ((p, q), (r, t))) as BinaryForm.reduction gives
    them, and flattens its result."""

    def kernel(a, b, c):
        key, ((p, q), (r, t)) = reduction(BinaryForm(a, b, c))
        return (*key, p, q, r, t)

    return kernel


def _corrupt_first_of_each_key(corrupt):
    """The scan's reduce_form with corrupt applied to its result the first
    time each key comes out, and only then."""
    seen = set()

    def corrupted(form):
        key, gamma = form.reduction()
        if key in seen:
            return key, gamma
        seen.add(key)
        return corrupt(key, gamma)

    return _as_kernel(corrupted)


def _times_t(key, gamma):
    # gamma * ((1, 1), (0, 1)): determinant 1, but it takes the form to
    # (a', b' + 2a', ...), not to the key
    (p, q), (r, t) = gamma
    return key, ((p, p + q), (r, r + t))


def _doubled(key, gamma):
    # 2 * gamma: the basis equation holds, the determinant is 4
    return key, tuple(tuple(2 * x for x in row) for row in gamma)


def _other_key(key, gamma):
    # the next reduced form of the discriminant, with the true matrix
    forms = reduced_forms(key.disc)
    return forms[(forms.index(key) + 1) % len(forms)], gamma


@pytest.mark.parametrize("corrupt", [_times_t, _doubled, _other_key])
@pytest.mark.parametrize("spec", ["zsqrt:-5", "index:-1:6", "index:-23:1"])
def test_a_corrupted_reduction_fails_the_count(monkeypatch, corrupt, spec):
    # the first ideal of each key is checked too: corrupting only that one
    # reduction raises
    o = POOL[spec]
    if corrupt is _other_key:
        assert pic_brute_force(o).count > 1
    monkeypatch.setattr(orders, "reduce_form", _corrupt_first_of_each_key(corrupt))
    with pytest.raises(AuditFailure, match="reduced form"):
        pic_brute_force(o)


def test_a_form_key_the_ideal_layer_rejects_fails_the_count(monkeypatch):
    # a reduction that hands every ideal the wrong key, with its true
    # matrix, is caught by the basis equation of the ideal layer
    wrong = _as_kernel(lambda form: _other_key(*form.reduction()))
    monkeypatch.setattr(orders, "reduce_form", wrong)
    with pytest.raises(AuditFailure, match="reduced form"):
        pic_brute_force(POOL["zsqrt:-5"])


def test_the_count_makes_no_lattice_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice search on the Picard path")

    for name in ("find_generator", "is_principal", "module_mul"):
        monkeypatch.setattr(orders, name, refuse)
    monkeypatch.setattr(lattice, "find_generator", refuse)
    for spec, o in POOL.items():
        r = pic_brute_force(o)
        disc = o.field.disc * o.index_in_maximal() ** 2
        assert r.complete and r.count == form_class_group(disc).h, spec
