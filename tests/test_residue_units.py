"""The residue counts of the Picard formula: the prime-contraction count
`oracles.residue_unit_count` against the enumeration of every residue
class in `audit.py`, the closed forms `residue_unit_counts` that
`picard_terms` reads off the index against that count and against Cox's
closed form for Z + c*O_K, the work one Picard formula does, and the scan
bounds of `pic_brute_force`."""

from math import ceil, prod

import pytest
from fractions import Fraction

from nforders import orders
from nforders.biquadratic import integral_basis
from nforders.intmath import factorize
from nforders.lattice import IntModule, hnf
from nforders.orders import (
    UnresolvedError,
    conductor,
    maximal_order,
    order_with_index,
    pic_brute_force,
    picard_terms,
    relative_order,
)
from nforders.quadratic import QuadField

from audit import residue_unit_count_by_enumeration
from oracles import residue_unit_count

SQUAREFREE = [d for d in range(1, 24) if all(e == 1 for e in factorize(d).values())]


def assert_counts_agree(o, fmod):
    assert residue_unit_count(o, fmod) == residue_unit_count_by_enumeration(o, fmod)


@pytest.mark.parametrize("d", SQUAREFREE)
def test_index_orders_both_counts(d):
    F = QuadField(-d)
    omax = maximal_order(F)
    for k in range(1, 13):
        o = order_with_index(F, k)
        f = conductor(o).module
        assert_counts_agree(omax, f)
        assert_counts_agree(o, f)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_principal_moduli_of_small_fields(d):
    # w is the second basis vector of O_K: sqrt(-d), or (1 + sqrt(-d))/2
    F = QuadField(-d)
    omax = maximal_order(F)
    for x in range(40):
        gens = [(x, 1)] if x == 0 else [(x, 0), (x, 1)]
        for a, b in gens:
            e = F.from_basis_coords([a, b])
            assert_counts_agree(omax, omax.module.transform(e))


def _e37():
    H, Q = Fraction(1, 2), Fraction(1, 4)
    return integral_basis(
        3, 7, basis=((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q)), disc=441
    )


def test_e37_relative_and_maximal_order():
    o = relative_order(_e37())
    f = conductor(o).module
    assert_counts_agree(maximal_order(o.field), f)
    assert_counts_agree(o, f)
    # the Picard formula does not read these counts: E37's unit index is
    # undecided, and its field does not read counts off an index > 1
    with pytest.raises(UnresolvedError):
        picard_terms(o)
    with pytest.raises(UnresolvedError):
        o.field.residue_unit_counts(factorize(o.index_in_maximal()).items())


def test_closed_forms_match_the_contraction_count():
    # every order Z + f*O_K of Q(sqrt(-d)), d < 200 squarefree, f < 40:
    # the field's closed forms are the prime-contraction counts modulo the
    # conductor the library computes as a colon module
    orders_seen = 0
    for d in range(1, 200):
        if not _is_squarefree(d):
            continue
        F = QuadField(-d)
        omax = maximal_order(F)
        for f in range(1, 40):
            o = order_with_index(F, f)
            fmod = conductor(o).module
            expected = (residue_unit_count(omax, fmod), residue_unit_count(o, fmod))
            fac = factorize(o.index_in_maximal()).items()
            assert F.residue_unit_counts(fac) == expected, (d, f)
            orders_seen += 1
    assert orders_seen == 4758


def test_maximal_quartic_orders_count_one():
    # the acceptance-08 fields: a maximal order is its own conductor
    H, Q = Fraction(1, 2), Fraction(1, 4)
    fields = [
        integral_basis(d, n)
        for d, n in [
            (3, 1), (3, 2), (3, 5), (3, 10), (7, 1), (7, 2), (7, 5), (7, 10),
            (11, 1), (11, 2), (11, 5), (15, 2), (19, 1), (23, 2), (35, 2),
            (59, 2), (59, 5),
        ]
    ]
    rows12 = ((1, 0, 0, 0), (0, 0, H, H), (0, 1, 0, 0), (0, 0, H, -H))
    rows715 = ((1, 0, 0, 0), (H, H, 0, 0), (H, 0, H, 0), (Q, Q, Q, -Q))
    fields += [
        integral_basis(1, 2, basis=rows12, disc=256),
        _e37(),
        integral_basis(7, 15, basis=rows715, disc=11025),
    ]
    for E in fields:
        omax = maximal_order(E)
        fac = factorize(omax.index_in_maximal()).items()
        assert E.residue_unit_counts(fac) == (1, 1), E
        assert residue_unit_count(omax, conductor(omax)) == 1, E


@pytest.mark.parametrize("d,n", [(59, 2), (11, 10)])
def test_principal_rational_moduli_of_quartic_fields(d, n):
    E = integral_basis(d, n)
    omax = maximal_order(E)
    for x in range(1, 7):
        xI = [[x * int(i == j) for j in range(4)] for i in range(4)]
        assert_counts_agree(omax, hnf(E, xI))


def test_count_rejects_a_non_ideal():
    F = QuadField(-1)
    o = order_with_index(F, 3)
    # O_K is not inside o
    with pytest.raises(ValueError):
        residue_unit_count(o, maximal_order(F).module)
    # 3Z + (1 + 3i)Z lies in o = Z + 3Z[i], but 3i * (1 + 3i) = -9 + 3i
    # does not lie in it
    with pytest.raises(ValueError):
        residue_unit_count(o, hnf(F, [[3, 0], [1, 3]]))


def _is_squarefree(n):
    return all(e == 1 for e in factorize(n).values())


def picard_pool():
    """The orders of the benchmark's picard workload as (D, c) with
    o = Z + c*O_K: Z[sqrt(-n)] for squarefree n <= 100, which is c = 2
    when -n = 1 mod 4 and O_K otherwise, and Z + f*O_K in Q(sqrt(-d)) for
    squarefree d <= 23 and f <= 6, each order once."""
    specs = {(-n, 2 if n % 4 == 3 else 1) for n in range(1, 101) if _is_squarefree(n)}
    specs |= {(-d, f) for d in range(1, 24) if _is_squarefree(d) for f in range(1, 7)}
    return sorted(specs)


def kronecker(D, q):
    """(D/q) for a fundamental discriminant D and a prime q, by Euler's
    criterion for odd q and by D mod 8 for q = 2."""
    if D % q == 0:
        return 0
    if q == 2:
        return 1 if D % 8 in (1, 7) else -1
    return 1 if pow(D % q, (q - 1) // 2, q) == 1 else -1


def test_picard_pool_counts_match_cox():
    # Cox, Primes of the form x^2 + ny^2, section 7: for o = Z + c*O_K with
    # conductor f = c*O_K, #(O_K/f)^x = c^2 prod (1 - 1/q)(1 - (d_K/q)/q)
    # over the primes q | c, and o/f = Z/c has phi(c) units
    pool = picard_pool()
    assert len(pool) == 141
    for D, c in pool:
        F = QuadField(D)
        o = order_with_index(F, c)
        t = picard_terms(o)
        qs = list(factorize(c))
        units_max = c * c * prod((q - 1) * (q - kronecker(F.disc, q)) for q in qs)
        assert t.units_max * prod(q * q for q in qs) == units_max, (D, c)
        assert t.units_o * prod(qs) == c * prod(q - 1 for q in qs), (D, c)


def _counting(calls, name, fn):
    def counted(*args):
        calls.append(name)
        return fn(*args)

    return counted


def test_picard_terms_takes_the_primes_of_o_k_once(monkeypatch):
    # one picard_terms call reads both residue counts off the index: it
    # builds no conductor, colon module, prime of O_K or intersection, on
    # any order of the pool or its maximal order, and its counts are the
    # prime-contraction counts modulo the conductor, 1 and 1 when o = O_K
    calls = []
    for owner, name in [
        (orders, "conductor"),
        (orders, "module_colon"),
        (QuadField, "prime_rows"),
        (IntModule, "intersect"),
    ]:
        monkeypatch.setattr(owner, name, _counting(calls, name, getattr(owner, name)))
    for D, c in picard_pool():
        F = QuadField(D)
        for o in (order_with_index(F, c), maximal_order(F)):
            orders._prime_modules.cache_clear()
            calls.clear()
            t = picard_terms(o)
            assert calls == [], (D, c)
            f = conductor(o).module
            assert t.units_max == residue_unit_count(maximal_order(F), f), (D, c)
            assert t.units_o == residue_unit_count(o, f), (D, c)
            if o.is_maximal:
                assert t.units_max == t.units_o == 1
    # the counters see the work of the contraction count
    calls.clear()
    o = order_with_index(QuadField(-7), 3)
    residue_unit_count(o, orders.conductor(o))
    assert {"conductor", "prime_rows", "intersect"} <= set(calls)


@pytest.mark.parametrize("pool", ["benchmark", "large"])
def test_residue_count_intersects_once_per_prime_of_o(monkeypatch, pool):
    # o = Z + c*O_K has conductor f = c*O_K and o/f = Z/c, so the primes
    # of o that contain f are one for each prime q | c: one intersection
    # each in the count for o, none in the count for O_K; both counts
    # agree with the enumeration wherever it is cheap
    orders_ = picard_pool() if pool == "benchmark" else [(-1, 2000), (-3, 1001)]
    intersects = []
    intersect = IntModule.intersect

    def counted_intersect(m, other):
        intersects.append(other)
        return intersect(m, other)

    monkeypatch.setattr(IntModule, "intersect", counted_intersect)
    for D, c in orders_:
        F = QuadField(D)
        o = order_with_index(F, c)
        omax = maximal_order(F)
        f = conductor(o).module
        for order in (o, omax):
            intersects.clear()
            count = residue_unit_count(order, f)
            primes = 0 if order.is_maximal else len(factorize(c))
            assert len(intersects) == primes, (D, c, order.is_maximal)
            if not order.is_maximal or c <= 6:
                assert count == residue_unit_count_by_enumeration(order, f), (D, c)


def test_brute_force_scans_no_further_than_minkowski(monkeypatch):
    # the bound the scan runs to, as its pair count reads it, and the index
    # [O_K : I] = a of each invertible ideal it hands to reduce_form (the
    # maximal order: content 1) are recorded
    seen = []
    scan_pairs, reduce_form = orders._scan_pairs, orders.reduce_form

    def record(bound):
        seen.append(bound)
        if bound > 100:
            raise AssertionError("scan to index %d" % bound)

    def recording_pairs(f, bound, divs):
        record(bound)
        return scan_pairs(f, bound, divs)

    def recording_kernel(a, b, c):
        record(a)
        return reduce_form(a, b, c)

    monkeypatch.setattr(orders, "_scan_pairs", recording_pairs)
    monkeypatch.setattr(orders, "reduce_form", recording_kernel)
    r = pic_brute_force(maximal_order(QuadField(-5)), 10**6)
    assert seen and all(b <= ceil(r.minkowski_bound) for b in seen)
    assert (r.count, r.norm_bound, r.complete) == (2, 10**6, True)
