"""The brute-force Picard count by reduced forms against the pairwise count
it replaced (tests/ideals.py), on the orders of the picard benchmark pool:
Z[sqrt(-n)] for squarefree n <= 100 and Z + f*O_K in Q(sqrt(-d)) for
squarefree d <= 23 and f <= 6, each order once."""

from math import ceil, gcd

import pytest

from nforders import orders
from nforders.lattice import IntModule
from nforders.orders import (
    AuditFailure,
    OrderIdeal,
    _primitive_ideals,
    is_invertible,
    order_zsqrt,
    pic_brute_force,
)
from nforders.quadratic import QuadField

from ideals import ideal_candidates, pic_pairwise, picard_pool, principal_queries_eager

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


@pytest.mark.parametrize("spec", sorted(POOL))
def test_gcd_decides_invertibility(spec):
    # every primitive ideal the complete scan takes: the gcd of its form
    # against the ideal layer's invertibility test, and its rows against
    # the (a, b) it stands for
    o = POOL[spec]
    disc = o.field.disc * o.index_in_maximal() ** 2
    scan = ceil(pic_brute_force(o).minkowski_bound)
    seen = set()
    for a, b, c, rows in _primitive_ideals(o, scan):
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
    for a, b, c, rows in _primitive_ideals(o, scan):
        q = gcd(gcd(rows[0][0], rows[1][0]), rows[1][1])
        primitive.add(IntModule(o.field, rows, q))
    for L in ideal_candidates(o, scan):
        if not is_invertible(L):
            continue
        # L divided by its content in O_K, as I/q above
        content = gcd(gcd(L.module.rows[0][0], L.module.rows[1][0]), L.module.rows[1][1])
        assert IntModule(o.field, L.module.rows, content) in primitive, L.module


@pytest.mark.parametrize("spec", sorted(POOL))
def test_principal_queries_match_eager_conjugates(monkeypatch, spec):
    # the lazy conjugate changes no is_principal argument and no order, and
    # conjugates each class representative at most once
    o = POOL[spec]
    asked, conjugated = [], []
    is_principal, module_conj = orders.is_principal, orders.module_conj

    def recording_is_principal(order, m):
        assert order is o
        asked.append(m)
        return is_principal(order, m)

    def recording_module_conj(m):
        conjugated.append(m)
        return module_conj(m)

    monkeypatch.setattr(orders, "is_principal", recording_is_principal)
    monkeypatch.setattr(orders, "module_conj", recording_module_conj)
    r = pic_brute_force(o)
    monkeypatch.undo()
    assert asked == principal_queries_eager(o, ceil(r.minkowski_bound))
    assert len(set(conjugated)) == len(conjugated) <= r.count


def test_a_form_key_the_ideal_layer_rejects_fails_the_count(monkeypatch):
    # two ideals of one key that is_principal does not join raise
    monkeypatch.setattr(orders, "is_principal", lambda o, m: None)
    with pytest.raises(AuditFailure, match="reduced form"):
        pic_brute_force(order_zsqrt(QuadField(-5)))

