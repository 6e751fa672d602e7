"""The closed form of `orders.residue_unit_count` against the enumeration
of every residue class in `audit.py`, and the scan bound of
`pic_brute_force`."""

from math import ceil

import pytest
from fractions import Fraction

from nforders import orders
from nforders.biquadratic import integral_basis
from nforders.intmath import factorize
from nforders.lattice import hnf
from nforders.orders import (
    conductor,
    maximal_order,
    order_with_index,
    pic_brute_force,
    relative_order,
    residue_unit_count,
)
from nforders.quadratic import QuadField

from audit import residue_unit_count_by_enumeration

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


def test_brute_force_scans_no_further_than_minkowski(monkeypatch):
    seen = []
    primitive_ideals = orders._primitive_ideals

    def recording(o, bound):
        seen.append(bound)
        if bound > 100:
            raise AssertionError("scan to index %d" % bound)
        return primitive_ideals(o, bound)

    monkeypatch.setattr(orders, "_primitive_ideals", recording)
    r = pic_brute_force(maximal_order(QuadField(-5)), 10**6)
    assert seen and all(b <= ceil(r.minkowski_bound) for b in seen)
    assert (r.count, r.norm_bound, r.complete) == (2, 10**6, True)
