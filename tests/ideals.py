"""Ideal helpers that only the tests use, and the brute-force Picard count
that `orders.pic_brute_force` replaced, kept as its oracle.

Test helpers, not collected by pytest.  `ideal_candidates` scans every
HNF lattice ((d1, 0), (c, d2)) of O_K with d1 * d2 <= bound and keeps the
ones closed under the order; `pic_pairwise` keeps its invertible ones and
compares each with every class representative found so far, one
principality test per pair.  `picard_pool` gives the orders of the
picard benchmark.
"""

from nforders.cli import parse_order
from nforders.intmath import is_squarefree
from nforders.lattice import IntModule, _times
from nforders.orders import (
    OrderIdeal,
    OrderRep,
    PreconditionError,
    _closed_under,
    conductor,
    is_coprime_to_conductor,
    is_invertible,
    is_principal,
    maximal_order,
    module_colon,
    module_mul,
    principal_ideal,
)

# ---------------------------------------------------------------------------
# ideal helpers


def module_conj(m: IntModule) -> IntModule:
    """Image of m under the field's conjugation (the quadratic bar, or the
    biquadratic bar action)."""
    return IntModule(m.ambient, tuple(_times(m.rows, m.ambient.conj_matrix)), m.den)


def ideal_conj(a: OrderIdeal) -> OrderIdeal:
    return OrderIdeal(a.order, module_conj(a.module))


def ideal_add(a: OrderIdeal, b: OrderIdeal) -> OrderIdeal:
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    return OrderIdeal(a.order, a.module.add(b.module))


def ideal_from_gens(o: OrderRep, elems) -> OrderIdeal:
    out = None
    for e in elems:
        p = principal_ideal(o, e)
        out = p if out is None else ideal_add(out, p)
    return out


def ideal_quot(a: OrderIdeal, b: OrderIdeal) -> IntModule:
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    return module_colon(a.module, b.module)


def extend_ideal(a: OrderIdeal) -> OrderIdeal:
    """a * O_K as an ideal of the maximal order."""
    if not is_coprime_to_conductor(a):
        raise PreconditionError("extension needs an ideal coprime to the conductor")
    omax = maximal_order(a.field)
    return OrderIdeal(omax, module_mul(a.module, omax.module))


def contract_ideal(atilde: OrderIdeal, o: OrderRep) -> OrderIdeal:
    """atilde intersected with o, as an o-ideal."""
    if not atilde.order.is_maximal:
        raise ValueError("contraction expects an ideal of the maximal order")
    f = conductor(o)
    fmax = OrderIdeal(maximal_order(o.field), f.module)
    if atilde.module.add(fmax.module) != atilde.order.module:
        raise PreconditionError("contraction needs an ideal coprime to the conductor")
    return OrderIdeal(o, atilde.module.intersect(o.module))


# ---------------------------------------------------------------------------
# the pairwise brute-force count


def ideal_candidates(o: OrderRep, bound: int):
    """All o-ideals L in O_K with [O_K : L] <= bound (rank 2 only)."""
    out = []
    for d1 in range(1, bound + 1):
        for d2 in range(1, bound // d1 + 1):
            for c in range(d1):
                rows = ((d1, 0), (c, d2))
                if _closed_under(o, rows):
                    out.append(OrderIdeal(o, IntModule(o.field, rows, 1)))
    return out


def pic_pairwise(o: OrderRep, scan: int) -> int:
    """The number of classes among the invertible ideal_candidates(o, scan):
    a ~ rep iff a * conj(rep) is principal (their norms cancel)."""
    rep_conjs = []
    for a in ideal_candidates(o, scan):
        if not is_invertible(a):
            continue
        if not any(
            is_principal(o, module_mul(a.module, rc)) is not None for rc in rep_conjs
        ):
            rep_conjs.append(module_conj(a.module))
    return len(rep_conjs)


# ---------------------------------------------------------------------------
# the picard benchmark's orders


def picard_pool() -> dict:
    """Z[sqrt(-n)] for squarefree n <= 100 and Z + f*O_K in Q(sqrt(-d)) for
    squarefree d <= 23 and f <= 6, each order once, as {spec: order}."""
    specs = ["zsqrt:-%d" % n for n in range(1, 101) if is_squarefree(n)]
    specs += [
        "index:-%d:%d" % (d, f)
        for d in range(1, 24)
        if is_squarefree(d)
        for f in range(1, 7)
    ]
    out = {}
    for spec in specs:
        out.setdefault(parse_order(spec)[0], spec)
    return {spec: o for o, spec in out.items()}
