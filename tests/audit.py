"""The counting audit of the Picard formula and its residue enumeration.

Test helpers, not collected by pytest.  `counting_audit` recomputes
#Pic(o) three ways and checks the paper's counting identities, on the
congruence-subgroup predicates `in_PK1f` and `in_PKOf`.  `_residue_reps`
and `_is_unit_mod` enumerate the classes of o/f one by one;
`residue_unit_count_by_enumeration` counts the units among them, the
oracle for the closed form `orders.residue_unit_count`.
"""

from dataclasses import dataclass
from itertools import product
from math import ceil, lcm

from nforders.lattice import IntModule, _det_int, _times, adjugate_int, hnf_matrix
from nforders.orders import (
    AuditFailure,
    OrderIdeal,
    OrderRep,
    PreconditionError,
    UnresolvedError,
    conductor,
    is_principal,
    maximal_order,
    module_conj,
    module_mul,
    pic_brute_force,
    picard_terms,
    principal_ideal,
)
from nforders.quadratic import integer_coords, table_matrix

from ideals import ideal_candidates
from oracles import fundamental_unit

# ---------------------------------------------------------------------------
# residue enumeration


def _residue_reps(o: OrderRep, fmod: IntModule):
    """One representative per coset of o/fmod."""
    if not o.module.contains_module(fmod):
        raise ValueError("f must be contained in the order")
    # fmod's rows over o's basis B: fmod.rows * adj(B) / (fmod.den * det B),
    # integers as fmod lies in o
    B = o.module.rows
    scale = fmod.den * _det_int(B)
    rows = _times(fmod.rows, adjugate_int(B))
    assert all(c % scale == 0 for r in rows for c in r)
    H = hnf_matrix([[c // scale for c in r] for r in rows])
    # sum_i c_i * (basis row i of o), 0 <= c_i < H[i][i], first index slowest
    for cs in product(*(range(H[i][i]) for i in range(len(H)))):
        yield o.field.from_basis_coords(_times([cs], o.module.rows)[0])


def _is_unit_mod(o: OrderRep, fmod: IntModule, e) -> bool:
    """e * o + fmod == o, with the rows of e * o taken on integers through
    the table and the sum built as one module."""
    if e.is_zero():
        return False
    u, den = integer_coords(e.basis_coords())
    gen = _times(o.module.rows, table_matrix(o.field.mult_table, u))
    L = lcm(den, fmod.den)
    rows = [[c * (L // den) for c in r] for r in gen]
    rows += [[c * (L // fmod.den) for c in r] for r in fmod.rows]
    return IntModule(o.field, tuple(map(tuple, rows)), L) == o.module


def _unit_residues(o: OrderRep, fmod: IntModule):
    """Representatives of (o/fmod)^x as order elements.  A trivial quotient
    is the zero ring, whose one class counts as the unit."""
    if fmod == o.module:
        return [o.field.from_basis_coords([0] * o.module.rank)]
    return [e for e in _residue_reps(o, fmod) if _is_unit_mod(o, fmod, e)]


def residue_unit_count_by_enumeration(o: OrderRep, fmod: IntModule) -> int:
    """#(o/fmod)^x, one module built per residue class."""
    return len(_unit_residues(o, fmod))


# ---------------------------------------------------------------------------
# congruence-subgroup predicates and the counting audit


def in_PK1f(field, alpha, f: OrderIdeal, beta=None) -> bool:
    """alpha = beta mod f with both sides coprime to f (beta defaults to 1);
    the congruence-subgroup membership test at the level of generators."""
    omax = maximal_order(field)
    if beta is None:
        beta = field.one()
    for x in (alpha, beta):
        xi = principal_ideal(omax, x)
        if not xi.is_integral():
            raise PreconditionError("element is not integral")
        if xi.module.add(f.module) != omax.module:
            raise PreconditionError("element is not coprime to f")
    diff = (alpha - beta).basis_coords()
    return f.module.contains_coords(diff)


def in_PKOf(atilde: OrderIdeal, o: OrderRep) -> bool:
    """Membership of the O_K-ideal atilde in the subgroup generated by
    principal ideals with a generator in o (coprime to the conductor).

    On a quartic field only the associates u * eta^(+-j) * g, j <= 8, of
    the generator g found are tried, with eta the Pell unit, which need
    not generate the units modulo torsion: a hit is a witness and gives
    True, a miss raises UnresolvedError."""
    f = conductor(o)
    omax = maximal_order(o.field)
    if atilde.module.add(f.module) != omax.module:
        raise PreconditionError("ideal is not coprime to the conductor")
    g = is_principal(omax, atilde.module)
    if g is None:
        return False
    field = o.field
    units = field.torsion_units()
    for u in units:
        cand = u * g
        if o.module.contains_coords(cand.basis_coords()):
            return True
    if field.degree == 4:
        eta = fundamental_unit(field)
        for j in range(1, 9):
            for base in (eta**j, eta**-j):
                for u in units:
                    cand = u * base * g
                    if o.module.contains_coords(cand.basis_coords()):
                        return True
        raise UnresolvedError(
            "no associate u * eta^(+-j), j <= 8, of the generator lies in o"
        )
    return False


@dataclass(frozen=True)
class AuditReport:
    h_K: int
    unit_index: int
    residue_units_max: int
    residue_units_order: int
    picard: int
    ray_class_count: int
    conductor_norm: int
    checks: tuple


def counting_audit(o: OrderRep, margin: int = 4) -> AuditReport:
    """Recompute the Picard cardinality three ways and assert the counting
    identities: the unit/residue formula, the brute-force ideal partition,
    and the coprime-to-f ray-style class count; also pins the unit groups."""
    field = o.field
    if field.degree != 2 or field.D > 0:
        raise UnresolvedError("counting audit runs on imaginary quadratic orders")
    omax = maximal_order(field)
    f = conductor(o)
    fmax = OrderIdeal(omax, f.module)
    terms = picard_terms(o)
    pic = terms.picard
    checks = []

    bf = pic_brute_force(o)
    if bf.count != pic:
        raise AuditFailure("brute-force Picard %d != formula %d" % (bf.count, pic))
    checks.append("pic_formula_equals_brute_force")

    # class count of coprime-to-f ideals of O_K modulo generators in o
    Nf = int(fmax.norm())
    bound = max(ceil(bf.minkowski_bound), Nf) * margin
    ideals = []
    for a in ideal_candidates(omax, bound):
        if a.module.add(fmax.module) == omax.module:
            ideals.append(a)
    classes: list[OrderIdeal] = []
    for a in ideals:
        placed = False
        for rep in classes:
            q = module_mul(a.module, module_conj(rep.module))
            qi = OrderIdeal(omax, q)
            if qi.module.add(fmax.module) == omax.module and in_PKOf(qi, o):
                placed = True
                break
        if not placed:
            classes.append(a)
    ray = len(classes)
    if ray != pic:
        raise AuditFailure("coprime-ideal class count %d != Picard %d" % (ray, pic))
    checks.append("ray_class_count_equals_picard")

    # O_K^x meet K_{f,o} = o^x, exhausting the finite unit group
    tors = field.torsion_units()
    in_order = {
        t.basis_coords(): o.module.contains_coords(t.basis_coords()) for t in tors
    }
    reps = _unit_residues(o, f.module)
    for t in tors:
        member = any(o.module.contains_coords((t * b).basis_coords()) for b in reps)
        if member != in_order[t.basis_coords()]:
            raise AuditFailure("unit %r crosses K_{f,o} boundary" % (t,))
    checks.append("unit_intersection_is_order_units")

    # P_{K,1}^f inside P_{K,o}^f on generator samples
    sampled = 0
    for a in ideals:
        g = is_principal(omax, a.module)
        if g is None:
            continue
        for t in tors:
            cand = t * g
            ci = principal_ideal(omax, cand)
            if ci.module.add(fmax.module) != omax.module:
                continue
            if in_PK1f(field, cand, fmax):
                if not in_PKOf(ci, o):
                    raise AuditFailure("P_K1f element outside P_KOf: %r" % (cand,))
                sampled += 1
        if sampled >= 5:
            break
    checks.append("pk1f_contained_in_pkof")

    return AuditReport(
        h_K=terms.h_K,
        unit_index=terms.unit_index,
        residue_units_max=terms.units_max,
        residue_units_order=terms.units_o,
        picard=pic,
        ray_class_count=ray,
        conductor_norm=Nf,
        checks=tuple(checks),
    )
