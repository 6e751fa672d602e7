"""The library's value classes, built without `dataclasses`.

Records with no checks are `typing.NamedTuple`s; classes that check or
canonicalize their input, or cache derived values, are plain classes with
an `__init__`.  Either way they keep the semantics of the frozen
dataclasses they replace: the same field names in the same order, so
positional and keyword construction work; equal values compare equal;
the hash is the hash of the field tuple (of (d, n, disc) for a
BiquadField); and a plain class compares unequal to an instance of any
other class, a tuple of its fields included.  The reprs that reach CLI
output or an error message are unchanged.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nforders.biquadratic import (
    BiquadClassGroup,
    BiquadElem,
    BiquadField,
    NormMapCondition,
    PrimeFactor,
    factor_rational_prime,
    integral_basis,
)
from nforders.criteria import SOLVABLE, CriterionReport, UnitWitness, unit_witness
from nforders.lattice import (
    IntModule,
    LadderData,
    LatticeBasis,
    identity_module,
    ladder_data,
    lll_reduce,
)
from nforders.orders import (
    BruteClassCount,
    IdealFactorization,
    OrderIdeal,
    OrderRep,
    PicardTerms,
    maximal_order,
)
from nforders.quadratic import (
    CFExpansion,
    ClassGroupResult,
    FieldElem,
    PellSolution,
    QuadElem,
    QuadField,
    SplitResult,
    cf_sqrt,
    form_class_group,
)

SRC = Path(__file__).resolve().parent.parent / "src"

F = QuadField(-59)
E = integral_basis(59, 2)
O = maximal_order(F)
W = unit_witness(59, 2)
P3 = factor_rational_prime(E, 3)[0]
RED = lll_reduce(identity_module(F), F.t2_gram_matrix)
LAD = ladder_data(E)
CG = form_class_group(-59)
CF = cf_sqrt(7)

# class, field names in order, and one value for each
PLAIN = [
    (QuadElem, ("field", "u", "den"), (F, (1, 1), 1)),
    (BiquadElem, ("field", "u", "den"), (E, (1, 0, 1, 0), 1)),
    (QuadField, ("D",), (-59,)),
    (BiquadField, ("d", "n", "intbasis"), (59, 2, E.intbasis)),
    (IntModule, ("ambient", "rows", "den"), (F, ((3, 0), (1, 1)), 2)),
    (OrderRep, ("field", "module"), (F, O.module)),
    (OrderIdeal, ("order", "module"), (O, O.module)),
    (
        CriterionReport,
        ("criterion", "hypotheses", "applicable", "verdict", "representation"),
        ("cox", (("p_is_prime", True, None),), True, SOLVABLE, (3, 2)),
    ),
    (UnitWitness, ("alpha", "beta", "n"), (W.alpha, W.beta, 2)),
    (PellSolution, ("D", "N", "x", "y"), (2, -1, 1, 1)),
]

RECORDS = [
    (PrimeFactor, ("module", "e", "f"), (P3.module, P3.e, P3.f)),
    (BiquadClassGroup, ("disc", "h", "structure"), (E.disc, 3, (3,))),
    (NormMapCondition, ("inj_iso", "h_F", "h_E", "odd_equal"), (True, 3, 3, True)),
    (
        LadderData,
        ("U", "step", "period"),
        (LAD.U, LAD.step, LAD.period),
    ),
    (IdealFactorization, ("factors",), (((OrderIdeal(O, O.module), 1),),)),
    (
        PicardTerms,
        ("h_K", "unit_index", "units_max", "units_o", "picard"),
        (3, 1, 1, 1, 3),
    ),
    (
        BruteClassCount,
        ("count", "norm_bound", "minkowski_bound", "complete"),
        (3, 6, Fraction(7, 2), True),
    ),
    (SplitResult, ("kind", "pi", "pibar"), ("inert", F(3), F(3))),
    (ClassGroupResult, ("disc", "h", "forms"), (-59, 3, CG.forms)),
    (CFExpansion, ("D", "a0", "period", "norms"), (7, 2, CF.period, CF.norms)),
    (LatticeBasis, ("ambient", "rows", "den", "gso"), (F, RED.rows, 1, RED.gso)),
]

CLASSES = PLAIN + RECORDS


def _old_hash(cls, values):
    # the frozen dataclass's hash of its compared fields; BiquadField
    # hashed (d, n, disc) already, disc now proven from (d, n, intbasis)
    if cls is BiquadField:
        d, n, _ = values
        return hash((d, n, E.disc))
    return hash(values)


def _ids(x):
    return getattr(x, "__name__", "")


@pytest.mark.parametrize("cls, names, values", CLASSES, ids=_ids)
def test_fields_equality_and_hash_are_the_dataclass_ones(cls, names, values):
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert a is not b and a == b and not a != b
    assert tuple(getattr(a, name) for name in names) == values
    if cls is LatticeBasis:
        # gso, left out of the dataclass's equality and hash, holds lists:
        # nothing in src/ compares or hashes a basis, and it is unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(b) == _old_hash(cls, values)


@pytest.mark.parametrize("cls, names, values", PLAIN, ids=_ids)
def test_a_plain_class_equals_only_its_own_class(cls, names, values):
    a = cls(*values)
    assert a.__eq__(values) is NotImplemented and a != values
    assert a.__eq__(object()) is NotImplemented


def test_a_record_is_its_tuple():
    # NamedTuple fields in the order the dataclass declared them; equal to
    # the plain tuple of its values, which no comparison in src/ relies on
    for cls, names, values in RECORDS:
        assert cls._fields == names, cls
        assert cls(*values) == values, cls


def test_unequal_values_compare_unequal():
    assert QuadElem(F, (1, 1)) != QuadElem(F, (1, 2))
    assert QuadElem(F, (1, 1)) != QuadElem(QuadField(-5), (1, 1))
    assert IntModule(F, ((3, 0), (1, 1)), 2) != IntModule(F, ((3, 0), (1, 1)), 1)
    assert PellSolution(2, -1, 1, 1) != PellSolution(2, 1, 3, 2)
    # a FieldElem is not equal to its subclass with the same fields
    assert FieldElem(F, (1, 1)) != QuadElem(F, (1, 1))
    # a supplied basis equal to the built-in one gives an equal field
    assert BiquadField(59, 2, E.intbasis) == E
    assert BiquadField(59, 2, E.intbasis) != BiquadField(7, 2, E.intbasis)


def test_construction_still_checks_and_canonicalizes():
    assert QuadElem(F, [2, 4], 6) == QuadElem(F, (1, 2), 3)
    assert type(QuadElem(F, [2, 4], 6).u) is tuple
    with pytest.raises(ValueError, match="need 2 coordinates"):
        QuadElem(F, (1, 2, 3))
    with pytest.raises(ZeroDivisionError):
        QuadElem(F, (1, 2), 0)
    with pytest.raises(ValueError, match="squarefree"):
        QuadField(-4)
    m = IntModule(F, [[Fraction(6), 2], [0, 4]], -2)
    assert (m.rows, m.den) == (((6, 0), (3, 1)), 1)
    assert all(type(x) is int for row in m.rows for x in row)
    with pytest.raises(ValueError, match="multiplicatively closed"):
        # Z + Z*w + Z*t + 2Z*w*t holds 1 but not w * t
        rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
        OrderRep(E, IntModule(E, rows, 1))
    with pytest.raises(AssertionError):
        PellSolution(2, 1, 1, 1)
    with pytest.raises(AssertionError):
        UnitWitness(W.alpha, W.beta, 3)
    with pytest.raises(AssertionError):
        CriterionReport("cox", (), False, SOLVABLE)


def test_cached_values_survive_the_conversion():
    o = maximal_order(QuadField(-5))
    assert o.mult_matrices is o.mult_matrices
    assert "mult_matrices" in vars(o)
    assert F.mult_table is F.mult_table and E.mult_table is E.mult_table


def test_reprs_that_reach_output_are_unchanged():
    # element reprs reach error messages ("not a prime element: ..."),
    # and a record's repr is the dataclass's ClassName(field=value, ...)
    assert repr(QuadElem(F, (1, 1))) == "QuadElem(3/2 + 1/2*sqrt(-59))"
    assert repr(E.one()) == (
        "BiquadElem((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)))"
    )
    assert repr(F) == "QuadField(-59)"
    assert repr(E) == "BiquadField(59, 2)"
    assert repr(PicardTerms(3, 1, 1, 1, 3)) == (
        "PicardTerms(h_K=3, unit_index=1, units_max=1, units_o=1, picard=3)"
    )
    assert repr(BruteClassCount(3, 6, Fraction(7, 2), True)) == (
        "BruteClassCount(count=3, norm_bound=6, minkowski_bound=Fraction(7, 2), "
        "complete=True)"
    )


def test_cli_starts_without_dataclasses_inspect_or_csv():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize; csv is
    # imported only where `sweep --csv` writes.  The child's bare env drops
    # PYTHONDONTWRITEBYTECODE, so -B keeps it from writing into src/
    code = (
        "import sys, nforders.cli; "
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
