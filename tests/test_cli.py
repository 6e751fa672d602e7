import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nforders import cli, criteria, lattice, orders, quadratic
from nforders.lattice import IntModule
from nforders.quadratic import QuadField
from ideals import picard_pool
from oracles import from_integral_coords, polp_factor

SRC = Path(__file__).resolve().parent.parent / "src"

F59 = QuadField(-59)
F14 = QuadField(-14)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# element parser


@pytest.mark.parametrize(
    "text,coords",
    [
        ("13", (13, 0)),
        ("-4", (-4, 0)),
        ("w", (0, 1)),
        ("-w", (0, -1)),
        ("2*w", (0, 2)),
        ("1+1*w", (1, 1)),
        ("1-w", (1, -1)),
        ("-3 + 2*w", (-3, 2)),
        ("7 - 12*w", (7, -12)),
    ],
)
def test_parse_element_w_forms(text, coords):
    e = cli.parse_element(text, F59)
    assert e == from_integral_coords(F59, *coords)


def test_parse_element_sqrt_forms():
    assert cli.parse_element("sqrt(-59)", F59) == F59(0, 1)
    assert cli.parse_element("3+1*sqrt(-59)", F59) == F59(3, 1)
    assert cli.parse_element("3-sqrt(-59)", F59) == F59(3, -1)
    half = cli.parse_element("(3+sqrt(-59))/2", F59)
    assert half == from_integral_coords(F59, 1, 1)
    assert cli.parse_element("(5779+1115*sqrt(-59))/2", F59) == from_integral_coords(
        F59, 2332, 1115
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 1*w",  # missing sign
        "(3+sqrt(-59)/2",  # unbalanced parens
        "3+sqrt(-59)/2",  # denominator without parens
        "sqrt(-7)",  # wrong field
        "(1+sqrt(-59))/0",  # zero denominator
        "x+2",
        "1.5",
    ],
)
def test_parse_element_rejects(text):
    with pytest.raises(ValueError):
        cli.parse_element(text, F59)


def test_fmt_elem_round_trip():
    for coords in [(0, 0), (5, 0), (0, 1), (0, -3), (2, 7), (-1, -1)]:
        e = from_integral_coords(F59, *coords)
        assert cli.parse_element(cli.fmt_elem(e), F59) == e


# ---------------------------------------------------------------------------
# order specs


def test_parse_order_kinds():
    o, n = cli.parse_order("zsqrt:-14")
    assert o.field == F14 and n == 14 and o.is_maximal
    o, n = cli.parse_order("max:-7")
    assert o.is_maximal and n is None
    o, n = cli.parse_order("index:-7:3")
    assert o.index_in_maximal() == 3 and n is None
    o, n = cli.parse_order("rel:59:2")
    assert o.field.degree == 4 and n == 2


@pytest.mark.parametrize("spec", ["bogus:1", "zsqrt", "index:-7", "zsqrt:x", "max:-7:2"])
def test_parse_order_rejects(spec):
    with pytest.raises(ValueError):
        cli.parse_order(spec)


# ---------------------------------------------------------------------------
# subcommands, through main()


def test_conductor_maximal_zsqrt(capsys):
    code, doc = run_json(capsys, ["conductor", "zsqrt:-14"])
    assert code == 0
    assert doc["conductor"]["norm"] == 1
    assert doc["conductor"]["contains_4n"] is True
    assert doc["n"] == 14
    assert doc["order"]["index_in_maximal"] == 1


def test_conductor_nonmaximal(capsys):
    # Z[sqrt(-7)] has index 2 in the maximal order
    code, doc = run_json(capsys, ["conductor", "zsqrt:-7"])
    assert code == 0
    assert doc["order"]["index_in_maximal"] == 2
    # index of 2*O_K inside the smaller order, not inside O_K
    assert doc["conductor"]["norm"] == 2
    assert doc["conductor"]["contains_4n"] is True


def test_conductor_relative_order(capsys):
    code, doc = run_json(capsys, ["conductor", "rel:59:2"])
    assert code == 0
    assert doc["field"] == "Q(sqrt(-59), sqrt(-2))"
    assert doc["conductor"]["contains_4n"] is True


def test_picard_agrees(capsys):
    code, doc = run_json(capsys, ["picard", "zsqrt:-14"])
    assert code == 0
    assert doc["h_K"] == 4 and doc["picard"] == 4
    assert doc["brute_force"]["complete"] is True
    assert doc["agree"] is True


def test_picard_nonmaximal(capsys):
    code, doc = run_json(capsys, ["picard", "index:-7:3"])
    assert code == 0
    assert doc["picard"] == doc["brute_force"]["count"]
    assert doc["agree"] is True


def test_audit_failure_exits_1_with_an_error_line(capsys, monkeypatch):
    # a failed internal check is "a computed check failed": exit 1 and one
    # "error: ..." line on stderr, no traceback and no JSON
    def fail(o):
        raise orders.AuditFailure("Picard formula is not integral: 7 / 2")

    monkeypatch.setattr(cli, "picard_terms", fail)
    code = cli.main(["picard", "zsqrt:-14"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: Picard formula is not integral: 7 / 2\n"


def test_picard_counts_each_residue_group_once(capsys, monkeypatch):
    # both counts come off the index 3: picard_terms builds no conductor,
    # colon module, prime of O_K or intersection
    inside, calls = [], []
    picard_terms = cli.picard_terms

    def traced_terms(o):
        inside.append(o)
        try:
            return picard_terms(o)
        finally:
            inside.pop()

    def counting(name, fn):
        def counted(*args):
            if inside:
                calls.append(name)
            return fn(*args)

        return counted

    monkeypatch.setattr(cli, "picard_terms", traced_terms)
    for owner, name in [
        (orders, "conductor"),
        (orders, "module_colon"),
        (QuadField, "prime_rows"),
        (IntModule, "intersect"),
    ]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    code, doc = run_json(capsys, ["picard", "index:-7:3"])
    assert code == 0
    # 3 is inert in Q(sqrt(-7)): (O_K/3)^x has 9 - 1 elements, and
    # o/3O_K = (Z + 3O_K)/3O_K is Z/3, with 2 units
    assert doc["unit_counts"] == {"maximal_mod_conductor": 8, "order_mod_conductor": 2}
    assert doc["picard"] == 8 // 2
    assert calls == []


@pytest.mark.parametrize(
    "spec,units_max,units_o,picard",
    [
        # 2000 = 2^4 * 5^3: 2 ramifies and 5 splits in Q(i), so
        # #(O_K/2000)^x = 2^7 * 5^4 * 4^2 and #(Z/2000)^x = 800;
        # [O_K^x : Z^x] = 2
        ("index:-1:2000", 1280000, 800, 800),
        # 1001 = 7 * 11 * 13: 7 and 13 split in Q(sqrt(-3)) and 11 is inert;
        # [O_K^x : Z^x] = 3
        ("index:-3:1001", 622080, 720, 288),
    ],
)
def test_picard_counts_residues_of_large_conductors(
    capsys, spec, units_max, units_o, picard
):
    code, doc = run_json(capsys, ["picard", spec, "--bound", "5"])
    assert code == 0
    assert doc["unit_counts"] == {
        "maximal_mod_conductor": units_max,
        "order_mod_conductor": units_o,
    }
    assert doc["picard"] == picard


def test_picard_outputs_are_unchanged(capsys):
    # recorded while the residue counts still enumerated every class of o/f
    # and the brute force scanned to the bound given
    for argv, digest in [
        (
            ["picard", "index:-1:200", "--bound", "5"],
            "7f8a7028bfc8f4bae70c14639b2c6f9be4961becf8aaa1585577d778a205ff7f",
        ),
        (
            ["picard", "max:-5", "--bound", "300"],
            "40cf1f5463ad40ff36e8a1d15dd39f47a0564eb67a101a1b8a8bd264864dbe98",
        ),
        # the bound is on [O_K : L]: an o-norm bound would count 1, not 3
        (
            ["picard", "zsqrt:-59", "--bound", "2"],
            "f585f6172a177a3546504dfb5370be2ea35b50b64ff1a0ac70bad3c78af61033",
        ),
        (
            ["picard", "index:-7:12", "--bound", "20"],
            "2943aae642dcbe7b9db1250abcf509bbc4b95ae464e5085517a37e51f01df31a",
        ),
    ]:
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_picard_pool_outputs_are_unchanged(capsys):
    # the exit code and stdout of `picard SPEC` and `picard SPEC --bound 5`
    # for each order of the picard benchmark pool, in spec order, recorded
    # before the form kernels moved to tuples and integer bounds
    digest = hashlib.sha256()
    for spec in sorted(picard_pool()):
        for extra in ([], ["--bound", "5"]):
            code, out = run(capsys, ["picard", spec, *extra])
            digest.update(("%d\n%s" % (code, out)).encode())
    assert (
        digest.hexdigest()
        == "83907a949a1375e00b4557630c4868b476573d84e0a057b0e9c0e4d7c315f2a3"
    )


def test_picard_past_the_class_group_cap_prints_an_integer_bound(capsys):
    # the Minkowski bound of Q(sqrt(-43), sqrt(-6)) is about 156.8, past
    # the cap; the message gives it rounded up, not as a raw fraction
    code = cli.main(["picard", "rel:43:6"])
    err = capsys.readouterr().err
    assert code == 3
    assert "minkowski bound 157 exceeds the configured cap 120" in err


def test_picard_of_a_large_conductor_completes(capsys):
    # the default complete bound is 2,667 here; the brute force takes the
    # 1,600 invertible primitive ideals in reach, in 800 classes
    code, doc = run_json(capsys, ["picard", "index:-1:2000"])
    assert code == 0
    assert doc["picard"] == doc["brute_force"]["count"] == 800
    assert doc["brute_force"]["complete"] is True
    assert doc["agree"] is True


def test_picard_factorizes_the_index_once(capsys, monkeypatch):
    # 1000000016000000063 = 1000000007 * 1000000009: the formula's residue
    # counts and the divisors behind the brute force's refusal read one
    # factorization of the index
    f = 1000000016000000063
    calls = []

    def counting(factorize):
        def counted(n):
            if abs(n) == f:
                calls.append(n)
            return factorize(n)

        return counted

    for name, mod in list(sys.modules.items()):
        if name.startswith("nforders") and hasattr(mod, "factorize"):
            monkeypatch.setattr(mod, "factorize", counting(mod.factorize))
    orders._index_factors.cache_clear()
    code, out = run(capsys, ["picard", "index:-1:%d" % f])
    assert code == 0
    assert out == (
        '{"agree":null,"brute_force":null,"command":"picard",'
        '"field":"Q(sqrt(-1))","h_K":1,"order":"index:-1:1000000016000000063",'
        '"picard":500000008000000032,"unit_counts":{"maximal_mod_conductor":'
        "1000000030000000336000001664000003072,"
        '"order_mod_conductor":1000000014000000048},"unit_index":2}\n'
    )
    assert len(calls) == 1


def test_factor_remultiplies(capsys):
    code, doc = run_json(capsys, ["factor", "zsqrt:-14", "3+1*w"])
    assert code == 0
    assert doc["remultiplies"] is True
    assert doc["ideal"]["norm"] == 23
    assert [f["exponent"] for f in doc["factors"]] == [1]


def test_factor_composite_norm(capsys):
    code, doc = run_json(capsys, ["factor", "max:-14", "9"])
    assert code == 0
    total = 1
    for f in doc["factors"]:
        total *= f["norm"] ** f["exponent"]
    assert total == doc["ideal"]["norm"] == 81
    assert doc["remultiplies"] is True


def test_factor_not_coprime_to_conductor(capsys):
    code, out = run(capsys, ["factor", "index:-7:2", "2"])
    assert code == 2
    assert out == ""


def test_criterion_hilbert_solvable(capsys):
    code, doc = run_json(capsys, ["criterion", "hilbert", "1+1*w", "59", "2"])
    assert code == 0
    assert doc["verdict"] == "solvable"
    assert doc["applicable"] is True
    assert [h["name"] for h in doc["hypotheses"]][:3] == [
        "d_n_coprime",
        "d_is_3_mod_4",
        "n_is_1_or_2_mod_4",
    ]
    assert all(h["passed"] for h in doc["hypotheses"])


def test_criterion_hilbert_unsolvable(capsys):
    code, doc = run_json(capsys, ["criterion", "hilbert", "7+1*w", "59", "2"])
    assert code == 0
    assert doc["verdict"] == "unsolvable"


def test_criterion_hilbert_past_the_class_group_cap(capsys):
    # h_E of (79, 6) is past the quartic class group's cap: the norm-map
    # hypothesis is undecided and the verdict unknown, not an exit 3
    code, doc = run_json(capsys, ["criterion", "hilbert", "3", "79", "6"])
    assert code == 0
    assert doc["applicable"] is False and doc["verdict"] == "unknown"
    assert doc["hypotheses"][-2:] == [
        {
            "name": "unit_equation_solvable",
            "passed": True,
            "detail": "(u, v) = (35, 127)",
        },
        {
            "name": "norm_map_injective",
            "passed": False,
            "detail": "undecided: minkowski bound 289 exceeds the configured cap 120",
        },
    ]


def test_criterion_hilbert_unit_equation_past_the_scan(capsys):
    code, doc = run_json(capsys, ["criterion", "hilbert", "7", "107", "2"])
    assert code == 0
    assert doc["hypotheses"][3] == {
        "name": "unit_equation_solvable",
        "passed": True,
        "detail": "(u, v) = (57003, 416941)",
    }


def test_criterion_hilbert_unit_past_the_string_limit(capsys):
    # d*u^2 - n*v^2 = 1 is solvable for (100000259, 2), with u and v of
    # more than 4,300 digits, Python's limit for int-to-string conversion:
    # the detail gives their bit lengths, and the run ends normally
    argv = ["criterion", "hilbert", "17", "100000259", "2"]
    code, out, err = in_process_run(capsys, argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["hypotheses"][3] == {
        "name": "unit_equation_solvable",
        "passed": True,
        "detail": "100000259*u^2 - 2*v^2 = 1 with u of 19652 bits and v of 19665 bits",
    }
    assert doc["verdict"] == "unknown"


def test_criterion_hilbert_unsolvable_unit_equation_at_once(capsys):
    # 100000000003u^2 - 5v^2 = 1 has no solution, which the norms of the
    # period of sqrt(500000000015) show with no convergent built; the
    # period runs 205,772 quotients, and streaming them as convergents to
    # the Pell unit took about 6.5 s
    argv = ["criterion", "hilbert", "3", "100000000003", "5"]
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, argv)
    assert time.perf_counter() - start < 1.5
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["hypotheses"][3] == {
        "name": "unit_equation_solvable",
        "passed": False,
        "detail": "no solution, decided from the Pell unit of Z[sqrt(500000000015)]",
    }
    assert (doc["applicable"], doc["verdict"]) == (False, "unknown")


def test_criterion_inapplicable(capsys):
    code, doc = run_json(capsys, ["criterion", "hilbert", "1+1*w", "59", "3"])
    assert code == 0
    assert doc["applicable"] is False
    assert doc["verdict"] == "unknown"


def test_criterion_cox(tmp_path, capsys):
    poly = tmp_path / "lin.txt"
    poly.write_text("0\n1\n")
    code, doc = run_json(
        capsys, ["criterion", "cox", "17", "0", "2", "--poly", str(poly)]
    )
    assert code == 0
    assert doc["verdict"] == "solvable"
    assert doc["representation"] == [3, 2]


def test_criterion_cox_needs_poly(capsys):
    code, out = run(capsys, ["criterion", "cox", "17", "0", "2"])
    assert code == 2


def test_criterion_cox_rejects_a_poly_that_vanishes_mod_p(tmp_path, capsys):
    # 5 + 5x has disc 1 but no roots to count mod 5, where -1 is a square
    poly = tmp_path / "lin5.txt"
    poly.write_text("5\n5\n")
    code = cli.main(["criterion", "cox", "5", "0", "1", "--poly", str(poly)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: polynomial vanishes mod p\n"


@pytest.mark.parametrize(
    "theorem,p,d,n,coeffs",
    [
        # -1 is no square mod 7: the residue symbol alone would say unsolvable
        ("cox", "7", "0", "1", "7\n7\n"),
        # 101 is inert in Q(sqrt(-59)) and 1 + w has norm 17; a linear
        # polynomial has disc 1, so the disc test passes
        ("quadr", "101", "59", "2", "101\n101\n"),
        ("quadr", "1+1*w", "59", "2", "17\n17\n"),
        # the disc of 17 + 17x^2 is divisible by 17: rejected all the same
        ("quadr", "1+1*w", "59", "2", "17\n0\n17\n"),
    ],
    ids=["cox-7-nonresidue", "quadr-101-linear", "quadr-17-linear", "quadr-17-quadratic"],
)
def test_criterion_rejects_a_poly_that_vanishes_mod_p_whatever_the_residue(
    tmp_path, capsys, theorem, p, d, n, coeffs
):
    poly = tmp_path / "vanishing.txt"
    poly.write_text(coeffs)
    code = cli.main(["criterion", theorem, p, d, n, "--poly", str(poly)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: polynomial vanishes mod p\n"


@pytest.mark.parametrize(
    "theorem,p,d,n,coeffs",
    [
        # 1 + 5x is the constant 1 mod 5, though 5 = 1^2 + 1*2^2
        ("cox", "5", "0", "1", "1\n5\n"),
        # 1 + 101x is the constant 1 mod the inert 101
        ("quadr", "101", "59", "2", "1\n101\n"),
    ],
    ids=["cox-5", "quadr-101"],
)
def test_criterion_rejects_a_poly_whose_leading_coefficient_vanishes_mod_p(
    tmp_path, capsys, theorem, p, d, n, coeffs
):
    poly = tmp_path / "lead.txt"
    poly.write_text(coeffs)
    code = cli.main(["criterion", theorem, p, d, n, "--poly", str(poly)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: leading coefficient vanishes mod p\n"


def test_criterion_reads_the_leading_coefficient_past_zero_top_terms(tmp_path, capsys):
    # 1 + 2x + 0x^2 is the linear 1 + 2x, whose leading 2 is a unit mod 5
    # and mod 101; its root 2 mod 5 makes 5 = 2^2 + 1^2 solvable
    poly = tmp_path / "poly.txt"
    poly.write_text("1\n2\n0\n")
    code, doc = run_json(capsys, ["criterion", "cox", "5", "0", "1", "--poly", str(poly)])
    assert (code, doc["verdict"], doc["representation"]) == (0, "solvable", [2, 1])
    code, doc = run_json(
        capsys, ["criterion", "quadr", "101", "59", "2", "--poly", str(poly)]
    )
    assert code == 0 and doc["applicable"]


# a degree-8 and a degree-20 class polynomial stand-in, constant term first
DEG8 = [1, 2, 0, 1, 0, -1, 0, 3, 1]
DEG20 = [5, 0, -1, 0, 0, 0, 0, 3, 0, 0, 0, 2] + [0] * 8 + [1]


@pytest.mark.parametrize(
    "theorem,p,d,n,q,k,poly,verdict",
    [
        # 101 and 31 are inert in Q(sqrt(-59)): a root in F_(q^2), which
        # DEG8 has mod 31 only through a quadratic factor
        ("quadr", "101", "59", "2", 101, 2, DEG8, "unsolvable"),
        ("quadr", "101", "59", "2", 101, 2, DEG20, "solvable"),
        ("quadr", "31", "59", "2", 31, 2, DEG8, "solvable"),
        ("quadr", "31", "59", "2", 31, 2, DEG20, "solvable"),
        # 1 + w has norm 17: a root in F_17
        ("quadr", "1+1*w", "59", "2", 17, 1, DEG8, "unsolvable"),
        ("quadr", "1+1*w", "59", "2", 17, 1, DEG20, "solvable"),
        # -2 is a square mod both primes, so the root test decides
        ("cox", "1000003", "0", "2", 1000003, 1, DEG8, "unsolvable"),
        ("cox", "1000003", "0", "2", 1000003, 1, DEG20, "solvable"),
        ("cox", "1000081", "0", "2", 1000081, 1, DEG8, "unsolvable"),
        ("cox", "1000081", "0", "2", 1000081, 1, DEG20, "solvable"),
    ],
)
def test_criterion_root_tests_match_full_factorization(
    tmp_path, capsys, theorem, p, d, n, q, k, poly, verdict
):
    # the verdict is whether the polynomial has an irreducible factor of
    # degree dividing k mod q, read off the complete factorization
    degrees = {len(g) - 1 for g, _ in polp_factor(poly, q)}
    assert verdict == ("solvable" if any(k % e == 0 for e in degrees) else "unsolvable")
    path = tmp_path / "poly.txt"
    path.write_text("".join("%d\n" % c for c in poly))
    argv = ["criterion", theorem, p, d, n, "--poly", str(path)]
    code, doc = run_json(capsys, argv)
    assert code == 0 and doc["applicable"] is True
    assert doc["verdict"] == verdict


@pytest.mark.parametrize(
    "p,n",
    [
        # -2 made -n = 2 a residue test mod 11 and answered "unsolvable"
        ("11", "-2"),
        # 13 divides n = 0, so the report answered "unknown"
        ("13", "0"),
        ("13", "-1"),
    ],
)
def test_criterion_cox_rejects_nonpositive_n(tmp_path, capsys, p, n):
    poly = tmp_path / "cubic.txt"
    poly.write_text("-1\n2\n0\n1\n")  # x^3 + 2x - 1
    code = cli.main(["criterion", "cox", p, "0", n, "--poly", str(poly)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: n must be positive, got %s\n" % n


@pytest.mark.parametrize(
    "argv",
    [
        ["picard", "zsqrt:-3", "--bound", "-1"],
        ["sweep", "59", "2", "--bound", "-3"],
    ],
)
def test_negative_bound_exits_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --bound must be nonnegative, got %s\n" % argv[-1]


def test_picard_bound_zero_scans_nothing(capsys):
    code, doc = run_json(capsys, ["picard", "zsqrt:-3", "--bound", "0"])
    assert code == 0
    assert doc["brute_force"] == {"complete": False, "count": 0, "norm_bound": 0}


def test_criterion_quadr_without_poly_is_unknown(capsys):
    # 3 + 2*sqrt(-5) has prime norm 29
    code, doc = run_json(capsys, ["criterion", "quadr", "3+2*w", "5", "13"])
    assert code == 0
    assert doc["verdict"] == "unknown"


@pytest.mark.parametrize(
    "argv,error",
    [
        # 6 is not prime: the first three answered "unknown" with exit 0
        (["quadr", "6", "59", "2"], "not a prime element"),
        (["hilbert", "6", "5", "2"], "not a prime element"),
        (["quadr", "--", "(1+sqrt(-59))/3", "59", "2"], "not an integral element"),
        (["hilbert", "6", "59", "2"], "not a prime element"),
        # norm 6 = 2 * 3
        (["quadr", "1+1*w", "5", "13"], "not a prime element"),
    ],
)
def test_criterion_rejects_p_that_is_not_prime(capsys, argv, error):
    code = cli.main(["criterion"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s: " % error)


def test_represent_solution(capsys):
    code, doc = run_json(capsys, ["represent", "(3+sqrt(-59))/2", "59", "2"])
    assert code == 0
    assert doc["result"] == "solution" and doc["verified"] is True
    assert {doc["x"], doc["y"]} <= {
        "2332+1115*w",
        "-2332-1115*w",
        "3294-532*w",
        "-3294+532*w",
        "1217-1115*w",
        "-1217+1115*w",
        "2762+532*w",
        "-2762-532*w",
    }


def test_represent_none(capsys):
    code, doc = run_json(capsys, ["represent", "7+1*w", "59", "2"])
    assert code == 0
    assert doc["result"] == "none"


def test_represent_rejects_non_prime(capsys):
    code, out = run(capsys, ["represent", "5", "59", "2"])
    assert code == 2


def test_represent_d_3_is_unknown(capsys):
    # a generator of relative norm -p needs a unit witness, which is sought
    # only for d > 3: "unknown" with exit 3, as where the norm is p times a
    # unit other than +-1
    for p in ("3+2*w", "5"):
        code, doc = run_json(capsys, ["represent", p, "3", "2"])
        assert code == 3
        assert doc["result"] == "unknown"


@pytest.mark.parametrize(
    "argv",
    [["represent"], ["criterion", "hilbert"], ["criterion", "quadr"]],
)
def test_zero_element_exits_2(argv):
    # zero and the units 1 and -1 are not prime elements, and each is turned
    # away before any class group is computed; a fresh interpreter, so a
    # traceback would show on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for elem, why in [
        ("0", "zero is not a prime element"),
        ("1", "a unit is not a prime element"),
        ("-1", "a unit is not a prime element"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "nforders.cli", *argv, elem, "59", "2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2, elem
        assert proc.stdout == ""
        assert proc.stderr == "error: %s\n" % why


@pytest.mark.parametrize(
    "argv",
    [
        ["represent", "(1+sqrt(-59))/0", "59", "2"],
        ["factor", "zsqrt:-14", "(1+sqrt(-14))/0"],
        ["criterion", "hilbert", "(1+sqrt(-59))/0", "59", "2"],
    ],
)
def test_zero_denominator_exits_2(argv):
    # exit 1 is "a computed check failed"; a zero denominator is bad input,
    # turned away by the parser with one line and no traceback, which a
    # fresh interpreter would show on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nforders.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    elem = next(a for a in argv if a.endswith("/0"))
    assert proc.stderr == "error: zero denominator in %r\n" % elem


PSI12 = "318665857834031151167461"  # 399165290221 * 798330580441
PSI13 = "3317044064679887385961981"  # 1287836182261 * 2575672364521


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "hilbert", PSI13, "59", "2"],
        ["criterion", "hilbert", PSI13, "31", "2"],
        ["represent", PSI12, "59", "2"],
        ["criterion", "hilbert", PSI12, "59", "2"],
        # factorize proves cofactors prime, so a norm of psi_12^2 and a
        # field discriminant of -psi_12 reach is_prime and no trial
        # division up to the root
        ["factor", "max:-59", PSI12],
        ["picard", "max:-" + PSI12],
    ],
)
def test_strong_pseudoprimes_exit_3_at_once(capsys, argv):
    # both pass the Miller-Rabin witnesses 2..37 and are composite: no
    # verdict and no search, exit 3 with psi_12 named, in well under 1 s
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: cannot prove ")
    assert err.endswith("psi_12 = %s\n" % PSI12)


def test_split_prime_that_is_no_prime_element_exits_2_at_once(capsys):
    # 10000000000000099 is prime and splits in Q(sqrt(-31)), so its
    # residue test reads the splitting kind only, with no scan for an
    # element of norm q
    start = time.perf_counter()
    code, out, err = in_process_run(
        capsys, ["criterion", "hilbert", "10000000000000099", "31", "2"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "error: not a prime element: QuadElem(10000000000000099 + 0*sqrt(-31))\n"
    )


@pytest.mark.parametrize(
    "q,norms",
    [
        # inert in Q(sqrt(-59)): q O_K is prime
        (100000000000000000361, [100000000000000000361**2]),
        # split: two primes of norm q
        (100000007, [100000007, 100000007]),
    ],
)
def test_factor_of_a_large_rational_prime_at_once(capsys, q, norms):
    # q O_K has norm q^2, which factorize reads as a square whose root it
    # proves prime, with no trial division up to q
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, ["factor", "max:-59", str(q)])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["remultiplies"] is True
    assert [(f["norm"], f["exponent"]) for f in doc["factors"]] == [
        (N, 1) for N in norms
    ]


def test_poly_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nx\n")
    code, _ = run(capsys, ["criterion", "cox", "17", "0", "2", "--poly", str(bad)])
    assert code == 2
    code, _ = run(
        capsys, ["criterion", "cox", "17", "0", "2", "--poly", str(tmp_path / "no")]
    )
    assert code == 2


def test_unsupported_field_exits_3(capsys):
    code, out = run(capsys, ["conductor", "rel:6:3"])
    assert code == 3
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        # every prime divides 2*d*n = 0, so the sweep would skip them all
        (["sweep", "59", "0", "--bound", "20"], "n must be positive squarefree"),
        (["represent", "3", "7", "4"], "n must be positive squarefree"),
        # 1 + 2w has norm 11, where -4 is not a square: the solver would
        # answer "none" before it reaches the field
        (["represent", "1+2*w", "7", "4"], "n must be positive squarefree"),
        (["conductor", "rel:3:3"], "d and n must be distinct"),
        # the Hilbert report would fail n_is_1_or_2_mod_4 or d_n_coprime and
        # answer "unknown"; a negative n reached pell_solve
        (["criterion", "hilbert", "1+1*w", "59", "4"], "n must be positive squarefree"),
        (["criterion", "hilbert", "1+1*w", "59", "0"], "n must be positive squarefree"),
        (["criterion", "hilbert", "1+1*w", "59", "-2"], "n must be positive squarefree"),
    ],
)
def test_invalid_field_parameters_exit_2(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


# element text over the element syntax's own alphabet, with the "--"
# separator as one more token; six tokens keep every integer below 10^6
ELEMENT_TEXT = st.lists(
    st.sampled_from(list("0123456789+-*/w() ") + ["sqrt", "--"]), max_size=6
).map("".join)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=ELEMENT_TEXT)
@example(text="--")
def test_element_text_never_raises(text):
    for argv in (
        ["represent", "--", text, "59", "2"],
        ["criterion", "hilbert", "--", text, "59", "2"],
        ["criterion", "quadr", "--", text, "59", "2"],
        ["factor", "zsqrt:3", "--", text],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's own usage errors
                    code = exc.code
        assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "zsqrt:3", "--", "--"],
        ["criterion", "quadr", "--", "--", "59", "2"],
        ["criterion", "quadr", "--", "5", "--", "2"],
    ],
)
def test_second_separator_exits_2(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: argument ")


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def in_process_run(capsys, argv):
    """cli.main(argv) in this interpreter: (exit code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_run(argv):
    """nforders argv in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "nforders.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # a usage error, two --help pages and a good call, in that order through
    # the one parser, each give the bytes and exit code of a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["represent", "13"],
        ["--help"],
        ["represent", "--help"],
        ["represent", "--", "(3+sqrt(-59))/2", "59", "2"],
    ]
    got = [in_process_run(capsys, argv) for argv in calls]
    assert [r[0] for r in got] == [2, 0, 0, 0]
    assert got[0][2].endswith("error: the following arguments are required: d, n\n")
    assert got == [fresh_run(argv) for argv in calls]


# ---------------------------------------------------------------------------
# the worked example


def test_verify_example_pair_only(capsys):
    code, doc = run_json(capsys, ["verify-example", "--pair-only"])
    assert code == 0
    assert doc["all_pass"] is True
    assert [c["name"] for c in doc["checks"]] == ["displayed_identity"]


def test_verify_example_full(capsys):
    code, doc = run_json(capsys, ["verify-example"])
    assert code == 0
    assert doc["all_pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == [
        "displayed_identity",
        "quadratic_class_number",
        "quartic_class_number",
        "cubic_discriminant",
        "seventeen_splits",
        "residue_character",
        "representation_found",
    ]
    assert all(c["pass"] for c in doc["checks"])


def test_verify_example_tampered_n_fails(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_EXAMPLE_N", 3)
    assert cli.example_checks(pair_only=True)[0]["pass"] is False
    code, doc = run_json(capsys, ["verify-example", "--pair-only"])
    assert code == 1
    assert doc["all_pass"] is False


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small(capsys):
    code, doc = run_json(capsys, ["sweep", "59", "2", "--bound", "60"])
    assert code == 0
    assert doc["divergences"] == 0
    assert doc["total"] == len(doc["rows"]) == 2
    assert all(r["agree"] is True for r in doc["rows"])
    assert {r["norm"] for r in doc["rows"]} == {17}


def test_sweep_past_the_scan_and_the_cap(capsys):
    # (107, 2): the unit equation's solution lies past the old scan and h_E
    # past the class group's cap; the solver verifies the rows that the
    # unit witness turns, and the criterion stays unknown
    code, out = run(capsys, ["sweep", "107", "2", "--bound", "300", "--csv"])
    assert code == 0
    rows = {r.split(",")[0]: r.split(",")[2:4] for r in out.splitlines()[1:]}
    assert len(rows) == 19
    assert {c for c, _ in rows.values()} == {"unknown"}
    for p in ("7", "7+w", "11-w"):
        assert rows[p] == ["unknown", "solution"]


def test_sweep_csv(capsys):
    code, out = run(capsys, ["sweep", "59", "2", "--bound", "60", "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,norm,criterion,solver,agree"
    assert len(lines) == 3
    assert lines[1].endswith(",true")


def test_sweep_2000_output_is_unchanged(capsys):
    # the stdout of `nforders sweep 59 2 --bound 2000`, recorded before the
    # generator search moved to integer window forms; any change to a
    # solver verdict or a criterion row changes it
    code, out = run(capsys, ["sweep", "59", "2", "--bound", "2000"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "38747332aee597c401b7e20573978d346e4dd4c233dc8cdce92388f6532fcdcb"
    )


def test_sweep_takes_the_poly_discriminant_once(capsys, monkeypatch):
    # every row's hilbert criterion reads the discriminant of x^3 + 2x - 1;
    # it is taken once per polynomial, not once per row
    calls = []

    def counted(f):
        calls.append(tuple(f))
        return poly_discriminant(f)

    poly_discriminant = criteria.poly_discriminant
    monkeypatch.setattr(criteria, "poly_discriminant", counted)
    criteria._poly_disc.cache_clear()
    code, out = run(capsys, ["sweep", "59", "2", "--bound", "2000"])
    assert code == 0 and json.loads(out)["total"] == 96
    assert calls == [(-1, 2, 0, 1)]


def test_sweep_expands_sqrt_118_once(capsys, monkeypatch):
    # the window ladder, the unit equation and unit_witness read one
    # expansion of sqrt(118), from cold caches, and no walk of its
    # convergents asks for more than half the period of 10: the ladder of
    # (59, 2) steps by the midpoint unit, and the Pell unit and the unit
    # equation are read off the first 5 convergents
    mods = [m for name, m in sys.modules.items() if name.startswith("nforders.")]
    for mod in mods:
        for obj in list(vars(mod).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    expansions, walks = [], []
    cf_sqrt, cf_convergents = quadratic.cf_sqrt, quadratic.cf_convergents

    def counted_sqrt(D):
        expansions.append(D)
        return cf_sqrt(D)

    def counted_walk(cf, count):
        walks.append((cf.D, count))
        return cf_convergents(cf, count)

    for mod in mods:
        if hasattr(mod, "cf_sqrt"):
            monkeypatch.setattr(mod, "cf_sqrt", counted_sqrt)
        if hasattr(mod, "cf_convergents"):
            monkeypatch.setattr(mod, "cf_convergents", counted_walk)
    code, out = run(capsys, ["sweep", "59", "2", "--bound", "2000"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "38747332aee597c401b7e20573978d346e4dd4c233dc8cdce92388f6532fcdcb"
    )
    assert expansions == [118]
    assert walks and {D for D, _ in walks} == {118}
    assert max(count for _, count in walks) == 5, walks


def test_represent_past_the_ladder_cap_exits_3(capsys):
    # the period of sqrt(2 * 100000000003) is 454,206, past the ladder's
    # cap: exit 3 with a message once the expansion is read, where the
    # windows over its convergents ran out of memory
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, ["represent", "3", "100000000003", "2"])
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err == (
        "error: the continued fraction of sqrt(200000000006) has period 454206, "
        "past the ladder's limit %d\n" % lattice._LADDER_MAX_PERIOD
    )


def test_represent_past_the_expansion_limit_exits_3(capsys):
    # the period of sqrt(200000000000062) is 11,152,988: cf_sqrt stops
    # once the midpoint lies past half its limit of 2^20 quotients, having
    # stored none, where the whole period took 5.5 s
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, ["represent", "17", "100000000000031", "2"])
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err == (
        "error: the continued fraction of sqrt(200000000000062) has a period past "
        "the expansion's limit %d\n" % quadratic._CF_MAX_PERIOD
    )


def test_criterion_hilbert_past_the_expansion_limit_is_undecided(capsys):
    # the unit equation of (100000000000031, 2) is read off the same
    # expansion: past its limit it is undecided, and the verdict unknown
    argv = ["criterion", "hilbert", "17", "100000000000031", "2"]
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["hypotheses"][3] == {
        "name": "unit_equation_solvable",
        "passed": False,
        "detail": "undecided: the continued fraction of sqrt(200000000000062) has a "
        "period past the expansion's limit %d" % quadratic._CF_MAX_PERIOD,
    }
    assert (doc["applicable"], doc["verdict"]) == (False, "unknown")


def test_criterion_hilbert_witness_past_the_limit(capsys):
    # 100000000003u^2 - 2v^2 = 1 is solvable, decided off the norms of the
    # period of sqrt(200000000006); its witness, convergent 227,102, is not
    # built, where building it took 7 s
    argv = ["criterion", "hilbert", "3", "100000000003", "2"]
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["hypotheses"][3] == {
        "name": "unit_equation_solvable",
        "passed": True,
        "detail": "solvable, not built: the witness is convergent 227102 of "
        "sqrt(200000000006), past the limit %d" % criteria._WITNESS_MAX_CONVERGENTS,
    }


def test_criterion_quadr_past_the_witness_limits_is_undecided(capsys):
    # unit_witness raises past the witness limit and past cf_sqrt's; quadr
    # exits 0 and reports unit_witness_found undecided with verdict
    # unknown, as hilbert reports its unit equation
    cases = (
        (
            "3",
            "100000000003",
            "solvable, not built: the witness is convergent 227102 of "
            "sqrt(200000000006), past the limit %d" % criteria._WITNESS_MAX_CONVERGENTS,
        ),
        (
            "17",
            "100000000000031",
            "the continued fraction of sqrt(200000000000062) has a period past "
            "the expansion's limit %d" % quadratic._CF_MAX_PERIOD,
        ),
    )
    for p, d, why in cases:
        start = time.perf_counter()
        code, out, err = in_process_run(capsys, ["criterion", "quadr", p, d, "2"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["hypotheses"][1] == {
            "name": "unit_witness_found",
            "passed": False,
            "detail": "undecided: " + why,
        }
        assert (doc["applicable"], doc["verdict"]) == (False, "unknown")


def test_sweep_past_the_ladder_cap_exits_3_at_once(capsys):
    # each row's criterion decides the unit equation without building its
    # witness, so the first row's represent meets the ladder's cap at once
    start = time.perf_counter()
    code, out, err = in_process_run(capsys, ["sweep", "100000000003", "2", "--bound", "20"])
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert "past the ladder's limit %d" % lattice._LADDER_MAX_PERIOD in err


def test_inert_3023_outputs_are_unchanged(tmp_path, capsys):
    # 3023 is inert in Q(sqrt(-59)); represent needs a square root of -2 in
    # F_(3023^2), and quadr a root of x^3 + 2x - 1 there
    poly = tmp_path / "poly.txt"
    poly.write_text("-1\n2\n0\n1\n")
    for argv, digest in [
        (
            ["represent", "3023", "59", "2"],
            "4f5d8a04f8e650f58e4e34afde3c848698d3c0d27735705f4677660970ebb1c0",
        ),
        (
            ["criterion", "quadr", "3023", "59", "2", "--poly", str(poly)],
            "4d0c83cdcc256548a839dc6b7f0c0f85c33075097b4a33a70e6a10bd5d4474ff",
        ),
    ]:
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_long_period_output_is_unchanged():
    # the ladder of (10000019, 2) runs the period 5,850 of sqrt(D0), the
    # longest of any field the tests name; its generator is pinned byte for
    # byte, in a fresh process so its windows stay out of this one
    code, out, err = fresh_run(["represent", "7", "10000019", "2"])
    assert code == 0 and err == ""
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "f346151981f595d0bab9f4b5975ca65fb2c4bfd1ad8cbe11d16b6ac8d8de8122"
    )


# ---------------------------------------------------------------------------
# output discipline


@pytest.mark.parametrize(
    "argv",
    [
        ["picard", "max:-5"],  # one buffered line, written at the flush
        ["sweep", "11", "10", "--bound", "500", "--csv"],  # written as it goes
    ],
)
def test_closed_stdout_ends_without_a_traceback(argv):
    # stdout is a pipe whose reader has already closed its end
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nforders.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_output_is_byte_identical(capsys):
    _, first = run(capsys, ["factor", "zsqrt:-14", "3+1*w"])
    _, second = run(capsys, ["factor", "zsqrt:-14", "3+1*w"])
    assert first == second


def test_pretty_same_content(capsys):
    _, compact = run_json(capsys, ["factor", "zsqrt:-14", "3+1*w"])
    _, pretty = run_json(capsys, ["--pretty", "factor", "zsqrt:-14", "3+1*w"])
    assert compact == pretty
