import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nforders import cli, orders
from nforders.quadratic import QuadField, from_integral_coords

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


def test_picard_counts_each_residue_group_once(capsys, monkeypatch):
    counted = []
    residue_unit_count = orders.residue_unit_count

    def count(o, f):
        counted.append(o)
        return residue_unit_count(o, f)

    monkeypatch.setattr(orders, "residue_unit_count", count)
    # and wherever the CLI might bind it by name
    monkeypatch.setattr(cli, "residue_unit_count", count, raising=False)
    code, doc = run_json(capsys, ["picard", "index:-7:3"])
    assert code == 0
    # 3 is inert in Q(sqrt(-7)): (O_K/3)^x has 9 - 1 elements, and
    # o/3O_K = (Z + 3O_K)/3O_K is Z/3, with 2 units
    assert doc["unit_counts"] == {"maximal_mod_conductor": 8, "order_mod_conductor": 2}
    assert doc["picard"] == 8 // 2
    assert len(counted) == 2


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


def test_picard_of_a_large_conductor_completes(capsys):
    # the default complete bound is 2,667 here; the brute force takes the
    # 1,600 invertible primitive ideals in reach, in 800 classes
    code, doc = run_json(capsys, ["picard", "index:-1:2000"])
    assert code == 0
    assert doc["picard"] == doc["brute_force"]["count"] == 800
    assert doc["brute_force"]["complete"] is True
    assert doc["agree"] is True


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


def test_criterion_quadr_without_poly_is_unknown(capsys):
    code, doc = run_json(capsys, ["criterion", "quadr", "1+1*w", "5", "13"])
    assert code == 0
    assert doc["verdict"] == "unknown"


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
