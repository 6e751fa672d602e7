"""The input contract of the CLI: every call ends in bounded time with exit
0, 1, 2 or 3 and no traceback.  Inputs whose work grows with their size
meet a named limit first: the Pollard-Brent steps of `factorize`, the
|disc| of `reduced_forms` and the (a, b) pairs of the brute-force Picard
count, which then prints null; the period of sqrt(D0) that the window
ladder of a quartic field takes; the period `cf_sqrt` expands; and the
convergent a unit-equation witness is built from."""

import ast
import contextlib
import io
import json
import random
import re
import time
from functools import lru_cache
from math import ceil, gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nforders import cli, lattice, orders
from nforders.criteria import prime_elements
from nforders.intmath import divisors, factorize, is_squarefree, squarefree_part
from nforders.orders import (
    UnresolvedError,
    _scan_pairs,
    order_with_index,
    order_zsqrt,
    pic_brute_force,
)
from nforders.quadratic import (
    _REDUCED_FORMS_MAX_DISC,
    QuadField,
    UnsupportedFieldError,
    cf_sqrt,
    form_class_group,
    reduced_forms,
)

from ideals import picard_pool

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def timed_main(argv):
    """cli.main(argv) in this interpreter: (exit code, stdout, stderr,
    seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


# ---------------------------------------------------------------------------
# the reproductions that used to hang


Q1, Q2 = 1000000007, 1000000009  # 3 and 1 mod 4: inert and split in Q(i)


@pytest.mark.parametrize(
    "argv,picard",
    [
        # 100000007 = 3 mod 4 is inert in Q(i): h_K (q^2 - 1) / (2 (q - 1))
        (["picard", "index:-1:100000007"], 50000004),
        # f = Q1 * Q2 goes through Pollard-Brent rho
        (["picard", "index:-1:%d" % (Q1 * Q2)], (Q1 + 1) * (Q2 - 1) // 2),
    ],
    ids=["prime", "two_primes"],
)
def test_picard_of_a_huge_index_prints_no_brute_force(argv, picard):
    code, out, err, seconds = timed_main(argv)
    assert seconds < 1.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["picard"] == picard
    assert doc["brute_force"] is None and doc["agree"] is None


@pytest.mark.parametrize("spec", ["max:-100000000003", "zsqrt:-10000000019"])
def test_picard_of_a_huge_discriminant_exits_3(spec):
    code, out, err, seconds = timed_main(["picard", spec])
    assert seconds < 1.0
    assert code == 3 and out == ""
    assert "exceeds the limit %d" % _REDUCED_FORMS_MAX_DISC in err


def test_factor_of_a_product_of_two_large_primes():
    code, out, err, seconds = timed_main(["factor", "max:-59", str(Q1 * Q2)])
    assert seconds < 1.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["remultiplies"] is True
    # Q2 splits in Q(sqrt(-59)) and Q1 stays inert
    assert [(f["norm"], f["exponent"]) for f in doc["factors"]] == [
        (Q2, 1),
        (Q2, 1),
        (Q1 * Q1, 1),
    ]


# ---------------------------------------------------------------------------
# the limits sit above every input the tests and the benchmark use


def test_brute_force_limit_keeps_the_pools_complete():
    # the benchmark's picard pool, the acceptance-06 grid and the largest
    # order a test scans in full, Z + 2000*Z[i], each scan under the limit
    pool = list(picard_pool().values())
    pool += [
        order_zsqrt(QuadField(-n))
        for n in range(1, 31)
        if not any(n % (q * q) == 0 for q in range(2, 6))
    ]
    pool.append(order_with_index(QuadField(-1), 2000))
    for o in pool:
        r = pic_brute_force(o)
        assert r.complete
        scan = ceil(r.minkowski_bound)
        f = o.index_in_maximal()
        divs = divisors(factorize(f).items())
        assert _scan_pairs(f, scan, divs) <= orders._BRUTE_FORCE_MAX_PAIRS


def _ladder_fields() -> set:
    """The (d, n) of every quartic field a test or a benchmark pool builds
    or a test's CLI call names, read off the sources, and the largest
    known input that answers, represent 7 10000019 2."""
    pat = re.compile(
        r'integral_basis\(\s*(\d+),\s*(\d+)'
        r'|\["represent",\s*[^,]+,\s*"(\d+)",\s*"(\d+)"'
        r'|\["sweep",\s*"(\d+)",\s*"(\d+)"'
        r'|REPRESENT_FIELDS = (\(\(.*\)\))'
    )
    out = {(10000019, 2)}
    for path in sorted(TESTS.glob("*.py")) + [PERFBENCH / "workloads.py"]:
        for m in pat.finditer(path.read_text()):
            if m.group(7):
                out.update(ast.literal_eval(m.group(7)))
            else:
                d, n = (int(g) for g in m.groups()[:6] if g is not None)
                out.add((d, n))
    return {(d, n) for d, n in out if n > 0 and d != n}


def _period(D: int) -> float:
    """The period of sqrt(D), infinite past cf_sqrt's limit."""
    try:
        return len(cf_sqrt(D).period)
    except UnsupportedFieldError:
        return float("inf")


def test_ladder_cap_keeps_every_pool_test_and_sweep_field():
    # every field the tests, the sweeps and the represent pool reach has
    # its sqrt(D0) period under the cap, D0 the squarefree part of d*n,
    # but the two test_cli pins past it, the second past cf_sqrt's limit
    fields = _ladder_fields()
    assert {(59, 2), (11, 10), (107, 2), (23, 5), (3, 7)} <= fields
    periods = {dn: _period(squarefree_part(dn[0] * dn[1])) for dn in fields}
    over = {dn for dn, l in periods.items() if l > lattice._LADDER_MAX_PERIOD}
    assert over == {(100000000003, 2), (100000000000031, 2)}
    assert periods[100000000000031, 2] == float("inf")
    assert max(l for dn, l in periods.items() if dn not in over) == 5850


def test_brute_force_refuses_a_scan_past_the_limit():
    o = order_with_index(QuadField(-1), 3000)
    limit = "past the limit %d" % orders._BRUTE_FORCE_MAX_PAIRS
    with pytest.raises(UnresolvedError, match=limit):
        pic_brute_force(o)
    # an explicit bound below the limit still scans
    assert pic_brute_force(o, 100).complete is False


def test_reduced_forms_limit():
    D = -_REDUCED_FORMS_MAX_DISC
    while D % 4 not in (0, 1):
        D += 1
    start = time.perf_counter()
    assert form_class_group(D).h > 0
    assert time.perf_counter() - start < 1.0
    with pytest.raises(UnsupportedFieldError, match="exceeds the limit"):
        reduced_forms(D - 4)


# ---------------------------------------------------------------------------
# any order spec with integers of up to 30 digits


def _digits(seed: int, k: int) -> int:
    return random.Random(seed).randrange(10 ** (k - 1), 10**k)


# a size of 1 to 30 digits first, so that every size is drawn as often;
# hypothesis favours round numbers, and a seeded draw gives the rest
DIGITS = st.one_of(
    st.integers(1, 30).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)),
    st.builds(_digits, st.integers(0, 2**32), st.integers(1, 30)),
)
INTS = st.one_of(DIGITS, DIGITS.map(lambda x: -x), st.just(0))


def either(*strategies):
    """One of the strategies, each drawn as often; st.one_of flattens a
    nested one_of into its members, so INTS there counts four times."""
    return st.integers(0, len(strategies) - 1).flatmap(lambda i: strategies[i])


# the specs reach the library when D is squarefree, an index is positive
# and (d, n) is a pair with a built-in basis, so those are drawn more often
# than any integer: squarefree D as products of distinct primes, small or
# of 10 and 15 digits, whose rho the factorization may not finish
PRIMES = [q for q in range(2, 100) if all(q % r for r in range(2, q))]
PRIMES += [Q1, Q2, 100000000000031, 1000000000000037]
SQUAREFREE = st.lists(
    st.sampled_from(PRIMES), min_size=1, max_size=4, unique=True
).map(prod)
INDEX = either(st.integers(1, 1000), DIGITS, INTS)
NATIVE = st.sampled_from(
    [
        (d, n)
        for d in range(3, 200, 4)
        if is_squarefree(d)
        for n in range(1, 60)
        if n % 4 in (1, 2) and is_squarefree(n) and gcd(d, n) == 1
    ]
    + [(Q1, 2), (Q1, 5), (100000000003, 2), (3, Q2)]
)
FIELD_D = either(
    st.sampled_from([-1, -2, -3, -7, -14, -59, 2, 5]),
    SQUAREFREE.map(lambda x: -x),
    SQUAREFREE,
    INTS,
)
FIELD_DN = st.one_of(st.sampled_from([2, 3, 5, 7, 10, 11, 23, 31, 59]), INTS)
SPEC = either(
    st.builds("max:{}".format, FIELD_D),
    st.builds("zsqrt:{}".format, FIELD_D),
    st.builds("index:{}:{}".format, FIELD_D, INDEX),
    NATIVE.map(lambda dn: "rel:%d:%d" % dn),
    st.builds("rel:{}:{}".format, FIELD_DN, FIELD_DN),
)
# (a+b*sqrt(D))/den reaches the library when D is the field's own, and a
# den of 0 must be turned away there as bad input, so 0, 1 and 2 are drawn
# as often as any other den
ELEMENT = st.one_of(
    st.builds(str, INTS),
    st.builds("{}+{}*w".format, INTS, DIGITS),
    st.builds(
        "({}+{}*sqrt({}))/{}".format,
        INTS,
        DIGITS,
        FIELD_D,
        either(st.just(0), st.just(1), st.just(2), DIGITS),
    ),
)
# criterion reaches the library on a prime element of Q(sqrt(-d)), so small
# primes and split ones of Q(sqrt(-59)) and Q(i) are drawn as often as any
# element, and as often again a prime element of the drawn native field
# itself, which goes on to the unit equation and the residue tests; POLY
# and POLY20 stand for class polynomial files of degree 3 and 20
POLY, POLY20 = "POLY", "POLY20"
PRIME = either(
    st.sampled_from(["3", "5", "7", "13", "17", "1+1*w", "3+1*w", "2+1*w", str(Q1)]),
    ELEMENT,
)


@lru_cache(maxsize=None)
def prime_elements_of(d: int) -> tuple:
    """The prime elements of Q(sqrt(-d)) of norm at most 1000, as the CLI
    writes them: at least five for each native d."""
    return tuple(map(cli.fmt_elem, prime_elements(QuadField(-d), 1000)))


PRIME_IN_NATIVE = NATIVE.flatmap(
    lambda dn: st.tuples(st.sampled_from(prime_elements_of(dn[0])), st.just(dn))
)
CRITERION = st.builds(
    lambda theorem, poly, p_dn: ["criterion"] + (["--poly", poly] if poly else [])
    + [theorem, "--", p_dn[0], *map(str, p_dn[1])],
    st.sampled_from(["cox", "quadr", "hilbert"]),
    either(st.none(), st.sampled_from([POLY, POLY20])),
    either(
        st.tuples(PRIME, either(NATIVE, st.tuples(FIELD_DN, FIELD_DN))),
        PRIME_IN_NATIVE,
    ),
)
ARGV = st.one_of(
    st.builds(lambda s: ["picard", "--", s], SPEC),
    st.builds(lambda s, b: ["picard", "--bound", str(b), "--", s], SPEC, INTS),
    st.builds(lambda s: ["conductor", "--", s], SPEC),
    st.builds(lambda s, e: ["factor", "--", s, e], SPEC, ELEMENT),
    CRITERION,
    st.sampled_from([["verify-example"], ["verify-example", "--pair-only"]]),
)


# two 15-digit primes: past the Pollard-Brent steps factorize may spend
HARD = 100000000000031 * 1000000000000037


@pytest.fixture(scope="module")
def poly_files(tmp_path_factory) -> dict:
    """POLY and POLY20 mapped to their files, one coefficient a line:
    x^3 + 2x - 1, the class polynomial of (59, 2), and
    x^20 + 2x^11 + 3x^7 - x^2 + 5."""
    tmp = tmp_path_factory.mktemp("poly")
    (tmp / "cubic.txt").write_text("-1\n2\n0\n1\n")
    deg20 = [5, 0, -1, 0, 0, 0, 0, 3, 0, 0, 0, 2] + [0] * 8 + [1]
    (tmp / "deg20.txt").write_text("".join("%d\n" % c for c in deg20))
    return {POLY: str(tmp / "cubic.txt"), POLY20: str(tmp / "deg20.txt")}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argv=ARGV)
@example(argv=["picard", "--", "index:-1:%d" % (Q1 * Q2)])
@example(argv=["picard", "--", "index:-1:%d" % HARD])
@example(argv=["picard", "--", "max:-%d" % HARD])
@example(argv=["conductor", "--", "rel:%d:2" % HARD])
@example(argv=["factor", "--", "max:-59", str(HARD)])
@example(argv=["factor", "--", "max:-59", "%d+1*w" % Q1])
@example(argv=["picard", "--bound", "5", "--", "index:-1:%d" % 10**29])
@example(argv=["picard", "--", "max:-%d" % (10**30 - 3)])
@example(argv=["criterion", "hilbert", "--", "17", "100000000000031", "2"])
@example(argv=["criterion", "quadr", "--", "3", "100000000003", "2"])
@example(argv=["factor", "--", "zsqrt:-14", "(1+sqrt(-14))/0"])
@example(argv=["criterion", "hilbert", "--", "(1+sqrt(-59))/0", "59", "2"])
def test_every_spec_ends_in_bounded_time(poly_files, argv):
    argv = [poly_files.get(a, a) for a in argv]
    code, _, err, seconds = timed_main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    assert seconds < 2.0, (argv, seconds)
