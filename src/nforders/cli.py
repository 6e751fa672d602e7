"""Command line front end.

Every subcommand prints one JSON document on stdout (``--pretty`` indents
it, the default is compact); identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 a computed check failed, 2 invalid
input, 3 the computation is unresolved or the inputs are unsupported, and
141 (128 + SIGPIPE, as a shell reports a process the signal ended) when
the reader of stdout has closed it.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from math import gcd

from .biquadratic import check_field_params, class_group, integral_basis
from .criteria import (
    SOLVABLE,
    UNKNOWN,
    UNRESOLVED,
    _divides,
    cox_criterion,
    criterion_hilbert,
    criterion_quadr,
    prime_elements,
    represent,
    verify_identity,
)
from .intmath import UnsupportedPrimeError, jacobi, poly_discriminant
from .lattice import UnsupportedFieldError
from .orders import (
    AuditFailure,
    UnresolvedError,
    conductor,
    factor_ideal,
    is_coprime_to_conductor,
    maximal_order,
    order_with_index,
    order_zsqrt,
    pic_brute_force,
    picard_terms,
    principal_ideal,
    relative_order,
)
from .quadratic import QuadElem, QuadField, form_class_group, split_prime


# ---------------------------------------------------------------------------
# element and order syntax

_INT_RE = re.compile(r"^\s*([+-]?\d+)\s*$")
# a + b*w, with w the second canonical basis element of the order
_W_RE = re.compile(
    r"^\s*(?P<a>[+-]?\d+)?\s*(?P<sign>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?w\s*$"
)
# (a + b*sqrt(D))/den, parens and denominator optional together
_SQRT_RE = re.compile(
    r"^\s*(?P<open>\()?\s*(?P<a>[+-]?\d+)?\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<b>\d+)\s*\*\s*)?sqrt\(\s*(?P<D>-?\d+)\s*\)\s*(?P<close>\))?"
    r"\s*(?:/\s*(?P<den>\d+))?\s*$"
)


def parse_element(text: str, field: QuadField):
    """Exact parser for "a+b*w" and "(a+b*sqrt(D))/2" style elements."""
    m = _INT_RE.match(text)
    if m:
        return field(int(m.group(1)))
    m = _W_RE.match(text)
    if m:
        a = int(m.group("a") or 0)
        if m.group("a") is not None and m.group("sign") is None:
            raise ValueError("missing sign between terms in %r" % text)
        s = -1 if m.group("sign") == "-" else 1
        return QuadElem(field, (a, s * int(m.group("b") or 1)))
    m = _SQRT_RE.match(text)
    if m:
        if bool(m.group("open")) != bool(m.group("close")):
            raise ValueError("unbalanced parentheses in %r" % text)
        if m.group("den") and not m.group("open"):
            raise ValueError("a denominator needs a parenthesized numerator")
        if int(m.group("D")) != field.D:
            raise ValueError(
                "sqrt(%s) does not live in Q(sqrt(%d))" % (m.group("D"), field.D)
            )
        if m.group("a") is not None and m.group("sign") is None:
            raise ValueError("missing sign between terms in %r" % text)
        a = int(m.group("a") or 0)
        s = -1 if m.group("sign") == "-" else 1
        den = int(m.group("den") or 1)
        if den == 0:
            raise ValueError("zero denominator in %r" % text)
        return field(Fraction(a, den), Fraction(s * int(m.group("b") or 1), den))
    raise ValueError("cannot parse element %r" % text)


def fmt_elem(e) -> str:
    """Canonical x+y*w rendering; defined for integral elements, and for a
    rational one, of either degree, str(x)."""
    assert e.is_integral()
    if e.is_rational():
        return str(e.u[0])
    x, y = e.u
    w = "w" if abs(y) == 1 else "%d*w" % abs(y)
    if x == 0:
        return w if y > 0 else "-" + w
    return "%d%s%s" % (x, "+" if y > 0 else "-", w)


def parse_order(text: str):
    """Order spec -> (OrderRep, n or None).

    max:D and index:D:f name orders in Q(sqrt(D)); zsqrt:D is Z[sqrt(D)];
    rel:d:n is the relative order inside Q(sqrt(-d), sqrt(-n)).  The second
    return value is the n that "x^2 + n*y^2" questions about the order
    refer to, when the spec determines one.
    """
    parts = text.split(":")
    try:
        if parts[0] == "max" and len(parts) == 2:
            return maximal_order(QuadField(int(parts[1]))), None
        if parts[0] == "zsqrt" and len(parts) == 2:
            D = int(parts[1])
            return order_zsqrt(QuadField(D)), -D if D < 0 else None
        if parts[0] == "index" and len(parts) == 3:
            return order_with_index(QuadField(int(parts[1])), int(parts[2])), None
        if parts[0] == "rel" and len(parts) == 3:
            d, n = int(parts[1]), int(parts[2])
            return relative_order(integral_basis(d, n)), n
    except (UnsupportedFieldError, UnsupportedPrimeError):
        raise
    except ValueError as err:
        raise ValueError("bad order spec %r: %s" % (text, err)) from None
    raise ValueError(
        "bad order spec %r; use max:D, zsqrt:D, index:D:f or rel:d:n" % text
    )


def field_label(field) -> str:
    if field.degree == 2:
        return "Q(sqrt(%d))" % field.D
    return "Q(sqrt(%d), sqrt(%d))" % (-field.d, -field.n)


def _rows(module):
    assert module.den == 1
    return [[int(x) for x in row] for row in module.rows]


def _read_poly(path: str) -> list:
    # one integer coefficient per line, constant term first
    with open(path) as fh:
        coeffs = [int(line) for line in fh if line.strip()]
    if len(coeffs) < 2:
        raise ValueError("polynomial file needs at least two coefficients")
    return coeffs


def _check_bound(bound) -> None:
    if bound is not None and bound < 0:
        raise ValueError("--bound must be nonnegative, got %d" % bound)


# ---------------------------------------------------------------------------
# subcommands


def cmd_conductor(args):
    o, n = parse_order(args.order)
    f = conductor(o)
    contains = None
    if n is not None:
        contains = f.module.contains(o.field.one() * (4 * n))
    payload = {
        "command": "conductor",
        "field": field_label(o.field),
        "order": {
            "spec": args.order,
            "hnf": _rows(o.module),
            "index_in_maximal": o.index_in_maximal(),
        },
        "conductor": {
            "hnf": _rows(f.module),
            "norm": int(f.norm()),
            "contains_4n": contains,
        },
        "n": n,
    }
    return payload, 0


def cmd_picard(args):
    _check_bound(args.bound)
    o, _ = parse_order(args.order)
    terms = picard_terms(o)
    payload = {
        "command": "picard",
        "field": field_label(o.field),
        "order": args.order,
        "h_K": terms.h_K,
        "unit_index": terms.unit_index,
        "unit_counts": {
            "maximal_mod_conductor": terms.units_max,
            "order_mod_conductor": terms.units_o,
        },
        "picard": terms.picard,
    }
    code = 0
    try:
        bf = pic_brute_force(o, args.bound)
    except UnresolvedError:
        payload["brute_force"] = None
        payload["agree"] = None
    else:
        payload["brute_force"] = {
            "count": bf.count,
            "norm_bound": bf.norm_bound,
            "complete": bf.complete,
        }
        payload["agree"] = bf.count == payload["picard"] if bf.complete else None
        if payload["agree"] is False:
            code = 1
    return payload, code


def cmd_factor(args):
    o, _ = parse_order(args.order)
    m = _INT_RE.match(args.element)
    if m:
        e = o.field.one() * int(m.group(1))
    elif o.field.degree == 2:
        e = parse_element(args.element, o.field)
    else:
        raise ValueError(
            "elements of quartic orders: plain integers only, got %r" % args.element
        )
    a = principal_ideal(o, e)
    # factor_ideal turns a non-integral e away before fmt_elem, which
    # renders integral elements only, sees it
    fac = factor_ideal(a)
    gen = fmt_elem(e)
    payload = {
        "command": "factor",
        "field": field_label(o.field),
        "order": args.order,
        "ideal": {"generator": gen, "hnf": _rows(a.module), "norm": int(a.norm())},
        "factors": [
            {
                "hnf": _rows(p.module),
                "norm": int(p.norm()),
                "exponent": k,
                "regular": is_coprime_to_conductor(p),
            }
            for p, k in fac.factors
        ],
        "remultiplies": fac.remultiply(o) == a,
    }
    return payload, 0 if payload["remultiplies"] else 1


def cmd_criterion(args):
    poly = _read_poly(args.poly) if args.poly else None
    if args.theorem == "cox":
        m = _INT_RE.match(args.p)
        if not m:
            raise ValueError("cox takes a rational prime, got %r" % args.p)
        if poly is None:
            raise ValueError("cox needs a class polynomial (--poly FILE)")
        rep = cox_criterion(int(m.group(1)), args.n, poly)
    else:
        F = QuadField(-args.d)
        p = parse_element(args.p, F)
        if args.theorem == "quadr":
            rep = criterion_quadr(p, args.d, args.n, g_n=poly)
        else:
            rep = criterion_hilbert(p, args.d, args.n, f=poly)
    payload = {
        "command": "criterion",
        "criterion": rep.criterion,
        "p": args.p.strip(),
        "d": args.d,
        "n": args.n,
        "hypotheses": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in rep.hypotheses
        ],
        "applicable": rep.applicable,
        "verdict": rep.verdict,
        "representation": None if rep.representation is None else list(rep.representation),
    }
    return payload, 0


def _result(out) -> str:
    """The name of one of represent's three answers: "none" for a proven
    None, "unknown" for UNRESOLVED, and "solution" for a pair (x, y)."""
    if out is None:
        return "none"
    return "unknown" if out is UNRESOLVED else "solution"


def cmd_represent(args):
    F = QuadField(-args.d)
    p = parse_element(args.p, F)
    out = represent(p, args.d, args.n)
    result = _result(out)
    payload = {
        "command": "represent",
        "p": fmt_elem(p),
        "d": args.d,
        "n": args.n,
        "result": result,
    }
    if result != "solution":
        return payload, 3 if result == "unknown" else 0
    x, y = out
    assert verify_identity(p, x, y, args.n)
    payload.update({"x": fmt_elem(x), "y": fmt_elem(y), "verified": True})
    return payload, 0


# the worked example: d = 59, n = 2, the split prime above 17
_EXAMPLE_N = 2


def example_checks(pair_only: bool = False) -> list:
    F = QuadField(-59)
    pi = QuadElem(F, (1, 1))  # (3 + sqrt(-59))/2
    x0 = QuadElem(F, (2332, 1115))  # (5779 + 1115*sqrt(-59))/2
    y0 = QuadElem(F, (3294, -532))  # 3028 - 266*sqrt(-59)
    checks = []

    def add(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    add(
        "displayed_identity",
        verify_identity(pi, x0, y0, _EXAMPLE_N),
        "p = x^2 + %d*y^2 with p = %s, x = %s, y = %s"
        % (_EXAMPLE_N, fmt_elem(pi), fmt_elem(x0), fmt_elem(y0)),
    )
    if pair_only:
        return checks

    h_F = form_class_group(-59).h
    add("quadratic_class_number", h_F == 3, "h(Q(sqrt(-59))) = %d" % h_F)
    h_E = class_group(integral_basis(59, 2)).h
    add("quartic_class_number", h_E == 3, "h(Q(sqrt(-59), sqrt(-2))) = %d" % h_E)
    disc = poly_discriminant([-1, 2, 0, 1])
    add("cubic_discriminant", disc == -59, "disc(x^3 + 2x - 1) = %d" % disc)
    s = split_prime(F, 17)
    ok17 = (
        s.kind == "split"
        and s.pi is not None
        and s.pi * s.pibar == F(17)
        and s.pi.abs_norm() == 17
        and any(_divides(pi, a) and _divides(a, pi) for a in (s.pi, s.pibar))
    )
    add(
        "seventeen_splits",
        ok17,
        "17 = p * conj(p) with p an associate of %s" % fmt_elem(pi),
    )
    chi = jacobi(-2 % 17, 17)
    add("residue_character", chi == 1, "(-2 | 17) = %d" % chi)
    rep = represent(pi, 59, _EXAMPLE_N)
    found = _result(rep) == "solution"
    add(
        "representation_found",
        found and verify_identity(pi, rep[0], rep[1], _EXAMPLE_N),
        "solver returned x = %s, y = %s" % (fmt_elem(rep[0]), fmt_elem(rep[1]))
        if found
        else "solver returned %r" % (rep,),
    )
    return checks


def cmd_verify_example(args):
    checks = example_checks(pair_only=args.pair_only)
    ok = all(c["pass"] for c in checks)
    payload = {"command": "verify-example", "checks": checks, "all_pass": ok}
    return payload, 0 if ok else 1


def cmd_sweep(args):
    check_field_params(args.d, args.n)
    _check_bound(args.bound)
    F = QuadField(-args.d)
    poly = _read_poly(args.poly) if args.poly else None
    rows = []
    divergences = 0
    for p in prime_elements(F, args.bound):
        norm = int(p.abs_norm())  # q, or q^2 for an inert q
        if gcd(2 * args.d * args.n, norm) > 1:
            continue
        rep = criterion_hilbert(p, args.d, args.n, f=poly)
        solver = _result(represent(p, args.d, args.n))
        if rep.verdict == UNKNOWN or solver == "unknown":
            agree = None
        else:
            agree = (rep.verdict == SOLVABLE) == (solver == "solution")
            if not agree:
                divergences += 1
        rows.append(
            {
                "p": fmt_elem(p),
                "norm": norm,
                "criterion": rep.verdict,
                "solver": solver,
                "agree": agree,
            }
        )
    code = 1 if divergences else 0
    if args.csv:
        import csv  # only here: at the top, every other call would pay for it

        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["p", "norm", "criterion", "solver", "agree"])
        for r in rows:
            w.writerow(
                [
                    r["p"],
                    r["norm"],
                    r["criterion"],
                    r["solver"],
                    "" if r["agree"] is None else str(r["agree"]).lower(),
                ]
            )
        return None, code
    payload = {
        "command": "sweep",
        "d": args.d,
        "n": args.n,
        "bound": args.bound,
        "total": len(rows),
        "divergences": divergences,
        "rows": rows,
    }
    return payload, code


# ---------------------------------------------------------------------------
# wiring


@cache
def _parser():
    # one tree per process, built on the first main() call, not at import
    ap = argparse.ArgumentParser(
        prog="nforders",
        description="Orders in quadratic and biquadratic number fields: "
        "conductors, Picard groups, ideal factorization and x^2 + n*y^2 "
        "solvers, in exact arithmetic.",
    )
    ap.add_argument(
        "--pretty", action="store_true", help="indent the JSON output"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    order_help = "order spec: max:D | zsqrt:D | index:D:f | rel:d:n"

    p = sub.add_parser("conductor", help="conductor ideal of an order")
    p.add_argument("order", help=order_help)
    p.set_defaults(func=cmd_conductor)

    p = sub.add_parser(
        "picard", help="Picard group size, by formula and by enumeration"
    )
    p.add_argument("order", help=order_help)
    p.add_argument(
        "--bound",
        type=int,
        default=None,
        help="bound on the index [O_K : L] of the ideals L in O_K that the "
        "enumeration scans, not on their o-norm (default: a complete one)",
    )
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser(
        "factor", help="factor a principal ideal coprime to the conductor"
    )
    p.add_argument("order", help=order_help)
    p.add_argument("element", help='generator, e.g. "3+1*w" or "7"')
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("criterion", help="solvability criteria for p = x^2 + n*y^2")
    p.add_argument("theorem", choices=["cox", "quadr", "hilbert"])
    p.add_argument("p", help='prime: "13", "1+1*w" or "(3+sqrt(-59))/2"')
    p.add_argument("d", type=int, help="field parameter (ignored by cox)")
    p.add_argument("n", type=int)
    p.add_argument("--poly", help="class polynomial file, one coefficient per line")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("represent", help="solve p = x^2 + n*y^2 over O_F")
    p.add_argument("p", help='prime element of Q(sqrt(-d))')
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser(
        "verify-example",
        help="recompute the worked d=59, n=2 example and check every step",
    )
    p.add_argument(
        "--pair-only",
        action="store_true",
        help="check only the displayed identity",
    )
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser(
        "sweep", help="criterion-vs-solver agreement over all small primes"
    )
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=100, help="norm bound (default 100)")
    p.add_argument("--poly", help="class polynomial file for the criterion")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # argparse gives a positional [] when it reads the "--" meant as
        # its value as a second separator: no value was given
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise ValueError("argument %s: expected a value, got '--'" % name)
        payload, code = args.func(args)
        if payload is not None:
            if args.pretty:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (nforders ... | head): stop quietly, with
        # stdout pointed at devnull so that the final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except AuditFailure as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (UnresolvedError, UnsupportedFieldError, UnsupportedPrimeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
