"""The three benchmark workloads: their input pools, the seeded draw, one
operation each, and the checks every operation's output must pass.

Inputs are plain strings and tuples; the library only ever sees the
generated inputs.  Every pool is sorted by a cost proxy, so a draw that
takes one input from each of k equal slices of the pool (stratified
sampling) costs nearly the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from math import isqrt, prod
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("represent", "classgroup", "picard")

# represent: prime elements of O_F, F = Q(sqrt(-d)), of norm <= REPRESENT_NORM
REPRESENT_FIELDS = ((59, 2), (11, 10))
REPRESENT_NORM = 1000

# classgroup: native fields (d = 3 mod 4, n = 1 or 2 mod 4, gcd 1) whose
# class group takes under about 4 s each, cheapest first; (59, 2) takes
# 48 s, more than a whole run
CLASSGROUP_FIELDS = (
    (3, 2), (7, 2), (7, 1), (11, 1), (15, 1),
    (7, 5), (3, 5), (11, 2), (19, 1), (15, 2),
)

# picard: Z[sqrt(-n)] for squarefree n <= 100 and Z + f*O_K in
# Q(sqrt(-d)) for squarefree d <= 23, f <= 6, each order once
PICARD_ZSQRT_MAX = 100
PICARD_INDEX_D_MAX = 23
PICARD_INDEX_F_MAX = 6

# inputs drawn per second of --seconds, per sub-pool, sized at the baseline
# commit on a 2-core machine.  At s = 40 every run of a workload takes each
# input of its pool once, so only the order depends on the seed and the
# work does not: represent takes all 23 inputs of (59, 2), the slowest,
# and all 86 of (11, 10), about 37 s; picard takes each of its 141 orders
# once, about 18 s; classgroup takes its pool twice, about 40 s.
RATES = {
    "represent": (0.575, 2.15),  # (59, 2), (11, 10)
    "classgroup": (0.5,),
    "picard": (7.05,),
}


# ---------------------------------------------------------------------------
# pools


def _is_squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, isqrt(n) + 1))


def _minus_n_is_square(q: int, n: int) -> bool:
    """Is -n a square in F_q (q an odd prime not dividing n)?"""
    return pow(-n % q, (q - 1) // 2, q) == 1


def represent_pool(d: int, n: int) -> list[str]:
    """Prime elements of Q(sqrt(-d)) up to REPRESENT_NORM, coprime to 2n,
    whose residue field holds a square root of -n: the ones that reach the
    lattice search.  The rest are decided by one Jacobi symbol.  Sorted by
    norm."""
    from nforders.cli import fmt_elem
    from nforders.criteria import prime_elements
    from nforders.quadratic import QuadField

    out = []
    for p in prime_elements(QuadField(-d), REPRESENT_NORM):
        norm = int(p.abs_norm())
        q = isqrt(norm)
        inert = q * q == norm
        if not inert:
            q = norm
        if (2 * n) % q == 0:
            continue
        # every element of F_q is a square in F_{q^2}
        if inert or _minus_n_is_square(q, n):
            out.append((norm, fmt_elem(p)))
    return [p for _, p in sorted(out)]


def picard_pool() -> list[tuple]:
    """Order specs ('zsqrt', n) or ('index', d, f), one per distinct order,
    sorted by |disc|, the cost proxy of the Picard computations."""
    specs = [("zsqrt", n) for n in range(1, PICARD_ZSQRT_MAX + 1) if _is_squarefree(n)]
    specs += [
        ("index", d, f)
        for d in range(1, PICARD_INDEX_D_MAX + 1)
        if _is_squarefree(d)
        for f in range(1, PICARD_INDEX_F_MAX + 1)
    ]
    seen = {}
    for spec in specs:
        o = make_order(spec)
        key = (o.field.D, o.module.rows, o.module.den)
        if key not in seen:
            seen[key] = (-order_disc(o), spec)
    return [spec for _, spec in sorted(seen.values())]


def make_order(spec):
    from nforders.orders import order_with_index, order_zsqrt
    from nforders.quadratic import QuadField

    if spec[0] == "zsqrt":
        return order_zsqrt(QuadField(-spec[1]))
    return order_with_index(QuadField(-spec[1]), spec[2])


def order_disc(o) -> int:
    return o.field.disc * o.index_in_maximal() ** 2


def pools(workload: str) -> list[list]:
    """The sub-pools of a workload, each sorted by its cost proxy."""
    if workload == "represent":
        return [
            [(d, n, p) for p in represent_pool(d, n)] for d, n in REPRESENT_FIELDS
        ]
    if workload == "classgroup":
        return [list(CLASSGROUP_FIELDS)]
    if workload == "picard":
        return [picard_pool()]
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# the seeded draw


def stratified(pool: list, k: int, rng: random.Random) -> list:
    """k items: whole passes over the pool, then one random item from each
    of the remaining count's equal slices of the (cost-sorted) pool."""
    passes, rest = divmod(k, len(pool))
    out = list(pool) * passes
    for i in range(rest):
        lo = i * len(pool) // rest
        hi = (i + 1) * len(pool) // rest
        out.append(pool[rng.randrange(lo, hi)])
    return out


def draw(workload: str, seed: int, seconds: float) -> list:
    """The run's inputs, in the order they are run: a stratified draw of
    RATES * seconds inputs from each sub-pool, shuffled together."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for pool, rate in zip(pools(workload), RATES[workload]):
        out += stratified(pool, max(1, round(rate * seconds)), rng)
    rng.shuffle(out)
    return out


def input_key(item) -> str:
    """The record's key for an input."""
    return " ".join(str(x) for x in item)


# ---------------------------------------------------------------------------
# operations


def clear_caches() -> None:
    """Empty every functools cache in the library, as a fresh CLI process
    would find them.  A cached function the tracer wrapped is reached
    through the wrapper's __wrapped__."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "nforders":
            continue
        for obj in list(vars(mod).values()):
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None:
                obj.cache_clear()


def op_represent(item):
    """`nforders represent p d n` in-process: (exit code, stdout bytes)."""
    from nforders import cli

    d, n, p = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["represent", "--", p, str(d), str(n)])
    return [code, buf.getvalue()]


def op_classgroup(item):
    """class_group(integral_basis(d, n)) from cold caches: [h, structure]."""
    from nforders.biquadratic import class_group, integral_basis

    d, n = item
    cg = class_group(integral_basis(d, n))
    return [cg.h, list(cg.structure)]


def op_picard(item):
    """The Picard number three ways: [formula, brute force, forms]."""
    from nforders.orders import pic_brute_force, picard_number
    from nforders.quadratic import form_class_group

    o = make_order(item)
    formula = picard_number(o)
    brute = pic_brute_force(o)
    forms = form_class_group(order_disc(o)).h
    return [formula, brute.count if brute.complete else None, forms]


OPS = {
    "represent": op_represent,
    "classgroup": op_classgroup,
    "picard": op_picard,
}

# class_group and conductor are cached per field and per order; clearing
# before each classgroup and picard operation keeps a repeated input as
# cold as a fresh CLI invocation.  represent draws no input twice at these
# rates, and its per-field caches warm up after the first call, as in a
# sweep.
CLEAR_BEFORE_OP = {"represent": False, "classgroup": True, "picard": True}


# ---------------------------------------------------------------------------
# independent checks, on top of the record


_ELEM_RE = re.compile(r"(?:(-?\d+)([+-]))?(-?)(?:(\d+)\*)?w")


def parse_w(text: str) -> tuple[int, int]:
    """'a+b*w' as the CLI prints it -> (a, b)."""
    m = _ELEM_RE.fullmatch(text)
    if m is None:
        return int(text), 0
    b = int(m.group(4) or 1)
    negative = (m.group(2) or m.group(3)) == "-"
    return int(m.group(1) or 0), -b if negative else b


def _mul_w(u, v, d: int):
    """(a + b w)(c + e w) with w = (1 + sqrt(-d))/2, w^2 = w - (1 + d)/4."""
    a, b = u
    c, e = v
    be = b * e
    return a * c - be * (1 + d) // 4, a * e + b * c + be


def identity_holds(p: str, x: str, y: str, d: int, n: int) -> bool:
    """p = x^2 + n*y^2 in Z[w], by integer arithmetic of its own."""
    xx = _mul_w(parse_w(x), parse_w(x), d)
    yy = _mul_w(parse_w(y), parse_w(y), d)
    return parse_w(p) == (xx[0] + n * yy[0], xx[1] + n * yy[1])


def check(workload: str, item, out) -> str | None:
    """None when the output passes the workload's independent check, else
    the reason it fails."""
    if workload == "represent":
        code, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            return "exit code %d without JSON output" % code
        if doc.get("result") == "unknown":
            return "unknown result"
        if code != 0:
            return "exit code %d" % code
        if doc["result"] == "solution":
            d, n, p = item
            if not identity_holds(doc["p"], doc["x"], doc["y"], d, n):
                return "p != x^2 + n*y^2"
        return None
    if workload == "classgroup":
        h, structure = out
        if any(b % a for a, b in zip(structure, structure[1:])):
            return "invariant factors do not divide in turn"
        if any(f < 2 for f in structure) or prod(structure) != h:
            return "h is not the order of the structure"
        return None
    formula, brute, forms = out
    if brute is None:
        return "brute-force count incomplete"
    return None if formula == brute == forms else "counts disagree"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
