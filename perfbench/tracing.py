"""Per-layer tracing from outside the library.

Each traced function is replaced by a wrapper in every library module that
bound it (`from .lattice import find_generator` binds it in four), and each
traced method on its class, under every attribute name that refers to it
(`__rmul__ = __mul__`).  A wrapper records a span: its name, start, end,
the operation it belongs to and the span that called it.  A function's
self time is its spans' time minus the time of the traced spans directly
inside them.  The library's source is not touched.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every traced public function or method
TRACED = (
    ("intmath", "poly_roots_mod"),
    ("intmath", "is_prime"),
    ("quadratic", "QuadElem.__mul__"),
    ("quadratic", "form_class_group"),
    ("quadratic", "pell_solve"),
    ("quadratic", "split_prime"),
    ("lattice", "lll_reduce"),
    ("lattice", "enumerate_by_t2"),
    ("lattice", "find_generator"),
    ("lattice", "hnf_matrix"),
    ("lattice", "IntModule.intersect"),
    ("lattice", "IntModule.transform"),
    ("orders", "module_mul"),
    ("orders", "module_colon"),
    ("orders", "is_invertible"),
    ("orders", "is_principal"),
    ("orders", "pic_brute_force"),
    ("orders", "picard_number"),
    ("orders", "relative_order"),
    ("biquadratic", "BiquadElem.__mul__"),
    ("biquadratic", "integral_basis"),
    ("biquadratic", "factor_rational_prime"),
    ("biquadratic", "class_group"),
    ("criteria", "represent"),
    ("criteria", "unit_witness"),
    ("cli", "main"),
)

# spans kept per traced function; calls past this are counted, not stored
SPAN_CAP = 2000


def _library_modules() -> dict:
    """Every module of the library by its short name; importing the CLI
    imports them all."""
    import nforders.cli  # noqa: F401

    return {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if name == "nforders" or name.startswith("nforders.")
    }


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    `stats[name]` is [calls, self seconds]; `counts` holds the outcome
    counters; `spans` is a list of (op, name, start, end, parent index),
    the parent -1 when the caller is not traced or its span was not kept
    (past SPAN_CAP)."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def __enter__(self):
        mods = _library_modules()
        for modname, qualname in TRACED:
            name = "%s.%s" % (modname, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: patch its class under every alias
                owner = getattr(mods[modname], owner_name)
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, alias, wrapper)
            else:  # a function: patch every module that bound it
                original = getattr(mods[modname], attr)
                wrapper = self._wrap(name, original)
                for mod in mods.values():
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)
        return self

    def __exit__(self, *exc):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()
        return False

    def _patch(self, obj, attr, wrapper):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        post = _OUTCOMES.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if stat[0] < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]  # child seconds, own span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                if index >= 0:
                    spans[index] = (
                        tracer.op, name, start, end,
                        -1 if parent is None else parent[1],
                    )
            if post is not None:
                post(tracer.counts, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Calls and self seconds of every traced function, plus the
        outcome counts and ratios."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        c = self.counts
        enum_calls = self.stats["lattice.enumerate_by_t2"][0]
        gen_calls = self.stats["lattice.find_generator"][0]
        out["lattice.enumerate_by_t2.points"] = c.get("points", 0)
        out["lattice.enumerate_by_t2.empty_ratio"] = (
            c.get("empty", 0) / enum_calls if enum_calls else 0.0
        )
        out["lattice.find_generator.found_ratio"] = (
            c.get("found", 0) / gen_calls if gen_calls else 0.0
        )
        for outcome in ("solution", "none", "unresolved"):
            out["criteria.represent." + outcome] = c.get(outcome, 0)
        return out


def _count(counts, key, by=1):
    counts[key] = counts.get(key, 0) + by


def _enumerate_outcome(counts, vectors):
    _count(counts, "points", len(vectors))
    if not vectors:
        _count(counts, "empty")


def _generator_outcome(counts, alpha):
    if alpha is not None:
        _count(counts, "found")


def _represent_outcome(counts, out):
    if out is None:
        _count(counts, "none")
    elif isinstance(out, tuple):
        _count(counts, "solution")
    else:
        _count(counts, "unresolved")


_OUTCOMES = {
    "lattice.enumerate_by_t2": _enumerate_outcome,
    "lattice.find_generator": _generator_outcome,
    "criteria.represent": _represent_outcome,
}
