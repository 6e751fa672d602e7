"""Every top-level name in the library, and every method and property of
its top-level classes, earns its place.

A private name (one leading underscore) must be referenced somewhere in
src/ outside its own definition.  A public one must be referenced there
too, or be used by the benchmark in perfbench/: imported by name from its
module (`from nforders.orders import picard_number`), or listed as
(module, qualified name) in a `TRACED` tuple (perfbench/tracing.py).  A
use in tests/ does not count: a helper only tests read lives in tests/.
A reference in src/ is a name read, an attribute of that name, or an
import of it.  References inside the defining statement itself (a
recursive call, say) do not count; for a method or property that
statement is its def, so a call from another method of the same class
counts.  Dunder names are exempt.

Every name a module in src/ imports, at its top or inside a function,
is read somewhere in that module.

A parameter with a default, on a function or method in src/ whose name is
not a dunder, must be passed, by keyword or by position, at some call in
src/ or tests/: a default every caller takes is a constant.  Calls are
matched to definitions by name alone, and a call through an attribute
lines its first argument up with a method's second parameter.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from nforders.lattice import LadderData

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nforders"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"


def _referenced(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _verdict(name: str, in_src: bool, in_bench: bool):
    if name.startswith("_"):
        return None if in_src else "private, unused in src/"
    return None if in_src or in_bench else "public, unused in src/ and perfbench/"


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _bench_uses(bench_dir: Path) -> set:
    """(module, qualified name) for every library name the benchmark
    imports by name or lists in a TRACED tuple."""
    out = set()
    for p in sorted(bench_dir.glob("*.py")):
        for node in ast.walk(_parse(p)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "nforders."
            ):
                mod = node.module.split(".", 1)[1]
                out.update((mod, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                out.update(ast.literal_eval(node.value))
    return out


def unreferenced_names(src_dir: Path = SRC, bench_dir: Path = PERFBENCH) -> list:
    """(module, name, why) for every top-level name, and every method or
    property (named Class.name), that fails the rule."""
    src = {p.stem: _parse(p) for p in sorted(src_dir.glob("*.py"))}
    bench = _bench_uses(bench_dir)
    # references in src/ per (module, top-level statement index)
    refs = {
        (mod, i): _referenced(stmt)
        for mod, tree in src.items()
        for i, stmt in enumerate(tree.body)
    }
    bad = []
    for mod, tree in src.items():
        for i, stmt in enumerate(tree.body):
            outside = [names for key, names in refs.items() if key != (mod, i)]
            for name in _defined(stmt):
                if _dunder(name):
                    continue
                why = _verdict(
                    name, any(name in n for n in outside), (mod, name) in bench
                )
                if why:
                    bad.append((mod, name, why))
            if not isinstance(stmt, ast.ClassDef):
                continue
            # methods and properties: a reference from another statement of
            # the class body counts
            members = [_referenced(sub) for sub in stmt.body]
            for j, sub in enumerate(stmt.body):
                if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = sub.name
                if _dunder(name):
                    continue
                in_src = any(name in n for n in outside) or any(
                    name in n for k, n in enumerate(members) if k != j
                )
                qual = "%s.%s" % (stmt.name, name)
                why = _verdict(name, in_src, (mod, qual) in bench)
                if why:
                    bad.append((mod, qual, why))
    return bad


def unused_imports(src_dir: Path = SRC) -> list:
    """(module, name) for every name an import in a src/ module binds and
    the module never reads; `from __future__` imports are exempt."""
    bad = []
    for p in sorted(src_dir.glob("*.py")):
        tree = _parse(p)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        bad.append((p.stem, name))
    return bad


def _calls(trees) -> dict:
    """name -> [(positional args passed, keywords passed, via attribute)],
    with a starred argument counting as every later position and a **
    argument as every keyword."""
    out = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name, attr = func.id, False
            elif isinstance(func, ast.Attribute):
                name, attr = func.attr, True
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            npos = float("inf") if starred else len(call.args)
            kws = {k.arg for k in call.keywords}
            out.setdefault(name, []).append((npos, kws, attr))
    return out


def _functions(tree):
    """(function node, is a method) for every def in the module."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in sub.decorator_list
                ):
                    methods.add(sub)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node in methods


def unpassed_defaults(src_dir: Path = SRC, tests_dir: Path = TESTS) -> list:
    """(module, function, parameter) for every parameter with a default that
    no call in src/ or tests/ passes."""
    src = {p.stem: _parse(p) for p in sorted(src_dir.glob("*.py"))}
    calls = _calls(
        list(src.values()) + [_parse(p) for p in sorted(tests_dir.glob("*.py"))]
    )
    bad = []
    for mod, tree in src.items():
        for fn, is_method in _functions(tree):
            if _dunder(fn.name):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            params += [
                (None, arg.arg)
                for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None
            ]
            for i, name in params:
                if not any(
                    _passes(call, i, name, is_method)
                    for call in calls.get(fn.name, [])
                ):
                    bad.append((mod, fn.name, name))
    return bad


def _passes(call, index, name: str, is_method: bool) -> bool:
    """Does the call pass the parameter at this position (None for a
    keyword-only one) with this name?"""
    npos, kws, attr = call
    if name in kws or None in kws:
        return True
    shift = 1 if is_method and attr else 0
    return index is not None and npos > index - shift


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []


def test_every_default_is_passed_somewhere():
    assert unpassed_defaults() == []


def test_every_import_is_read():
    assert unused_imports() == []


def test_import_checker_flags_an_unread_name(tmp_path):
    # a name imported at the top or inside a function and never read is
    # reported; one read in an annotation, in a call or as the root of an
    # attribute passes, and so does the __future__ import
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from math import gcd, isqrt\n\n"
        "def f(x: Fraction) -> int:\n"
        "    from operator import mul\n"
        "    return isqrt(x.numerator) + len(os.path.sep)\n"
    )
    assert unused_imports(tmp_path) == [("m", "gcd"), ("m", "mul")]


def test_checker_flags_an_orphan(tmp_path):
    # the rule itself: a private helper only its own recursion calls, a
    # public one nobody calls and a public one only a test calls are all
    # reported; one src/ uses, one the benchmark imports and one it traces
    # pass.  The same holds for the methods and properties of a class: a
    # private method another method calls passes, and so does a public one
    # the benchmark traces
    pkg = tmp_path / "src" / "nforders"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench").mkdir()
    (pkg / "m.py").write_text(
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n"
        "def orphan():\n    return 1\n\n"
        "def tested():\n    return 5\n\n"
        "def traced():\n    return 6\n\n"
        "def _used():\n    return 2\n\n"
        "def api():\n    return _used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = self._helper()\n\n"
        "    def _helper(self):\n        return 3\n\n"
        "    def _spin(self, n):\n        return self._spin(n - 1) if n else 0\n\n"
        "    @property\n    def size(self):\n        return self.x\n\n"
        "    def unused(self):\n        return 4\n\n"
        "    def scaled(self, k=1, *, shift=0):\n        return self.size * k + shift\n\n"
        "def ranged(lo, hi=9, step=1):\n    return range(lo, hi, step)\n\n"
        "def fixed(n=3):\n    return ranged(0, n)\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text(
        "from nforders.m import Box, api, fixed, tested\n\n"
        "assert Box().size == 3 and Box().scaled(2) == 6\n"
        "assert api() + len(fixed()) + tested() == 10\n"
    )
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "def run():\n"
        "    from nforders.m import Box, api, fixed\n\n"
        "    return Box().scaled(2) + api() + len(fixed())\n"
    )
    (tmp_path / "perfbench" / "tracing.py").write_text(
        'TRACED = (("m", "traced"), ("m", "Box.scaled"))\n'
    )
    assert sorted(unreferenced_names(pkg, tmp_path / "perfbench")) == [
        ("m", "Box._spin", "private, unused in src/"),
        ("m", "Box.unused", "public, unused in src/ and perfbench/"),
        ("m", "_loop", "private, unused in src/"),
        ("m", "orphan", "public, unused in src/ and perfbench/"),
        ("m", "tested", "public, unused in src/ and perfbench/"),
    ]
    # defaults: hi is passed by position and k through a method call, while
    # step, shift and n are left at their defaults by every call
    assert sorted(unpassed_defaults(pkg, tmp_path / "tests")) == [
        ("m", "fixed", "n"),
        ("m", "ranged", "step"),
        ("m", "scaled", "shift"),
    ]


def test_benchmark_clear_caches_empties_identity_module(monkeypatch):
    # each benchmark operation starts from empty caches, as a fresh CLI
    # process does, so the cached identity module is built again in each
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import clear_caches

    from nforders.biquadratic import norm_map_condition
    from nforders.criteria import unit_witness
    from nforders.lattice import identity_module
    from nforders.orders import _prime_modules, maximal_order
    from nforders.quadratic import QuadField

    # and so are the per-(d, n) facts of the criteria, the maximal order
    # and the primes of O_K above each rational prime
    cached = (
        identity_module,
        unit_witness,
        norm_map_condition,
        maximal_order,
        _prime_modules,
    )
    identity_module(QuadField(-5))
    maximal_order(QuadField(-5))
    _prime_modules(QuadField(-5), 2)
    unit_witness(59, 2)
    norm_map_condition(59, 2)
    for fn in cached:
        assert fn.cache_info().currsize > 0, fn
    clear_caches()
    for fn in cached:
        assert fn.cache_info().currsize == 0, fn


def test_traced_names_resolve():
    # the benchmark's tracer patches each TRACED name where it is defined:
    # a function must be an attribute of its module, and Class.method must
    # be in the class's own namespace, not inherited
    import importlib

    traced = [
        pair
        for node in ast.walk(_parse(PERFBENCH / "tracing.py"))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        for pair in ast.literal_eval(node.value)
    ]
    assert traced
    bad = []
    for modname, qualname in traced:
        mod = importlib.import_module("nforders." + modname)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            ok = owner is not None and attr in vars(owner)
        else:
            ok = hasattr(mod, attr)
        if not ok:
            bad.append((modname, qualname))
    assert bad == []


# ---------------------------------------------------------------------------
# one field protocol: the layers above the field ask it, not its degree


def _imports_of(path: Path, name: str) -> list:
    """Line numbers of the imports in the module at path, at module level
    or inside a function, that name the module `name`."""
    bad = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            if name in (node.module or "") or any(a.name == name for a in node.names):
                bad.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(name in a.name for a in node.names):
                bad.append(node.lineno)
    return bad


def test_orders_imports_nothing_from_biquadratic():
    # the primes above q and the class number come from the field itself
    # (prime_rows, class_number), at module level or inside a function
    assert _imports_of(SRC / "orders.py", "biquadratic") == []


def test_biquadratic_imports_nothing_from_orders():
    # module products and colons live in lattice, UnresolvedError in
    # quadratic, and a prime above q is a module, not an order's ideal
    assert _imports_of(SRC / "biquadratic.py", "orders") == []


def test_src_has_no_function_level_import():
    # the imports of src/ form a DAG read off the module tops:
    # intmath -> quadratic -> lattice -> {orders, biquadratic} -> criteria
    # -> cli; no import waits inside a function to break a cycle.  The one
    # exception is `csv`, a standard-library module that only `sweep --csv`
    # reads, imported there so that no other call pays for it
    bad = []
    for p in sorted(SRC.glob("*.py")):
        tree = _parse(p)
        top = {id(stmt) for stmt in tree.body}
        bad += [
            (p.stem, [a.name for a in node.names])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert bad == [("cli", ["csv"])]


def test_src_does_not_import_dataclasses():
    # records are NamedTuples and the other classes plain ones: importing
    # dataclasses pulls in inspect, ast, dis and tokenize at every start
    bad = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(p)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            bad += [(p.stem, n) for n in names if n.split(".")[0] == "dataclasses"]
    assert bad == []


def test_norm_is_defined_once_for_both_degrees():
    from nforders import biquadratic, quadratic
    from nforders.quadratic import FieldElem

    assert "norm" in vars(FieldElem)
    subclasses = [
        obj
        for mod in (quadratic, biquadratic)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, FieldElem) and obj is not FieldElem
    ]
    assert {c.__name__ for c in subclasses} == {"QuadElem", "BiquadElem"}
    assert [c.__name__ for c in subclasses if "norm" in vars(c)] == []


# what the layers above a field ask of it, whatever its degree
FIELD_PROTOCOL = (
    "norm_form",
    "prime_rows",
    "class_number",
    "residue_unit_counts",
    "genus_characters",
)


def test_both_field_classes_speak_one_protocol():
    # each name is defined on each field class itself, as the same kind of
    # attribute: a method, or a property cached per field
    from nforders.biquadratic import BiquadField
    from nforders.quadratic import QuadField

    kinds = [
        {name: type(vars(cls).get(name)) for name in FIELD_PROTOCOL}
        for cls in (QuadField, BiquadField)
    ]
    assert kinds[0] == kinds[1]
    assert type(None) not in kinds[0].values()
    assert kinds[0]["genus_characters"].__name__ == "cached_property"


# what both degrees do the same way, each written once on its base class:
# elements from coordinates, 1 and the T2 Gram on NumberField, and the
# conjugation on FieldElem
BASE_MEMBERS = (
    ("NumberField", "from_basis_coords"),
    ("NumberField", "one"),
    ("NumberField", "t2_gram_matrix"),
    ("FieldElem", "conj"),
)


@pytest.mark.parametrize("base, name", BASE_MEMBERS)
def test_shared_member_is_defined_once_on_the_base(base, name):
    from nforders import biquadratic, quadratic

    cls = getattr(quadratic, base, None)
    assert cls is not None and name in vars(cls)
    subclasses = {
        obj
        for mod in (quadratic, biquadratic)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, cls) and obj is not cls
    }
    assert len(subclasses) == 2
    assert [c.__name__ for c in subclasses if name in vars(c)] == []


def test_gram_and_trace_form_are_computed_in_one_place():
    # the T2 Gram is read off the trace form, which the discriminant of a
    # supplied basis also reads; the wrappers and the naive-coordinate
    # trace form are gone, and so are the second names of the conjugation
    # and of the coordinates
    from nforders.biquadratic import BiquadElem, BiquadField

    assert set(_callers("trace_form")) == {
        ("quadratic", "NumberField.t2_gram_matrix"),
        ("biquadratic", "BiquadField.__init__"),
    }
    defined = {
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(p))
        if isinstance(node, ast.FunctionDef)
    }
    assert not {"_trace_form", "_t2_gram_rows", "_gens", "bar"} & defined
    assert not {"bar", "coords"} & set(vars(BiquadElem))
    assert type(vars(BiquadField)["gens"]).__name__ == "cached_property"


def _degree_comparisons(path: Path) -> Counter:
    """The number of comparisons of a `.degree` attribute in each top-level
    function (Class.method for methods) that makes one."""
    out = Counter()
    for stmt in _parse(path).body:
        scopes = [(stmt.name, stmt)] if isinstance(stmt, ast.FunctionDef) else []
        if isinstance(stmt, ast.ClassDef):
            scopes = [
                ("%s.%s" % (stmt.name, sub.name), sub)
                for sub in stmt.body
                if isinstance(sub, ast.FunctionDef)
            ]
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "degree"
                    for x in [node.left, *node.comparators]
                ):
                    out[name] += 1
    return out


def test_degree_branches_left_above_the_field():
    # the rank-2 and rank-4 generator searches differ, the unit index is
    # decided per degree, and the reduced-form count is rank 2 only;
    # nothing else in lattice.py or orders.py asks for the degree
    found = _degree_comparisons(SRC / "lattice.py") | _degree_comparisons(
        SRC / "orders.py"
    )
    assert found.keys() <= {"find_generator", "unit_index", "pic_brute_force"}, found
    # the scan sees a comparison where there is one
    assert "find_generator" in found
    # above them the front end names a field, and only a quadratic order
    # reads an element in x + y*w syntax; the criteria never ask
    front = _degree_comparisons(SRC / "cli.py") | _degree_comparisons(
        SRC / "criteria.py"
    )
    assert front == {"field_label": 1, "cmd_factor": 1}, front


def _callers(name: str) -> list:
    """(module, function or Class.method) of every call in src/ to `name`,
    called by that name or as an attribute; "" for module level."""
    out = []
    for p in sorted(SRC.glob("*.py")):
        for stmt in _parse(p).body:
            subs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for sub in subs:
                where = getattr(sub, "name", "")
                if sub is not stmt:
                    where = "%s.%s" % (stmt.name, where)
                for node in ast.walk(sub):
                    if isinstance(node, ast.Call):
                        f = node.func
                        if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                            out.append((p.stem, where))
    return out


# the geometry of the cycle of sqrt(D0) that find_generator's windows are
# built from, kept beside PellData
CYCLE = ("_rmul", "_before", "_twist", "_stretches", "_ladder_windows", "_in_range")


def test_sqrt_d_is_expanded_in_one_place():
    # PellData, which pell_data shares among the callers of a field, is the
    # one caller of cf_sqrt: the window ladder, the unit equation,
    # unit_witness and pell_solve read its expansion and its half-period walk
    assert _callers("cf_sqrt") == [("quadratic", "PellData.__init__")]
    # the scan sees calls in functions, their decorators and methods
    assert ("lattice", "ladder_data") in _callers("pell_data")
    assert ("quadratic", "pell_data") in _callers("lru_cache")
    assert ("quadratic", "PellData.half") in _callers("cf_convergents")
    # the convergents are walked in quadratic alone: the cycle's windows
    # live there, and lattice reads window records, never the expansion
    assert {mod for mod, _ in _callers("cf_convergents")} == {"quadratic"}
    assert ("quadratic", "_ladder_windows") in _callers("cf_convergents")
    defined = {
        mod: {name for stmt in _parse(SRC / ("%s.py" % mod)).body for name in _defined(stmt)}
        for mod in ("lattice", "quadratic")
    }
    assert not set(CYCLE) & defined["lattice"]
    assert set(CYCLE) <= defined["quadratic"]
    imported = {
        alias.name
        for node in ast.walk(_parse(SRC / "lattice.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {name for name in imported if name.startswith("cf_")} | (
        imported & {"CFExpansion"}
    ), imported
    assert LadderData._fields == ("U", "step", "period")


def test_class_group_walk_takes_no_detour():
    # Fincke-Pohst runs only inside the generator search: the walk's
    # representatives come from LLL's first row, and its principal test
    # searches the ideal itself, so the one colon left in biquadratic is
    # the inverse that turns a short element into a representative
    assert {mod for mod, _ in _callers("enumerate_by_t2")} == {"lattice"}
    colons = [where for mod, where in _callers("module_colon") if mod == "biquadratic"]
    assert colons == ["_reduce_inverse"]


def test_hnf_determinants_are_read_off_the_diagonal():
    # Bareiss runs on dense matrices only: the cofactors of an adjugate, the
    # basis matrix and the trace form.  A triangular HNF's determinant is
    # its diagonal product, read by covolume (and so index_in and the
    # index of an order) and by module_colon, whose B and K are triangular
    assert set(_callers("_det_int")) == {
        ("lattice", "adjugate_int"),
        ("biquadratic", "_mat_inv"),
        ("biquadratic", "BiquadField.__init__"),
    }
    assert set(_callers("_diagonal_product")) == {
        ("lattice", "IntModule.covolume"),
        ("lattice", "module_colon"),
    }
    defined = {name for stmt in _parse(SRC / "orders.py").body for name in _defined(stmt)}
    assert "_pivots" not in defined


def test_subfields_of_e_are_built_once():
    # E's three quadratic subfields are built in one cached record, which
    # the genus characters, the residue degree, the relative order and the
    # prime factorization read; a split subfield's primes come from its
    # own prime_rows, so biquadratic finds no root of a polynomial itself
    assert [w for mod, w in _callers("QuadField") if mod == "biquadratic"] == [
        "BiquadField.subfields"
    ]
    assert [w for mod, w in _callers("poly_roots_mod") if mod == "biquadratic"] == []
    assert ("quadratic", "QuadField.prime_rows") in _callers("poly_roots_mod")


def _function(path: Path, name: str):
    """The top-level function `name` of the module at path."""
    return next(s for s in _parse(path).body if isinstance(s, ast.FunctionDef) and s.name == name)



# one implementation per linear-algebra job: u g u^t is _form_value, a
# module product module_mul, an adjugate the cofactors at every size, and
# a class group's invariant factors its Smith form


def test_second_form_and_product_kernels_are_gone():
    defined = {
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(p))
        if isinstance(node, ast.FunctionDef)
    }
    assert not {"_pair_coeffs", "_pair_products", "_norm_pairs", "_product_rows"} & defined


def test_norm_form_of_e_reads_form_value():
    assert ("biquadratic", "BiquadField.norm_form") in _callers("_form_value")


def test_is_invertible_takes_the_product_from_module_mul():
    imported = {
        alias.name
        for node in ast.walk(_parse(SRC / "orders.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {"_product_rows", "hnf_matrix"} & imported
    assert ("orders", "is_invertible") in _callers("module_mul")


def test_adjugate_and_class_group_have_no_special_case():
    # no closed form for a small size; no early exit for a group with no
    # relations, as smith_normal_form([]) is []
    adjugate = _function(SRC / "lattice.py", "adjugate_int")
    assert sum(isinstance(node, ast.Return) for node in ast.walk(adjugate)) == 1
    assert [w for mod, w in _callers("BiquadClassGroup")] == ["class_group"]


def test_a_quartic_field_is_proven_where_it_is_built():
    # BiquadField's constructor proves its basis maximal and keeps the two
    # tables that proof builds as plain attributes; integral_basis and the
    # cached native field reach it, no second builder skips the proof, and
    # no caller declares a discriminant
    import inspect

    from nforders.biquadratic import BiquadField, integral_basis

    defined = {
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(p))
        if isinstance(node, ast.FunctionDef)
    }
    assert "_verified_field" not in defined
    assert not {"basis_inverse", "mult_table"} & set(vars(BiquadField))
    assert list(inspect.signature(integral_basis).parameters) == ["d", "n", "basis"]
    assert list(inspect.signature(BiquadField).parameters) == ["d", "n", "intbasis"]
    assert sorted(_callers("BiquadField")) == [
        ("biquadratic", "_native_field"),
        ("biquadratic", "integral_basis"),
    ]
