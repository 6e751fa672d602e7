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

A parameter with a default, on a function or method in src/ whose name is
not a dunder, must be passed, by keyword or by position, at some call in
src/ or tests/: a default every caller takes is a constant.  Calls are
matched to definitions by name alone, and a call through an attribute
lines its first argument up with a method's second parameter.
"""

import ast
from pathlib import Path

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
