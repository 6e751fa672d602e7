"""Every top-level name in the library, and every method and property of
its top-level classes, earns its place.

A private name (one leading underscore) must be referenced somewhere in
src/ outside its own definition; a public one must be referenced in src/
outside its own definition or in tests/.  A reference is a name read, an
attribute of that name, or an import of it.  References inside the
defining statement itself (a recursive call, say) do not count; for a
method or property that statement is its def, so a call from another
method of the same class counts.  Dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nforders"
TESTS = ROOT / "tests"


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


def _verdict(name: str, in_src: bool, tests: set):
    if name.startswith("_"):
        return None if in_src else "private, unused in src/"
    return None if in_src or name in tests else "public, unused in src/ and tests/"


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_names(src_dir: Path = SRC, tests_dir: Path = TESTS) -> list:
    """(module, name, why) for every top-level name, and every method or
    property (named Class.name), that fails the rule."""
    src = {p.stem: _parse(p) for p in sorted(src_dir.glob("*.py"))}
    tests = set()
    for p in sorted(tests_dir.glob("*.py")):
        tests |= _referenced(_parse(p))
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
                why = _verdict(name, any(name in n for n in outside), tests)
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
                why = _verdict(name, in_src, tests)
                if why:
                    bad.append((mod, "%s.%s" % (stmt.name, name), why))
    return bad


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []


def test_checker_flags_an_orphan(tmp_path):
    # the rule itself: a private helper only its own recursion calls, and a
    # public one nobody calls, are both reported; a used one is not.  The
    # same holds for the methods and properties of a class: a private
    # method another method calls passes, a public one a test reads passes
    pkg = tmp_path / "src" / "nforders"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "m.py").write_text(
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n"
        "def orphan():\n    return 1\n\n"
        "def _used():\n    return 2\n\n"
        "def api():\n    return _used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.x = self._helper()\n\n"
        "    def _helper(self):\n        return 3\n\n"
        "    def _spin(self, n):\n        return self._spin(n - 1) if n else 0\n\n"
        "    @property\n    def size(self):\n        return self.x\n\n"
        "    def unused(self):\n        return 4\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text(
        "from nforders.m import Box, api\n\nassert Box().size == 3\n"
    )
    assert sorted(unreferenced_names(pkg, tmp_path / "tests")) == [
        ("m", "Box._spin", "private, unused in src/"),
        ("m", "Box.unused", "public, unused in src/ and tests/"),
        ("m", "_loop", "private, unused in src/"),
        ("m", "orphan", "public, unused in src/ and tests/"),
    ]
