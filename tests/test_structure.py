"""Every top-level name in the library earns its place.

A private top-level name (one leading underscore) must be referenced
somewhere in src/ outside its own definition; a public one must be
referenced in src/ or in tests/.  A reference is a name read, an attribute
of that name, or an import of it.  References inside the defining statement
itself (a recursive call, say) do not count.
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


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_names(src_dir: Path = SRC, tests_dir: Path = TESTS) -> list:
    """(module, name, why) for every top-level name that fails the rule."""
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
            for name in _defined(stmt):
                if name.startswith("__") and name.endswith("__"):
                    continue
                in_src = any(
                    name in names for key, names in refs.items() if key != (mod, i)
                )
                if name.startswith("_"):
                    if not in_src:
                        bad.append((mod, name, "private, unused in src/"))
                elif not in_src and name not in tests:
                    bad.append((mod, name, "public, unused in src/ and tests/"))
    return bad


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []


def test_checker_flags_an_orphan(tmp_path):
    # the rule itself: a private helper only its own recursion calls, and a
    # public one nobody calls, are both reported; a used one is not
    pkg = tmp_path / "src" / "nforders"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (pkg / "m.py").write_text(
        "def _loop(n):\n    return _loop(n - 1) if n else 0\n\n"
        "def orphan():\n    return 1\n\n"
        "def _used():\n    return 2\n\n"
        "def api():\n    return _used()\n"
    )
    (tmp_path / "tests" / "test_m.py").write_text("from nforders.m import api\n")
    assert sorted(unreferenced_names(pkg, tmp_path / "tests")) == [
        ("m", "_loop", "private, unused in src/"),
        ("m", "orphan", "public, unused in src/ and tests/"),
    ]
