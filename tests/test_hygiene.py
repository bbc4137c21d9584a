"""Static hygiene checks on the library sources (no linter needed)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivhom"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line}: {name}" for p in modules for line, name in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _referenced_names(tree):
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_no_dead_private_definitions():
    # a module-level _name function or class that nothing in the library
    # refers to is dead code (a definition is not a reference to itself)
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(_referenced_names(t) for t in trees.values()))
    dead = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert not dead, "unreferenced private definitions:\n" + "\n".join(dead)


def _public_definitions(tree):
    """Module-level public functions and classes, and the public methods of
    those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, kinds) and not m.name.startswith("_"))


def test_no_unreferenced_public_definitions():
    # a public function, class or method that nothing in the library, the
    # tests or the benchmark refers to is dead code
    root = SRC.parents[1]
    readers = sorted(SRC.glob("*.py")) + sorted((root / "tests").glob("*.py")) \
        + sorted((root / "bench").glob("*.py"))
    used = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in readers))
    dead = [f"{p.name}:{node.lineno}: {node.name}" for p in sorted(SRC.glob("*.py"))
            for node in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
            if node.name not in used]
    assert not dead, "unreferenced public definitions:\n" + "\n".join(dead)
