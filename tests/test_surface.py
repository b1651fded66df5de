"""The package carries no dead surface: every top-level function and class
in src/trajattack is read by other package code or exported by __all__.

A name that only tests use belongs in tests/.  The check reads the source
with ast and imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajattack"


def _referenced(node):
    """Names a syntax tree reads, as bare names and as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _exported(tree):
    """The strings of a module's __all__ list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced_definitions(package=PACKAGE):
    """(module, name) of each top-level def or class that no other top-level
    statement of the package reads and no __all__ lists."""
    defined = []
    readers = []       # (module, statement index, names the statement reads)
    exported = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported |= _exported(tree)
        for i, node in enumerate(tree.body):
            readers.append((path.stem, i, _referenced(node)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, i, node.name))
    return [(module, name) for module, i, name in defined
            if name not in exported
            and not any(name in names for other, j, names in readers
                        if (other, j) != (module, i))]


def test_every_definition_is_used_or_exported():
    assert unreferenced_definitions() == []


def test_the_check_sees_a_dead_definition(tmp_path):
    (tmp_path / "__init__.py").write_text('__all__ = ["api"]\n')
    (tmp_path / "a.py").write_text(
        "def api():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def dead():\n    return dead()\n\n\n"
        "class Dead:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == [("a", "dead"), ("a", "Dead")]
