"""Every module-level private function, class and constant of the
package is read somewhere in the package.  A refactor that leaves a
helper behind fails here; tests do not count as readers, and neither
does a helper's own body, so a helper that only calls itself is dead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugeflow"


def _defined_names(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(node):
    """Every name a statement reads: loaded names, attributes and the
    names it imports."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def _dead_helpers(modules):
    """(module, line, name) of each private top-level definition that no
    other top-level statement of ``modules`` ({name: ast.Module}) reads."""
    statements = [(module, node) for module, tree in modules.items() for node in tree.body]
    reads = [_read_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                dead.append((module, node.lineno, name))
    return sorted(dead)


def test_package_has_no_dead_helper():
    modules = {p.name: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert _dead_helpers(modules) == []


def test_a_dead_helper_is_caught():
    modules = {
        "a.py": ast.parse("def _used():\n    return _CONST\n_CONST = 1\n"
                          "def _loop(n):\n    return _loop(n - 1)\n"
                          "class _Gone:\n    pass\n_LEFT = 2\n"),
        "b.py": ast.parse("from a import _used\nx = _used()\n"),
    }
    assert _dead_helpers(modules) == [("a.py", 4, "_loop"), ("a.py", 6, "_Gone"),
                                      ("a.py", 8, "_LEFT")]
