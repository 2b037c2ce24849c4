"""Only ``VarRef.__new__`` reads the intern pool.

A VarRef has one construction path: its constructor probes
``VarRef._pool`` with the caller's own key, and on a miss normalizes
the key, probes again and builds.  A second lookup path next to it
(a helper that builds a pool key itself) would have to agree with the
constructor's normalization, so no other function of the package
mentions ``_pool``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugeflow"


def _pool_readers(tree):
    """Qualified names of the scopes that read ``_pool``: a function or
    class, or ``<module>`` for code outside both."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "_pool"
                    or isinstance(child, ast.Name) and child.id == "_pool"
                    and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Constant) and child.value == "_pool"):
                readers.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return sorted(readers)


def test_only_the_constructor_reads_the_pool():
    readers = [f"{path.name}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
               for scope in _pool_readers(ast.parse(path.read_text()))]
    assert readers == ["expr.py:VarRef.__new__"]


def test_a_second_pool_reader_is_caught():
    tree = ast.parse(
        "class VarRef:\n"
        "    _pool = {}\n"
        "    def __new__(cls, key):\n"
        "        return cls._pool.get(key)\n"
        "    def _sibling(self, kind):\n"
        "        return VarRef._pool.get((self.base, kind))\n"
        "def interned(key):\n"
        "    return getattr(VarRef, '_pool')[key]\n"
        "size = len(VarRef._pool)\n")
    assert _pool_readers(tree) == [
        "<module>", "VarRef.__new__", "VarRef._sibling", "interned"]
