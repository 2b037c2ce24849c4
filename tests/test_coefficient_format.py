"""Only the expression kernel reads an expression's parts.

``expr.py`` owns the coefficient format: int numerator coefficients over
one int denominator (``_cden``) and a denominator polynomial.  Every
other module goes through ``Expression``'s methods and the kernel's
helpers, so a change of format stays in one module.  The renderer in
``parse.py`` prints the ints it reads and is the one exemption.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugeflow"
PARTS = {"_num", "_cden", "_den"}
EXEMPT = {"expr.py": None, "parse.py": {"render_expression"}}  # None: the whole module
MODULES = sorted(p for p in PACKAGE.glob("*.py") if EXEMPT.get(p.name, ()) is not None)


def _part_reads(tree, exempt_functions=()):
    """(line, attribute) of every access to an expression part outside
    the exempt functions."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt_functions:
            skip.update(id(n) for n in ast.walk(node))
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in PARTS
                  and id(node) not in skip)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_expression_part(path):
    assert _part_reads(ast.parse(path.read_text()), EXEMPT.get(path.name, ())) == []


def test_a_part_read_is_caught():
    tree = ast.parse("def f(e):\n    return e._num, e._cden\n"
                     "def render_expression(e):\n    return e._den\n"
                     "x = g()._den\n")
    assert _part_reads(tree) == [(2, "_cden"), (2, "_num"), (4, "_den"), (5, "_den")]
    assert _part_reads(tree, {"render_expression"}) == [(2, "_cden"), (2, "_num"), (5, "_den")]
