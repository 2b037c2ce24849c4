"""Only the expression kernel knows the expression format.

``expr.py`` owns the coefficient format: int numerator coefficients over
one int denominator (``_cden``) and a denominator polynomial.  It also
owns the text form: ``render_expression`` prints those ints and each
VarRef's ``_text``.  Every other module goes through ``Expression``'s
methods and the kernel's public helpers, so it reads none of these
attributes and imports no private name from ``expr``; a change of
format stays in one module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugeflow"
FORMAT = {"_num", "_cden", "_den", "_text"}
EXEMPT = {"expr.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT)


def _format_reads(tree):
    """(line, name) of every read of a format attribute and of every
    private name imported from the kernel."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORMAT:
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module in ("expr", "gaugeflow.expr"):
            reads += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_expression_part(path):
    assert _format_reads(ast.parse(path.read_text())) == []


def test_a_part_read_is_caught():
    tree = ast.parse("from .expr import Expression, _mono_sort_key\n"
                     "def f(e, v):\n    return e._num, e._cden, v._text\n"
                     "x = g()._den\n")
    assert _format_reads(tree) == [(1, "_mono_sort_key"), (3, "_cden"), (3, "_num"),
                                   (3, "_text"), (4, "_den")]
