"""Only ``errors.py`` writes a source position into a message.

``GaugeflowError`` appends ``(line L)`` or ``(line L, column C)`` and
keeps both numbers on the exception; the parsers pass a position as
``line`` and ``column`` arguments.  So no string literal, and no
f-string part, of any other module contains ``(line ``, and a position
keeps one format.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugeflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")


def _written_positions(tree):
    """Lines of the string constants, f-string parts included, that
    contain ``(line ``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "(line " in node.value)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_no_position(path):
    assert _written_positions(ast.parse(path.read_text())) == []


def test_a_written_position_is_caught():
    tree = ast.parse("raise E(f'bad {x} (line {n})')\n"
                     "raise E('{} (line {}, column {})'.format(m, *where()))\n"
                     "raise E(f'bad {x}', n)\n"
                     "text = 'a line (lines 1-3) (line'\n")
    assert _written_positions(tree) == [1, 2]
