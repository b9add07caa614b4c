"""Results must not change under ``python -O``, which strips ``assert``
statements: every check in the package raises explicitly, except inside
``if __debug__:`` blocks, which are debug-only by design."""

import ast
from pathlib import Path

import skewstone

SRC = Path(skewstone.__file__).resolve().parent


def bare_asserts(tree):
    """Line numbers of the assert statements outside ``if __debug__:`` bodies."""
    out = []

    def visit(node, debug):
        if isinstance(node, ast.Assert) and not debug:
            out.append(node.lineno)
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "__debug__":
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, debug)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, debug)

    visit(tree, False)
    return out


def test_no_assert_outside_debug_blocks():
    found = {
        path.name: bare_asserts(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_scan_sees_asserts_everywhere_but_debug_bodies():
    tree = ast.parse(
        "assert a\n"
        "if __debug__:\n"
        "    assert b\n"
        "else:\n"
        "    assert c\n"
        "def f():\n"
        "    if x:\n"
        "        assert d\n"
    )
    assert bare_asserts(tree) == [1, 5, 8]
