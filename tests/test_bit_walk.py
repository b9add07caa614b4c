"""The package has one set-bit walk: ``balg._bits`` (each set bit, lowest
first) and ``balg._first`` (the lowest), which every reader of a bitmask row
uses.  Neither is defined again, and the lowest-bit idiom ``m & -m`` is
written only inside them and inside ``balg._bound``, whose early-exit loop
keeps it.  ``laws.py``, the independent oracle, is not checked: its own
``_first`` is a different function.
"""

import ast
from pathlib import Path

import skewstone

SRC = Path(skewstone.__file__).resolve().parent

WALKERS = {"_bits", "_first"}
LOWEST_BIT_ALLOWED = {("balg", "_bits"), ("balg", "_first"), ("balg", "_bound")}


def scan(trees):
    """(module, name) of every definition of a walker, and (module, function)
    of every ``x & -y``, the function being the outermost def around it
    (None at module level)."""
    defs, lowest = [], []

    def visit(mod, node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = owner or child.name
                if child.name in WALKERS:
                    defs.append((mod, child.name))
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.BitAnd)
                    and isinstance(child.right, ast.UnaryOp)
                    and isinstance(child.right.op, ast.USub)):
                lowest.append((mod, owner))
            visit(mod, child, inner)

    for mod, tree in trees.items():
        if mod != "laws":
            visit(mod, tree, None)
    return defs, lowest


def test_one_set_bit_walk():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    defs, lowest = scan(trees)
    assert sorted(defs) == [("balg", "_bits"), ("balg", "_first")]
    assert set(lowest) <= LOWEST_BIT_ALLOWED
    assert ("balg", "_bound") in lowest


def test_the_guard_sees_a_second_walk():
    trees = {
        "balg": ast.parse("def _first(m): return (m & -m).bit_length() - 1\n"),
        "a": ast.parse("def _bits(m): pass\n"
                       "class K:\n    def f(self, m):\n        low = m & -m\n"
                       "x = 5 & -3\n"),
        "laws": ast.parse("def _first(env, plan): return env & -plan\n"),
    }
    defs, lowest = scan(trees)
    assert defs == [("balg", "_first"), ("a", "_bits")]
    assert lowest == [("balg", "_first"), ("a", "f"), ("a", None)]
