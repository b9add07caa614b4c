"""Every top-level function and class of the package has a caller or a
public name: code kept in ``src/`` only for the tests belongs in the tests.

A definition passes if it is exported from ``skewstone``, is a ``cmd_*``
handler (the CLI dispatches on the subcommand name), is named somewhere else
in ``src/``, or is one of the library-only names below.  ``laws.py`` is the
independent oracle, replayed by name, and is not checked.
"""

import ast
from pathlib import Path

import skewstone

SRC = Path(skewstone.__file__).resolve().parent

# public library API with no caller in src/ and no export from skewstone
LIBRARY_ONLY = {"compose_skew_morphisms", "enumerate_skew_morphisms",
                "enumerate_covering_relational"}


def definitions_and_uses(trees):
    """(module, line, name) of each top-level def or class, and the set of
    every identifier named, as a Name, an attribute or an import, over the
    trees; a definition naming itself does not count."""
    defs, uses = [], set()
    for mod, tree in trees.items():
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defs.append((mod, top.lineno, owner))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name != owner:
                    uses.add(name)
    return defs, uses


def uncalled(trees, exported):
    defs, uses = definitions_and_uses(trees)
    return [(mod, line, name) for mod, line, name in defs
            if mod != "laws" and name not in exported and not name.startswith("cmd_")
            and name not in LIBRARY_ONLY and name not in uses]


def test_every_top_level_definition_has_a_caller_or_a_public_name():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert uncalled(trees, set(dir(skewstone))) == []


def test_the_guard_sees_an_unused_helper():
    trees = {
        "a": ast.parse("def used(): pass\ndef unused(): pass\nclass K: pass\n"
                       "def cmd_go(): pass\ndef _private(): pass\n"
                       "def rec(n): return rec(n - 1)\n"),
        "b": ast.parse("from .a import used\nx = mod.K()\n"),
        "laws": ast.parse("def law(): pass\n"),
    }
    assert uncalled(trees, {"_private"}) == [("a", 2, "unused"), ("a", 6, "rec")]
