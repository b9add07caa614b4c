"""A refusal that no law explains is an internal error, raised as
``AssertionError``, and nothing in the package may swallow one: no
``except`` clause names ``AssertionError``, ``Exception`` or
``BaseException``, and none is bare."""

import ast
from pathlib import Path

import skewstone

SRC = Path(skewstone.__file__).resolve().parent
CATCH_ALL = {"AssertionError", "Exception", "BaseException"}


def caught_names(handler):
    """The exception names an ``except`` clause catches; a bare clause
    catches BaseException."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types}


def swallowing_handlers(tree):
    """(enclosing function, line) of each ``except`` clause that catches
    AssertionError."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler) and caught_names(node) & CATCH_ALL:
            out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_no_except_clause_swallows_an_internal_error():
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        for func, line in swallowing_handlers(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_scan_sees_every_clause_that_catches_assertion_error():
    tree = ast.parse(
        "try:\n"
        "    pass\n"
        "except AssertionError:\n"
        "    pass\n"
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except (KeyError, AssertionError):\n"
        "        pass\n"
        "    except builtins.AssertionError:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "    except Exception as e:\n"
        "        pass\n"
        "    except (ValueError, KeyError):\n"
        "        pass\n"
        "    except StructureError:\n"
        "        pass\n"
    )
    assert swallowing_handlers(tree) == [(None, 3), ("f", 8), ("f", 10), ("f", 12), ("f", 14)]
