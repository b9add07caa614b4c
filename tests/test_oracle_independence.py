"""``skewstone.laws`` is the independent oracle that replays a reported
(law, witness) pair on raw input data, so it must share no code with the
validators it checks: it imports nothing from the package."""

import ast
from pathlib import Path

import skewstone

LAWS = Path(skewstone.__file__).resolve().parent / "laws.py"


def package_imports(tree):
    """(line, module) of each import of the package, relative or absolute,
    at any depth of the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "skewstone":
                out.append((node.lineno, "." * node.level + (node.module or "")))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name.split(".")[0] == "skewstone"]
    return sorted(out)


def test_laws_imports_nothing_from_the_package():
    assert package_imports(ast.parse(LAWS.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_every_kind_of_package_import():
    tree = ast.parse(
        "import itertools\n"
        "from . import bset\n"
        "from .balg import meet\n"
        "import skewstone.skew\n"
        "def f():\n"
        "    from skewstone import etale\n"
        "from skewstones import x\n"
    )
    assert package_imports(tree) == [
        (2, "."), (3, ".balg"), (4, "skewstone.skew"), (6, "skewstone")]
