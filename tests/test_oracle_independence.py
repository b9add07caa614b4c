"""``skewstone.laws`` is the independent oracle that replays a reported
(law, witness) pair on raw input data, so it must share no code with the
validators it checks: it imports nothing from the package.  The reference
modules of the tests (``tests/*_reference.py``) are a second route to what
the package computes, so they neither read a Boolean set's atom
coordinates or a Boolean algebra's Stone code nor call the private kernels
of ``skewstone.bset`` and ``skewstone.balg`` that compute them or read
tables off them."""

import ast
from pathlib import Path

import skewstone
from skewstone import balg, bset

LAWS = Path(skewstone.__file__).resolve().parent / "laws.py"
REFERENCES = sorted(Path(__file__).resolve().parent.glob("*_reference.py"))

# a Boolean set's stored coordinates and a Boolean algebra's Stone code,
# and the bset and balg functions that compute them or build rows from them
COORDINATES = {"_coords", "_code", "_pos"}
KERNELS = {"_coordinates", "_presheaf_coordinates", "_skew_certificate", "_coded_rows",
           "_skew_rows", "_coded_map", "_meet_table"}
BALG_KERNELS = {"_stone_code"}


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


def coordinate_reads(tree):
    """(line, name) of each read of the atom coordinates and each use of a
    coordinate or row kernel, as an attribute, a bare name or an import."""
    out = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in COORDINATES | KERNELS | BALG_KERNELS:
            out.append((node.lineno, name))
    return sorted(out)


def test_references_read_no_atom_coordinates_or_kernels():
    assert len(REFERENCES) >= 6
    assert all(callable(getattr(bset, name)) for name in KERNELS)
    assert all(callable(getattr(balg, name)) for name in BALG_KERNELS)
    for path in REFERENCES:
        assert coordinate_reads(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_the_reference_scan_sees_a_planted_kernel_call():
    text = REFERENCES[0].read_text(encoding="utf-8")
    end = len(text.splitlines())
    planted = text + ("\ndef planted(X):\n    return bset._skew_rows(X), X._coords\n"
                      "from skewstone.bset import _coordinates\n"
                      "def planted_stone(B):\n    return B._pos[B._code[0]], _pos\n"
                      "from skewstone.balg import _stone_code\n")
    assert coordinate_reads(ast.parse(planted)) == [
        (end + 3, "_coords"), (end + 3, "_skew_rows"), (end + 4, "_coordinates"),
        (end + 6, "_code"), (end + 6, "_pos"), (end + 6, "_pos"), (end + 7, "_stone_code")]
