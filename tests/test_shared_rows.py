"""Parsed and index table rows are read-only in ``skewstone``.

The parser gives identical table lines one shared id list, and
``skew._as_index_table``, ``bset._skew_rows`` and ``textio.skew_stanza``
share a row between the elements whose rows are equal.  An edit in place
would silently change every row that shares the list, so this AST scan
refuses, anywhere in the package:

* a subscript assignment or deletion two levels into a table, such as
  ``circ[i][j] = v`` or ``S.circ_t[i][j] += 1`` (a table is a name or
  attribute in ``TABLES``, or a ``data[key]`` entry of a stanza);
* a subscript assignment, a deletion or a mutating list method on a row:
  a name bound by a ``for`` loop over a table, or to ``table[i]``, and
  every name ``row``.

Tests copy a row before they edit it.  ``bset._row_classes`` converts each
shared row object once; its classes must not depend on the sharing.
"""

import ast
from pathlib import Path

import skewstone
from skewstone import bset

PACKAGE = Path(skewstone.__file__).resolve().parent
TABLES = {"circ", "bullet", "circ_t", "bullet_t", "circ_table", "bullet_table", "table",
          "rows", "t"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear"}


def chain(node):
    """The root of a subscript chain and its number of subscripts."""
    depth = 0
    while isinstance(node, ast.Subscript):
        node, depth = node.value, depth + 1
    return node, depth


def name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_table(node):
    """A table: a name or attribute in TABLES, or ``data[key]``."""
    root, depth = chain(node)
    return (depth == 0 and name_of(root) in TABLES) or (depth == 1 and name_of(root) == "data")


def row_names(func):
    """Names bound to a table row in the function: ``for`` targets over an
    expression that reads a table, and names assigned ``table[i]``."""
    names = {"row"}
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.comprehension)):
            if any(is_table(n) for n in ast.walk(node.iter)):
                names.update(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript):
            if is_table(node.value.value):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def row_edits(tree):
    """(line, source) of each in-place edit of a table row."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        rows = row_names(func)

        def is_row(node):
            return (isinstance(node, ast.Name) and node.id in rows) or (
                isinstance(node, ast.Subscript) and is_table(node.value))

        for node in ast.walk(func):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and is_row(node.func.value)):
                out.append((node.lineno, ast.unparse(node)))
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript) and is_row(sub.value):
                        out.append((node.lineno, ast.unparse(sub)))
    return sorted(set(out))


def test_the_package_edits_no_table_row_in_place():
    found = {path.name: row_edits(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: edits for name, edits in found.items() if edits} == {}


def test_the_scan_sees_every_kind_of_row_edit():
    tree = ast.parse(
        "def f(S, circ, table, data, rows, meet, op, i, j, v):\n"
        "    circ[i][j] = v\n"
        "    S.bullet_t[i][j] += 1\n"
        "    data[op][i][j] = v\n"
        "    for row in table:\n"
        "        row[j] = v\n"
        "    for k, r in enumerate(circ):\n"
        "        del r[j]\n"
        "    ti = table[i]\n"
        "    ti[j], x = v, v\n"
        "    circ[i].append(v)\n"
        "    ti.sort()\n"
        "    rows[i] = [v]\n"
        "    meet[i][j] = v\n"
        "    rows.append([v])\n"
        "    other = list(table[i])\n"
        "    other[j] = v\n"
    )
    assert [line for line, _ in row_edits(tree)] == [2, 3, 4, 6, 8, 10, 11, 12]


# ------------------------------------------------- classes of shared rows

def old_row_classes(elements, table):
    class_of_row, cls_idx, reps = {}, [], []
    for i, row in enumerate(map(tuple, table)):
        c = class_of_row.setdefault(row, len(reps))
        if c == len(reps):
            reps.append(i)
        cls_idx.append(c)
    return cls_idx, reps, [f"[{elements[r]}]" for r in reps]


def test_row_classes_are_the_same_for_shared_and_distinct_equal_rows():
    for sizes in [(1,), (2, 3), (3, 1, 2), (2, 2, 2)]:
        S = bset.to_skew(bset.generate_boolean_set(sizes, seed=2))
        shared = S.circ_t
        assert len({id(r) for r in shared}) == len(set(map(tuple, shared)))  # one per R class
        distinct = [list(r) for r in shared]  # equal contents, distinct lists
        mixed = [list(r) if i % 2 else r for i, r in enumerate(shared)]
        want = old_row_classes(S.elements, shared)
        for table in (shared, distinct, mixed):
            assert bset._row_classes(S.elements, table) == want
