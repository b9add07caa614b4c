"""Parsed and index table rows are read-only in ``skewstone``.

The parser gives identical table lines one shared index row, which the
built algebra keeps, and ``skew._as_index_table`` (for id tables),
``bset._skew_rows`` and ``textio.skew_stanza`` share a row between the
elements whose rows are equal.  An edit in place
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

A parsed skew document is built from its index rows as they are: no id
table is indexed (``skew._as_index_table`` is not called), one ∘ row
object per distinct table line reaches ``S.circ_t``, and ids are made only
for the law view, which holds element ids alone.
"""

import ast
from pathlib import Path

import skewstone
from skewstone import bset, skew, textio

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


# ------------------------------------------ parsed rows into the algebra

def table_lines(text, op):
    """The row lines of table ``op`` in a printed skew stanza."""
    lines = text.splitlines()
    at = lines.index(f"  {op}:") + 2  # after the header
    return lines[at:at + len(lines[at - 1].split())]


def test_a_parsed_skew_document_keeps_its_rows_into_the_algebra(monkeypatch):
    X = bset.generate_boolean_set((3, 3, 3, 3))
    text = textio.print_stanza(textio.skew_stanza(bset.to_skew(X), "G"))
    band_text = textio.print_stanza(textio.Stanza("skew", "B", None, {
        "elements": list(X.elements), "circ": bset.to_skew(X).circ_t}, 0))
    calls = []
    real = skew._as_index_table
    monkeypatch.setattr(skew, "_as_index_table", lambda *args: calls.append(args) or real(*args))
    doc = textio.parse(text + "\n" + band_text)
    built = textio.build(doc)
    S, band = built["G"], built["B"]
    assert calls == []
    data = doc.by_name["G"].data
    lines = table_lines(text, "circ")
    assert len(lines) == 256 and len(set(lines)) == 16
    # one row object per distinct line, the same object in the algebra
    assert len({(line, id(row)) for line, row in zip(lines, data["circ"])}) == 16
    assert [id(row) for row in S.circ_t] == [id(row) for row in data["circ"]]
    assert [id(row) for row in band.table] == [id(row) for row in doc.by_name["B"].data["circ"]]
    assert len({id(row) for row in band.table}) == 16
    assert S.bullet_t is data["bullet"] and len({id(row) for row in S.bullet_t}) == 256
    # the law view holds element ids only
    raw = doc.law_raw("G")
    ids = set(data["elements"])
    for op in ("circ", "bullet"):
        assert all(isinstance(row, list) and set(row) <= ids for row in raw[op])
        assert raw[op] == [row.split() for row in table_lines(text, op)]
