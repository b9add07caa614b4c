"""Fuzzed skew tables through the reader, ``validate`` and ``replay``.

Skew algebras and bands of small Boolean sets (``to_skew``, 2 to 8
elements) are written out with their tables decorated: a header in another
order, comments after rows, comment-only and blank lines inside a table,
tabs and runs of blanks between entries, CRLF line ends, the tables before
``elements:``.  Up to two edits are made: an entry set to another element
or to an id that is not one, a token dropped or added, a row dropped,
repeated or replaced by ``} x``, the ``elements:`` or ``zero:`` line
dropped.  Every document must parse and build as the reference reader
does (``test_parse_reference.assert_same_parse``); without ``elements:``
the reader names that key at the stanza line instead of a bad header.
``validate`` and ``replay`` on the document must print one line and exit
with 0, 1 or 2, never a traceback.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import bset, cli, laws, textio

from test_parse_reference import assert_same_parse

SHAPES = [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]
ALGEBRAS = [textio.Document([textio.skew_stanza(bset.to_skew(bset.generate_boolean_set(s)),
                                                "M")]).law_raw("M") for s in SHAPES]
JUNK = ["zz", "}", "{", "(q,r)", "0x"]
# an entry edit most often, as it keeps the tables' shape
EDITS = ["entry"] * 4 + ["junk"] * 2 + [
    "drop-token", "add-token", "drop-row", "repeat-row", "brace-row"]


def table_lines(draw, els, rows):
    """A header in element order or another, then the rows in its order."""
    table = {x: dict(zip(els, row)) for x, row in zip(els, rows)}
    order = draw(st.permutations(els)) if draw(st.booleans()) else list(els)
    return [list(order)] + [[table[x][y] for y in order] for x in order]


def edit_table(draw, lines, els):
    """One edit of a table's rows (never its header); none when the row
    drawn is empty or there is none."""
    rows = lines[1:]
    r = draw(st.integers(0, max(len(rows) - 1, 0)))
    row = list(rows[r]) if rows else []
    if not row:
        return lines
    j = draw(st.integers(0, len(row) - 1))
    kind = draw(st.sampled_from(EDITS))
    if kind == "entry":
        row[j] = draw(st.sampled_from(els))
    elif kind == "junk":
        row[j] = draw(st.sampled_from(JUNK))
    elif kind == "drop-token":
        del row[j]
    elif kind == "add-token":
        row.insert(j, draw(st.sampled_from(els)))
    elif kind == "brace-row":
        row = ["}", "x"]
    if kind == "drop-row":
        del rows[r]
    elif kind == "repeat-row":
        rows.insert(r, row)
    else:
        rows[r] = row
    return [lines[0]] + rows


@st.composite
def documents(draw):
    """(text, whether "elements:" is dropped) of one fuzzed skew stanza."""
    raw = draw(st.sampled_from(ALGEBRAS))
    els = raw["elements"]
    ops = ["circ"] if draw(st.booleans()) else ["circ", "bullet"]
    tables = {op: table_lines(draw, els, raw[op]) for op in ops}
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(ops))
        tables[op] = edit_table(draw, tables[op], els)
    no_elements = draw(st.integers(0, 7)) == 0
    keys = [] if no_elements else [f"  elements: {', '.join(els)}"]
    if len(ops) == 2 and draw(st.integers(0, 7)):
        keys.append(f"  zero: {raw['zero']}")
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    indent = draw(st.sampled_from(["    ", "\t", " "]))
    body = []
    for op in ops:
        body.append(f"  {op}:")
        for toks in tables[op]:
            line = indent + sep.join(toks)
            extra = draw(st.sampled_from(["", "", "", "  # note", "#", "  # a: b"]))
            body.append(line + extra)
            if draw(st.integers(0, 9)) == 0:
                body.append(draw(st.sampled_from(["", "   ", "  # comment", "\t"])))
    body = body + keys if draw(st.booleans()) else keys + body
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(["skew M {", *body, "}", ""]), no_elements


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_fuzzed_tables_read_validate_and_replay_in_one_line(tmp_path):
    path = tmp_path / "fuzz.txt"
    skew_laws = sorted(law for law in laws.LAWS if law.startswith(("band.", "skew.")))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(documents(), st.sampled_from(skew_laws),
           st.lists(st.sampled_from(["0", "a1", "zz"]), min_size=1, max_size=3))
    def check(doc, law, witness):
        text, no_elements = doc
        path.write_bytes(text.encode())
        code, out = run(["validate", str(path)])
        assert code in (0, 1, 2) and out.count("\n") == 1 and out.endswith("\n"), (text, out)
        if no_elements:
            assert (code, out) == (
                2, "parse error: line 1, col 1: expected 'elements:' in skew stanza M\n"), text
        else:
            assert_same_parse(text)
        code, out = run(["replay", str(path), "M", "--law", law, "--witness", ",".join(witness)])
        assert code in (0, 1, 2) and out.count("\n") == 1 and out.endswith("\n"), (text, out)

    check()
