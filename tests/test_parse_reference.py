"""The parser against its reference copy, ``textio_reference``.

The parser reads a skew stanza's ``circ:`` and ``bullet:`` tables straight
into index rows, one split per distinct line; the reference reads id rows,
and its build step indexes them with ``skew._as_index_table``.  On
``docs/*.txt``, on every document that ``test_cli_pinned.py`` writes, on
``gen`` and ``to-skew`` output for the benchmark's shapes, and on edge
cases of the table grammar, both sides must give every stanza the same
kind, name, base and line, the same data apart from the tables, the same
law view (``Document.law_raw``, whose skew tables are id rows), and build
it to the same tables, or raise the same error type with the same message,
which the CLI prints as the same line with the same exit code.
Diagnostics of malformed tables are pinned, message and exit code.
"""

import contextlib
import io
from pathlib import Path

import pytest

from skewstone import bset, cli, skew, textio
from skewstone.errors import ParseError

import test_cli_pinned
import textio_reference as ref

DOCS = Path(__file__).resolve().parent.parent / "docs"
# the shapes of the benchmark's deep and wide instances, 27 to 256 elements
SHAPES = [(2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2), (2, 2, 2, 5), (3, 3, 3, 3), (1,) * 7]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def outcome(fn, *args):
    """("ok", fn(*args)), or the type and text of what it raises."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def ref_law_raw(s):
    """``law_raw`` of a reference stanza, whose tables are id rows already."""
    d = s.data
    return {"kind": "skew", "elements": d["elements"], "zero": d.get("zero"),
            "circ": d["circ"], "bullet": d.get("bullet")}


def built_view(obj):
    if isinstance(obj, skew.SkewAlgebra):
        return obj.elements, obj.circ_t, obj.bullet_t, obj.zero
    if isinstance(obj, bset.RightNormalBand):
        return obj.elements, obj.table
    return type(obj)


def build_views(doc, build_one):
    """Each stanza's built view or error, in order; a stanza whose
    dependency failed is skipped, as ``validate`` skips it."""
    built, out = {}, []
    for s in doc.stanzas:
        if textio.dependencies(s) - set(built):
            out.append("skipped")
            continue
        got = outcome(build_one, s, built)
        if got[0] == "ok":
            built[s.name] = got[1]
            got = ("ok", built_view(got[1]))
        out.append(got)
    return out


def assert_same_parse(text):
    """Both readers give ``text`` the same stanzas, law views and built
    tables, or the same error; returns the new reader's outcome."""
    got, want = outcome(textio.parse, text), outcome(ref.parse, text)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return got
    doc, rdoc = got[1], want[1]
    assert [(s.kind, s.name, s.over, s.line) for s in doc.stanzas] == \
        [(s.kind, s.name, s.over, s.line) for s in rdoc.stanzas]
    for s, r in zip(doc.stanzas, rdoc.stanzas):
        if s.kind != "skew":
            assert s.data == r.data, s.name
            continue
        tables = ("circ", "bullet")
        assert {k: v for k, v in s.data.items() if k not in tables} == \
            {k: v for k, v in r.data.items() if k not in tables}, s.name
        assert outcome(doc.law_raw, s.name) == outcome(ref_law_raw, r), s.name
    assert build_views(doc, textio._build_one) == build_views(rdoc, ref._build_one)
    return got


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.txt")), ids=lambda p: p.name)
def test_docs_parse_as_before(path):
    assert_same_parse(path.read_text())


def test_pinned_documents_parse_as_before(tmp_path):
    names = test_cli_pinned.write_documents(tmp_path)
    assert len(names) > 20
    for fname in names:
        assert_same_parse((tmp_path / fname).read_text())


@pytest.mark.parametrize("sizes", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_generated_documents_parse_as_before(tmp_path, sizes):
    code, gen = run(["gen", "--atoms", str(len(sizes)), "--stalks", ",".join(map(str, sizes)),
                     "--seed", "3"])
    assert code == 0
    assert_same_parse(gen)
    path = tmp_path / "gen.txt"
    path.write_text(gen)
    code, skew_doc = run(["to-skew", str(path), "G"])
    assert code == 0
    assert_same_parse(skew_doc)


def test_identical_table_lines_share_one_list():
    doc = textio.parse((DOCS / "showcase.txt").read_text())
    circ = doc.by_name["X3s"].data["circ"]
    assert circ[1] is circ[2] and circ[0] is not circ[1]
    S = textio.build(doc)["X3s"]
    assert S.circ_t[1] is S.circ_t[2] and S.circ_t[0] is not S.circ_t[1]


HEAD = "skew X {\n  elements: 0, x1, x2\n  zero: 0\n  circ:\n"
CIRC = "    0 x1 x2\n    0 0 0\n    0 x1 x2\n    0 x1 x2\n"
BULLET = "  bullet:\n    0 x1 x2\n    0 x1 x2\n    x1 x1 x1\n    x2 x2 x2\n}\n"
X3 = HEAD + CIRC + BULLET


def edit(text, old, new, count=1):
    assert old in text
    return text.replace(old, new, count)


# (id, document): each a valid X3 decorated, or X3 with one malformed table
EDGE_CASES = [
    ("trailing-comment", edit(X3, "    0 0 0\n", "    0 0 0   # the zero row\n")),
    ("comment-in-header", edit(X3, "circ:\n    0 x1 x2\n", "circ:\n    0 x1 x2 # header\n")),
    ("comment-and-blank-lines", edit(X3, "    0 0 0\n", "    # rows\n\n    0 0 0\n  \t \n")),
    ("tabs", X3.replace("    0 x1 x2\n", "\t0\tx1 \t x2\n")),
    ("crlf", X3.replace("\n", "\r\n")),
    ("tabs-and-crlf", X3.replace(" x", "\tx").replace("\n", "\r\n")),
    ("header-order", edit(X3, "circ:\n" + CIRC, "circ:\n    x2 0 x1\n    x2 0 x1\n"
                                                   "    0 0 0\n    x2 0 x1\n")),
    ("header-order-bullet", edit(X3, "bullet:\n    0 x1 x2\n    0 x1 x2\n    x1 x1 x1\n"
                                     "    x2 x2 x2\n", "bullet:\n    x1 x2 0\n    x1 x1 x1\n"
                                                      "    x2 x2 x2\n    x1 x2 0\n")),
    ("tables-before-elements", edit(X3, "  elements: 0, x1, x2\n", "").replace(
        "}\n", "  elements: 0, x1, x2\n}\n")),
    ("unknown-entry-in-repeated-row", edit(X3, CIRC, "    0 x1 x2\n    0 0 0\n"
                                                     "    0 x1 zz\n    0 x1 zz\n")),
    ("unknown-entries-first-in-element-order",
     edit(X3, "circ:\n" + CIRC, "circ:\n    x2 0 x1\n    yy 0 x1\n    0 0 0\n"
                                "    x2 zz x1\n")),
    ("unknown-entry-in-bullet", edit(X3, "    x1 x1 x1\n", "    x1 x1 qq\n")),
    ("unknown-entries-in-both", edit(edit(X3, "    x1 x1 x1\n", "    x1 x1 qq\n"),
                                     "    0 0 0\n", "    0 0 zz\n")),
    ("unknown-entry-of-a-band", edit(X3, BULLET, "}\n").replace("    0 0 0\n", "    0 zz 0\n")),
    ("unknown-entry-and-duplicate-id", edit(X3.replace("x2", "x1"), "    0 0 0\n",
                                            "    0 zz 0\n")),
    ("unknown-entry-and-stray-zero", edit(edit(X3, "zero: 0", "zero: q"), "    0 0 0\n",
                                          "    0 zz 0\n")),
    ("duplicate-id-and-stray-zero", edit(X3.replace("x2", "x1"), "zero: 0", "zero: q")),
    ("duplicate-id-and-no-zero", edit(X3.replace("x2", "x1"), "  zero: 0\n", "")),
    ("short-row", edit(X3, "    0 0 0\n", "    0 0\n")),
    ("long-row", edit(X3, "    0 0 0\n", "    0 0 0 0\n")),
    ("missing-row", edit(X3, "    0 0 0\n", "")),
    ("extra-row", edit(X3, "    0 0 0\n", "    0 0 0\n    0 0 0\n")),
    ("missing-bullet-rows", edit(X3, BULLET, "  bullet:\n}\n")),
    ("brace-row", edit(X3, "    0 0 0\n", "    } x\n")),
    ("brace-entry", edit(X3, "    0 0 0\n", "    } 0 0\n")),
    ("bad-header", edit(X3, "circ:\n    0 x1 x2\n", "circ:\n    0 x1 zz\n")),
    ("duplicate-elements", "skew D {\n  elements: a, a\n  zero: a\n  circ:\n    a a\n"
                           "    a b\n    c d\n}\n"),
    ("not-a-skew-algebra", edit(X3, "    x1 x1 x1\n", "    x1 x1 x2\n")),
    ("no-zero", edit(X3, "  zero: 0\n", "")),
]


@pytest.mark.parametrize("text", [t for _, t in EDGE_CASES], ids=[i for i, _ in EDGE_CASES])
def test_table_edge_cases_parse_and_build_as_before(text):
    assert_same_parse(text)


def test_edge_cases_reach_every_table_branch():
    # the decorated X3 parses and builds; each malformed one is refused
    outcomes = {}
    for case, text in EDGE_CASES:
        got = outcome(textio.parse, text)
        if got[0] == "ok":
            got = build_views(got[1], textio._build_one)[0]
        outcomes[case] = got
    valid = [c for c, got in outcomes.items() if got[0] == "ok"]
    assert valid == [c for c, _ in EDGE_CASES[:9]]
    assert outcomes["unknown-entries-first-in-element-order"] == (
        ValueError, "skew X (line 1): circ entry 'zz' is not an element")
    assert outcomes["unknown-entries-in-both"][1].endswith("circ entry 'zz' is not an element")
    assert outcomes["unknown-entry-and-duplicate-id"][1].endswith("duplicate element id 'x1'")
    assert outcomes["unknown-entry-and-stray-zero"][1].endswith("zero 'q' is not an element")
    assert outcomes["duplicate-id-and-stray-zero"][1].endswith("duplicate element id 'x1'")
    assert outcomes["duplicate-id-and-no-zero"][1].endswith(
        "'zero:' in a skew stanza with both tables")
    assert outcomes["brace-entry"][1].endswith("circ entry '}' is not an element")


@pytest.mark.parametrize("head, circ, out", [
    (HEAD, "    0 x1 x2\n    0 0 0\n    0 x1 zz\n    0 x1 zz\n",
     "document error: skew X (line 1): circ entry 'zz' is not an element\n"),
    (HEAD, "    0 x1 x2\n    0 0 0\n    0 x1\n    0 x1\n",
     "parse error: line 7, col 1: expected 3 entries in the row\n"),
    (HEAD, "    0 0 0\n    0 x1 x2\n    0 x1 x2\n",
     "parse error: line 5, col 1: expected header row listing every element id\n"),
    (HEAD.replace("  elements: 0, x1, x2\n", ""), CIRC,
     "parse error: line 1, col 1: expected 'elements:' in skew stanza X\n"),
], ids=["repeated-row-non-element", "repeated-short-row", "missing-header", "missing-elements"])
def test_malformed_table_diagnostics_are_unchanged(tmp_path, head, circ, out):
    path = tmp_path / "bad.txt"
    path.write_text(head + circ + BULLET)
    assert run(["validate", str(path)]) == (2, out)


def test_a_missing_elements_key_is_named_whatever_the_tables():
    # the parser names the key the build step would, at the stanza line;
    # without tables the build step names it as before
    no_elements = HEAD.replace("  elements: 0, x1, x2\n", "")
    for text in (no_elements + CIRC + "}\n", no_elements + CIRC + BULLET,
                 no_elements + "    0 x1 x2\n  bullet:\n    0 x1 x2\n}\n"):
        err = outcome(textio.parse, text)
        assert err == (ParseError, "line 1, col 1: expected 'elements:' in skew stanza X")
    doc = textio.parse("skew X {\n  zero: 0\n}\n")
    assert outcome(textio.build, doc)[1] == "line 1, col 1: expected 'elements:' in skew stanza X"
    # a table without rows is named first, as before
    assert outcome(textio.parse, "skew X {\n  circ:\n}\n")[1] == \
        "line 2, col 1: expected table rows after 'circ:'"


def test_a_non_element_entry_is_kept_on_its_table():
    # the stanza's data holds only its keys; the table names the entry
    doc = textio.parse(dict(EDGE_CASES)["unknown-entry-in-bullet"])
    s = doc.by_name["X"]
    assert set(s.data) == {"elements", "zero", "circ", "bullet"}
    assert s.data["bullet"].stray == "qq" and not hasattr(s.data["circ"], "stray")
    assert doc.law_raw("X")["bullet"][1] == ["x1", "x1", "qq"]
    assert "    x1 x1 qq" in textio.print_stanza(s).splitlines()


def test_a_hand_built_stanza_with_id_tables_is_refused_alike():
    # tables of ids, the shape before index rows: the build step, law_raw
    # and print_stanza raise one ValueError, which the build names a
    # document error
    ids = {"elements": ["0", "x1", "x2"], "zero": "0",
           "circ": [["0", "0", "0"], ["0", "x1", "x2"], ["0", "x1", "x2"]],
           "bullet": [["0", "x1", "x2"], ["x1"] * 3, ["x2"] * 3]}
    msg = "circ entry '0' is not an element position: the tables of a skew stanza are index rows"
    for data in (ids, {k: v for k, v in ids.items() if k != "bullet"}):
        s = textio.Stanza("skew", "X", None, data, 1)
        doc = textio.Document([s])
        assert outcome(textio.build, doc) == (ValueError, f"skew X (line 1): {msg}")
        assert outcome(doc.law_raw, "X") == (ValueError, msg)
        assert outcome(textio.print_stanza, s) == (ValueError, msg)
    # an index table with an id in a later row is refused by law_raw too
    circ = [[0, 0, 0], [0, 1, 2], [0, "x1", 2]]
    doc = textio.Document([textio.Stanza("skew", "X", None, {**ids, "circ": circ}, 1)])
    assert outcome(doc.law_raw, "X") == (ValueError, msg.replace("'0'", "'x1'"))


def test_index_tables_check_every_row_and_name_the_first_bad_one():
    # rows that share one list are translated once, yet each is checked
    els = ["0", "x1", "x2"]
    good, short, stray = ["0", "x1", "x2"], ["0", "x1"], ["0", "x1", "zz"]
    bullet = [good, ["x1", "x1", "x1"], ["x2", "x2", "x2"]]
    with pytest.raises(ValueError, match="^circ row 'x1' needs 3 entries$"):
        skew.validate_skew(els, [["0", "0", "0"], short, short], bullet, "0")
    with pytest.raises(ValueError, match="^circ row 'x2' needs 3 entries$"):
        skew.validate_skew(els, [good, good, short], bullet, "0")
    with pytest.raises(ValueError, match="^circ entry 'zz' is not an element$"):
        skew.validate_skew(els, [stray, short, short], bullet, "0")
