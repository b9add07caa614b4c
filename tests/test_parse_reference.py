"""The parser against its reference copy, ``textio_reference.parse``.

Identical table lines share one id list and bracketed values without
nesting are split in one pass; neither may change what a document parses
to.  ``Stanza.data`` (and each stanza's kind, name, base and line) must be
equal under ``==`` on ``docs/*.txt``, on every document that
``test_cli_pinned.py`` writes, and on ``gen`` and ``to-skew`` output for the
benchmark's shapes.  Diagnostics of malformed tables are pinned, message
and exit code.
"""

import contextlib
import io
from pathlib import Path

import pytest

from skewstone import cli, skew, textio

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


def assert_same_parse(text):
    got, want = textio.parse(text), ref.parse(text)
    assert [(s.kind, s.name, s.over, s.line) for s in got.stanzas] == \
        [(s.kind, s.name, s.over, s.line) for s in want.stanzas]
    for s, r in zip(got.stanzas, want.stanzas):
        assert s.data == r.data, s.name


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
BULLET = "  bullet:\n    0 x1 x2\n    0 x1 x2\n    x1 x1 x1\n    x2 x2 x2\n}\n"


@pytest.mark.parametrize("circ, out", [
    ("    0 x1 x2\n    0 0 0\n    0 x1 zz\n    0 x1 zz\n",
     "document error: skew X (line 1): circ entry 'zz' is not an element\n"),
    ("    0 x1 x2\n    0 0 0\n    0 x1\n    0 x1\n",
     "parse error: line 7, col 1: expected 3 entries in the row\n"),
    ("    0 0 0\n    0 x1 x2\n    0 x1 x2\n",
     "parse error: line 5, col 1: expected header row listing every element id\n"),
], ids=["repeated-row-non-element", "repeated-short-row", "missing-header"])
def test_malformed_table_diagnostics_are_unchanged(tmp_path, circ, out):
    path = tmp_path / "bad.txt"
    path.write_text(HEAD + circ + BULLET)
    assert run(["validate", str(path)]) == (2, out)


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
