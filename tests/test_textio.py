from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import balg, bset, etale, skew, textio
from skewstone.errors import DuplicateName, ParseError, UnresolvedReference

DOCS = Path(__file__).resolve().parent.parent / "docs"

B4_TEXT = """\
balg B4 {
  elements: 0, a, b, 1
  leq: 0<=a, 0<=b, a<=1, b<=1
  bottom: 0
}
"""


def test_parse_balg_stanza():
    doc = textio.parse(B4_TEXT)
    assert len(doc.stanzas) == 1
    built = textio.build(doc)
    assert isinstance(built["B4"], balg.FinBooleanAlgebra)


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference) as e:
        textio.parse("bset P over Missing {\n  stalk 0: z\n}\n")
    assert e.value.name == "Missing"


def test_duplicate_name():
    with pytest.raises(DuplicateName):
        textio.parse(B4_TEXT + B4_TEXT)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        textio.parse("balg {\n}\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        textio.parse("balg B {\n  elements 0, 1\n}\n")
    assert e.value.line == 2


def test_forward_reference_rejected():
    text = """\
morphism m {
  from: A
  to: A
  map: 0->0
}
balg A {
  elements: 0
  leq:
  bottom: 0
}
"""
    with pytest.raises(UnresolvedReference):
        textio.parse(text)


def test_prod_fixture_file_round_trips():
    text = (DOCS / "prod.txt").read_text()
    doc = textio.parse(text)
    assert [s.kind for s in doc.stanzas] == ["balg", "bset"]
    printed = textio.print_document(doc)
    again = textio.parse(printed)
    assert textio.print_document(again) == printed
    built = textio.build(again)
    assert isinstance(built["Prod"], bset.BooleanSet)


def test_showcase_builds_every_kind():
    doc = textio.parse((DOCS / "showcase.txt").read_text())
    built = textio.build(doc)
    assert isinstance(built["X3s"], skew.SkewAlgebra)
    assert isinstance(built["Band3"], bset.RightNormalBand)
    assert isinstance(built["Efix"], etale.FinEtaleSpace)
    assert isinstance(built["collapse"], bset.BSetMorphism)
    assert isinstance(built["spread"], etale.RelationalMorphism)
    printed = textio.print_document(doc)
    assert textio.print_document(textio.parse(printed)) == printed


def old_split_top(value, sep=","):
    """The character loop _split_top replaced."""
    parts = []
    depth = 0
    buf = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if depth == 0 and value.startswith(sep, i):
            parts.append("".join(buf).strip())
            buf = []
            i += len(sep)
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf).strip())
    return parts


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="ab,()[]{}-> <=+ ", max_size=40),
       st.sampled_from([",", "->", "<=", "+"]))
def test_split_top_matches_character_loop(value, sep):
    # unbalanced and negative bracket depths included
    assert textio._split_top(value, sep) == old_split_top(value, sep)


@pytest.mark.parametrize("value, sep", [
    ("(a,b),c", ","), ("a),b,(c", ","), (")(,", ","), ("{a->b}->c", "->"),
    ("a-->b", "->"), ("a<=<=b", "<="), ("(a+b)+c+", "+"), ("", ","), ("[,]", ","),
])
def test_split_top_edge_cases(value, sep):
    assert textio._split_top(value, sep) == old_split_top(value, sep)


def test_bracketed_ids_survive():
    text = """\
balg B {
  elements: {}, {u}, {v}, {u,v}
  leq: {}<={u}, {}<={v}, {u}<={u,v}, {v}<={u,v}
  bottom: {}
}
"""
    doc = textio.parse(text)
    built = textio.build(doc)
    assert built["B"].top == "{u,v}"
    assert textio.print_document(textio.parse(textio.print_document(doc))) == \
        textio.print_document(doc)


def test_skew_table_header_order_free(x3_skew):
    # header may list elements in any order; the table is read relative to it
    text = """\
skew X {
  elements: 0, x1, x2
  zero: 0
  circ:
    x2 x1 0
    x2 x1 0
    x2 x1 0
    0 0 0
  bullet:
    0 x1 x2
    0 x1 x2
    x1 x1 x1
    x2 x2 x2
}
"""
    built = textio.build(textio.parse(text))
    assert skew.skew_struct_eq(built["X"], x3_skew)


def test_stanzas_from_objects_round_trip(prod, efix, x3_skew):
    s = textio.bset_stanza(prod, "P", "B")
    b = textio.balg_stanza(prod.base, "B")
    text = textio.print_stanza(b) + "\n" + textio.print_stanza(s)
    built = textio.build(textio.parse(text))
    assert bset.bset_struct_eq(built["P"], prod)

    e = textio.etale_stanza(efix, "E")
    built = textio.build(textio.parse(textio.print_stanza(e)))
    assert etale.etale_struct_eq(built["E"], efix)

    k = textio.skew_stanza(x3_skew, "S")
    built = textio.build(textio.parse(textio.print_stanza(k)))
    assert skew.skew_struct_eq(built["S"], x3_skew)


def test_law_raw_view():
    doc = textio.parse((DOCS / "prod.txt").read_text())
    raw = doc.law_raw("Prod")
    assert raw["kind"] == "bset"
    assert raw["base"]["kind"] == "balg"
    assert raw["stalks"]["a"] == ["a1", "a2"]
