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


def test_blank_and_comment_lines_inside_a_body_are_skipped():
    # a blank line and a comment-only one after every body line, table rows
    # included; they shift the later header lines, the only line numbers a
    # Document keeps, so the view leaves those out and a one-stanza
    # document is compared whole
    def view(doc):
        return [(s.kind, s.name, s.over, s.data) for s in doc.stanzas]
    for path in sorted(DOCS.glob("*.txt")):
        text = path.read_text()
        padded = "".join(line + ("\n   # note\n" if line.startswith(" ") else "")
                         for line in text.splitlines(keepends=True))
        assert padded.count("# note") > 10
        assert view(textio.parse(padded)) == view(textio.parse(text))
    one = "skew S {\n  elements: p\n  circ:\n    p\n    p\n}\n"
    padded = one.replace("\n    p\n", "\n\n    p\n  # row\n\n")
    assert textio.parse(padded) == textio.parse(one)


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


SEPS = st.sampled_from([",", "->", "<=", "+"])


def nested_ids():
    """Ids nested 0, 1 and 2 brackets deep: plain ones, and one or two inner ids
    joined by a separator inside a pair of brackets, of one kind or (as the
    depth count allows) two; at depth 2 one of the inner ids is plain."""
    plain = ["", "a", "b1", " a"]
    seps = [",", "->", "<=", "+"]
    brackets = ["()", "[]", "{}", "(]"]

    def wrap(pairs):
        return [br[0] + sep.join(ids) + br[1] for br in brackets for sep in seps for ids in pairs]

    one = wrap([[]] + [[x] for x in plain] + [[x, y] for x in plain for y in plain])
    two = wrap([[x] for x in one] + [p for x in one for y in plain for p in ([x, y], [y, x])])
    return plain, one, two


def bracketed_lists():
    """Long lists of ids nested 0 to 2 deep, joined by one separator: random
    text rarely spells these.  Half the lists nest no bracket in another."""
    plain, one, two = nested_ids()
    ids = st.one_of(st.lists(st.sampled_from(plain + one), max_size=12),
                    st.lists(st.sampled_from(plain + one + two), max_size=12))
    return st.builds(lambda ids, sep: sep.join(ids), ids, SEPS)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(alphabet="ab,()[]{}-> <=+ ", max_size=40), bracketed_lists()), SEPS)
def test_split_top_matches_character_loop(value, sep):
    # unbalanced and negative bracket depths included
    assert textio._split_top(value, sep) == old_split_top(value, sep)


@pytest.mark.parametrize("value, sep", [
    ("(a,b),c", ","), ("a),b,(c", ","), (")(,", ","), ("{a->b}->c", "->"),
    ("a-->b", "->"), ("a<=<=b", "<="), ("(a+b)+c+", "+"), ("", ","), ("[,]", ","),
    # runs of 127 and 129 characters between brackets: one pass, then the merge loop
    ("(a,b)" + ",c" * 63 + ",(d,e),f", ","), ("(a,b)" + ",c" * 64 + ",(d,e),f", ","),
    ("(" + "a+" * 64 + "b)+c", "+"),
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
    E = built["E"]
    assert (set(E.total), set(E.base), E.proj) == (set(efix.total), set(efix.base), efix.proj)

    k = textio.skew_stanza(x3_skew, "S")
    built = textio.build(textio.parse(textio.print_stanza(k)))
    assert skew.skew_struct_eq(built["S"], x3_skew)


def test_law_raw_view():
    doc = textio.parse((DOCS / "prod.txt").read_text())
    raw = doc.law_raw("Prod")
    assert raw["kind"] == "bset"
    assert raw["base"]["kind"] == "balg"
    assert raw["stalks"]["a"] == ["a1", "a2"]


B2_HEAD = """\
balg B2 {
  elements: 0, 1
  leq: 0<=1
  bottom: 0
}
"""


@pytest.mark.parametrize("text, line, col, expected", [
    # a second stalk line for the same base element
    (B2_HEAD + "bset P over B2 {\n  stalk 0: z\n  stalk 1: p\n  stalk 1: p, q\n"
     "  restrict 1 -> 0: p->z, q->z\n}\n", 9, 3, "one 'stalk 1' line in a bset stanza"),
    (B2_HEAD + "bset P over B2 {\n  stalk 0: z\n  stalk 1: p\n  restrict 1 -> 0: p->z\n"
     "  restrict 1 -> 0: p->z\n}\n", 10, 3, "one 'restrict 1 -> 0' line in a bset stanza"),
    ("skew X {\n  elements: 0, x\n  zero: x\n  zero: 0\n}\n", 4, 3,
     "one 'zero' line in a skew stanza"),
    ("balg B {\n  elements: 0\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n", 3, 3,
     "one 'elements' line in a balg stanza"),
    (B2_HEAD.replace("  bottom: 0\n", "  bottom: 1\n  bottom: 0\n"), 5, 3,
     "one 'bottom' line in a balg stanza"),
    (B2_HEAD.replace("  leq: 0<=1\n", "  leq: 0<=1\n  leq: 0<=1\n"), 4, 3,
     "one 'leq' line in a balg stanza"),
], ids=["stalk", "restrict", "zero", "elements", "bottom", "leq"])
def test_a_repeated_key_is_refused_at_its_line(text, line, col, expected):
    with pytest.raises(ParseError) as e:
        textio.parse(text)
    assert (e.value.line, e.value.col, e.value.expected) == (line, col, expected)


X3_MORPHISM = """\
skew X {
  elements: 0, x1, x2
  zero: 0
  circ:
    0 x1 x2
    0 0 0
    0 x1 x2
    0 x1 x2
  bullet:
    0 x1 x2
    0 x1 x2
    x1 x1 x1
    x2 x2 x2
}
morphism m {
  from: X
  to: X
  map: 0->0, x1->x2, x1->x1, x2->x2
}
"""


@pytest.mark.parametrize("text, line, expected", [
    (X3_MORPHISM, 18, "one entry for 'x1' in 'map:'"),
    (B2_HEAD + "morphism h {\n  from: B2\n  to: B2\n  map: 0->0, 1->1, 0->1\n}\n", 9,
     "one entry for '0' in 'map:'"),
    (B2_HEAD + "bset P over B2 {\n  stalk 0: z\n  stalk 1: p\n  restrict 1 -> 0: p->z, p->z\n"
     "}\n", 9, "one entry for 'p' in 'restrict 1 -> 0:'"),
    ("etale E {\n  total: e1, e2\n  base: u\n  proj: e1->u, e2->u, e1->u\n}\n", 4,
     "one entry for 'e1' in 'proj:'"),
    ("etale E {\n  total: e1\n  base: u\n  proj: e1->u\n}\n"
     "etale F {\n  total: f1\n  base: w\n  proj: f1->w\n}\n"
     "relmor r {\n  from: E\n  to: F\n  phi: u->f1, u->\n  phibar: w->u\n}\n", 14,
     "one entry for 'u' in 'phi:'"),
    ("etale E {\n  total: e1\n  base: u\n  proj: e1->u\n}\n"
     "etale F {\n  total: f1\n  base: w\n  proj: f1->w\n}\n"
     "relmor r {\n  from: E\n  to: F\n  phi: u->f1\n  phibar: w->u, w->zz\n}\n", 15,
     "one entry for 'w' in 'phibar:'"),
], ids=["skew-map", "balg-map", "restrict", "proj", "phi", "phibar"])
def test_a_repeated_left_hand_id_is_refused_at_its_line(text, line, expected):
    with pytest.raises(ParseError) as e:
        textio.parse(text)
    assert (e.value.line, e.value.col, e.value.expected) == (line, 1, expected)


def test_repeated_leq_pairs_are_one_relation():
    doc = textio.parse(B2_HEAD.replace("leq: 0<=1", "leq: 0<=1, 0<=1, 0<=0"))
    assert textio.build(doc)["B2"].cover_pairs == (("1", "0"),)
