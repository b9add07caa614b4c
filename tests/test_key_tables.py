"""The key tables of ``textio`` against the per-kind code they replaced.

``textio`` states each stanza kind's keys once: an ordered key tuple (also
the print order), a required-key tuple checked when a stanza is built, the
endpoint kinds of the two morphism kinds, and a reader and a writer per
plain key.  ``textio_reference`` keeps the if-chains that stated them
before.  On every document here both must parse to the same ``Document``
(or raise the same error at the same line and column), a skew stanza's
index rows read as the reference's id rows (``as_ids``), build to the same
outcome and print the same bytes: ``docs/*.txt``, the documents the CLI
writes (``gen``, ``to-skew``, ``to-bset``, ``dualize`` of a Boolean set and
of an etale space), generated stanzas of all six kinds, and malformed key
lines.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import textio
from skewstone.errors import ParseError

import test_cli_pinned
import textio_reference as ref

DOCS = Path(__file__).resolve().parent.parent / "docs"
RECORDED = Path(__file__).resolve().parent / "cli_pinned.json"


def outcome(fn, *args):
    """fn(*args), or the type, text and position of what it raises: both
    sides of the comparison may raise anything, and must raise alike."""
    try:
        return fn(*args)
    except Exception as e:  # compared, not handled
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def as_ids(s):
    """Stanza ``s`` with its skew tables as id rows, the data the reference
    reads and prints; other stanzas as they are."""
    if s.kind != "skew":
        return s
    els = s.data.get("elements")
    data = {k: textio._id_rows(els, v, k) if k in ("circ", "bullet") else v
            for k, v in s.data.items()}
    return textio.Stanza(s.kind, s.name, s.over, data, s.line)


def shape(doc, view=lambda s: s):
    if not isinstance(doc, textio.Document):
        return doc
    return [(s.kind, s.name, s.over, s.line, view(s).data) for s in doc.stanzas]


def built_kinds(built):
    return built if not isinstance(built, dict) else {k: type(v) for k, v in built.items()}


def assert_same(text):
    """Both sides parse, build and print ``text`` alike; returns the parse."""
    got, want = outcome(textio.parse, text), outcome(ref.parse, text)
    assert shape(got, as_ids) == shape(want)
    if not isinstance(got, textio.Document):
        return got
    assert built_kinds(outcome(textio.build, got)) == built_kinds(outcome(ref.build, want))
    for s in got.stanzas:
        printed = outcome(ref.print_stanza, as_ids(s))
        if outcome(textio.print_stanza, s) != printed:
            # the old printer raised KeyError on a stanza without a key its
            # kind needs to be built; the key tables leave the key out
            assert printed[0] is KeyError, s.name
            assert outcome(textio._build_stanza, s, {})[0] is ParseError, s.name
    return got


def assert_prints_back(text):
    """``text`` is a document the printer wrote: printing its parse gives it
    back, on both sides."""
    doc = assert_same(text)
    assert "".join(textio.print_stanza(s) + "\n" for s in doc.stanzas) == text


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.txt")), ids=lambda p: p.name)
def test_docs(path):
    doc = assert_same(path.read_text())
    assert isinstance(doc, textio.Document)


def test_documents_the_cli_writes(tmp_path):
    # gen and to-skew output, printed bands and their mutants, etale spaces,
    # skew morphisms, and the dual of an etale space
    printed = set(test_cli_pinned.write_documents(tmp_path)) | {"etale72_dual.txt"}
    for path in sorted(tmp_path.glob("*.txt")):
        if path.name in printed:
            assert_prints_back(path.read_text())
        else:
            assert isinstance(assert_same(path.read_text()), textio.Document)
    # the recorded gen, to-bset and dualize output (of Boolean sets and of
    # etale spaces), which the printer before the key tables wrote
    recorded = json.loads(RECORDED.read_text())
    wrote = [(key, out) for key, (code, out) in recorded.items()
             if code == 0 and key.split()[0] in ("gen", "to-bset", "dualize")]
    assert {key.split()[0] for key, _ in wrote} == {"gen", "to-bset", "dualize"}
    assert any(key.startswith("dualize etale.txt") for key, _ in wrote)
    for key, out in wrote:
        assert_prints_back(out)


IDS = st.sampled_from(["0", "1", "a", "b2", "x_1", "(a1,b1)", "{e1,e3}", "[p]", "u.v"])
ID_LISTS = st.lists(IDS, max_size=4)
MAPS = st.dictionaries(IDS, IDS, max_size=4).map(lambda m: list(m.items()))
REFS = st.sampled_from(["A", "S", "P", "E", "Q"])


@st.composite
def skew_data(draw):
    els = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    # index rows, as the parser and skew_stanza give them
    table = st.lists(st.lists(st.sampled_from(range(len(els))), min_size=len(els),
                              max_size=len(els)),
                     min_size=len(els), max_size=len(els))
    data = {"elements": els, "circ": draw(table)}
    if draw(st.booleans()):
        data["zero"] = draw(st.sampled_from(els))
    if draw(st.booleans()):
        data["bullet"] = draw(table)
    return data


@st.composite
def documents(draw):
    """One stanza of each kind; "zero:", "bullet:" and "basemap:" each
    present or absent, endpoints of any kind or unknown."""
    stanzas = [
        textio.Stanza("balg", "A", None, {
            "elements": draw(ID_LISTS), "bottom": draw(IDS),
            "leq": draw(st.lists(st.tuples(IDS, IDS), max_size=4))}, 0),
        textio.Stanza("skew", "S", None, draw(skew_data()), 0),
        textio.Stanza("bset", "P", "A", {
            "stalks": draw(st.dictionaries(IDS, ID_LISTS, min_size=1, max_size=3)),
            "restrict": draw(st.dictionaries(st.tuples(IDS, IDS), MAPS.map(dict),
                                             min_size=1, max_size=3)),
        }, 0),
        textio.Stanza("etale", "E", None, {"total": draw(ID_LISTS), "base": draw(ID_LISTS),
                                           "proj": draw(MAPS)}, 0),
    ]
    ends = st.sampled_from(["A", "S", "P"])
    mor = {"from": draw(ends), "to": draw(ends), "map": draw(MAPS)}
    if draw(st.booleans()):
        mor["basemap"] = draw(MAPS)
    phi = st.dictionaries(IDS, ID_LISTS, max_size=3).map(lambda m: list(m.items()))
    rel = {"from": draw(REFS), "to": "E", "phi": draw(phi), "phibar": draw(MAPS)}
    stanzas += [textio.Stanza("morphism", "m", None, mor, 0),
                textio.Stanza("relmor", "r", None, rel, 0)]
    return draw(st.permutations(stanzas)) if draw(st.booleans()) else stanzas


@settings(max_examples=300, deadline=None)
@given(documents())
def test_generated_stanzas(stanzas):
    printed = [textio.print_stanza(s) for s in stanzas]
    assert printed == [ref.print_stanza(as_ids(s)) for s in stanzas]
    text = "".join(p + "\n" for p in printed)
    doc = assert_same(text)
    if isinstance(doc, textio.Document):
        assert_prints_back(text)


B2 = "balg B {\n  elements: 0, 1\n  leq: 0<=1\n  bottom: 0\n}\n"
E2 = "etale E {\n  total: e\n  base: x\n  proj: e->x\n}\n"


@pytest.mark.parametrize("text, line, expected", [
    (B2 + "bset P over B {\n  stalk 0 1: z\n}\n", 7, "'stalk <base-element>:'"),
    (B2 + "bset P over B {\n  restrict 1 to 0: z->y\n}\n", 7, "'restrict <e> -> <f>:'"),
    (B2 + "bset P over B {\n  restrict 1 -> 0 x: z->y\n}\n", 7, "'restrict <e> -> <f>:'"),
    (B2.replace("0<=1", "0<=1<=1"), 3, "'x<=y' pair, got '0<=1<=1'"),
    (E2.replace("e->x", "e"), 4, "'x->y' pair, got 'e'"),
    (E2 + "relmor r {\n  from: E\n  to: E\n  phi: e\n  phibar: x->x\n}\n", 9,
     "'e->f1+f2' entry, got 'e'"),
    (B2.replace("bottom: 0", "bottom: 0, 1"), 4, "a single id for 'bottom'"),
    (E2 + "morphism m {\n  from: E, E\n  to: E\n  map:\n}\n", 7, "a single id for 'from'"),
    (E2.replace("e->x", "e->x, e->x"), 4, "one entry for 'e' in 'proj:'"),
    (B2 + "bset P over B {\n  restrict 1 -> 0: z->y, z->w\n}\n", 7,
     "one entry for 'z' in 'restrict 1 -> 0:'"),
    (E2 + "relmor r {\n  from: E\n  to: E\n  phi: e->, e->e\n  phibar: x->x\n}\n", 9,
     "one entry for 'e' in 'phi:'"),
    ("skew S {\n  elements: 0\n  circ: 0\n}\n", 3, "table rows on the lines after 'circ:'"),
    (B2.replace("bottom", "colour"), 4,
     "one of ['bottom', 'elements', 'leq'] in a balg stanza"),
    (E2 + "relmor r {\n  from: E\n  phi: e->e\n  phibar: x->x\n}\n", 6, "'to:' in a relmor stanza"),
    (E2 + B2 + "morphism m {\n  from: B\n  to: E\n  map:\n}\n", 11,
     "balg/skew/bset stanza named 'E'"),
    (E2 + B2 + "relmor r {\n  from: E\n  to: B\n  phi:\n  phibar:\n}\n", 11,
     "etale stanza named 'B'"),
], ids=["stalk-arity", "restrict-arrow", "restrict-arity", "leq-arity", "proj-arity",
        "phi-arity", "two-bottoms", "two-froms", "repeated-proj", "repeated-restrict",
        "repeated-phi", "value-after-circ", "unknown-key", "missing-to", "morphism-endpoint",
        "relmor-endpoint"])
def test_malformed_key_lines(text, line, expected):
    err = assert_same(text)
    assert err[0] is ParseError and err[2] == line and err[1].endswith("expected " + expected)


@pytest.mark.parametrize("text, key", [
    (B2.replace("  leq: 0<=1\n", ""), "leq"),
    (E2.replace("  proj: e->x\n", ""), "proj"),
    ("skew S {\n  elements: 0\n  zero: 0\n}\n", "circ"),
    (B2 + "morphism m {\n  from: B\n  to: B\n}\n", "map"),
    (E2 + "relmor r {\n  from: E\n  to: E\n  phi: e->e\n}\n", "phibar"),
])
def test_a_missing_required_key_is_refused_when_built(text, key):
    doc = assert_same(text)
    err = outcome(textio.build, doc)
    assert err[0] is ParseError and f"'{key}:' in " in err[1]
