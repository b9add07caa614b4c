"""``replay`` on fuzzed input: any law of ``laws.LAWS`` (or none), at any
witness built from a document's ids, junk ids, empty entries and '>' chains,
gives exactly one line and exit 0 (confirmed), 1 (not confirmed) or 2 (a
document error), never a traceback.  A document error is a sentence, never
the bare key of an escaped KeyError, as a zero that a skew stanza does not
declare once gave ("document error: None"), and as a ∘ entry that is not
an element once gave ("document error: 'zz'").  A table entry that is not
an element is refused before any law runs, in ``validate``'s words."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewstone import cli, laws, textio

from test_cli import ZEROLESS
from test_parse_reference import BULLET, HEAD

DOCS = Path(__file__).resolve().parent.parent / "docs"
JUNK = ["zz", "", " ", "0>", ">", "(a1", "a1)", "(zz,0)"]
# a ∘ row that holds 'zz', repeated: validate refuses the document
NON_ELEMENT = HEAD + "    0 x1 x2\n    0 0 0\n    0 x1 zz\n    0 x1 zz\n" + BULLET


def ids_of(doc):
    """Every id of the stanzas that have a law view: elements, base
    elements and stalk members."""
    out = set()
    for s in doc.stanzas:
        out.update(s.data.get("elements", ()))
        for members in s.data.get("stalks", {}).values():
            out.update(members)
    return sorted(out)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    zeroless, non_element = tmp / "zeroless.txt", tmp / "non_element.txt"
    zeroless.write_text(ZEROLESS)
    non_element.write_text(NON_ELEMENT)
    out = []
    for path in (DOCS / "prod.txt", DOCS / "showcase.txt", zeroless, non_element):
        doc = textio.parse(path.read_text())
        out.append((str(path), sorted(doc.by_name) + ["nope"], ids_of(doc)))
    return out


@st.composite
def replays(draw, documents):
    path, names, ids = draw(st.sampled_from(documents))
    name = draw(st.sampled_from(names))
    law = draw(st.sampled_from(sorted(laws.LAWS) + ["no.such.law"]))
    entry = st.one_of(st.sampled_from(ids), st.sampled_from(JUNK))
    chain = st.lists(entry, min_size=2, max_size=3).map(">".join)
    witness = draw(st.lists(st.one_of(entry, chain), max_size=3))
    return [path, name, "--law", law, "--witness", ",".join(witness)]


def verdict_lines(law, witness):
    return {0: f"confirmed: {law} violated at ({witness})",
            1: f"not confirmed: {law} holds at ({witness})"}


def test_replay_gives_one_line_and_an_exit_code(documents):
    # the draws rarely reach a law that reads the non-element row, so the
    # two replays that once escaped its KeyError are run every time
    non_element = documents[-1][0]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(replays(documents))
    @example([non_element, "X", "--law", "skew.SB1", "--witness", "x2,x1"])
    @example([non_element, "X", "--law", "band.assoc.circ", "--witness", "x2,x2,x1"])
    def check(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["replay", *argv])
        text = out.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
        line = text[:-1]
        if code == 2:
            # a sentence, not the bare key of an escaped KeyError
            reason = line.removeprefix("document error: ")
            assert " " in reason, (argv, line)
        else:
            assert line == verdict_lines(argv[3], argv[5]).get(code), (argv, line)

    check()


@pytest.mark.parametrize("law, witness", [("skew.SB1", "x2,x1"), ("band.assoc.circ", "x2,x2,x1")])
def test_a_table_entry_that_is_not_an_element_is_a_document_error(tmp_path, law, witness):
    # validate refuses the document; replay confirms no law on it, and the
    # oracle's scan refuses it alike
    path = tmp_path / "non_element.txt"
    path.write_text(NON_ELEMENT)
    message = "circ entry 'zz' is not an element"
    for argv in (["validate", str(path)], ["replay", str(path), "X", "--law", law,
                                           "--witness", witness]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 2 and out.getvalue().startswith("document error: ")
        assert out.getvalue().endswith(f"{message}\n")
    with pytest.raises(ValueError, match=message):
        laws.scan(textio.parse(NON_ELEMENT).law_raw("X"))
