"""``replay`` on fuzzed input: any law of ``laws.LAWS`` (or none), at any
witness built from a document's ids, junk ids, empty entries and '>' chains,
gives exactly one line and exit 0 (confirmed), 1 (not confirmed) or 2 (a
document error), never a traceback.  A document error is a sentence, never
the bare key of an escaped KeyError, as a zero that a skew stanza does not
declare once gave ("document error: None")."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import cli, laws, textio

from test_cli import ZEROLESS

DOCS = Path(__file__).resolve().parent.parent / "docs"
JUNK = ["zz", "", " ", "0>", ">", "(a1", "a1)", "(zz,0)"]


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
    zeroless = tmp_path_factory.mktemp("replay") / "zeroless.txt"
    zeroless.write_text(ZEROLESS)
    out = []
    for path in (DOCS / "prod.txt", DOCS / "showcase.txt", zeroless):
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
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(replays(documents))
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
