"""The pair reader ``textio._pairs`` against its reference copy
(``textio_reference._pairs``), which splits chunk by chunk at bracket depth
0.  ``_pairs`` reads a whole ``->`` or ``<=`` list by one pattern and falls
back to the chunk route on any value the pattern does not cover, so both
must return the same pairs, or raise a ``ParseError`` with the same text, on
every value: flat and nested brackets, ``-``, ``>``, ``<``, ``=`` and ``+``
inside ids, ids that end in ``-`` or ``<``, spaces around separators, empty
chunks, trailing commas, three ids in one chunk (``a->b->c``) and text that
spells no list at all.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import textio
from skewstone.errors import ParseError

import textio_reference as ref
from test_textio import nested_ids

SEPS = ("->", "<=")
PLAIN = ["a", "b1", "a-", "-a", "a--", "a>b", ">a", "a<", "a<b", "=a", "a=", "a+b", "+",
         "a:b", "0", "1"]


def outcome(read, value, sep):
    try:
        return read(value, sep, 7)
    except ParseError as e:
        return "ParseError", str(e)


def assert_same(value, sep):
    want = outcome(ref._pairs, value, sep)
    assert outcome(textio._pairs, value, sep) == want, (value, sep)
    return want


_, ONE, TWO = nested_ids()
# ids of a well-formed list: plain or bracketed without nesting (some of them
# holding a separator, a space or an empty id), or also nested 2 deep
FLAT_IDS = st.one_of(st.sampled_from(PLAIN), st.sampled_from(ONE))
IDS = {"flat": FLAT_IDS, "nested": st.one_of(FLAT_IDS, st.sampled_from(TWO)),
       "noisy": st.one_of(FLAT_IDS, st.sampled_from(TWO),
                          st.text(alphabet="ab-<>=+,()[]{} ", max_size=6))}
SPACES = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def chunks(draw, sep, mode):
    kinds = ["pair"] * 4 + ["empty"] + (["three", "one", "text"] if mode == "noisy" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return draw(SPACES)
    if kind == "text":
        return draw(st.text(alphabet="ab,()[]{}-><=+ ", max_size=12))
    parts = [draw(IDS[mode]) for _ in range({"pair": 2, "three": 3, "one": 1}[kind])]
    seps = [sep, sep, sep, "->", "<="] if mode == "noisy" else [sep]
    glue = draw(SPACES) + draw(st.sampled_from(seps)) + draw(SPACES)
    return draw(SPACES) + glue.join(parts) + draw(SPACES)


@st.composite
def pair_lists(draw):
    """A ``->`` or ``<=`` list: well formed with flat ids, well formed with
    nested ones, or with chunks of one or three ids, the other separator
    and random text mixed in."""
    sep = draw(st.sampled_from(SEPS))
    mode = draw(st.sampled_from(sorted(IDS)))
    items = draw(st.lists(chunks(sep, mode), max_size=8))
    return ",".join(items) + draw(st.sampled_from(["", "", ",", ", ", ",,"])), sep


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pair_lists())
def test_pair_reader_matches_the_chunk_route(value_sep):
    assert_same(*value_sep)


@pytest.mark.parametrize("value, sep", [
    ("", "->"), (",", "->"), (" , ,", "<="), ("a->b,", "->"), (",a->b", "->"),
    ("a->b,,c->d", "->"), ("a -> b ,  c->d", "->"), ("a->b->c", "->"), ("a-->b", "->"),
    ("a--->b", "->"), ("a->->b", "->"), ("a<<=b", "<="), ("a<==b", "<="), ("a<=b<=c", "<="),
    ("a b->c", "->"), ("(a,b)->c", "->"), ("(a->b)->c", "->"), ("((a))->b", "->"),
    ("(a]->b", "->"), ("a)->b", "->"), ("(a->b", "->"), ("{a, b}<=[c,d]", "<="),
    ("(a1,b1)(c)->x", "->"), ("a->", "->"), ("->b", "->"), ("a->b c->d", "->"),
    ("a<=b", "->"), ("a->b", "<="), ("a ->b", "->"), ("a\x1f->\x1fb", "->"),
])
def test_pair_reader_edge_cases(value, sep):
    assert_same(value, sep)


def test_generated_lists_are_read_by_the_pattern():
    # a product set's restriction lists and an order's cover list, whose
    # ids are plain or flat bracket groups, are covered by the pattern
    # whole: one re.split, no chunk route
    value = "(a1,b1,c1)->(a1,b1), (a2,b1,c1)->(a2,b1),a1->0"
    parts = textio._PAIR["->"].split(value)
    assert not any(parts[::3])
    assert assert_same(value, "->") == [("(a1,b1,c1)", "(a1,b1)"), ("(a2,b1,c1)", "(a2,b1)"),
                                        ("a1", "0")]
    assert assert_same("0<=a, a<=ab, {u}<={u,v}", "<=") == [
        ("0", "a"), ("a", "ab"), ("{u}", "{u,v}")]


def test_a_value_the_pattern_does_not_cover_costs_linear_time():
    # 40 000 characters: a read that tried every start position with a
    # full id scan would take 10^8 steps or more
    good = ", ".join(["(a1,b1)->a1"] * 3300)
    started = time.perf_counter()
    assert len(assert_same(good, "->")) == 3300
    budget = 50 * (time.perf_counter() - started) + 0.5
    for bad in ["a" * 40000 + " ", "(a)" * 13000 + "!", "a " * 20000 + "->b",
                "a->" * 13000, " " * 40000 + "!", "(" + "a " * 20000, "a->" + "b" * 40000 + "!"]:
        started = time.perf_counter()
        assert_same(bad, "->")
        assert time.perf_counter() - started < budget
