"""Fuzzed balg stanzas through the reader, ``validate`` and ``replay``.

The orders are the powersets of up to 3 atoms, chains of 1 to 4 elements,
the diamond M3 and the pentagon N5, written as their cover pairs.  Up to
two edits are made: an order pair dropped, added or reversed, the bottom
changed to another element or to an id that is not one, an element
dropped from or repeated in ``elements:``.  Every document must parse as
the reference reader parses it (``test_parse_reference.assert_same_parse``).
``validate`` and ``replay`` must print one line and exit with 0, 1 or 2,
never a traceback, and every FAIL that ``validate`` prints must replay as
``confirmed:`` at its witness.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import balg, cli, laws

from test_parse_reference import assert_same_parse


def powerset(k):
    points = "pqr"[:k]
    B = balg.powerset_balg(points, lambda s: "".join(p for p in points if p in s) or "0")[0]
    return list(B.elements), [(lo, hi) for hi, lo in B.cover_pairs], B.bottom


def chain(n):
    els = ["0", "a", "b", "c"][:n]
    return els, list(zip(els, els[1:])), "0"


M3 = (["0", "a", "b", "c", "1"],
      [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")], "0")
N5 = (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("0", "c"), ("b", "1"), ("c", "1")], "0")
ORDERS = [powerset(k) for k in range(4)] + [chain(n) for n in range(1, 5)] + [M3, N5]
EDITS = ["drop-pair", "add-pair", "reverse-pair", "bottom", "unknown-bottom",
         "drop-element", "repeat-element"]
BALG_LAWS = sorted(law for law, spec in laws.LAWS.items() if "balg" in spec.kinds)


@st.composite
def documents(draw):
    """The text of one fuzzed balg stanza."""
    els, pairs, bottom = draw(st.sampled_from(ORDERS))
    els, pairs = list(els), list(pairs)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(EDITS))
        if kind in ("drop-pair", "reverse-pair") and pairs:
            x, y = pairs.pop(draw(st.integers(0, len(pairs) - 1)))
            if kind == "reverse-pair":
                pairs.append((y, x))
        elif kind == "add-pair":
            pairs.append((draw(st.sampled_from(els)), draw(st.sampled_from(els))))
        elif kind == "bottom":
            bottom = draw(st.sampled_from(els))
        elif kind == "unknown-bottom":
            bottom = "zz"
        elif kind == "drop-element" and len(els) > 1:
            els.pop(draw(st.integers(0, len(els) - 1)))
        elif kind == "repeat-element":
            els.insert(draw(st.integers(0, len(els))), draw(st.sampled_from(els)))
    leq = ", ".join(f"{x}<={y}" for x, y in pairs)
    return "\n".join(["balg B {", f"  elements: {', '.join(els)}", f"  leq: {leq}",
                      f"  bottom: {bottom}", "}", ""])


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def one_line(code, out):
    return code in (0, 1, 2) and out.count("\n") == 1 and out.endswith("\n")


def test_fuzzed_orders_read_validate_and_replay_in_one_line(tmp_path):
    path = tmp_path / "fuzz.txt"
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(documents(), st.sampled_from(BALG_LAWS),
           st.lists(st.sampled_from(["0", "a", "p", "pq", "zz"]), min_size=1, max_size=3))
    def check(text, law, witness):
        path.write_text(text)
        assert_same_parse(text)
        code, out = run(["validate", str(path)])
        assert one_line(code, out), (text, out)
        seen.add(code)
        failed = re.fullmatch(r"balg B: FAIL (\S+) witness=\((.*)\)\n", out)
        if failed:
            law, found = failed.groups()
            assert run(["replay", str(path), "B", "--law", law, "--witness", found]) == (
                0, f"confirmed: {law} violated at ({found})\n"), text
        else:
            code, out = run(["replay", str(path), "B", "--law", law, "--witness",
                             ",".join(witness)])
            assert one_line(code, out), (text, out)

    check()
    assert seen == {0, 1, 2}
