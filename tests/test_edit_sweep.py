"""Every single edit of small structures, through the text path.

Each mutant is printed as stanzas (``print_stanza``), parsed and built, as
the CLI reads it.  The validator's (law, witness) must be the first finding
of the independent oracle ``laws.scan`` on the mutant's raw data, and a
mutant the validator accepts must scan clean.  The edits are every entry of
both skew tables of the 8-element and the ``(2, 3)`` skew algebras (a ∘ edit
makes one table line differ from the others of its R class, so identical
lines are shared by the parser around it), every restriction target of
three Boolean sets, and every added or dropped ``leq`` pair of the 8- and
16-element Boolean algebras.
"""

import pytest

from skewstone import balg, bset, laws, textio
from skewstone.errors import StructureError


def outcome(text, name):
    """(law, witness) of the validator on the document, or None, with the
    parsed stanza's raw data."""
    doc = textio.parse(text)
    raw = doc.law_raw(name)
    try:
        textio.build(doc)
    except StructureError as e:
        return (e.law, tuple(e.witness)), raw
    return None, raw


def check(text, name, expected_raw):
    found, raw = outcome(text, name)
    assert raw == expected_raw
    assert found == laws.scan(raw), text
    return found


@pytest.mark.parametrize("sizes", [(1, 3), (2, 3)], ids=["8", "(2,3)"])
def test_every_skew_table_edit(sizes):
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    stanza = textio.skew_stanza(S, "M")
    els, d = stanza.data["elements"], stanza.data  # tables of index rows
    ids = textio.Document([stanza]).law_raw("M")  # the same tables of ids
    rejected = edits = 0
    for op in ("circ", "bullet"):
        for i, row in enumerate(d[op]):
            for j, old in enumerate(row):
                for v in range(len(els)):
                    if v == old:
                        continue
                    edited, edited_ids = list(row), list(ids[op][i])
                    edited[j], edited_ids[j] = v, els[v]
                    table, id_table = list(d[op]), list(ids[op])
                    table[i], id_table[i] = edited, edited_ids
                    data = {**d, op: table}
                    raw = {**ids, op: id_table}
                    text = textio.print_stanza(textio.Stanza("skew", "M", None, data, 0))
                    rejected += check(text, "M", raw) is not None
                    edits += 1
    assert edits == 2 * len(els) ** 2 * (len(els) - 1)
    assert rejected == edits  # no single edit of a table keeps the algebra valid


@pytest.mark.parametrize("sizes", [(2, 3), (1, 1, 2), (2, 2, 2)])
def test_every_restriction_target_edit(sizes):
    X = bset.generate_boolean_set(sizes)
    head = textio.print_stanza(textio.balg_stanza(X.base, "B")) + "\n"
    stanza = textio.bset_stanza(X, "M", "B")
    restrict = stanza.data["restrict"]
    base_raw = textio.parse(head).law_raw("B")
    edits = 0
    for key, m in restrict.items():
        for x, old in m.items():
            for w in X.elements:
                if w == old:
                    continue
                data = {**stanza.data, "restrict": {**restrict, key: {**m, x: w}}}
                text = head + textio.print_stanza(textio.Stanza("bset", "M", "B", data, 0))
                raw = {"kind": "bset", "base": base_raw, "stalks": data["stalks"],
                       "restrict": data["restrict"]}
                assert check(text, "M", raw) is not None
                edits += 1
    assert edits == sum(map(len, restrict.values())) * (len(X.elements) - 1)


@pytest.mark.parametrize("atoms", [3, 4])
def test_every_leq_pair_added_or_dropped(atoms):
    points = "pqrs"[:atoms]
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    stanza = textio.balg_stanza(B, "M")
    leq = stanza.data["leq"]
    variants = [leq[:k] + leq[k + 1:] for k in range(len(leq))]
    variants += [leq + [(x, y)] for x in B.elements for y in B.elements]
    verdicts = set()
    for pairs in variants:
        data = {**stanza.data, "leq": pairs}
        raw = {"kind": "balg", "elements": data["elements"], "leq": pairs,
               "bottom": data["bottom"]}
        text = textio.print_stanza(textio.Stanza("balg", "M", None, data, 0))
        verdicts.add(check(text, "M", raw) is None)
    assert verdicts == {True, False}  # comparable pairs added keep the algebra
