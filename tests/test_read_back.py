"""``to_skew`` reads its own tables back instead of certifying them again.

The tables of ``to_skew(X)`` are X's atom coordinates run forward
(``bset._coded_rows``), so the table half of the certificate
(``bset._coded_tables_match``) cannot fail on them.  ``to_skew`` runs only
the coordinate half (``bset._skew_coordinates``) through
``bset._read_back``, which must give back X's elements, zero and
coordinates; parsed tables keep running both halves.  The spies here count
both halves and ``_coded_rows`` on built sets, etale duals and the CLI's
``to-skew`` and skew ``roundtrip``.  The refusals of a tampered read-back
are rows of ``test_reconstruct.test_a_refusal_that_no_scan_explains_is_an_internal_error``.

``textio.print_stanza`` joins each distinct row object of a skew table
once; its output must be the bytes of the copy of the printer that joined
every row (``old_print_stanza``), on shared, unshared and ``_StrayRows``
tables.
"""

import random
from pathlib import Path

import pytest

from skewstone import bset, cli, etale, textio

from test_duality_layer import seeded_space
from test_parse_reference import EDGE_CASES
from test_reconstruct import Spy

DOCS = Path(__file__).resolve().parent.parent / "docs"


def spies(monkeypatch):
    """Spies on the two halves of the certificate, the coordinate function
    and the row kernel."""
    return {name: Spy(monkeypatch, bset, name) for name in
            ("_coded_tables_match", "_skew_coordinates", "_coordinates", "_coded_rows")}


def counts(spied):
    return {name: len(spy.calls) for name, spy in spied.items()}


def built_sets():
    rng = random.Random(37)
    return ([bset.generate_boolean_set((3, 3, 3, 3)), bset.generate_boolean_set((1,) * 7)]
            + [etale.dual_bset(seeded_space(rng, points=5)) for _ in range(3)])


@pytest.mark.parametrize("k", range(5))
def test_to_skew_compares_no_table(monkeypatch, k):
    X = built_sets()[k]
    spied = spies(monkeypatch)
    S = bset.to_skew(X)
    # _skew_rows builds the rows once; the read-back runs the coordinate
    # half once and compares no table
    assert counts(spied) == {"_coded_tables_match": 0, "_skew_coordinates": 1,
                             "_coordinates": 1, "_coded_rows": 1}
    assert spied["_skew_coordinates"].results == [X._coords]
    assert bset.from_skew(S) is X


def run(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_cli_to_skew_and_skew_roundtrip_certify_the_parsed_tables_only(monkeypatch, capsys,
                                                                       tmp_path):
    doc = tmp_path / "g.txt"
    doc.write_text(run(capsys, "gen", "--atoms", "4", "--stalks", "3,3,3,3", "--seed", "1"))
    spied = spies(monkeypatch)
    skew_text = run(capsys, "to-skew", str(doc), "G")
    # the parsed bset is accepted by its coordinates (one _coordinates),
    # and to_skew reads its tables back (the other)
    assert counts(spied) == {"_coded_tables_match": 0, "_skew_coordinates": 1,
                             "_coordinates": 2, "_coded_rows": 1}
    skew_doc = tmp_path / "s.txt"
    skew_doc.write_text(skew_text)
    monkeypatch.undo()
    spied = spies(monkeypatch)
    assert run(capsys, "roundtrip", str(skew_doc), "G_skew") == \
        "skew round trip: identity (256 elements)\n"
    # the parsed tables run both halves, and to_skew of their set only the
    # coordinate half
    assert counts(spied) == {"_coded_tables_match": 1, "_skew_coordinates": 2,
                             "_coordinates": 2, "_coded_rows": 2}
    assert spied["_coded_tables_match"].results == [(True, True)]


def test_validate_of_a_parsed_document_runs_both_halves(monkeypatch, capsys, tmp_path):
    doc = tmp_path / "g.txt"
    doc.write_text(run(capsys, "gen", "--atoms", "3", "--stalks", "2,1,2", "--seed", "1"))
    skew_doc = tmp_path / "s.txt"
    skew_doc.write_text(run(capsys, "to-skew", str(doc), "G"))
    spied = spies(monkeypatch)
    assert run(capsys, "validate", str(skew_doc)) == "skew G_skew: ok (18 elements)\n"
    assert counts(spied) == {"_coded_tables_match": 1, "_skew_coordinates": 1,
                             "_coordinates": 1, "_coded_rows": 1}


# ------------------------------------------------------------ the printer

def old_print_stanza(s):
    """print_stanza as it was, joining every row of a skew table."""
    d = s.data
    head = f"{s.kind} {s.name}"
    if s.over:
        head += f" over {s.over}"
    lines = [head + " {"]
    for key in textio._KEYS[s.kind]:
        if key == "stalk":
            lines += [f"  stalk {e}: {', '.join(m)}" for e, m in d.get("stalks", {}).items()]
        elif key == "restrict":
            lines += [f"  restrict {e} -> {f}: {textio._write_map(m.items())}"
                      for (e, f), m in d.get("restrict", {}).items()]
        elif d.get(key) is None:
            continue
        elif key in textio._PLAIN:
            lines.append(f"  {key}: {textio._PLAIN[key][1](d[key])}")
        else:
            lines.append(f"  {key}:")
            lines += ["    " + " ".join(row)
                      for row in (d["elements"], *textio._id_rows(d["elements"], d[key], key))]
    lines.append("}")
    return "\n".join(lines)


def unshared(s):
    """Skew stanza ``s`` with every table row its own list, a _StrayRows
    table kept as one."""
    data = dict(s.data)
    for key in ("circ", "bullet"):
        table = data.get(key)
        if table is not None:
            data[key] = type(table)(list(row) for row in table)
            if isinstance(table, textio._StrayRows):
                data[key].stray = table.stray
    return textio.Stanza(s.kind, s.name, s.over, data, s.line)


def test_the_printer_writes_the_bytes_it_wrote():
    stanzas = [textio.skew_stanza(bset.to_skew(X), "G") for X in built_sets()]
    for path in sorted(DOCS.glob("*.txt")):
        stanzas += textio.parse(path.read_text()).stanzas
    stray = textio.parse(dict(EDGE_CASES)["unknown-entry-in-bullet"]).by_name["X"]
    assert isinstance(stray.data["bullet"], textio._StrayRows)
    shared_stray = textio.parse(stray_in_a_shared_row()).by_name["X"]
    circ = shared_stray.data["circ"]
    assert isinstance(circ, textio._StrayRows) and circ[1] is circ[2]
    stanzas += [stray, shared_stray]
    shared = [s for s in stanzas if s.kind == "skew"
              and len({id(r) for r in s.data["circ"]}) < len(s.data["circ"])]
    assert len(shared) >= 5
    for s in stanzas + [unshared(s) for s in stanzas if s.kind == "skew"]:
        assert textio.print_stanza(s) == old_print_stanza(s)


def stray_in_a_shared_row():
    """A skew document whose ∘ table repeats a row holding an entry that is
    not an element: the parser shares that row, and keeps it as a
    _StrayRows table."""
    return ("skew X {\n  elements: 0, x1, x2\n  zero: 0\n  circ:\n    0 x1 x2\n"
            "    0 0 0\n    0 x1 zz\n    0 x1 zz\n}\n")
