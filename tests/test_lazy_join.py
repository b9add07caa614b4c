"""A Boolean set keeps its atom codes and builds its join table only when it
is read; ``to_skew`` builds • from the codes and ``_stalk_rows`` reads the
base's index tables.

The references are the earlier eager ``_coded_boolean_set`` (the join table
built with the set), the ``to_skew`` that read • through that table, and the
``_stalk_rows`` that made id-level ``meet``/``rel_complement`` calls.  The
lazily built table, the codes, the stalk rows and both skew tables must
equal theirs.
"""

import random
from pathlib import Path

import pytest

from skewstone import bset, cli, etale, textio

from test_duality_layer import seeded_space

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- references

def old_coded_join_table(P, codes):
    n = len(codes)
    elem_of = [0] * n
    for i, k in enumerate(codes):
        elem_of[k] = i
    groups = {}  # (f, m) -> r -> (index, code) of each y in X(f) with y|m = r
    for i, (y, cy) in enumerate(zip(P.elements, codes)):
        for m, r in P._rest[y].items():
            groups.setdefault((P.stalk_of[y], m), {}).setdefault(r, []).append((i, cy))
    table = []
    for x, cx in zip(P.elements, codes):
        rx, e = P._rest[x], P.stalk_of[x]
        row = [-1] * n
        for f in P.base.elements:
            m = P.base.meet(e, f)
            r = rx[m]
            d = cx - codes[P.index[r]]
            for j, cy in groups[f, m].get(r, ()):
                row[j] = elem_of[d + cy]
        table.append(row)
    return table


def old_coded_boolean_set(P, codes):
    zero = P.stalks[P.base.bottom][0]
    X = bset.BooleanSet(P.base, P.stalks, P.cover_maps, P._rest, zero, codes)
    X._join = old_coded_join_table(P, codes)
    return X


def old_stalk_rows(P, order, index):
    B, rest, p = P.base, P._rest, P.stalk_of
    rows = {}
    for c in B.elements:
        meet = {f: B.meet(c, f) for f in B.elements}
        minus = {f: B.rel_complement(f, c) for f in B.elements}
        rows[c] = ([index[rest[y][meet[p[y]]]] for y in order],
                   [index[rest[y][minus[p[y]]]] for y in order])
    return rows


def old_skew_tables(X):
    """to_skew's index tables, • read through the join table."""
    els, index, join = X.elements, X.index, X._join
    rows = old_stalk_rows(X, els, index)
    circ, bullet = [], []
    for x, jrow in zip(els, join):
        circ_row, minus_row = rows[X.stalk_of[x]]
        circ.append(circ_row)
        bullet.append([jrow[k] for k in minus_row])
    return circ, bullet


# ------------------------------------------------------------ comparison

SHAPES = [(2, 1), (2, 2, 2), (3, 3, 3, 3), (2, 2, 2, 5), (1,) * 7]


def assert_matches_reference(X, rng):
    codes = bset._atom_codes(X)
    assert X._codes == codes
    ref = old_coded_boolean_set(X, codes)
    assert bset._join_table(X) == ref._join
    assert bset._join_table(X) is X._join  # built once, then kept
    assert bset._stalk_rows(X, X.elements, X.index) == old_stalk_rows(X, X.elements, X.index)
    # the order _reconstruct passes: a skew algebra's, not the stalk order
    order = list(X.elements)
    rng.shuffle(order)
    index = {x: i for i, x in enumerate(order)}
    assert bset._stalk_rows(X, order, index) == old_stalk_rows(X, order, index)
    S = bset.to_skew(X)
    assert (S.circ_t, S.bullet_t) == old_skew_tables(ref)


@pytest.mark.parametrize("sizes", SHAPES)
def test_generated_sets_match_reference(sizes):
    X = bset.generate_boolean_set(sizes, seed=2)
    assert not hasattr(X, "_join")  # validation builds no join table
    bset.to_skew(X)
    assert not hasattr(X, "_join")  # nor does to_skew
    assert_matches_reference(X, random.Random(1))


def test_docs_sets_match_reference():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        built = textio.build(textio.parse(path.read_text()))
        for X in built.values():
            if isinstance(X, bset.BooleanSet):
                assert_matches_reference(X, random.Random(2))
                seen += 1
    assert seen >= 3


def test_dual_sets_match_reference():
    rng = random.Random(6)
    for _ in range(40):
        X = etale.dual_bset(seeded_space(rng))
        assert not hasattr(X, "_join")
        assert_matches_reference(X, rng)


def test_skew_validation_keeps_codes_and_builds_no_join_table():
    X = bset.generate_boolean_set((2, 2, 2), seed=4)
    S = bset.to_skew(X)
    Y = bset.from_skew(S)
    assert Y._codes == bset._atom_codes(Y)
    assert not hasattr(Y, "_join")
    assert bset._join_table(Y) == old_coded_join_table(Y, Y._codes)


# ------------------------------------------------------ acceptance path

def test_acceptance_path_reads_no_join_table(monkeypatch, capsys, tmp_path):
    assert cli.main(["gen", "--atoms", "4", "--stalks", "2,2,2,2", "--seed", "1"]) == 0
    gen = tmp_path / "g.txt"
    gen.write_text(capsys.readouterr().out)

    def refuse(P, codes):
        raise AssertionError("join table built")

    monkeypatch.setattr(bset, "_coded_join_table", refuse)
    for doc, name in ((DOCS / "prod.txt", "Prod"), (gen, "G")):
        assert cli.main(["validate", str(doc)]) == 0
        assert f"bset {name}: ok" in capsys.readouterr().out
        assert cli.main(["to-skew", str(doc), name]) == 0
        skew_doc = tmp_path / f"{name}_skew.txt"
        skew_doc.write_text(capsys.readouterr().out)
        assert cli.main(["validate", str(skew_doc)]) == 0
        assert cli.main(["roundtrip", str(skew_doc), f"{name}_skew"]) == 0
        out = capsys.readouterr().out
        assert f"skew {name}_skew: ok" in out
        assert "skew round trip: identity" in out
    assert "skew round trip: identity (81 elements)" in out
