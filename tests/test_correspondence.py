"""The skew ↔ Boolean-set correspondence, owned by ``bset``, against the
earlier code that split it between ``skew`` and ``bset``.

The reference (``correspondence_reference``) is the earlier
``skew._reconstruct``, which also built the gamma quotient eagerly
(``skew._quotient``), and the earlier ``bset._band_quotient`` of a band.
``bset._reconstruct`` and ``bset._band_quotient`` must agree with them on
generated algebras in stalk order and in a shuffled element order, on every
single table edit of two small algebras, and on every band of the band
tests: the same Boolean set, the same gamma view (item order included),
the same ``circ_ok``, and the same verdict with the same (law, witness).
``BooleanSet.bullet`` reads the • rows and is compared with the composition
x ∨ (y\\x) it replaced, and an AST scan keeps the correspondence in ``bset``.
"""

import ast
import random
from pathlib import Path

import pytest

import skewstone
from skewstone import balg, bset, etale, skew, textio

import correspondence_reference as ref
from conftest import cover_maps
from test_derived_once import enumerated_bands
from test_duality_layer import seeded_space
from test_quotients import all_bands, gamma_view, outcome, presheaf_view

DOCS = Path(__file__).resolve().parent.parent / "docs"
SRC = Path(skewstone.__file__).resolve().parent

SMALL = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 3), (3, 2), (1, 1, 1), (2, 2, 1), (1, 2),
         (3, 1), (3, 3), (2, 1, 1), (1, 2, 1), (3, 1, 1), (1, 1, 1, 1)]
BENCH = [(2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2), (2, 2, 2, 5), (3, 3, 3, 3), (1,) * 6,
         (1,) * 7]


# ----------------------------------------------------------------- helpers

def index_tables(elements, circ, bullet, zero):
    """The index form of id tables, as validate_skew makes it."""
    elements, index = balg._index_elements(elements)
    return (elements, index, skew._as_index_table(elements, index, circ, "circ"),
            skew._as_index_table(elements, index, bullet, "bullet"), index[zero])


def bset_view(X):
    """Everything a Boolean set holds, with key orders: its base's order
    rows, Stone code and covers, its stalks, cover maps, restrictions, atom
    coordinates and zero."""
    B = X.base
    return (type(X).__name__, B.elements, B.index, B._up, B._down, B._code, B._pos,
            B._bottom_i, B.cover_pairs, X.elements, X.index,
            list(X.stalks.items()), list(X.stalk_of.items()), list(cover_maps(X).items()),
            [(x, list(r.items())) for x, r in X._rest.items()], X._coords, X.zero)


def compare(elements, index, circ, bullet, z):
    """Asserts that the reconstruction and the validation agree with the
    reference on index tables; returns (accepted, circ_ok)."""
    X, circ_ok = bset._reconstruct(elements, circ, bullet, z, bset._row_classes(elements, circ))
    old_X, old_gq, old_circ_ok = ref.reconstruct(elements, index, circ, bullet, z)
    assert circ_ok == old_circ_ok
    assert (X is None) == (old_X is None)
    new = outcome(skew._validate_index, elements, index, circ, bullet, z)
    old = outcome(ref.validate_index, elements, index, circ, bullet, z)
    if X is None:
        assert new == old and new[0] != "ok"
        return False, circ_ok
    # the certified coordinates are the ones the presheaf route computes
    assert presheaf_view(X) == presheaf_view(old_X) and X._coords == old_X._coords
    assert bset_view(X) == bset_view(old_X)
    assert new[0] == old[0] == "ok"
    S = new[1]
    assert presheaf_view(S._bset) == presheaf_view(old[1]._bset)
    assert gamma_view(skew.gamma_classes(S)) == gamma_view(old_gq)
    assert bset.band_to_presheaf(S) is S._bset
    return True, circ_ok


def shuffled(S, rng):
    """The id tables of S with its elements in a random order, so that the
    R classes interleave."""
    perm = list(S.elements)
    rng.shuffle(perm)
    return (perm, [[S.circ(x, y) for y in perm] for x in perm],
            [[S.bullet(x, y) for y in perm] for x in perm], S.zero)


# --------------------------------------------------------- generated algebras

@pytest.mark.parametrize("sizes", SMALL + BENCH, ids=str)
def test_generated_algebras_match_reference(sizes):
    seeds = (0, 1, 2) if len(sizes) < 4 or max(sizes) < 3 else (3,)
    for seed in seeds:
        S = bset.to_skew(bset.generate_boolean_set(sizes, seed=seed))
        assert compare(S.elements, S.index, S.circ_t, S.bullet_t, S._zero_i) == (True, True)
        tables = shuffled(S, random.Random(seed))
        assert compare(*index_tables(*tables)) == (True, True)


def test_etale_duals_and_docs_match_reference():
    # non-product Boolean sets whose element order interleaves the stalks,
    # and the skew stanzas of the docs as the parser gives them
    algebras = [bset.to_skew(etale.dual_bset(seeded_space(random.Random(s)))) for s in range(12)]
    for S in algebras:
        assert compare(S.elements, S.index, S.circ_t, S.bullet_t, S._zero_i) == (True, True)
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        for s in textio.parse(path.read_text()).stanzas:
            if s.kind == "skew" and s.data.get("bullet") is not None:
                d = s.data  # index rows, as the parser gives them
                elements, index = balg._index_elements(d["elements"])
                assert compare(elements, index, d["circ"], d["bullet"],
                               index[d["zero"]]) == (True, True)
                seen += 1
    assert seen


# ---------------------------------------------------------------- mutants

@pytest.mark.parametrize("sizes", [(1, 3), (2, 3)], ids=["8", "(2,3)"])
def test_every_single_table_edit_matches_reference(sizes):
    # the mutants of test_edit_sweep: every entry of both tables, edited to
    # every other element
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    els, n = S.elements, len(S.elements)
    found = set()
    for op in ("circ", "bullet"):
        table = S.circ_t if op == "circ" else S.bullet_t
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == table[i][j]:
                        continue
                    edited = list(table)
                    edited[i] = list(table[i])
                    edited[i][j] = v
                    circ, bullet = (edited, S.bullet_t) if op == "circ" else (S.circ_t, edited)
                    found.add((op, compare(els, S.index, circ, bullet, S._zero_i)))
    # a • edit leaves ∘ rebuilt exactly; a ∘ edit never does
    assert found == {("circ", (False, False)), ("bullet", (False, True))}


# ------------------------------------------------------------------ bands

def test_band_quotients_and_band_tables_match_reference():
    bands = enumerated_bands(4) + all_bands()
    accepted = circ_only = 0
    for S in bands:
        assert bset._band_quotient(S.elements, S.table) == ref.band_quotient(S), S.elements
        # a band's ∘ with • := ∘ under every zero: the quotient guard and the
        # class presheaf meet non-Boolean and Boolean quotients alike
        for z in range(len(S.elements)):
            circ_only += compare(S.elements, S.index, S.table, S.table, z)[1]
        if bset.is_boolean_band(S):
            T = bset.to_skew(bset.band_to_bset(S))
            bullet = [[S.index[T.bullet(x, y)] for y in S.elements] for x in S.elements]
            ok, _ = compare(S.elements, S.index, S.table, bullet, S.index[T.zero])
            accepted += ok
    assert accepted == sum(map(bset.is_boolean_band, bands)) > 10
    assert circ_only > 10


# ------------------------------------------------------------------ bullet

def old_bullet(X, x, y):
    return X.join(x, X.setminus(y, x))


def docs_sets():
    out = []
    for path in sorted(DOCS.glob("*.txt")):
        built = textio.build(textio.parse(path.read_text()))
        out += [X for X in built.values() if isinstance(X, bset.BooleanSet)]
    return out


def test_bullet_reads_the_rows_and_matches_the_composition():
    sets = [bset.generate_boolean_set(s, seed=1) for s in SMALL + BENCH[:3]]
    assert max(len(X.elements) for X in sets) == 81
    sets += [etale.dual_bset(seeded_space(random.Random(s))) for s in range(5)]
    docs = docs_sets()
    assert len(docs) == 3  # Prod, X3 and Cst
    for X in sets + docs:
        for x in X.elements:
            for y in X.elements:
                assert X.bullet(x, y) == old_bullet(X, x, y), (x, y)


# ------------------------------------------------------------- AST guard

R_CLASS_HELPERS = {"_row_classes", "_class_table", "_order_pairs", "_band_quotient",
                   "_class_presheaf", "_reconstruct", "_read_back", "_quotient"}


def private_uses(tree, module):
    """The private names of ``module`` used in ``tree`` as ``module.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == module and node.attr.startswith("_")}


def test_the_correspondence_lives_in_bset():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in R_CLASS_HELPERS:
                defined.setdefault(node.name, set()).add(name)
    assert defined == {name: {"bset.py"} for name in
                       ("_row_classes", "_band_quotient", "_class_presheaf", "_reconstruct",
                        "_read_back")}
    skew_to_bset = private_uses(trees["skew.py"], "bset")
    bset_to_skew = private_uses(trees["bset.py"], "skew")
    # _read_back is to_skew's route, the certificate's coordinate half; each
    # direction is pinned name by name, so no private use is added unseen
    assert skew_to_bset == {"_reconstruct", "_read_back", "_row_classes"}
    assert bset_to_skew == {"_validate_index", "_as_index_table", "_band_check",
                            "_right_normal_witnesses"}


def test_the_private_name_scan_sees_module_attributes():
    tree = ast.parse("bset._a(1)\nx = bset._b\nbset.c()\nother._d()\n")
    assert private_uses(tree, "bset") == {"_a", "_b"}
