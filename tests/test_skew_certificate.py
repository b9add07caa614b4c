"""Skew tables accepted by their atom coordinates (``bset._skew_certificate``).

The certificate replaced the reconstruction that rebuilt the class Boolean
set and both tables only to compare them.  It must return what that
reconstruction (``correspondence_reference.reconstruct``) returns: the same
Boolean set, base tables, key orders, atom codes and zero included
(``test_correspondence.bset_view``), when it accepts, and the same
``circ_ok`` when it refuses.  ``tests/test_correspondence.py`` compares them
on the benchmark shapes, the docs and etale duals; here the inputs are every
single table edit up to 27 elements, seeded • edits of one to three entries
and class-preserving ∘ edits at 81 and 256, and edits aimed at each check of
the certificate.  Its exactness is pinned by the independent oracle: the
product formula tables of every atom-stalk shape up to 81 elements scan
clean.  ``to_skew`` keeps the Boolean set it built its tables from, and
only that one; and a validated algebra holds one ∘ row per R class however
its caller shared the rows.  There is one coordinate system: the
certificate reads off ``to_skew(X)`` exactly the packed atom coordinates
(codes, supports, fields) that X keeps, which are the ones its presheaf
gives, on every atom-stalk shape up to 81 elements, the docs and etale
duals, and a set rebuilt from the tables keeps the ones its own presheaf
gives.
"""

import itertools
import random
from math import prod
from pathlib import Path

import pytest

from skewstone import balg, bset, etale, laws, skew, textio

import correspondence_reference as ref
from conftest import cover_maps
from test_correspondence import bset_view, index_tables
from test_duality_layer import seeded_space
from test_reconstruct import class_preserving_circ_mutant, raw_skew, skew_view

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ----------------------------------------------------------------- helpers

def reconstructs_as_reference(elements, index, circ, bullet, z):
    """Asserts that _reconstruct returns what the reference returns on the
    index tables; returns (accepted, circ_ok)."""
    X, circ_ok = bset._reconstruct(elements, circ, bullet, z, bset._row_classes(elements, circ))
    old, _, old_ok = ref.reconstruct(elements, index, circ, bullet, z)
    assert (X is None, circ_ok) == (old is None, old_ok)
    if X is not None:
        assert bset_view(X) == bset_view(old)
    return X is not None, circ_ok


def raw_tables(S):
    """S's id tables as validate_skew takes them, every row its own list."""
    raw = raw_skew(S)
    return raw["elements"], raw["circ"], raw["bullet"], raw["zero"]


def edited(table, i, j, v):
    """``table`` with entry (i, j) set to v; only row i is copied."""
    rows = list(table)
    rows[i] = list(rows[i])
    rows[i][j] = v
    return rows


def product_raw(sizes):
    """The product formula tables over the atom stalks of ``sizes``, built
    from coordinates alone: x∘y is y's coordinate where x has one and 0
    elsewhere, x•y is x's coordinate where x has one and y's elsewhere."""
    coords = list(itertools.product(*(range(s + 1) for s in sizes)))
    name = {c: ",".join(map(str, c)) for c in coords}
    circ = [[name[tuple(b if a else 0 for a, b in zip(x, y))] for y in coords] for x in coords]
    bullet = [[name[tuple(a or b for a, b in zip(x, y))] for y in coords] for x in coords]
    els = [name[c] for c in coords]
    return {"kind": "skew", "elements": els, "zero": els[0], "circ": circ, "bullet": bullet}


def shapes(limit):
    """Every multiset of atom stalk sizes whose algebra has at most
    ``limit`` elements, sizes in non-increasing order."""
    out = []

    def grow(prefix, largest, n):
        for s in range(largest, 0, -1):
            if n * (s + 1) <= limit:
                out.append(prefix + (s,))
                grow(prefix + (s,), s, n * (s + 1))

    grow((), limit, 1)
    return out


# ------------------------------------------------------------- acceptance

def test_shapes_are_every_multiset_up_to_the_limit():
    assert shapes(8) == [(7,), (6,), (5,), (4,), (3,), (3, 1), (2,), (2, 1), (1,), (1, 1),
                         (1, 1, 1)]
    found = shapes(81)
    assert len(found) == len(set(found)) == 269
    assert max(prod(s + 1 for s in shape) for shape in found) == 81


@pytest.mark.parametrize("sizes", shapes(81), ids=str)
def test_product_formula_tables_scan_clean_and_pass(sizes):
    # the certificate accepts what the product formula gives, and the
    # independent oracle finds no failed law in it
    raw = product_raw(sizes)
    assert laws.scan(raw) is None
    elements, index, circ, bullet, z = index_tables(
        raw["elements"], raw["circ"], raw["bullet"], raw["zero"])
    cls_idx, reps, _ = bset._row_classes(elements, circ)
    assert bset._skew_certificate(circ, bullet, z, cls_idx, reps)[0] is not None
    assert reconstructs_as_reference(elements, index, circ, bullet, z) == (True, True)


# ---------------------------------------------------------------- mutants

@pytest.mark.parametrize("sizes", [(1, 3), (2, 3), (2, 2, 2)], ids=str)
def test_every_single_table_edit_refuses_as_reference(sizes):
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    els, index, circ, bullet, z = skew_view(S)
    n = len(els)
    found = set()
    for op, table in (("circ", circ), ("bullet", bullet)):
        for i, j in itertools.product(range(n), repeat=2):
            for v in range(n):
                if v != table[i][j]:
                    rows = edited(table, i, j, v)
                    pair = (rows, bullet) if op == "circ" else (circ, rows)
                    found.add((op, reconstructs_as_reference(els, index, *pair, z)))
    # a • edit leaves ∘ certified; a ∘ edit never does
    assert found == {("circ", (False, False)), ("bullet", (False, True))}


@pytest.mark.parametrize("sizes, count", [((2, 2, 2, 2), 60), ((3, 3, 3, 3), 12)], ids=str)
def test_seeded_bullet_and_class_preserving_edits_refuse_as_reference(sizes, count):
    S = bset.to_skew(bset.generate_boolean_set(sizes, seed=2))
    els, index, circ, bullet, z = skew_view(S)
    n = len(els)
    rng = random.Random(count)
    raw = raw_skew(S)
    seen = set()
    for m in range(count):
        rows = bullet
        for _ in range(1 + m % 3):
            i, j = rng.randrange(n), rng.randrange(n)
            rows = edited(rows, i, j, rng.choice([v for v in range(n) if v != rows[i][j]]))
        seen.add(reconstructs_as_reference(els, index, circ, rows, z))
        mutant = class_preserving_circ_mutant(raw, rng)
        tables = index_tables(els, mutant["circ"], raw["bullet"], S.zero)
        seen.add(reconstructs_as_reference(*tables))
    assert seen == {(False, True), (False, False)}


@pytest.mark.parametrize("sizes", [(2, 2), (2, 2, 2)], ids=str)
def test_circ_rows_moved_into_another_class_refuse_as_reference(sizes):
    # a member's ∘ row replaced by the row of another class: the number of
    # classes, the atom rows and the codes stay, but the member's support
    # is not that of its new class
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    els, index, circ, bullet, z = skew_view(S)
    cls_idx, reps, _ = bset._row_classes(els, circ)
    moved = 0
    for i, c in enumerate(cls_idx):
        if i not in reps:
            for d, r in enumerate(reps):
                if d != c:
                    rows = list(circ)
                    rows[i] = circ[r]
                    assert reconstructs_as_reference(els, index, rows, bullet, z) == (False, False)
                    moved += 1
    assert moved > len(els)


@pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (2, 2, 2)], ids=str)
def test_atom_row_edits_refuse_as_reference(sizes):
    # an entry of an atom's ∘ rows, in every row of the atom class, set to
    # the zero or to another member of the atom: the classes stay, and the
    # element of that column takes the code of another element, while ∘
    # still follows the formula on the codes
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    els, index, circ, bullet, z = skew_view(S)
    X = bset.from_skew(S)
    edits = 0
    for a in X.base.atoms:
        members = [index[x] for x in X.stalks[a]]
        row = circ[members[0]]
        for j, old in enumerate(row):
            for v in [z, *members]:
                if v != old:
                    edited_row = row[:j] + [v] + row[j + 1:]
                    rows = [edited_row if i in members else r for i, r in enumerate(circ)]
                    assert reconstructs_as_reference(els, index, rows, bullet, z) == (False, False)
                    edits += 1
    assert edits > len(els)


@pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (1, 1, 2)], ids=str)
def test_circ_closed_parts_of_a_product_refuse_as_reference(sizes):
    # the product without some of its top elements: ∘ stays closed (every
    # restriction of a kept element is kept), the classes, atoms and codes
    # are as in the product, and ∘ follows the formula, but the codes miss
    # part of the product; • entries that were left out become x
    raw = product_raw(sizes)
    els = raw["elements"]
    top = [x for x in els if "0" not in x.split(",")]
    parts = 0
    for r in range(1, len(top)):
        for drop in itertools.combinations(top, r):
            keep = [x for x in els if x not in drop]
            pos = [els.index(x) for x in keep]
            circ = [[raw["circ"][i][j] for j in pos] for i in pos]
            bullet = [[v if v in keep else x for v in (raw["bullet"][i][j] for j in pos)]
                      for i, x in zip(pos, keep)]
            tables = index_tables(keep, circ, bullet, raw["zero"])
            assert reconstructs_as_reference(*tables) == (False, False)
            parts += 1
    assert parts == 2 ** len(top) - 2


# ------------------------------------------------------------- to_skew

def relabeled(X, swap):
    """X with the ids of each pair in ``swap`` exchanged in its stalks and
    restrictions: a Boolean set on the same ids as X, isomorphic to X."""
    name = {x: x for x in X.elements}
    for a, b in swap:
        name[a], name[b] = b, a
    stalks = {e: tuple(name[x] for x in X.stalks[e]) for e in X.base.elements}
    maps = {k: {name[x]: name[y] for x, y in m.items()} for k, m in cover_maps(X).items()}
    return bset.validate_boolean_set(bset.validate_presheaf(X.base, stalks, maps))


def test_to_skew_keeps_the_set_it_was_built_from():
    sets = [bset.generate_boolean_set(s, seed=3) for s in [(1,), (2, 1), (2, 2, 2), (3, 3, 3, 3)]]
    sets += [etale.dual_bset(seeded_space(random.Random(s))) for s in range(8)]
    for X in sets:
        S = bset.to_skew(X)
        assert bset.from_skew(S) is X
        assert skew.gamma_classes(S).algebra is X.base
        T = skew.validate_skew(*raw_tables(S))
        assert bset_view(bset.from_skew(T)) == bset_view(ref.reconstruct(*skew_view(S))[0])


@pytest.mark.parametrize("sizes, swap", [
    pytest.param((2, 1), [("a1", "(a1,b1)")], id="stalks"),
    pytest.param((2, 1), [("a1", "a2")], id="atom order"),
    pytest.param((2, 1), [("(a1,b1)", "(a2,b1)")], id="restrictions"),
    pytest.param((1,), [("0", "a1")], id="zero"),
    pytest.param((2,), [("0", "a2")], id="zero with the same atom row"),
])
def test_tables_keep_only_their_own_set(sizes, swap):
    # the tables of X read back X itself; validated with a set on the same
    # ids whose stalks, atom stalk order, restrictions or zero differ, they
    # do not read it back, which is an internal error; validated with no
    # set, they rebuild their own, not the caller's
    X = bset.generate_boolean_set(sizes)
    Y = relabeled(X, swap)
    S = bset.to_skew(X)
    els, index, circ, bullet, z = skew_view(S)
    assert bset.from_skew(S) is X
    classes = bset._row_classes(els, circ)
    bset._read_back(X, els, circ, z, classes)
    with pytest.raises(AssertionError):
        bset._read_back(Y, els, circ, z, classes)
    with pytest.raises(AssertionError):
        skew._validate_index(els, index, circ, bullet, z, Y)
    T = skew._validate_index(els, index, circ, bullet, z)
    assert T._bset is not Y and T._bset is not X
    assert bset_view(T._bset) == bset_view(ref.reconstruct(els, index, circ, bullet, z)[0])


def test_tables_do_not_read_back_a_set_whose_codes_are_permuted():
    # X and Y share elements, stalks, zero, supports and fields; only the
    # restrictions of the top stalk to the 2-element atom are exchanged, so
    # Y's codes are X's permuted, and X's tables do not read Y back
    X = bset.generate_boolean_set((2, 1))
    maps = cover_maps(X)
    (t1, t2), atom = X.stalks[X.base.top], X.base.atoms[0]
    assert len(X.stalks[atom]) == 2
    m = maps[(X.base.top, atom)]
    m[t1], m[t2] = m[t2], m[t1]
    Y = bset.validate_boolean_set(bset.validate_presheaf(X.base, X.stalks, maps))
    assert (Y.elements, Y.zero, Y._coords[1:]) == (X.elements, X.zero, X._coords[1:])
    assert sorted(Y._coords[0]) == sorted(X._coords[0]) and Y._coords[0] != X._coords[0]
    els, index, circ, bullet, z = skew_view(bset.to_skew(X))
    classes = bset._row_classes(els, circ)
    bset._read_back(X, els, circ, z, classes)
    with pytest.raises(AssertionError):
        bset._read_back(Y, els, circ, z, classes)
    with pytest.raises(AssertionError):
        skew._validate_index(els, index, circ, bullet, z, Y)


def test_tables_with_the_codes_of_another_set_rebuild_their_own():
    # the product tables of two 1-element atoms, and a set with one
    # 3-element atom on the same ids in the same order: both code the
    # elements 0..3, but the supports and fields differ, so the tables do
    # not read that set back, and validated without it they rebuild their
    # own
    raw = product_raw((1, 1))
    els = raw["elements"]
    b2 = balg.validate_balg(["0", "a"], [("0", "a")], "0")
    P = bset.validate_presheaf(b2, {"0": els[:1], "a": els[1:]},
                               {("a", "0"): {x: els[0] for x in els[1:]}})
    X = bset.validate_boolean_set(P)
    tables = index_tables(els, raw["circ"], raw["bullet"], raw["zero"])
    elements, index, circ, bullet, z = tables
    classes = bset._row_classes(elements, circ)
    cls_idx, reps, _ = classes
    coords = bset._skew_certificate(circ, bullet, z, cls_idx, reps)[0]
    assert X.elements == elements and coords[0] == X._coords[0] == [0, 1, 2, 3]
    assert X.index[X.zero] == z
    with pytest.raises(AssertionError):
        bset._read_back(X, elements, circ, z, classes)
    with pytest.raises(AssertionError):
        skew._validate_index(elements, index, circ, bullet, z, X)
    Y = bset._reconstruct(elements, circ, bullet, z, classes)[0]
    assert Y is not X
    assert bset_view(Y) == bset_view(ref.reconstruct(*tables)[0])
    assert bset_view(skew._validate_index(elements, index, circ, bullet, z)._bset) == bset_view(Y)


# ------------------------------------------------------ one coordinate system

def certified_coordinates(S):
    """The atom coordinates the certificate reads off S's tables."""
    els, _, circ, bullet, z = skew_view(S)
    cls_idx, reps, _ = bset._row_classes(els, circ)
    coords, circ_ok = bset._skew_certificate(circ, bullet, z, cls_idx, reps)
    assert circ_ok
    return coords


def assert_one_coordinate_system(X):
    """The certificate of to_skew(X) reads X's own coordinates, the ones
    its presheaf gives, and to_skew keeps X; the set rebuilt from the id
    tables keeps the coordinates its presheaf gives, X's again."""
    S = bset.to_skew(X)
    assert certified_coordinates(S) == X._coords == bset._presheaf_coordinates(X)
    assert bset.from_skew(S) is X
    Y = bset.from_skew(skew.validate_skew(*raw_tables(S)))
    assert Y is not X
    assert Y._coords == bset._presheaf_coordinates(Y) == X._coords


def test_one_coordinate_system_on_every_shape_up_to_81():
    every = shapes(81)
    for k, sizes in enumerate(every):
        assert_one_coordinate_system(bset.generate_boolean_set(sizes, seed=k))


def test_one_coordinate_system_on_docs_and_etale_duals():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        for X in textio.build(textio.parse(path.read_text())).values():
            if isinstance(X, bset.BooleanSet):
                assert_one_coordinate_system(X)
                seen += 1
    assert seen >= 3
    rng = random.Random(18)
    for _ in range(40):
        assert_one_coordinate_system(etale.dual_bset(seeded_space(rng)))


# -------------------------------------------------------------- row sharing

def test_one_circ_row_per_r_class_whatever_the_caller_shares():
    S = bset.to_skew(bset.generate_boolean_set((2,) * 6))
    els, circ, bullet, zero = raw_tables(S)
    assert len({id(row) for row in circ}) == 729  # every row its own list
    T = skew.validate_skew(els, circ, bullet, zero)
    assert len({id(r) for r in T.circ_t}) == 64
    assert T.circ_t == S.circ_t
    assert next(skew._right_normal_witnesses(T.elements, T.circ_t), None) is None
