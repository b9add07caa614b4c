"""A Boolean algebra keeps its Stone code and no operation table.

``FinBooleanAlgebra`` holds each element's atom code (``_code``) and the
element of each code (``_pos``); meets, joins and relative complements
are read off the codes.  Its outputs must be those of the table-based
reads it replaced (``balg_tables_reference``): on every powerset up to 8
atoms, its elements in binary counting order (where each element's index
is its code) and reversed, on the bases of the Boolean band quotients, on the algebras that
every relation on up to 4 elements and seeded order mutants give, and on
seeded maps and homomorphism edits through ``validate_bahom`` (verdict,
law and witness).  Its Hasse covers, read off the code, are the ones the
walk over its order rows finds (``order_reference.cover_pairs``) on all of
these and on the class orders of certified skew tables.  After a run of
every read, the algebra holds no table of rows and no dict larger than its
element count.
"""

import itertools
import random

import pytest

from skewstone import balg, bset
from skewstone.errors import StructureError

import balg_tables_reference as ref
import mutation_engine as me
import order_reference as order_ref
from test_duality_layer import right_normal_bands
from test_morphism_atoms import bases, edits, outcome
from test_quotients import all_bands


def powerset(k, reverse=False):
    points = tuple(f"p{i}" for i in range(k))
    B = balg.powerset_balg(points, balg.render_braces(points))[0]
    if not reverse:
        return B
    return balg.validate_balg(B.elements[::-1], [(lo, hi) for hi, lo in B.cover_pairs], B.bottom)


def assert_reads_match(B, pairs=True):
    """Every read of B equals the table-based one, and its covers, read
    off the Stone code, are the ones the walk over the order rows finds;
    ``pairs`` also compares meet, join and relative complement at every
    pair of elements."""
    T = ref.Tables(B)
    els = B.elements
    assert B.cover_pairs == order_ref.cover_pairs(B)
    assert (B.top, B.atoms) == (T.top, T.atoms)
    if pairs:
        for x, y in itertools.product(els, repeat=2):
            assert (B.meet(x, y), B.join(x, y), B.rel_complement(x, y)) == \
                (T.meet(x, y), T.join(x, y), T.rel_complement(x, y)), (x, y)
    for x in els:  # the join of the atoms below x, and of x and the atoms
        below = [a for a in B.atoms if B.leq(a, x)]
        assert B.join_all(below) == T.join_all(below) == x
        assert B.join_all([x, *B.atoms]) == T.join_all([x, *B.atoms])
    for f, i in zip(B.all_filters(), B.all_ideals()):
        assert B.is_prime_filter(f.members) == T.is_prime_filter(f.members)
        assert B.is_prime_ideal(i.members) == T.is_prime_ideal(i.members)
    assert [(u.generator, u.members) for u in B.ultrafilters()] == \
        [(u.generator, u.members) for u in T.ultrafilters()]
    assert str(balg.classical_properties_report(B)) == str(T.classical_properties_report())


@pytest.mark.parametrize("reverse", [False, True], ids=["counting", "reversed"])
@pytest.mark.parametrize("k", range(9))
def test_powersets_read_as_the_tables_did(k, reverse):
    B = powerset(k, reverse)
    assert (B._pos == list(range(1 << k))) == (not reverse or k == 0)
    assert_reads_match(B)


def test_band_quotient_bases_read_as_the_tables_did():
    els = list("pqrs")
    sources = all_bands() + [bset.validate_band(els, [[els[v] for v in row] for row in rows])
                             for rows in right_normal_bands(4)]
    boolean = [S for S in sources if bset.is_boolean_band(S)]
    assert len(boolean) > 5
    for S in boolean:
        assert_reads_match(bset.band_to_bset(S).base)


def test_every_small_relation_and_order_mutants_read_as_the_tables_did():
    accepted = 0
    for n in range(1, 5):
        els = [str(i) for i in range(n)]
        off = [(x, y) for x in els for y in els if x != y]
        for bits in range(1 << len(off)):
            pairs = [p for k, p in enumerate(off) if bits >> k & 1]
            for bottom in els:
                try:
                    B = balg.validate_balg(els, pairs, bottom)
                except StructureError:
                    continue
                assert_reads_match(B)
                accepted += 1
    assert accepted == 1 + 2 + 12 * 2
    accepted = 0
    for k, count in [(4, 60), (6, 30), (8, 6)]:
        B = powerset(k)
        raw = {"kind": "balg", "elements": list(B.elements), "bottom": B.bottom,
               "leq": [(lo, hi) for hi, lo in B.cover_pairs]}
        rng = random.Random(k)
        for _ in range(count):
            mutant = me.mutate_balg(raw, rng)
            try:
                M = balg.validate_balg(mutant["elements"], mutant["leq"], mutant["bottom"])
            except (StructureError, ValueError):
                continue
            assert_reads_match(M, pairs=k < 6)
            accepted += 1
    assert accepted > 0


def test_validate_bahom_matches_the_tables_on_seeded_maps():
    algebras = bases() + [powerset(4), powerset(2, True), powerset(3, True)]
    assert all(A.cover_pairs == order_ref.cover_pairs(A) for A in algebras)
    tables = {id(A): ref.Tables(A) for A in algebras}
    rng, seen = random.Random(34), set()
    for A in algebras:
        for B in algebras:
            cases = []
            for _ in range(6):
                amap = {a: rng.choice(B.elements) for a in A.atoms}
                h = balg._atom_join_map(A, B, amap)
                cases += [h, *edits(h, list(B.elements), rng, 3)]
                mm = {x: rng.choice(B.elements) for x in A.elements}
                cases.append({**mm, A.bottom: B.bottom})
            for mm in cases:
                got = outcome(balg.validate_bahom, mm, A, B)
                assert got == outcome(ref.validate_bahom, mm, tables[id(A)], tables[id(B)]), mm
                seen.add(got[:1] if got[0] == "ok" else got[:2])
    assert {("ok",), ("NotAHomomorphism", "hom.bottom"), ("NotAHomomorphism", "hom.meet"),
            ("NotAHomomorphism", "hom.join")} <= seen


# ---------------------------------------------------------------- route guard

def class_order(sizes):
    """The base that bset._reconstruct builds from the skew tables of the
    generated Boolean set of ``sizes``: the order of its ∘ row classes."""
    S = bset.to_skew(bset.generate_boolean_set(sizes))
    X, circ_ok = bset._reconstruct(S.elements, S.circ_t, S.bullet_t, S._zero_i,
                                    bset._row_classes(S.elements, S.circ_t))
    assert circ_ok and X is not None
    return X.base


@pytest.mark.parametrize("sizes", [(1,), (2, 1), (1,) * 5, (3, 3, 3, 3), (1,) * 7])
def test_class_order_covers_are_the_walk(sizes):
    B = class_order(sizes)
    assert not hasattr(B, "_covers")
    assert B.cover_pairs == order_ref.cover_pairs(B)


@pytest.mark.parametrize("make", [lambda: powerset(8), lambda: class_order((1,) * 7)],
                         ids=["powerset-8", "class-order-1x7"])
def test_reads_leave_no_table_on_the_algebra(make):
    B = make()
    n = len(B.elements)
    els = B.elements
    for x, y in zip(els, els[::-1]):
        B.meet(x, y), B.join(x, y), B.rel_complement(x, y)
    B.top, B.atoms, B.ultrafilters()
    balg.validate_bahom({x: x for x in els}, B, B)
    swapped = {**{x: x for x in els}, els[1]: els[-1], els[-1]: els[1]}
    with pytest.raises(StructureError):
        balg.validate_bahom(swapped, B, B)
    for name, value in vars(B).items():
        rows = isinstance(value, (list, tuple)) and any(isinstance(r, list) for r in value)
        assert not rows, name
        assert not (isinstance(value, dict) and len(value) > n), name
    assert len(B._code) == len(B._pos) == n
