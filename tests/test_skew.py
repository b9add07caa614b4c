import itertools
import random

import pytest

from skewstone import balg, bset, skew
from skewstone.errors import (
    NotABand,
    NotAMorphism,
    SkewAxiomViolation,
    StructureError,
)

import mutation_engine as me
from conftest import X3_CIRC, make_prod
from morphism_reference import find_balg_isomorphism


def b2_as_skew():
    return skew.validate_skew(
        ["0", "1"], [["0", "0"], ["0", "1"]], [["0", "1"], ["1", "1"]], "0"
    )


def test_x3_validates(x3_skew):
    assert x3_skew.zero == "0"
    assert x3_skew.circ("x1", "x2") == "x2"
    assert x3_skew.bullet("x1", "x2") == "x1"


def test_swapped_bullet_violates_sb1():
    bad = [["0", "x1", "x2"], ["x1", "x1", "x2"], ["x2", "x1", "x2"]]
    with pytest.raises(SkewAxiomViolation) as e:
        skew.validate_skew(["0", "x1", "x2"], X3_CIRC, bad, "0")
    assert e.value.law == "skew.SB1"
    assert e.value.witness == ("x1", "x2")


def test_one_element_algebra():
    one = skew.validate_skew(["0"], [["0"]], [["0"]], "0")
    assert one.elements == ("0",)
    assert skew.check_consequences(one).all_ok
    gq = skew.gamma_classes(one)
    assert len(gq.classes) == 1 and len(gq.algebra.elements) == 1


def test_natural_order(x3_skew):
    assert skew.natural_leq(x3_skew, "0", "x1")
    assert not skew.natural_leq(x3_skew, "x1", "x2")
    for x in x3_skew.elements:
        assert skew.natural_leq(x3_skew, x, x)


def test_order_equivalence_both_operations(x3_skew):
    S = x3_skew
    for x in S.elements:
        for y in S.elements:
            assert (S.circ(x, y) == x) == (S.bullet(x, y) == y)


def test_zero_is_unique_minimum(x3_skew):
    S = x3_skew
    mins = [x for x in S.elements if all(skew.natural_leq(S, x, y) for y in S.elements)]
    assert mins == ["0"]


def test_commutation_equivalence(x3_skew):
    S = x3_skew
    for x in S.elements:
        for y in S.elements:
            assert (S.circ(x, y) == S.circ(y, x)) == (S.bullet(x, y) == S.bullet(y, x))


def test_skew_rel_complement(x3_skew):
    assert skew.skew_rel_complement(x3_skew, "x1", "x2") == "0"
    for x in x3_skew.elements:
        assert skew.skew_rel_complement(x3_skew, x, "0") == x


def test_prod_skew_rel_complement():
    S = bset.to_skew(make_prod())
    assert skew.skew_rel_complement(S, "(a1,b1)", "a1") == "b1"


def _assert_bullet_is_join_of_complement(S):
    # x•y equals the least upper bound of x and y\x in the natural order
    for x in S.elements:
        for y in S.elements:
            c = skew.skew_rel_complement(S, y, x)
            ubs = [
                z for z in S.elements
                if skew.natural_leq(S, x, z) and skew.natural_leq(S, c, z)
            ]
            least = [z for z in ubs if all(skew.natural_leq(S, z, u) for u in ubs)]
            assert least == [S.bullet(x, y)]


def test_bullet_is_join_of_complement(x3_skew):
    _assert_bullet_is_join_of_complement(x3_skew)


@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 2), (2, 1, 1)])
def test_bullet_join_identity_on_generated(sizes):
    _assert_bullet_is_join_of_complement(bset.to_skew(bset.generate_boolean_set(sizes)))


def test_gamma_classes_x3(x3_skew):
    gq = skew.gamma_classes(x3_skew)
    assert gq.classes == {"[0]": ("0",), "[x1]": ("x1", "x2")}
    assert len(gq.algebra.elements) == 2


def test_gamma_classes_prod():
    S = bset.to_skew(make_prod())
    gq = skew.gamma_classes(S)
    b4 = balg.validate_balg(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "0"
    )
    assert find_balg_isomorphism(gq.algebra, b4) is not None


def test_down_closure(x3_skew):
    assert x3_skew.down_closure("x1") == ("0", "x1")


def test_meets(x3_skew):
    assert skew.meet(x3_skew, "x1", "x2") == "0"
    assert skew.is_wedge_algebra(x3_skew)
    for x in x3_skew.elements:
        assert skew.meet(x3_skew, x, x) == x


def test_prod_meets():
    S = bset.to_skew(make_prod())
    assert skew.meet(S, "a1", "(a2,b1)") == "0"


def test_consequences(x3_skew):
    rep = skew.check_consequences(x3_skew)
    assert rep.all_ok
    assert {i.law for i in rep.items} == {
        "circ_over_bullet_left",
        "circ_over_bullet_right",
        "gamma_right_zero_circ",
        "gamma_left_zero_bullet",
        "right_normal_circ",
        "bullet_identity_zero",
    }


def test_morphisms(x3_skew):
    S = x3_skew
    ident = skew.validate_skew_morphism({e: e for e in S.elements}, S, S)
    assert skew.is_wedge_morphism(ident)

    collapse = skew.validate_skew_morphism(
        {"0": "0", "x1": "1", "x2": "1"}, S, b2_as_skew()
    )
    assert not skew.is_wedge_morphism(collapse)

    swap = skew.validate_skew_morphism({"0": "0", "x1": "x2", "x2": "x1"}, S, S)
    assert swap.mapping["x1"] == "x2"

    with pytest.raises(NotAMorphism):
        skew.validate_skew_morphism({"0": "0", "x1": "x1", "x2": "0"}, S, S)


def test_morphism_composition_and_induced(x3_skew):
    S = x3_skew
    swap = skew.validate_skew_morphism({"0": "0", "x1": "x2", "x2": "x1"}, S, S)
    twice = skew.compose_skew_morphisms(swap, swap)
    assert twice.mapping == {e: e for e in S.elements}
    # induced hom of a composite is the composite of induced homs
    collapse = skew.validate_skew_morphism(
        {"0": "0", "x1": "1", "x2": "1"}, S, b2_as_skew()
    )
    comp = skew.compose_skew_morphisms(collapse, swap)
    for c in skew.gamma_classes(S).algebra.elements:
        assert comp.induced.mapping[c] == collapse.induced.mapping[
            swap.induced.mapping[c]
        ]


def test_sb5_failure_reported():
    # circ forms a left zero band on {0,x}: fails SB4 before SB5
    els = ["0", "x"]
    circ = [["0", "0"], ["x", "x"]]
    bullet = [["0", "x"], ["x", "x"]]
    with pytest.raises(StructureError):
        skew.validate_skew(els, circ, bullet, "0")


def test_enumerate_endomorphisms(x3_skew):
    ms = list(skew.enumerate_skew_morphisms(x3_skew, x3_skew))
    assert len(ms) == 5
    maps = {tuple(sorted(m.mapping.items())) for m in ms}
    assert tuple(sorted({"0": "0", "x1": "x1", "x2": "x2"}.items())) in maps
    assert tuple(sorted({"0": "0", "x1": "x2", "x2": "x1"}.items())) in maps


# ------------------------------------------- band check against the triple scan

def _reference_band_check(elements, table, op):
    # the exhaustive idempotence and (i, j, k) associativity scan
    n = len(elements)
    for i in range(n):
        if table[i][i] != i:
            raise NotABand((elements[i],), op, "idempotent")
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = table[ti[j]]
            tj = table[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    raise NotABand((elements[i], elements[j], elements[k]), op, "assoc")


def _band_outcome(check, elements, table, op):
    try:
        check(elements, table, op)
    except NotABand as e:
        return e.law, e.witness
    return None


def _assert_band_check_matches_reference(elements, table, op):
    expected = _band_outcome(_reference_band_check, elements, table, op)
    assert _band_outcome(skew._band_check, elements, table, op) == expected
    return expected


def _skew_raw(S):
    els = list(S.elements)
    return {
        "kind": "skew", "elements": els, "zero": S.zero,
        "circ": [[S.circ(x, y) for y in els] for x in els],
        "bullet": [[S.bullet(x, y) for y in els] for x in els],
    }


@pytest.mark.parametrize("sizes, count", [
    ((2, 2, 2), 40), ((2, 2, 2, 2), 24), ((3, 3, 3, 3), 6),
])
def test_band_check_matches_triple_scan_on_mutants(sizes, count):
    raw = _skew_raw(bset.to_skew(bset.generate_boolean_set(sizes, seed=5)))
    elements, index = balg._index_elements(raw["elements"])
    rng = random.Random(len(elements))
    ops = set()
    while len(ops) < 2 or count > 0:
        mutant = me.mutate_skew(raw, rng)
        op = "circ" if mutant["circ"] is not raw["circ"] else "bullet"
        ops.add(op)
        count -= 1
        table = skew._as_index_table(elements, index, mutant[op], op)
        _assert_band_check_matches_reference(elements, table, op)


def test_band_check_one_element():
    assert _assert_band_check_matches_reference(("e",), [[0]], "circ") is None
    assert bset.validate_band(["e"], [["e"]]).circ("e", "e") == "e"


def test_band_check_all_two_and_three_element_idempotent_tables():
    # every magma on two elements, and every idempotent one on three
    for n, cells in ((2, range(4)), (3, [1, 2, 3, 5, 6, 7])):
        els = tuple("abc"[:n])
        for values in itertools.product(range(n), repeat=len(cells)):
            flat = [i // n if i % (n + 1) == 0 else 0 for i in range(n * n)]
            for cell, v in zip(cells, values):
                flat[cell] = v
            table = [flat[r * n:(r + 1) * n] for r in range(n)]
            _assert_band_check_matches_reference(els, table, "circ")


def test_band_check_witness_middle_is_not_a_generator():
    # a, the middle of the first failing triple (b, a, c), is b∘c and has the
    # smallest row image of the three, so it is produced before it is visited
    # and never becomes a generator: Light's test fails at c, and the witness
    # comes from the triple scan.
    els = ("a", "b", "c", "d")
    table = [[0, 0, 0, 3], [1, 1, 0, 3], [0, 1, 2, 3], [3, 3, 3, 3]]
    assert table[1][2] == 0
    assert len(set(table[0])) < len(set(table[1])) < len(set(table[2]))
    cls, reps, _ = bset._row_classes(els, table)
    assert not skew._light_associative([tuple(r) for r in table], cls, reps)
    assert _assert_band_check_matches_reference(els, table, "circ") == (
        "band.assoc.circ", ("b", "a", "c")
    )


def test_validate_band_rejects_with_first_triple():
    els = ["a", "b", "c", "d"]
    table = [["a", "a", "a", "d"], ["b", "b", "a", "d"], ["a", "b", "c", "d"],
             ["d", "d", "d", "d"]]
    with pytest.raises(NotABand) as e:
        bset.validate_band(els, table)
    assert (e.value.law, e.value.witness) == ("band.assoc.circ", ("b", "a", "c"))

