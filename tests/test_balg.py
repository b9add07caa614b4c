import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import balg
from skewstone.errors import (
    NoBottom,
    NoRelativeComplement,
    NotAHomomorphism,
    NotALattice,
    NotAPoset,
    NotDisjoint,
    NotDistinct,
    NotDistributive,
    StructureError,
    ZeroArgument,
)

from conftest import make_b8
from morphism_reference import find_balg_isomorphism

import mutation_engine as me
import order_reference


def test_powerset_of_two_atoms_is_valid(b4):
    assert len(b4.elements) == 4
    assert b4.bottom == "0"
    assert b4.top == "1"
    assert b4.atoms == ("a", "b")


def test_diamond_is_not_distributive():
    with pytest.raises(NotDistributive) as e:
        balg.validate_balg(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
            "0",
        )
    assert e.value.witness == ("a", "b", "c")


def test_chain_has_no_relative_complement():
    with pytest.raises(NoRelativeComplement) as e:
        balg.validate_balg(["0", "m", "1"], [("0", "m"), ("m", "1")], "0")
    assert e.value.witness == ("m", "1")


def test_antisymmetry_failure():
    with pytest.raises(NotAPoset):
        balg.validate_balg(["x", "y"], [("x", "y"), ("y", "x")], "x")


def test_no_lattice_failure():
    # two incomparable maximal elements: no join
    with pytest.raises(NotALattice):
        balg.validate_balg(["0", "a", "b"], [("0", "a"), ("0", "b")], "0")


def test_a_semilattice_refusal_names_the_first_pair_without_a_meet():
    # c and d have two greatest common lower bounds, a and b have none: the
    # pair named is the first in element order
    pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    for els, first in [(["c", "d", "a", "b"], ("c", "d")), (["a", "b", "c", "d"], ("a", "b"))]:
        with pytest.raises(NotALattice) as info:
            balg.validate_meet_semilattice(els, pairs)
        assert (info.value.law, info.value.witness) == ("order.meet_exists", first)


def test_wrong_bottom_rejected():
    with pytest.raises(NoBottom):
        balg.validate_balg(["0", "1"], [("0", "1")], "1")


def test_rel_complement_examples(b4):
    assert b4.rel_complement("1", "a") == "b"
    for e in b4.elements:
        assert b4.rel_complement(e, e) == "0"
        assert b4.rel_complement(e, "0") == e


def test_ultrafilters_b2(b2):
    us = b2.ultrafilters()
    assert len(us) == 1
    assert us[0].members == frozenset({"1"})


def test_ultrafilters_b4(b4):
    us = b4.ultrafilters()
    assert [u.generator for u in us] == ["a", "b"]
    assert us[0].members == frozenset({"a", "1"})


def test_ultrafilters_b8(b8):
    assert len(b8.ultrafilters()) == 3


def test_separating_ultrafilter(b4, b2):
    f = balg.separating_ultrafilter(b4, "a", "b")
    assert f.generator == "a" and "a" in f and "b" not in f
    f = balg.separating_ultrafilter(b4, "a", "1")
    assert f.generator == "b" and "1" in f and "a" not in f
    with pytest.raises(NotDistinct):
        balg.separating_ultrafilter(b2, "1", "1")
    with pytest.raises(ZeroArgument):
        balg.separating_ultrafilter(b4, "0", "a")


def test_extend_filter_avoiding_ideal(b4):
    f = balg.extend_filter_avoiding_ideal(
        b4, b4.principal_filter("1"), b4.principal_ideal("0")
    )
    assert f.generator == "a"  # first in deterministic order
    f = balg.extend_filter_avoiding_ideal(
        b4, b4.principal_filter("a"), b4.principal_ideal("b")
    )
    assert f.generator == "a"
    with pytest.raises(NotDisjoint):
        balg.extend_filter_avoiding_ideal(
            b4, b4.principal_filter("a"), b4.principal_ideal("a")
        )


def test_stone_map_examples(b4, b8):
    assert b4.stone_map("a") == frozenset({b4.principal_filter("a")})
    assert b4.stone_map("0") == frozenset()
    ab = b8.join("{p}", "{q}")
    assert len(b8.stone_map(ab)) == 2


def test_stone_map_is_order_embedding(b8):
    for a in b8.elements:
        for b in b8.elements:
            assert (b8.stone_map(a) <= b8.stone_map(b)) == b8.leq(a, b)


def test_stone_map_preserves_operations(b8):
    for a in b8.elements:
        for b in b8.elements:
            assert b8.stone_map(b8.meet(a, b)) == b8.stone_map(a) & b8.stone_map(b)
            assert b8.stone_map(b8.join(a, b)) == b8.stone_map(a) | b8.stone_map(b)


def test_ultrafilters_are_principal_atoms(b8):
    us = b8.ultrafilters()
    assert len(us) == len(b8.atoms)
    for u, atom in zip(us, b8.atoms):
        assert u.members == frozenset(b8.up_set(atom))


def test_prime_ideal_complement_is_prime_filter(b8):
    everything = frozenset(b8.elements)
    for i in b8.all_ideals():
        if b8.is_prime_ideal(i.members):
            assert b8.is_prime_filter(everything - i.members)


def test_proper_hom_examples(b2, b4):
    ident = balg.validate_bahom({e: e for e in b4.elements}, b4, b4)
    assert balg.is_proper_hom(ident)
    top_inc = balg.validate_bahom({"0": "0", "1": "1"}, b2, b4)
    assert balg.is_proper_hom(top_inc)
    atom_inc = balg.validate_bahom({"0": "0", "1": "a"}, b2, b4)
    assert not balg.is_proper_hom(atom_inc)


def test_hom_violations(b2, b4):
    with pytest.raises(NotAHomomorphism):
        balg.validate_bahom({"0": "a", "1": "1"}, b2, b4)
    with pytest.raises(NotAHomomorphism):
        # fails meet preservation: a∧b=0 but both map to b
        balg.validate_bahom({"0": "0", "a": "b", "b": "b", "1": "1"}, b4, b4)


def test_filter_ideal_predicates(b4):
    assert b4.is_filter({"a", "1"})
    assert not b4.is_filter({"a", "b", "1"})  # not down directed to a common member
    assert b4.is_ideal({"0", "a"})
    assert not b4.is_ideal({"a"})


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=4))
def test_powerset_algebras_validate(k):
    points = tuple(f"p{i}" for i in range(k))
    alg, id_of, set_of = balg.powerset_balg(points, balg.render_braces(points))
    assert len(alg.elements) == 2 ** k
    assert len(alg.atoms) == k


def test_powerset_refuses_a_renderer_that_is_not_injective():
    with pytest.raises(ValueError, match=r"^subset renderer not injective at '1'$"):
        balg.powerset_balg(("p", "q"), lambda s: str(len(s)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_relative_complement_laws(k, _):
    points = tuple(f"p{i}" for i in range(k))
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    for e in B.elements:
        for f in B.elements:
            c = B.rel_complement(e, f)
            assert B.leq(c, e)
            assert B.meet(c, B.meet(e, f)) == B.bottom
            assert B.join(c, B.meet(e, f)) == e


def test_isomorphism_search(b4):
    alg, _, _ = balg.powerset_balg(("u", "v"), balg.render_braces(("u", "v")))
    iso = find_balg_isomorphism(b4, alg)
    assert iso is not None and iso["0"] == "{}"
    b2 = balg.validate_balg(["0", "1"], [("0", "1")], "0")
    assert find_balg_isomorphism(b4, b2) is None


# --------------------------------- validate_balg against the cubic reference

def _reference_validate_balg(elements, leq_pairs, bottom):
    # the exhaustive lattice, bottom, distributivity and relative-complement
    # scans, as they ran on every input before acceptance by the Stone map
    elements, index = balg._index_elements(elements)
    n = len(elements)
    if bottom not in index:
        raise ValueError(f"declared bottom {bottom!r} is not an element")
    up = order_reference.check_poset(elements, index, leq_pairs)
    down = order_reference.down_masks(n, up)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = balg._bound(down[i] & down[j], down)
            if m < 0:
                raise NotALattice((elements[i], elements[j]), "meet")
            meet[i][j] = m
            u = balg._bound(up[i] & up[j], up)
            if u < 0:
                raise NotALattice((elements[i], elements[j]), "join")
            join[i][j] = u
    bot = index[bottom]
    if up[bot] != (1 << n) - 1:
        for i in range(n):
            if not up[bot] >> i & 1:
                raise NoBottom((bottom, elements[i]))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise NotDistributive((elements[a], elements[b], elements[c]))
    comp_in = {}
    for b in range(n):
        for a in range(n):
            if not down[b] >> a & 1:
                continue
            found = [c for c in range(n)
                     if down[b] >> c & 1 and meet[c][a] == bot and join[c][a] == b]
            if not found:
                raise NoRelativeComplement((elements[a], elements[b]))
            assert len(found) == 1
            comp_in[b, a] = found[0]
    return meet, join, list(comp_in.items())


def _balg_outcome(validate, elements, leq_pairs, bottom):
    try:
        result = validate(elements, leq_pairs, bottom)
    except StructureError as e:
        return type(e), e.law, e.witness
    if isinstance(result, balg.FinBooleanAlgebra):
        return operation_tables(result)
    return result


def operation_tables(B):
    """The meet and join tables of B, and per b and each a <= b the
    relative complement b minus a, as indices, read through B's methods."""
    els, ix = B.elements, B.index
    return ([[ix[B.meet(x, y)] for y in els] for x in els],
            [[ix[B.join(x, y)] for y in els] for x in els],
            [((b, a), ix[B.rel_complement(y, els[a])]) for b, y in enumerate(els)
             for a in range(len(els)) if B.leq(els[a], y)])


def _assert_balg_matches_reference(elements, leq_pairs, bottom):
    expected = _balg_outcome(_reference_validate_balg, elements, leq_pairs, bottom)
    assert _balg_outcome(balg.validate_balg, elements, leq_pairs, bottom) == expected
    return not isinstance(expected[0], type)  # True on acceptance


def test_validate_balg_matches_reference_on_every_small_relation():
    # reflexive pairs are implied by the closure, so the off-diagonal pairs
    # give every relation on n elements; each element is tried as bottom
    accepted = rejected = 0
    for n in range(1, 5):
        els = [str(i) for i in range(n)]
        off = [(x, y) for x in els for y in els if x != y]
        for bits in range(1 << len(off)):
            pairs = [p for k, p in enumerate(off) if bits >> k & 1]
            for bottom in els:
                ok = _assert_balg_matches_reference(els, pairs, bottom)
                accepted += ok
                rejected += not ok
    # one element; two chains of two; twelve labelled squares, each with or
    # without the implied pair (bottom, top)
    assert accepted == 1 + 2 + 12 * 2
    assert rejected > 0


def _cube_pairs(leave_out=()):
    # every pair s ⊆ t of subsets of {a, b, c}, named by their letters
    names = ["0", "a", "b", "ab", "c", "ac", "bc", "1"]
    return names, [
        (names[s], names[t]) for s in range(8) for t in range(8)
        if s & t == s and (names[s], names[t]) not in leave_out
    ]


@pytest.mark.parametrize("elements, pairs, bottom", [
    # a chain of four: 2^2 elements but one atom
    (["0", "x", "y", "1"], [("0", "x"), ("x", "y"), ("y", "1")], "0"),
    # the 2 x 4 grid: eight elements, not a Boolean lattice
    ([f"{i}{j}" for i in range(2) for j in range(4)],
     [(f"{i}{j}", f"{k}{m}") for i in range(2) for j in range(4)
      for k in range(2) for m in range(4) if i <= k and j <= m], "00"),
    # the cube without ab <= 1 (a, b <= 1 stay): bijective atom codes,
    # wrong order
    (*_cube_pairs(leave_out={("ab", "1")}), "0"),
    # a declared bottom that is not least
    (*_cube_pairs(), "a"),
    (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "1"),
])
def test_validate_balg_matches_reference_on_non_boolean_orders(elements, pairs, bottom):
    expected = _balg_outcome(_reference_validate_balg, elements, pairs, bottom)
    assert isinstance(expected[0], type)  # each of these is rejected
    assert _balg_outcome(balg.validate_balg, elements, pairs, bottom) == expected


@pytest.mark.parametrize("k, count", [(4, 60), (6, 30), (8, 6)])
def test_validate_balg_matches_reference_on_mutants(k, count):
    points = tuple(f"p{i}" for i in range(k))
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    raw = {"kind": "balg", "elements": list(B.elements), "bottom": B.bottom,
           "leq": [(lo, hi) for hi, lo in B.cover_pairs]}
    assert _assert_balg_matches_reference(raw["elements"], raw["leq"], raw["bottom"])
    rng = random.Random(k)
    outcomes = set()
    for _ in range(count):
        mutant = me.mutate_balg(raw, rng)
        outcomes.add(_assert_balg_matches_reference(
            mutant["elements"], mutant["leq"], mutant["bottom"]))
    assert False in outcomes


# ------------------------------- filter predicates against their definitions

def _reference_is_filter(B, members):
    members = frozenset(members)
    if not members:
        return False
    if any(b not in members for a in members for b in B.up_set(a)):
        return False
    return all(any(B.leq(c, a) and B.leq(c, b) for c in members)
               for a in members for b in members)


def _reference_is_ideal(B, members):
    members = frozenset(members)
    if not members:
        return False
    if any(b not in members for a in members for b in B.down_set(a)):
        return False
    return all(B.join(a, b) in members for a in members for b in members)


def _reference_is_prime(B, members, closed, op):
    members = frozenset(members)
    if not closed(B, members) or len(members) == len(B.elements):
        return False
    return not any(op(a, b) in members and a not in members and b not in members
                   for a in B.elements for b in B.elements)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_filter_predicates_match_definitions_on_every_subset(k):
    points = tuple(f"p{i}" for i in range(k))
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    els = B.elements
    counts = [0, 0, 0, 0]
    for bits in range(1 << len(els)):
        s = frozenset(e for i, e in enumerate(els) if bits >> i & 1)
        got = (B.is_filter(s), B.is_ideal(s), B.is_prime_filter(s), B.is_prime_ideal(s))
        assert got == (
            _reference_is_filter(B, s),
            _reference_is_ideal(B, s),
            _reference_is_prime(B, s, _reference_is_filter, B.join),
            _reference_is_prime(B, s, _reference_is_ideal, B.meet),
        ), s
        counts = [c + g for c, g in zip(counts, got)]
    assert counts == [len(els), len(els), k, k]


@pytest.mark.parametrize("k", [0, 1, 4, 6])
def test_ultrafilters_match_maximal_proper_principal_filters(k):
    points = tuple(f"p{i}" for i in range(k))
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    everything = frozenset(B.elements)
    proper = [f for f in B.all_filters() if f.members != everything]
    expected = [f for f in proper if not any(f.members < g.members for g in proper)]
    got = B.ultrafilters()
    assert [f.members for f in got] == [f.members for f in expected]
    assert [f.generator for f in got] == list(B.atoms)


def old_generator(f):
    """The search FilterSet.generator was: the member below every member."""
    for x in f.members:
        if all(f.algebra.leq(x, y) for y in f.members):
            return x
    raise ValueError("not a principal up-set")


@pytest.mark.parametrize("k", range(6))
def test_filter_generator_is_the_least_member(k):
    points = tuple(f"p{i}" for i in range(k))
    B, _, _ = balg.powerset_balg(points, balg.render_braces(points))
    for f in B.all_filters() + B.ultrafilters():
        assert f.generator == old_generator(f)
    for i in B.all_ideals():
        assert i.generator == max(i.members, key=lambda x: len(B.down_set(x)))


def test_ultrafilter_prime_check_fires_on_a_corrupted_stone_code(b8):
    # {q} ∨ {r} moved into up({p}): the code of {q,r} read as {p,q,r}'s
    # makes that ultrafilter not prime; the check is a raise, so it also
    # fires under python -O
    i = b8.index
    b8._pos[b8._code[i["{q,r}"]]] = i["{p,q,r}"]
    assert b8.join("{q}", "{r}") == "{p,q,r}"
    with pytest.raises(AssertionError, match=r"Filter\(\['\{p,q,r\}', '\{p,q\}', '\{p,r\}', '\{p\}'\]\)"):
        b8.ultrafilters()


def test_ultrafilter_prime_check_fires_on_a_corrupted_code_alone(b8):
    # {q} coded as {p,q}, with _pos left as it was: _pos no longer inverts
    # _code, so the Stone-code check refuses, and the scan finds ↑{p} not
    # prime, as {q} ∨ {q} now reads a code inside it
    i = b8.index
    b8._code[i["{q}"]] = b8._code[i["{p,q}"]]
    with pytest.raises(AssertionError, match=r"Filter\(\['\{p,q,r\}', '\{p,q\}', '\{p,r\}', '\{p\}'\]\)"):
        b8.ultrafilters()


def test_ultrafilters_of_a_code_with_two_atom_bits_swapped_come_from_the_scan(monkeypatch):
    # the bits of {p} and {q} exchanged in _code and _pos together: _pos
    # still inverts _code, but the code is not the one the order rows give
    # (the k-th generator is no longer coded 1 << k), so the check refuses
    # and each ↑atom goes through the prime-filter scan, which passes; the
    # ultrafilters are the same
    expected = make_b8().ultrafilters()
    scanned = []
    prime = balg.FinBooleanAlgebra._is_prime_filter_mask
    monkeypatch.setattr(balg.FinBooleanAlgebra, "_is_prime_filter_mask",
                        lambda B, m: scanned.append(m) or prime(B, m))
    assert make_b8().ultrafilters() == expected and scanned == []
    B = make_b8()
    swap = [c & ~3 | (c & 1) << 1 | c >> 1 & 1 for c in range(len(B._pos))]
    pos = list(B._pos)
    B._code[:] = [swap[c] for c in B._code]
    B._pos[:] = [pos[swap[c]] for c in range(len(pos))]
    assert B.join("{p}", "{q}") == "{p,q}" and B.meet("{p,q}", "{q,r}") == "{q}"
    got = B.ultrafilters()
    assert got == expected
    assert [f.generator for f in got] == [f.generator for f in expected]
    assert scanned == [B._up[B.index[a]] for a in ("{p}", "{q}", "{r}")]


def test_ultrafilter_prime_check_fires_on_a_consistent_code_the_order_does_not_give(b8):
    # the codes of {p,q} and {p,r} exchanged in _code and _pos together:
    # _pos still inverts _code, and each atom keeps its code, but {p,q} no
    # longer has {q}'s bit though it lies in ↑{q}; the check refuses, and
    # the scan finds ↑{q} not prime, as {p} ∨ {r} now reads {p,q}
    i = b8.index
    pq, pr = i["{p,q}"], i["{p,r}"]
    cq, cr = b8._code[pq], b8._code[pr]
    b8._code[pq], b8._code[pr] = cr, cq
    b8._pos[cq], b8._pos[cr] = pr, pq
    assert b8.join("{p}", "{r}") == "{p,q}"
    with pytest.raises(AssertionError, match=r"Filter\(\['\{p,q,r\}', '\{p,q\}', '\{q,r\}', '\{q\}'\]\)"):
        b8.ultrafilters()
