import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewstone import bset, skew, textio

import mutation_engine as me
from conftest import cover_maps, make_prod
from test_atom_codes import covering_sieves, is_covering_sieve
from skewstone.errors import (
    EmptySizes,
    InternalMissingJoin,
    MissingJoin,
    MissingRestriction,
    NoGlobalSupport,
    NotRightNormal,
    PathDependent,
    StalkCollision,
    StructureError,
    ZeroStalkNotTrivial,
)

def test_prod_presheaf_validates(prod):
    assert prod.elements == ("0", "a1", "a2", "b1", "(a1,b1)", "(a2,b1)")
    assert prod.p("a1") == "a"
    assert prod.restrict("(a2,b1)", "0") == "0"


def test_constant_presheaf_trivial(b4):
    C = bset.constant_bset(b4)
    assert [len(C.stalks[e]) for e in b4.elements] == [1, 1, 1, 1]


def test_path_dependence_witness(b4):
    with pytest.raises(PathDependent) as e:
        bset.validate_presheaf(
            b4,
            {"0": ["z1", "z2"], "a": ["a1"], "b": ["b1"], "1": ["t"]},
            {
                ("1", "a"): {"t": "a1"},
                ("1", "b"): {"t": "b1"},
                ("a", "0"): {"a1": "z1"},
                ("b", "0"): {"b1": "z2"},
            },
        )
    wit = e.value.witness
    assert wit[0] == "t" and {wit[1], wit[2]} == {"1>a>0", "1>b>0"}


def test_missing_restriction(b4):
    with pytest.raises(MissingRestriction):
        bset.validate_presheaf(
            b4,
            {"0": ["0"], "a": ["a1"], "b": ["b1"], "1": ["t"]},
            {
                ("1", "a"): {"t": "a1"},
                ("1", "b"): {"t": "b1"},
                ("a", "0"): {"a1": "0"},
            },
        )


def test_stalk_collision(b2):
    with pytest.raises(StalkCollision):
        bset.validate_presheaf(b2, {"0": ["x"], "1": ["x"]}, {("1", "0"): {"x": "x"}})


def test_order_examples(prod):
    assert prod.leq_elem("a1", "(a1,b1)")
    assert not prod.leq_elem("a1", "(a2,b1)")
    assert prod.compatible_elems("a1", "b1")
    assert not prod.compatible_elems("(a1,b1)", "(a2,b1)")


def test_boolean_set_validation(prod, x3_bset):
    assert prod.zero == "0"
    assert x3_bset.zero == "0"


def test_missing_join_witness(b4):
    P = bset.validate_presheaf(
        b4,
        {"0": ["0"], "a": ["a1", "a2"], "b": ["b1"], "1": ["(a1,b1)"]},
        {
            ("1", "a"): {"(a1,b1)": "a1"},
            ("1", "b"): {"(a1,b1)": "b1"},
            ("a", "0"): {"a1": "0", "a2": "0"},
            ("b", "0"): {"b1": "0"},
        },
    )
    with pytest.raises(MissingJoin) as e:
        bset.validate_boolean_set(P)
    assert e.value.witness == ("a2", "b1")


@pytest.mark.parametrize("sizes", [(2, 1), (1, 2, 2), (2, 2, 2), (1, 1, 3, 3)])
def test_join_table_matches_scan(sizes):
    # joins read off the ∘/• rows answer as the exhaustive bound scan does
    X = bset.generate_boolean_set(sizes, seed=5)
    incompatible = 0
    for x in X.elements:
        for y in X.elements:
            scanned = bset.Presheaf.join_elem(X, x, y)
            compat = bset.Presheaf.compatible_elems(X, x, y)
            assert X.compatible_elems(x, y) == compat == (scanned is not None)
            if compat:
                assert X.join(x, y) == scanned
            else:
                incompatible += 1
                with pytest.raises(InternalMissingJoin) as e:
                    X.join(x, y)
                assert e.value.witness == (x, y)
    assert incompatible


def test_zero_stalk_not_trivial(b2):
    P = bset.validate_presheaf(
        b2,
        {"0": ["z1", "z2"], "1": ["t"]},
        {("1", "0"): {"t": "z1"}},
    )
    with pytest.raises(ZeroStalkNotTrivial):
        bset.validate_boolean_set(P)


def test_operation_formulas(x3_bset, prod):
    assert x3_bset.circ("x1", "x2") == "x2"
    assert x3_bset.bullet("x1", "x2") == "x1"
    for X in (x3_bset, prod):
        for x in X.elements:
            assert X.bullet(x, X.zero) == x
            assert X.circ(X.zero, x) == X.zero
    assert prod.bullet("a1", "b1") == "(a1,b1)"
    assert prod.setminus("b1", "a1") == "b1"
    assert prod.setminus("(a1,b1)", "a1") == "b1"


def _instances_for_properties():
    return [make_prod(), bset.generate_boolean_set((2, 2)),
            bset.generate_boolean_set((2, 1, 1))]


@pytest.mark.parametrize("X", _instances_for_properties())
def test_order_compatibility_properties(X):
    # the four order/compatibility equivalences, exhaustively
    for z in X.elements:
        below = [w for w in X.elements if X.leq_elem(w, z)]
        for x in below:
            for y in below:
                assert X.compatible_elems(x, y)
    for x in X.elements:
        for y in X.elements:
            if X.compatible_elems(x, y) and X.base.leq(X.p(x), X.p(y)):
                assert X.leq_elem(x, y)
            assert X.leq_elem(x, y) == (X.circ(x, y) == x)
            assert X.compatible_elems(x, y) == (X.circ(x, y) == X.circ(y, x))


@pytest.mark.parametrize("X", _instances_for_properties())
def test_equality_corollary(X):
    for z in X.elements:
        for x in X.elements:
            for y in X.elements:
                if (
                    X.leq_elem(x, z)
                    and X.leq_elem(y, z)
                    and X.p(x) == X.p(y)
                ):
                    assert x == y


@pytest.mark.parametrize("X", _instances_for_properties())
def test_order_reflection(X):
    for x in X.elements:
        for b in X.base.down_set(X.p(x)):
            ys = [
                y for y in X.elements
                if X.leq_elem(y, x) and X.p(y) == b
            ]
            assert len(ys) == 1


@pytest.mark.parametrize("X", _instances_for_properties())
def test_setminus_identities(X):
    # (a\b)\c = (a\b) ∧ (a\c); a\(b ∨ (c\b)) = (a\b) ∧ (a\c)
    for a in X.elements:
        for b in X.elements:
            for c in X.elements:
                ab = X.setminus(a, b)
                ac = X.setminus(a, c)
                assert X.setminus(ab, c) == X.meet_elem(ab, ac)
                assert X.setminus(a, X.bullet(b, c)) == X.meet_elem(ab, ac)


@pytest.mark.parametrize("X", _instances_for_properties())
def test_setminus_join_identity(X):
    # (a∨b)\c = (a\c) ∨ (b\c) for compatible a, b
    for a in X.elements:
        for b in X.elements:
            if not X.compatible_elems(a, b):
                continue
            for c in X.elements:
                left = X.setminus(X.join(a, b), c)
                right = X.join(X.setminus(a, c), X.setminus(b, c))
                assert left == right


def test_compatibility_trichotomy(prod):
    S = bset.to_skew(prod)
    X = prod
    for x in X.elements:
        for y in X.elements:
            compat = X.compatible_elems(x, y)
            assert compat == (S.circ(x, y) == S.circ(y, x))
            assert compat == (S.bullet(x, y) == S.bullet(y, x))


def test_to_skew_x3(x3_bset, x3_skew):
    S = bset.to_skew(x3_bset)
    assert skew.skew_struct_eq(S, x3_skew)


def test_to_skew_constant_is_commutative(b4):
    C = bset.constant_bset(b4)
    S = bset.to_skew(C)
    for e in b4.elements:
        for f in b4.elements:
            assert S.circ(f"c{e}", f"c{f}") == f"c{b4.meet(e, f)}"
            assert S.bullet(f"c{e}", f"c{f}") == f"c{b4.join(e, f)}"


def test_round_trips(prod, x3_skew):
    S = bset.to_skew(prod)
    assert bset.bset_struct_eq(bset.from_skew(S), prod)
    X = bset.from_skew(x3_skew)
    assert skew.skew_struct_eq(bset.to_skew(X), x3_skew)


def test_from_skew_one_element():
    one = skew.validate_skew(["0"], [["0"]], [["0"]], "0")
    X = bset.from_skew(one)
    assert len(X.elements) == 1


def test_bset_morphisms(prod, x3_bset, b2):
    ident = bset.identity_bset_morphism(prod)
    assert ident.mapping["a1"] == "a1"

    Y = bset.constant_bset(b2)
    collapse = bset.validate_bset_morphism(
        {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "1"}, x3_bset, Y
    )
    assert collapse.base_hom.mapping["1"] == "1"

    from skewstone.errors import BM1Violation
    with pytest.raises(BM1Violation):
        bset.validate_bset_morphism(
            {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "0"}, x3_bset, Y
        )


def test_band_conversions(x3_bset):
    band = bset.presheaf_to_band(x3_bset)
    P = bset.band_to_presheaf(band)
    assert set(P.stalks["[0]"]) == {"0"}
    assert set(P.stalks["[x1]"]) == {"x1", "x2"}
    back = bset.presheaf_to_band(P)
    assert set(back.elements) == set(band.elements)
    assert all(back.circ(x, y) == band.circ(x, y) for x in band.elements for y in band.elements)
    assert bset.presheaf_struct_eq(bset.band_to_presheaf(bset.presheaf_to_band(P)), P)
    assert bset.is_boolean_band(band)


def test_semilattice_as_band(b4):
    # a meet semilattice viewed as a band: singleton stalks
    table = [[b4.meet(x, y) for y in b4.elements] for x in b4.elements]
    band = bset.validate_band(b4.elements, table)
    P = bset.band_to_presheaf(band)
    assert all(len(P.stalks[c]) == 1 for c in P.base.elements)


def test_right_zero_adjoined_is_boolean_band():
    # two-element right zero semigroup with a zero adjoined, over a chain base
    els = ["0", "x1", "x2"]
    table = [["0", "0", "0"], ["0", "x1", "x2"], ["0", "x1", "x2"]]
    band = bset.validate_band(els, table)
    assert bset.is_boolean_band(band)


def test_not_right_normal():
    # left zero band on two elements
    with pytest.raises(NotRightNormal):
        bset.validate_band(["x", "y"], [["x", "x"], ["y", "y"]])


def test_covering_sieves(b4):
    assert is_covering_sieve(b4, "1", ["0", "a", "b"])
    assert not is_covering_sieve(b4, "1", ["0", "a"])
    assert is_covering_sieve(b4, "1", b4.elements)
    assert is_covering_sieve(b4, "0", ["0"])
    assert is_covering_sieve(b4, "0", [])
    assert not is_covering_sieve(b4, "a", ["0"])
    sieves = covering_sieves(b4, "1")
    assert frozenset({"0", "a", "b"}) in sieves
    assert frozenset(b4.elements) in sieves
    assert len(sieves) == 2


def test_sheaf_condition(prod, b4):
    assert bset.sheaf_condition(prod)
    P = bset.validate_presheaf(
        b4,
        {"0": ["0"], "a": ["a1", "a2"], "b": ["b1"], "1": ["(a1,b1)"]},
        {
            ("1", "a"): {"(a1,b1)": "a1"},
            ("1", "b"): {"(a1,b1)": "b1"},
            ("a", "0"): {"a1": "0", "a2": "0"},
            ("b", "0"): {"b1": "0"},
        },
    )
    assert not bset.sheaf_condition(P)


def test_generator(prod, x3_bset):
    G = bset.generate_boolean_set((2, 1))
    assert bset.bset_struct_eq(G, prod)
    G1 = bset.generate_boolean_set((2,))
    assert bset.bset_isomorphic(G1, x3_bset) is not None
    Gc = bset.generate_boolean_set((1, 1, 1))
    assert all(len(Gc.stalks[e]) == 1 for e in Gc.base.elements)
    with pytest.raises(EmptySizes):
        bset.generate_boolean_set(())


def test_generator_seed_relabels_only():
    A = bset.generate_boolean_set((3, 2))
    B = bset.generate_boolean_set((3, 2), seed=7)
    assert bset.bset_isomorphic(A, B) is not None
    assert {len(A.stalks[e]) for e in A.base.elements} == {
        len(B.stalks[e]) for e in B.base.elements
    }


def reference_isomorphic(X, Y):
    """Whether X and Y are isomorphic, by brute force: every bijection of the
    atoms gives a base isomorphism (each element to the element above
    exactly the image atoms), and over each one the stalks are matched
    element by element, base elements with smaller down-sets first, each
    image checked against the restrictions already mapped."""
    BX, BY = X.base, Y.base
    if len(BX.atoms) != len(BY.atoms):
        return False
    atoms_below = {e: frozenset(a for a in BY.atoms if BY.leq(a, e)) for e in BY.elements}
    element_above = {s: e for e, s in atoms_below.items()}
    order = sorted(BX.elements, key=lambda e: len(BX.down_set(e)))
    cells = [(e, x) for e in order for x in X.stalks[e]]
    for perm in itertools.permutations(BY.atoms):
        amap = dict(zip(BX.atoms, perm))
        base = {e: element_above[frozenset(amap[a] for a in BX.atoms if BX.leq(a, e))]
                for e in BX.elements}
        if any(len(X.stalks[e]) != len(Y.stalks[base[e]]) for e in BX.elements):
            continue

        def extend(k, emap, used):
            if k == len(cells):
                return True
            e, x = cells[k]
            for y in Y.stalks[base[e]]:
                if y in used or any(emap[X.restrict(x, f)] != Y.restrict(y, base[f])
                                    for f in BX.down_set(e) if f != e):
                    continue
                emap[x] = y
                used.add(y)
                if extend(k + 1, emap, used):
                    return True
                del emap[x]
                used.discard(y)
            return False

        if extend(0, {}, set()):
            return True
    return False


def test_isomorphism_across_permuted_atoms():
    X, Y = bset.generate_boolean_set((1, 2)), bset.generate_boolean_set((2, 1))
    base_map, emap = bset.bset_isomorphic(X, Y)
    assert base_map == {"0": "0", "a": "b", "b": "a", "1": "1"}
    assert sorted(emap.values()) == sorted(Y.elements)
    A = bset.generate_boolean_set((1, 2, 3))
    for sizes in itertools.permutations((1, 2, 3)):
        for seed in (None, 5):
            assert bset.bset_isomorphic(A, bset.generate_boolean_set(sizes, seed=seed)) is not None
    assert bset.bset_isomorphic(X, bset.generate_boolean_set((1, 1))) is None
    assert bset.bset_isomorphic(X, bset.generate_boolean_set((1, 1, 1))) is None


ISO_SHAPES = [(2,), (3,), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 1, 1),
              (1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 1, 2), (2, 3), (3, 2), (1, 1, 3),
              (1, 1, 1, 1), (2, 2, 2)]


def test_isomorphism_matches_brute_force_up_to_27_elements():
    sets = [bset.generate_boolean_set(s) for s in ISO_SHAPES]
    relabeled = [bset.generate_boolean_set(s, seed=k) for k, s in enumerate(ISO_SHAPES)]
    assert max(len(X.elements) for X in sets) == 27
    outcomes = set()
    for X in sets:
        for Y in relabeled:
            if len(X.elements) != len(Y.elements):
                assert bset.bset_isomorphic(X, Y) is None
                continue
            expected = reference_isomorphic(X, Y)
            assert (bset.bset_isomorphic(X, Y) is not None) == expected, (X, Y)
            outcomes.add(expected)
    assert outcomes == {True, False}  # equal sizes, yet (1, 3) and (1, 1, 1) differ


def test_degenerate_single_point_base():
    # over the one-element algebra the only Boolean set is the zero singleton
    from skewstone import balg
    b1 = balg.validate_balg(["0"], [], "0")
    X = bset.validate_boolean_set(bset.validate_presheaf(b1, {"0": ["z"]}, {}))
    assert X.zero == "z"
    assert X.circ("z", "z") == "z"
    assert X.bullet("z", "z") == "z"
    assert X.setminus("z", "z") == "z"
    assert bset.sheaf_condition(X)


def test_presheaf_to_band_needs_support(b2):
    P = bset.validate_presheaf(b2, {"0": ["z"], "1": []}, {("1", "0"): {}})
    with pytest.raises(NoGlobalSupport):
        bset.presheaf_to_band(P)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2),
    st.integers(min_value=0, max_value=99),
)
def test_generated_sets_validate_and_convert(sizes, seed):
    X = bset.generate_boolean_set(tuple(sizes), seed)
    S = bset.to_skew(X)
    assert bset.bset_struct_eq(bset.from_skew(S), X)


# ------------------------ validate_presheaf against the all-chains reference

def _reference_cover_paths(base, e, f):
    if e == f:
        return [(e,)]
    out = []
    for upper, lower in base.cover_pairs:
        if upper == e and base.leq(f, lower):
            out.extend((e,) + rest for rest in _reference_cover_paths(base, lower, f))
    return out


def _reference_validate_presheaf(base, stalks, restrictions):
    # composes along every descending Hasse chain, as validation did on
    # every input before the local check
    stalk_map = {}
    seen = {}
    for e in base.elements:
        members = tuple(str(x) for x in stalks.get(e, ()))
        for x in members:
            if x in seen:
                raise StalkCollision((x,))
            seen[x] = e
        stalk_map[e] = members
    for e in stalks:
        if e not in base.index:
            raise ValueError(f"stalk key {e!r} is not a base element")
    covers = set(base.cover_pairs)
    for pair in restrictions:
        if tuple(pair) not in covers:
            raise ValueError(f"restriction {pair!r} is not a Hasse covering pair")
    cover_maps = {}
    for e, f in base.cover_pairs:
        given = restrictions.get((e, f))
        if given is None:
            if stalk_map[e]:
                raise MissingRestriction((e, f))
            given = {}
        m = {}
        for x in stalk_map[e]:
            if x not in given:
                raise MissingRestriction((e, f, x))
            y = given[x]
            if y not in stalk_map[f]:
                raise MissingRestriction((e, f, x), detail=f"target {y!r} not in stalk {f!r}")
            m[x] = y
        cover_maps[(e, f)] = m
    rest = {x: {} for e in base.elements for x in stalk_map[e]}
    for e in base.elements:
        for f in base.down_set(e):
            paths = _reference_cover_paths(base, e, f)
            for x in stalk_map[e]:
                values = []
                for path in paths:
                    v = x
                    for up, lo in zip(path, path[1:]):
                        v = cover_maps[(up, lo)][v]
                    values.append((v, path))
                v0, p0 = values[0]
                for v, pth in values[1:]:
                    if v != v0:
                        raise PathDependent(
                            (x, ">".join(p0), ">".join(pth)),
                            detail=f"{v0!r} vs {v!r}",
                        )
                rest[x][f] = v0
    return rest


def _presheaf_outcome(validate, base, raw):
    try:
        result = validate(base, raw["stalks"], raw["restrict"])
    except StructureError as e:
        return type(e), e.law, e.witness, e.detail
    if isinstance(result, bset.Presheaf):
        result = result._rest
    # the table with its key order, at both levels
    return [(x, list(row.items())) for x, row in result.items()]


@pytest.mark.parametrize("sizes, count", [
    ((2, 2, 2), 60), ((1, 1, 3, 3), 40), ((2, 2, 2, 2), 30), ((1,) * 6, 10),
])
def test_validate_presheaf_matches_all_chains_on_mutants(sizes, count):
    X = bset.generate_boolean_set(sizes, seed=3)
    raw = {
        "kind": "bset",
        "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
        "restrict": cover_maps(X),
    }
    cases = [raw] + [me.mutate_bset(raw, random.Random(i)) for i in range(count)]
    laws = []
    for case in cases:
        expected = _presheaf_outcome(_reference_validate_presheaf, X.base, case)
        assert _presheaf_outcome(bset.validate_presheaf, X.base, case) == expected
        laws.append(expected[0] if isinstance(expected[0], type) else None)
    assert laws[0] is None
    if min(sizes) > 1:
        assert PathDependent in laws  # the walk found a mismatch and fell back


def test_library_validators_refuse_a_band_endpoint():
    # a right normal band has neither a zero nor •, so it has no morphisms;
    # the validators name the band endpoint instead of failing on a missing
    # attribute
    show = Path(__file__).resolve().parent.parent / "docs" / "showcase.txt"
    built = textio.build(textio.parse(show.read_text()))
    X3s, band = built["X3s"], built["Band3"]
    ident = {x: x for x in band.elements}
    message = "is a right normal band (a skew stanza without bullet:), which has no morphisms"
    for call, end in [
        (lambda: skew.validate_skew_morphism(ident, X3s, band), "target"),
        (lambda: skew.validate_skew_morphism(ident, band, X3s), "source"),
        (lambda: bset.validate_bset_morphism(ident, None, band, band), "source"),
        (lambda: bset.validate_bset_morphism(ident, None, built["X3"], band), "target"),
    ]:
        with pytest.raises(ValueError) as e:
            call()
        assert str(e.value) == f"{end} {message}"
