import ast
import inspect
import random

import pytest

from skewstone import balg, bset, duality, etale
from skewstone.errors import NotCovering, NotProper

from conftest import (B4_ELEMENTS, B4_LEQ, PROD_RESTRICT, PROD_STALKS, make_b2, make_b4,
                      make_efix, make_prod, make_x3_bset)
from test_duality_layer import seeded_space


def _cubic_ultrafilters(X):
    """Reference: the element-wise construction that predates the bitmask
    rows, with its O(|pre|^3) conjugacy relation, as (ident, members, base
    filter members) triples."""
    out = []
    for F in X.base.ultrafilters():
        pre = [x for x in X.elements if X.p(x) in F.members]
        rel = {}
        for a in pre:
            for b in pre:
                rel[a, b] = any(
                    X.leq_elem(c, a) and X.leq_elem(c, b) for c in pre
                )
        seen = set()
        for a in pre:
            if a in seen:
                continue
            cls = frozenset(b for b in pre if rel[a, b])
            seen |= cls
            rep = next(x for x in X.elements if x in cls)
            out.append((f"[{rep}]@{F.generator}", cls, F.members))
    return out


def _triples(X):
    return [(u.ident, u.members, u.base_filter.members) for u in duality.bset_ultrafilters(X)]


@pytest.mark.parametrize("build", [
    lambda: bset.generate_boolean_set((2, 2, 2)),
    lambda: bset.generate_boolean_set((1, 1, 3, 3), seed=4),
    lambda: bset.generate_boolean_set((2, 2, 2, 2)),
    lambda: bset.constant_bset(make_b4()),
    make_prod,
    make_x3_bset,
    lambda: etale.dual_bset(make_efix()),
    # listed top first: an ultrafilter's first member, which names it, is
    # not its least element
    lambda: bset.validate_boolean_set(bset.validate_presheaf(
        balg.validate_balg(B4_ELEMENTS[::-1], B4_LEQ, "0"), PROD_STALKS, PROD_RESTRICT)),
], ids=["gen222", "gen1133", "gen2222", "constant_b4", "prod", "x3", "dual_efix",
        "prod_top_first"])
def test_ultrafilters_match_cubic_reference(build):
    X = build()
    assert _triples(X) == _cubic_ultrafilters(X)


def _fresh_ultrafilters(X):
    X.__dict__.pop("_ultra", None)
    return duality.bset_ultrafilters(X)


def old_bset_ultrafilters(X):
    """Reference: the conjugacy construction that the principal-filter route
    replaced, as (ident, members, base filter members) triples.  The
    conjugacy row of a is the mask of the b in the preimage sharing a lower
    bound with a there; its classes are the distinct rows, named by their
    first member.  Its reflexivity and transitivity checks are kept."""
    els, below = X.elements, bset._order_masks(X)[0]
    out = []
    for F in X.base.ultrafilters():
        pre = [i for i, x in enumerate(els) if X.p(x) in F.members]
        pre_mask = sum(1 << i for i in pre)
        rel = {}
        for a in pre:
            low = below[a] & pre_mask
            rel[a] = sum(1 << b for b in pre if low & below[b])
        for a in pre:
            row = rel[a]
            if not row >> a & 1:
                raise AssertionError(("conjugacy not reflexive", els[a]))
            for b in duality._bits(row):
                extra = rel[b] & ~row
                if extra:
                    raise AssertionError((
                        "conjugacy not transitive", els[a], els[b], els[duality._first(extra)]))
        seen = 0
        for a in pre:
            if seen >> a & 1:
                continue
            cls = rel[a]
            seen |= cls
            members = frozenset(els[b] for b in duality._bits(cls))
            out.append((f"[{els[a]}]@{F.generator}", members, F.members))
    return out


def old_pair_loop(X, members):
    """Reference: the interleaved upward-closure and lower-bound scan over
    the members, as the ultrafilter check ran it on every candidate: its
    first complaint, or None."""
    (els, index), (below, above) = (X.elements, X.index), bset._order_masks(X)
    idx = sorted(index[x] for x in members)
    umask = sum(1 << i for i in idx)
    for i in idx:
        escape = above[i] & ~umask
        if escape:
            return ("not upward closed", els[i], els[duality._first(escape)])
        for j in idx:
            if not below[i] & below[j] & umask:
                return ("no common lower bound", els[i], els[j])
    return None


# (1,) to 3,3,7,7: 2 to 1024 elements, wide 256 and 729 included
GEN_SHAPES = [(1,), (3,), (2, 1), (2, 1, 2), (2, 2, 2), (1, 1, 3, 3), (3, 3, 3, 3),
              (2, 2, 2, 5), (1,) * 8, (2,) * 6, (4, 4, 4, 4), (3, 3, 7, 7)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sizes", GEN_SHAPES, ids=lambda s: ",".join(map(str, s)))
def test_ultrafilters_match_conjugacy_reference(sizes, seed):
    X = bset.generate_boolean_set(sizes, seed)
    assert _triples(X) == old_bset_ultrafilters(X)


def test_ultrafilters_match_conjugacy_reference_on_seeded_duals():
    rng = random.Random(26)
    for _ in range(40):
        X = etale.dual_bset(seeded_space(rng))
        assert _triples(X) == old_bset_ultrafilters(X)


def test_ultrafilter_route_reads_no_atom_codes_or_meet_table():
    def reads(tree, names):
        return sorted({
            n.id if isinstance(n, ast.Name) else n.attr
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef)
            and f.name in ("bset_ultrafilters", "_assert_is_ultrafilter")
            for n in ast.walk(f)
            if (n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)) in names})

    forbidden = {"_coords", "_coordinates", "_presheaf_coordinates", "_meet_table"}
    assert reads(ast.parse(inspect.getsource(duality)), forbidden) == []
    planted = "def bset_ultrafilters(X):\n    return X._coords, bset._meet_table(X)\n"
    assert reads(ast.parse(planted), forbidden) == ["_coords", "_meet_table"]


def test_ultrafilter_checks_fire_on_corrupted_tables():
    X = bset.generate_boolean_set((2, 1, 2))
    u = _fresh_ultrafilters(X)[0]
    a = u.base_filter.generator
    inside = sorted(X.index[x] for x in u.members)
    outside = [i for i in range(len(X.elements)) if X.elements[i] not in u]

    # an element above a member but outside u breaks upward closure; the
    # member is not u's least element, whose row is u itself
    above = bset._order_masks(X)[1]
    target = next(i for i in inside if X.p(X.elements[i]) != a)
    saved = above[target]
    above[target] |= 1 << outside[-1]
    with pytest.raises(AssertionError) as e:
        _fresh_ultrafilters(X)
    assert e.value.args == (
        ("not upward closed", X.elements[target], X.elements[outside[-1]]),)
    above[target] = saved
    assert _fresh_ultrafilters(X)[0] == u

    # an element outside u restricting on u's atom as u's members do
    # breaks primeness: u must be every such element
    y = next(X.elements[i] for i in outside if a in X._rest[X.elements[i]])
    X._rest[y][a] = X._rest[X.elements[inside[0]]][a]
    with pytest.raises(AssertionError, match="not prime"):
        _fresh_ultrafilters(X)


@pytest.mark.parametrize("row, extra, witness", [
    ("a1", "a2", "a2"),  # a2 lies in two ultrafilters
    ("a1", "0", "0"),  # 0 lies outside the preimage
    ("a3", None, "a3"),  # a3's up-set is empty: a3 lies in no ultrafilter
], ids=["overlap", "outside", "uncovered"])
def test_partition_check_names_the_first_stray_element(row, extra, witness):
    # over the one atom 1, the up-sets of a1, a2, a3 must partition the
    # preimage {a1, a2, a3}; one up-set row is corrupted
    X = bset.generate_boolean_set((3,))
    above, i = bset._order_masks(X)[1], X.index
    above[i[row]] = above[i[row]] | 1 << i[extra] if extra else 0
    with pytest.raises(AssertionError) as e:
        _fresh_ultrafilters(X)
    assert e.value.args == (("not a partition of the preimage", "1", witness),)


def test_lower_bound_check_names_the_pair_of_the_pair_loop():
    # u loses its least element m when m is dropped from one member's below
    # row; no other member is below all, so the scan names a pair
    X = bset.generate_boolean_set((2, 1, 2))
    u = _fresh_ultrafilters(X)[0]
    m = next(x for x in u.members if X.p(x) == u.base_filter.generator)
    x = max(u.members - {m}, key=X.index.__getitem__)
    below = bset._order_masks(X)[0]
    below[X.index[x]] &= ~(1 << X.index[m])
    expected = old_pair_loop(X, u.members)
    assert expected is not None and expected[0] == "no common lower bound"
    with pytest.raises(AssertionError) as e:
        _fresh_ultrafilters(X)
    assert e.value.args == (expected,)


def test_bset_ultrafilters_x3(x3_bset):
    us = duality.bset_ultrafilters(x3_bset)
    assert [u.ident for u in us] == ["[x1]@1", "[x2]@1"]
    assert us[0].members == frozenset({"x1"})


def test_bset_ultrafilters_constant(b4):
    C = bset.constant_bset(b4)
    us = duality.bset_ultrafilters(C)
    assert len(us) == 2


def test_bset_ultrafilters_prod(prod):
    us = duality.bset_ultrafilters(prod)
    by_base = {}
    for u in us:
        by_base.setdefault(u.base_filter.generator, []).append(u)
    assert len(by_base["a"]) == 2
    assert len(by_base["b"]) == 1
    assert len(us) == 3


def test_ultrafilters_containing(x3_bset, prod):
    assert [u.ident for u in duality.ultrafilters_containing(x3_bset, "x1")] == ["[x1]@1"]
    assert duality.ultrafilters_containing(x3_bset, "0") == ()
    assert len(duality.ultrafilters_containing(prod, "(a1,b1)")) == 2


def test_filter_closed_under_circ(prod):
    # any filter of the Boolean set is closed under the circ operation
    S = bset.to_skew(prod)
    for u in duality.bset_ultrafilters(prod):
        for x in u.members:
            for y in u.members:
                assert S.circ(x, y) in u.members


def test_image_of_filter_is_filter(prod):
    # every proper filter of the Boolean set (all are principal up-sets in
    # the finite case) has a proper filter as its projection image
    X = prod
    for x in X.elements:
        members = frozenset(y for y in X.elements if X.leq_elem(x, y))
        if members == frozenset(X.elements):
            continue
        image = frozenset(X.p(y) for y in members)
        assert X.base.is_filter(image)
        assert image != frozenset(X.base.elements)
    for u in duality.bset_ultrafilters(prod):
        image = frozenset(prod.p(x) for x in u.members)
        assert prod.base.is_filter(image)
        assert image != frozenset(prod.base.elements)


def test_fibers_partition_preimage(prod):
    for F in prod.base.ultrafilters():
        pre = {x for x in prod.elements if prod.p(x) in F.members}
        classes = [
            u.members for u in duality.bset_ultrafilters(prod)
            if u.base_filter.members == F.members
        ]
        assert frozenset().union(*classes) == pre
        total = sum(len(c) for c in classes)
        assert total == len(pre)


def test_bset_to_etale_shapes(x3_bset, prod, b4):
    sp = duality.bset_to_etale(x3_bset)
    assert len(sp.total) == 2 and len(sp.base) == 1
    spc = duality.bset_to_etale(bset.constant_bset(b4))
    assert len(spc.total) == 2 and len(spc.base) == 2
    spp = duality.bset_to_etale(prod)
    assert len(spp.total) == 3 and len(spp.base) == 2
    assert sorted(len(spp.fibers[x]) for x in spp.base) == [1, 2]


def test_double_dual_x3(x3_bset):
    m = duality.bset_double_dual(x3_bset)
    assert len(set(m.mapping.values())) == 3


def test_double_dual_constant(b4):
    m = duality.bset_double_dual(bset.constant_bset(b4))
    assert len(set(m.mapping.values())) == 4


def test_etale_double_dual(efix):
    rm = duality.etale_double_dual(efix)
    assert isinstance(rm, etale.RelationalMorphism) and rm.covering
    assert len(rm.phi) == 3
    one = etale.validate_etale(["q"], ["z"], {"q": "z"})
    assert len(duality.etale_double_dual(one).phi) == 1


def test_dual_of_relational_identity(efix):
    d = duality.dual_of_relational(etale.identity_relational(efix))
    ident = bset.identity_bset_morphism(etale.dual_bset(efix))
    assert (d.mapping, d.base_hom.mapping) == (ident.mapping, ident.base_hom.mapping)


def test_dual_of_relational_fiber_collapse(efix):
    Pt = etale.validate_etale(["q"], ["z"], {"q": "z"})
    cov = next(iter(etale.enumerate_covering_relational(efix, Pt)))
    d = duality.dual_of_relational(cov)
    # base sections of the point space pull back to their full preimages
    DPt = etale.dual_bset(Pt)
    assert d.source is DPt
    full = d.mapping["{q}"]
    assert etale.dual_bset(efix).sections[full] == frozenset(
        e for e in efix.total if cov.phi[e]
    )


@pytest.mark.parametrize("phi, witness, detail", [
    # e1 and e2 share an image, and e2 is missed too: injectivity is named first
    ({"e1": {"e1"}, "e2": {"e1"}, "e3": {"e3"}}, ("e1", "e2"), "not locally injective"),
    ({"e1": {"e1"}, "e2": set(), "e3": {"e3"}}, ("u", "e2"), "not locally surjective"),
    ({"e1": {"e2"}, "e2": {"e1"}, "e3": set()}, ("v", "e3"), "not locally surjective"),
])
def test_dual_of_relational_names_the_covering_witness(efix, phi, witness, detail):
    rm = etale.validate_relational_morphism(phi, {"u": "u", "v": "v"}, efix, efix)
    with pytest.raises(NotCovering) as e:
        duality.dual_of_relational(rm)
    assert (e.value.law, e.value.witness, e.value.detail) == ("relmor.covering", witness, detail)


def test_dual_of_bset_morphism_identity(x3_bset):
    d = duality.dual_of_bset_morphism(bset.identity_bset_morphism(x3_bset))
    ident = etale.identity_relational(duality.bset_to_etale(x3_bset))
    assert (d.phi, d.phibar) == (ident.phi, ident.phibar)


def test_dual_of_collapse_has_two_point_image(x3_bset):
    Y = bset.constant_bset(make_b2())
    collapse = bset.validate_bset_morphism(
        {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "1"}, x3_bset, Y
    )
    d = duality.dual_of_bset_morphism(collapse)
    (g,) = d.source.total
    assert len(d.phi[g]) == 2
    assert not d.partial_map


def test_dual_needs_proper_base(prod):
    X = bset.constant_bset(make_b2())
    inc = bset.validate_bset_morphism(
        {"c0": "0", "c1": "a1"}, {"0": "0", "1": "a"}, X, prod
    )
    with pytest.raises(NotProper):
        duality.dual_of_bset_morphism(inc)


def test_atom_inclusion_dual_is_partial(prod):
    # a proper-base inclusion: constant set over B4 into Prod picking a1, b1
    C = bset.constant_bset(make_b4())
    inc = bset.validate_bset_morphism(
        {"c0": "0", "ca": "a1", "cb": "b1", "c1": "(a1,b1)"},
        {e: e for e in prod.base.elements},
        C,
        prod,
    )
    rep = duality.check_meet_partial_correspondence(inc)
    assert rep.preserves_meets and rep.dual_partial_map and rep.equivalent


def test_meet_partial_correspondence(x3_bset, prod):
    Y = bset.constant_bset(make_b2())
    collapse = bset.validate_bset_morphism(
        {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "1"}, x3_bset, Y
    )
    rep = duality.check_meet_partial_correspondence(collapse)
    assert not rep.preserves_meets and not rep.dual_partial_map and rep.equivalent

    rep2 = duality.check_meet_partial_correspondence(bset.identity_bset_morphism(prod))
    assert rep2.preserves_meets and rep2.dual_partial_map


def test_meets_vs_hausdorff(x3_bset, prod):
    for X in (x3_bset, prod):
        rep = duality.check_meets_vs_hausdorff(X)
        assert rep.has_meets and rep.dual_hausdorff and rep.equivalent


@pytest.mark.parametrize("sizes", [(1,), (3,), (1, 1), (2, 2), (2, 1, 1)])
def test_meets_vs_hausdorff_generated_batch(sizes):
    # the finite-scale collapse: both sides are always true on generated
    # instances, and the report records the computed values
    rep = duality.check_meets_vs_hausdorff(bset.generate_boolean_set(sizes))
    assert rep.has_meets and rep.dual_hausdorff and rep.equivalent


def test_topology_report(x3_bset, prod, b4):
    for X in (x3_bset, prod, bset.constant_bset(b4)):
        rep = duality.check_topology(X)
        assert rep.all_ok, str(rep)


HOM_SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1)]


def relational_key(rm):
    return frozenset(rm.phi.items()), frozenset(rm.phibar.items())


def test_functor_laws_bset(x3_bset):
    Y = bset.constant_bset(make_b2())
    collapse = bset.validate_bset_morphism(
        {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "1"}, x3_bset, Y
    )
    rep = duality.check_functor_laws_bset(collapse, bset.identity_bset_morphism(Y))
    assert rep.all_ok, str(rep)


def test_a_failed_functor_law_names_where_its_sides_first_differ(x3_bset, monkeypatch):
    # each dual swaps the images of the first two points of the first fiber
    # of its source that has two, so the dual of an identity is not one
    real = duality.dual_of_bset_morphism

    def swapped(m):
        d = real(m)
        fiber = next((f for f in d.source.fibers.values() if len(f) > 1), None)
        if fiber is None:
            return d
        (a, b), phi = fiber[:2], dict(d.phi)
        phi[a], phi[b] = d.phi[b], d.phi[a]
        return etale.validate_relational_morphism(phi, d.phibar, d.source, d.target)

    Y = bset.constant_bset(make_b2())
    collapse = bset.validate_bset_morphism(
        {"0": "c0", "x1": "c1", "x2": "c1"}, {"0": "0", "1": "1"}, x3_bset, Y
    )
    monkeypatch.setattr(duality, "dual_of_bset_morphism", swapped)
    rep = duality.check_functor_laws_bset(collapse, bset.identity_bset_morphism(Y))
    assert [str(it) for it in rep.failures()] == ["FAIL dual_identity_X witness=([x1]@1)"]
    # Boolean-set morphisms: the first element, then the first base element
    ident, swap = (m for m in bset.enumerate_bset_morphisms(x3_bset, x3_bset)
                   if m.mapping in ({"0": "0", "x1": "x1", "x2": "x2"},
                                    {"0": "0", "x1": "x2", "x2": "x1"}))
    assert list(duality._bset_differences(ident, swap)) == [("x1",), ("x2",)]
    assert list(duality._bset_differences(ident, ident)) == []


@pytest.mark.parametrize("a", HOM_SHAPES)
def test_dual_maps_the_proper_morphisms_onto_the_covering_ones(a):
    # the hom-set bijection: distinct proper morphisms X -> Y have distinct
    # duals, and they are every covering morphism of the dual spaces
    X = bset.generate_boolean_set(a)
    for b in HOM_SHAPES:
        Y = bset.generate_boolean_set(b)
        duals = [duality.dual_of_bset_morphism(m)
                 for m in bset.enumerate_bset_morphisms(X, Y, proper_only=True)]
        covering = etale.enumerate_covering_relational(duality.bset_to_etale(Y),
                                                        duality.bset_to_etale(X))
        keys = [relational_key(d) for d in duals]
        assert len(set(keys)) == len(keys), (a, b)
        assert set(keys) == {relational_key(c) for c in covering}, (a, b)


def test_functor_laws_relational(efix):
    T2 = etale.validate_etale(["f1", "f2"], ["w"], {"f1": "w", "f2": "w"})
    Pt = etale.validate_etale(["q"], ["z"], {"q": "z"})
    chi = next(iter(etale.enumerate_covering_relational(efix, T2)))
    psi = next(iter(etale.enumerate_covering_relational(T2, Pt)))
    rep = duality.check_functor_laws_relational(chi, psi)
    assert rep.all_ok, str(rep)
