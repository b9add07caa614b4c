import pytest

from skewstone import etale, textio
from skewstone.errors import NotCompatible, NotNested, NotSurjective, FiberViolation


def test_validate(efix):
    assert efix.fibers["u"] == ("e1", "e2")
    ident = etale.validate_etale(["u"], ["u"], {"u": "u"})
    assert ident.total == ("u",)
    with pytest.raises(NotSurjective) as e:
        etale.validate_etale(["e1"], ["u", "v"], {"e1": "u"})
    assert e.value.witness == ("v",)


def test_projection_entries_name_points_of_the_total_space():
    with pytest.raises(ValueError, match="'zz' is not a point of the total space"):
        etale.validate_etale(["e1", "e2"], ["u"], {"e1": "u", "e2": "u", "zz": "u"})
    doc = textio.parse("etale E {\n  total: e1, e2\n  base: u\n  proj: e1->u, e2->u, zz->u\n}\n")
    with pytest.raises(ValueError, match=r"^etale E \(line 1\): projection entry 'zz'"):
        textio.build(doc)


def test_sections_over(efix):
    secs = etale.sections_over(efix, {"u", "v"})
    assert [s.ident for s in secs] == ["{e1,e3}", "{e2,e3}"]
    assert [s.ident for s in etale.sections_over(efix, set())] == ["{}"]
    assert [s.ident for s in etale.sections_over(efix, {"v"})] == ["{e3}"]


def test_base_subsets_are_read_once_and_checked(efix):
    # a one-shot iterable of base points gives what the set gives
    assert etale.sections_over(efix, iter(["u", "v"])) == etale.sections_over(efix, {"u", "v"})
    assert etale.construct_section(efix, iter(["v", "u"])).ident == "{e1,e3}"
    # an id that is not a base point is refused, the least one named
    for f in (etale.sections_over, etale.construct_section):
        with pytest.raises(ValueError, match="^'w' is not a base point$"):
            f(efix, ["u", "zz", "w"])
    # restriction names such ids in its NotNested witness, as before
    C = etale.make_section(efix, {"e1", "e3"})
    with pytest.raises(NotNested) as e:
        etale.restrict_section(C, {"u", "v"}, {"zz", "u", "w"})
    assert e.value.witness == ("w", "zz")


def test_construct_section_is_least(efix):
    assert etale.construct_section(efix, {"u", "v"}).ident == "{e1,e3}"
    # nonempty for every base subset
    for mask in range(4):
        A = frozenset(x for i, x in enumerate(efix.base) if mask >> i & 1)
        assert etale.sections_over(efix, A)


def test_section_footprint_tautologies(efix):
    for s in etale.all_sections(efix):
        assert s.footprint <= frozenset(efix.base)
        assert len(s.members) == len(s.footprint)


def test_restrict_and_join(efix):
    C = etale.make_section(efix, {"e1", "e3"})
    assert etale.restrict_section(C, {"u", "v"}, {"u"}).ident == "{e1}"
    j = etale.join_sections(
        etale.make_section(efix, {"e1"}), etale.make_section(efix, {"e3"})
    )
    assert j.ident == "{e1,e3}"
    with pytest.raises(NotCompatible):
        etale.join_sections(
            etale.make_section(efix, {"e1"}), etale.make_section(efix, {"e2"})
        )
    with pytest.raises(NotNested):
        etale.restrict_section(C, {"u", "v"}, {"u", "w"})


def test_join_projects_to_union(efix):
    for a in etale.all_sections(efix):
        for b in etale.all_sections(efix):
            if etale.sections_compatible(a, b):
                j = etale.join_sections(a, b)
                assert j.footprint == a.footprint | b.footprint


def test_dual_bset_efix(efix):
    X = etale.dual_bset(efix)
    assert len(X.elements) == 6
    sizes = [len(X.stalks[e]) for e in X.base.elements]
    assert sizes == [1, 2, 1, 2]


def test_dual_bset_identity_space():
    sp = etale.validate_etale(["u"], ["u"], {"u": "u"})
    X = etale.dual_bset(sp)
    assert [len(X.stalks[e]) for e in X.base.elements] == [1, 1]


def test_dual_bset_stalk_sizes_are_fiber_products():
    sp = etale.validate_etale(
        ["e1", "e2", "e3", "e4"], ["u", "v"],
        {"e1": "u", "e2": "u", "e3": "u", "e4": "v"},
    )
    X = etale.dual_bset(sp)
    assert [len(X.stalks[e]) for e in X.base.elements] == [1, 3, 1, 3]
    for eid in X.base.elements:
        A = X.base_sets[eid]
        want = 1
        for x in A:
            want *= len(sp.fibers[x])
        assert len(X.stalks[eid]) == want


def test_relational_flags(efix):
    T2 = etale.validate_etale(["f1", "f2"], ["w"], {"f1": "w", "f2": "w"})
    rm = etale.validate_relational_morphism(
        {"e1": {"f1", "f2"}, "e2": set(), "e3": {"f1", "f2"}},
        {"u": "w", "v": "w"}, efix, T2,
    )
    assert rm.covering and not rm.partial_map

    # full-fiber images on a shared base point are not locally injective
    rm_full = etale.validate_relational_morphism(
        {"e1": {"f1", "f2"}, "e2": {"f1", "f2"}, "e3": {"f1", "f2"}},
        {"u": "w", "v": "w"}, efix, T2,
    )
    assert rm_full.locally_surjective and not rm_full.locally_injective

    ident = etale.identity_relational(efix)
    assert ident.covering and ident.partial_map

    rm_gap = etale.validate_relational_morphism(
        {"e1": set(), "e2": set(), "e3": {"f1"}}, {"u": "w", "v": "w"}, efix, T2
    )
    assert not rm_gap.locally_surjective

    with pytest.raises(FiberViolation):
        etale.validate_relational_morphism(
            {"e1": {"f1"}, "e2": set(), "e3": set()},
            {"u": "w", "v": "w"},
            efix,
            etale.validate_etale(["f1", "g"], ["w", "y"], {"f1": "y", "g": "w"}),
        )


def test_relational_composition_flags(efix):
    T2 = etale.validate_etale(["f1", "f2"], ["w"], {"f1": "w", "f2": "w"})
    Pt = etale.validate_etale(["q"], ["z"], {"q": "z"})
    for chi in etale.enumerate_covering_relational(efix, T2):
        for psi in etale.enumerate_covering_relational(T2, Pt):
            comp = etale.compose_relational(psi, chi)
            assert comp.covering
            if chi.partial_map and psi.partial_map:
                # composites of partial coverings along these shapes stay partial
                assert all(len(comp.phi[e]) <= 1 for e in comp.phi) == comp.partial_map


def test_enumerate_covering(efix):
    T2 = etale.validate_etale(["f1", "f2"], ["w"], {"f1": "w", "f2": "w"})
    found = list(etale.enumerate_covering_relational(efix, T2))
    # per base point of efix: |fiber|^|target fiber| assignments; all are covering
    assert len(found) == (2 ** 2) * (1 ** 2)
    assert all(rm.covering for rm in found)


def test_join_is_least_upper_bound(efix):
    # the section order is containment: s <= t iff s = t restricted to p(s)
    spaces = [efix, etale.validate_etale(
        ["e1", "e2", "e3", "e4", "e5"], ["u", "v", "w"],
        {"e1": "u", "e2": "u", "e3": "v", "e4": "w", "e5": "w"})]
    joins = 0
    for sp in spaces:
        secs = etale.all_sections(sp)
        for a in secs:
            for b in secs:
                if etale.sections_compatible(a, b):
                    ubs = [s for s in secs if a.members <= s.members >= b.members]
                    least = [s for s in ubs if all(s.members <= t.members for t in ubs)]
                    assert least == [etale.join_sections(a, b)], (a, b)
                    joins += 1
    assert joins > 100
