"""Morphisms through atoms: a homomorphism 2^A -> 2^C is a partial map g
from C to A (``bset._enumerate_bahoms``), and a Boolean-set morphism is g
plus one map X(g(c)) -> Y(c) per atom c where g is defined
(``bset.enumerate_bset_morphisms`` through ``bset._coded_map``).

The references in ``morphism_reference.py`` are the earlier code: the
enumeration over every image of the atoms, top-stalk propagation, the
isomorphism decoding of Boolean sets, and the three id-level validators.
The enumerations must yield exactly their sets, the isomorphism search the
same maps, and every validator the same (law, witness) or message on seeded
single-entry edits of valid maps; the one message that changed is a missing
``basemap`` entry, which now names the basemap.  The edits include moves of
one image within its target stalk, which keep BM1 and mostly break BM2.
The paper's morphism lemma (given the base homomorphism and BM1, BM2 holds
iff ∘ and • are preserved) is checked on seeded maps that commute with a
base homomorphism.  A base homomorphism is accepted by its atoms, and the
meet/join pair scan must name the reference's witness on every refusal.
"""

import itertools
import random
from functools import lru_cache
from math import prod

import pytest

from skewstone import balg, bset, duality, skew
from skewstone.errors import StructureError

import morphism_reference as ref
from conftest import make_b2, make_b4, make_prod, make_x3_bset, make_x3_skew


def bases():
    out = []
    for k in range(4):
        points = tuple("pqr"[:k])
        out.append(balg.powerset_balg(points, balg.render_braces(points))[0])
    # the same algebras with their elements, and so their atoms, in other orders
    out.append(balg.validate_balg(["0", "b", "a", "1"],
                                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "0"))
    out.append(bset.generate_boolean_set((2, 1, 3), seed=5).base)
    return out


PROFILES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2),
            (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


@lru_cache(maxsize=None)
def sets():
    named = {sizes: bset.generate_boolean_set(sizes) for sizes in PROFILES}
    named["Cst"] = bset.constant_bset(make_b4())
    named["X3"] = make_x3_bset()
    named["Prod"] = make_prod()
    return named


@lru_cache(maxsize=None)
def morphisms(a, b):
    X, Y = sets()[a], sets()[b]
    return tuple(bset.enumerate_bset_morphisms(X, Y))


def keyed(ms):
    return [(frozenset(m.mapping.items()), frozenset(m.base_hom.mapping.items())) for m in ms]


# ------------------------------------------------------------ enumerations

def test_bahoms_are_the_partial_atom_maps_of_the_reference():
    for A in bases():
        for B in bases():
            got = list(bset._enumerate_bahoms(A, B))
            maps = {frozenset(h.items()) for _, h in got}
            assert maps == {frozenset(h.items()) for h in ref.enumerate_bahoms(A, B)}
            assert len(got) == len(maps) == (len(A.atoms) + 1) ** len(B.atoms)
            for g, h in got:  # g(c) is the atom of A whose image holds c
                assert g == tuple(next((a for a in A.atoms if B.leq(c, h[a])), None)
                                  for c in B.atoms)


def test_bset_morphisms_match_the_propagation_reference():
    # a source with the (2, 2, 2) profile has 8 top-stalk elements, so the
    # reference tries up to 8^8 top choices per base hom; its counts are
    # checked by the formula below instead
    pairs = 0
    for a in sets():
        if a == (2, 2, 2):
            continue
        for b in sets():
            got = keyed(morphisms(a, b))
            want = keyed(ref.enumerate_bset_morphisms(sets()[a], sets()[b]))
            assert len(set(got)) == len(got) and set(got) == set(want), (a, b)
            pairs += 1
    assert pairs == 12 * 13


def test_bset_morphism_count_is_the_product_formula():
    total = 0
    for a, X in sets().items():
        for b, Y in sets().items():
            want = sum(
                prod(len(Y.stalks[c]) ** len(X.stalks[ga])
                     for c, ga in zip(Y.base.atoms, g) if ga is not None)
                for g, _ in bset._enumerate_bahoms(X.base, Y.base))
            assert len(set(keyed(morphisms(a, b)))) == want, (a, b)
            total += want
    assert total > 10000


def test_proper_only_is_the_filtered_enumeration():
    for a in ["X3", "Cst", "Prod", (2, 1), (1, 1, 2)]:
        for b in ["X3", "Cst", "Prod", (2, 1), (1, 2)]:
            X, Y = sets()[a], sets()[b]
            got = keyed(bset.enumerate_bset_morphisms(X, Y, proper_only=True))
            assert got == keyed(m for m in morphisms(a, b) if ref.is_proper_hom(m.base_hom))
            assert set(got) == set(keyed(ref.enumerate_bset_morphisms(X, Y, proper_only=True)))


def test_skew_morphisms_are_the_morphisms_of_their_boolean_sets():
    algebras = [make_x3_skew()] + [bset.to_skew(sets()[s]) for s in [(1,), (2,), (1, 1), (2, 1)]]
    for S in algebras:
        for T in algebras:
            got = [frozenset(m.mapping.items()) for m in skew.enumerate_skew_morphisms(S, T)]
            want = {frozenset(m.mapping.items()) for m in ref.enumerate_skew_morphisms(S, T)}
            assert len(set(got)) == len(got) and set(got) == want


# ------------------------------------------------------------ isomorphisms

def test_bset_isomorphic_matches_the_inline_decoding():
    candidates = list(sets().values()) + [
        bset.generate_boolean_set(p, seed=s)
        for p in [(1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 1), (1, 3)] for s in (None, 4)]
    found = 0
    for X in candidates:
        for Y in candidates:
            got = bset.bset_isomorphic(X, Y)
            assert got == ref.bset_isomorphic(X, Y)
            found += got is not None
    assert found > len(candidates)


# -------------------------------------------------------------- validators

def outcome(validate, *args):
    try:
        m = validate(*args)
    except StructureError as e:
        return type(e).__name__, e.law, e.witness
    except ValueError as e:
        return "ValueError", str(e)
    if isinstance(m, bset.BSetMorphism):
        base = m.base_hom.mapping
    elif isinstance(m, skew.SkewMorphism):
        base = m.induced.mapping
    else:
        base = None
    return "ok", m.mapping, base


def kind(got):
    """An outcome without the maps of an accepted morphism."""
    return got[:1] if got[0] == "ok" else got[:2]


def edits(mapping, images, rng, count):
    """``count`` seeded single-entry edits of ``mapping``: one image moved
    to another image or to a foreign id, one entry dropped, or a stray
    entry added."""
    keys = list(mapping)
    for _ in range(count):
        out = dict(mapping)
        kind = rng.randrange(4)
        if kind == 0:
            out[rng.choice(keys)] = rng.choice(images)
        elif kind == 1:
            out[rng.choice(keys)] = "zz"
        elif kind == 2:
            del out[rng.choice(keys)]
        else:
            out["zz"] = rng.choice(images)
        yield out


def test_validate_bahom_matches_the_reference_on_single_edits():
    rng, failures = random.Random(17), set()
    for A in bases():
        for B in bases():
            for _, h in bset._enumerate_bahoms(A, B):
                for mm in edits(h, list(B.elements), rng, 3):
                    got = outcome(balg.validate_bahom, mm, A, B)
                    assert got == outcome(ref.validate_bahom, mm, A, B)
                    failures.add(kind(got))
    assert {f for f in failures if f[0] == "NotAHomomorphism"} >= {
        ("NotAHomomorphism", "hom.bottom"), ("NotAHomomorphism", "hom.meet"),
        ("NotAHomomorphism", "hom.join")}


def test_bahom_atom_check_matches_the_pair_scan(monkeypatch):
    # a homomorphism is accepted by its atoms; the pair scan runs only on a
    # refusal, and names the reference's first (meet/join) pair.  Every map
    # from the 4-element to the 8-element powerset, then seeded maps that
    # keep the bottom and seeded single edits of homomorphisms, up to 16
    # elements.
    scans = []

    def unpreserved(*args, real=balg._unpreserved):
        scans.append(args)
        return real(*args)

    monkeypatch.setattr(balg, "_unpreserved", unpreserved)
    algebras = bases() + [balg.powerset_balg("pqrs", balg.render_braces("pqrs"))[0]]
    A4, B8 = algebras[2], algebras[3]
    cases = [(dict(zip(A4.elements, images)), A4, B8)
             for images in itertools.product(B8.elements, repeat=len(A4.elements))]
    rng = random.Random(28)
    for A in algebras:
        for B in algebras:
            for _ in range(8):
                mm = {x: rng.choice(B.elements) for x in A.elements}
                cases.append(({**mm, A.bottom: B.bottom}, A, B))
            homs = [h for _, h in bset._enumerate_bahoms(A, B)]
            for h in rng.sample(homs, min(len(homs), 6)):
                cases.append((h, A, B))
                moved = dict(h)
                moved[rng.choice(A.elements)] = rng.choice(B.elements)
                cases.append((moved, A, B))
    seen = set()
    for mm, A, B in cases:
        scans.clear()
        got = outcome(balg.validate_bahom, mm, A, B)
        assert got == outcome(ref.validate_bahom, mm, A, B)
        assert bool(scans) == (got[0] != "ok" and got[1] != "hom.bottom")
        seen.add(kind(got))
    assert seen == {("ok",), ("NotAHomomorphism", "hom.bottom"),
                    ("NotAHomomorphism", "hom.meet"), ("NotAHomomorphism", "hom.join")}


def test_validate_skew_morphism_matches_the_reference_on_single_edits():
    rng, laws = random.Random(18), set()
    algebras = [make_x3_skew()] + [bset.to_skew(sets()[s]) for s in [(2,), (1, 1), (2, 1), (1, 2, 2)]]
    for S in algebras:
        for T in algebras:
            for m in skew.enumerate_skew_morphisms(S, T):
                for mm in edits(m.mapping, list(T.elements), rng, 2):
                    got = outcome(skew.validate_skew_morphism, mm, S, T)
                    assert got == outcome(ref.validate_skew_morphism, mm, S, T)
                    laws.add(kind(got))
    assert {("NotAMorphism", f"morphism.{op}") for op in ("zero", "circ", "bullet")} <= laws


def basemap_message(got):
    """The reference names a missing basemap entry as a missing map entry."""
    if got[0] == "ValueError" and got[1].startswith("map not total"):
        return got[0], "base" + got[1]
    return got


def stalk_moves(phi, Y, rng, count):
    """``count`` seeded edits of ``phi`` that move one image to another
    element of its stalk in Y, so the square still commutes (BM1); none
    when every image's stalk has one element."""
    keys = [x for x in phi if len(Y.stalks[Y.p(phi[x])]) > 1]
    for _ in range(count if keys else 0):
        x = rng.choice(keys)
        out = dict(phi)
        out[x] = rng.choice([y for y in Y.stalks[Y.p(phi[x])] if y != phi[x]])
        yield out


def test_validate_bset_morphism_matches_the_reference_on_single_edits():
    # stalk moves draw from their own generator, so the other edits stay as
    # they were drawn before moves were added
    rng, moves, laws, moved = random.Random(19), random.Random(20), set(), set()
    names = ["X3", "Cst", "Prod", (2, 1), (1, 2, 2)]
    for a in names:
        for b in names:
            X, Y = sets()[a], sets()[b]
            for m in rng.sample(morphisms(a, b), min(20, len(morphisms(a, b)))):
                phi, phibar = m.mapping, m.base_hom.mapping
                for mm in stalk_moves(phi, Y, moves, 2):
                    for base in (phibar, None):
                        got = outcome(bset.validate_bset_morphism, mm, base, X, Y)
                        assert got == outcome(ref.validate_bset_morphism, mm, base, X, Y)
                        moved.add(kind(got))
                for mm in edits(phi, list(Y.elements), rng, 2):
                    for base in (phibar, None):
                        got = outcome(bset.validate_bset_morphism, mm, base, X, Y)
                        assert got == outcome(ref.validate_bset_morphism, mm, base, X, Y)
                        laws.add(kind(got))
                for bb in edits(phibar, list(Y.base.elements), rng, 2):
                    got = outcome(bset.validate_bset_morphism, phi, bb, X, Y)
                    want = outcome(ref.validate_bset_morphism, phi, bb, X, Y)
                    if len(bb) < len(phibar):
                        want = basemap_message(want)
                    assert got == want
                    laws.add(kind(got))
    assert {"BM1Violation", "BM2Violation", "NotAHomomorphism", "ValueError"} <= {
        law[0] for law in laws}
    assert moved == {("ok",), ("BM2Violation", "bsetmor.BM2")}


def bm2_holds(phi, phibar, X, Y):
    """The id-level BM2 scan: restriction commutes with the maps on every
    element and base element below its stalk."""
    return all(phi[X.restrict(x, b)] == Y.restrict(phi[x], phibar[b])
               for x in X.elements for b in X.base.down_set(X.p(x)))


def test_bm2_holds_iff_the_element_map_preserves_circ_and_bullet():
    # the paper's morphism lemma: given a base homomorphism and an element
    # map that commutes with it (BM1), BM2 holds iff the ∘/• rows of both
    # sets are preserved
    rng, seen = random.Random(21), {True: 0, False: 0}
    for a in PROFILES:
        for b in PROFILES:
            X, Y = sets()[a], sets()[b]
            (cx, bx), (cy, by) = bset._skew_rows(X), bset._skew_rows(Y)
            homs = list(bset._enumerate_bahoms(X.base, Y.base))
            for _, phibar in rng.sample(homs, min(6, len(homs))):
                for _ in range(10):
                    phi = {x: rng.choice(Y.stalks[phibar[X.p(x)]]) for x in X.elements}
                    f = [Y.index[phi[x]] for x in X.elements]
                    holds = bm2_holds(phi, phibar, X, Y)
                    assert holds == (balg._unpreserved(f, cx, cy, bx, by) is None), (a, b, phi)
                    seen[holds] += 1
    assert min(seen.values()) > 1000


def test_morphism_acceptance_builds_no_skew_rows(monkeypatch):
    # BM2 is one pass over the restriction rows: no ∘/• rows are built, and
    # balg._unpreserved runs only as the base homomorphism's meet/join scan
    inside = []

    def refuse(*args):
        raise AssertionError("∘/• rows were built")

    def check_bahom(*args, real=balg._check_bahom):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    def unpreserved(*args, real=balg._unpreserved):
        assert inside, "a ∘/• preservation scan ran"
        return real(*args)

    monkeypatch.setattr(bset, "_skew_rows", refuse)
    monkeypatch.setattr(balg, "_check_bahom", check_bahom)
    monkeypatch.setattr(balg, "_unpreserved", unpreserved)
    fresh = [make_x3_bset(), make_prod(), bset.generate_boolean_set((2, 1), seed=1),
             bset.generate_boolean_set((1, 2, 2), seed=2)]
    for X in fresh:
        assert bset.identity_bset_morphism(X).mapping == {x: x for x in X.elements}
        sizes = sorted(len(X.stalks[a]) for a in X.base.atoms)
        assert bset.bset_isomorphic(X, bset.generate_boolean_set(sizes[::-1], seed=3))
        duality.bset_double_dual(X)
    pool = [m for X in fresh[:3] for Y in fresh[:3] for m in bset.enumerate_bset_morphisms(X, Y)]
    assert len(pool) > 100


def test_the_element_map_is_checked_whole_before_the_basemap():
    # the reference refused stray keys of both maps before either map's
    # totality, so it names the basemap's stray key here
    X, Y = make_x3_bset(), bset.constant_bset(make_b2())
    phi, phibar = {"0": "c0", "x1": "c1"}, {"0": "0", "1": "1", "zz": "1"}
    with pytest.raises(ValueError, match="^map not total: missing 'x2'$"):
        bset.validate_bset_morphism(phi, phibar, X, Y)
    with pytest.raises(ValueError, match="^basemap entry 'zz' is not a source base element$"):
        ref.validate_bset_morphism(phi, phibar, X, Y)
