"""The verified meet table of a Boolean set (``bset._meet_table``) and the
point-mask checks of the duality layer, against the pair scans they
replaced.

The table must equal the earlier bound search (``old_meets``, which builds
its own order masks) on every pair: of every generated shape up to 81
elements (atom stalk sizes in non-decreasing order, labels shuffled) and of
3,3,3,3; of the duals of 40 seeded etale spaces; and of sets whose atom codes
are swapped before the table is built, where candidates fail the
order-mask check and the bound search answers.  The table reads no ∘/•
rows.  ``dual_is_hausdorff`` and
the meet-preservation side of ``check_meet_partial_correspondence`` must
give the earlier pair scans' answers, on tampered point masks too, and
``check_topology`` must accept valid sets without running a pair scan.
"""

import random
from itertools import product
from math import prod
from pathlib import Path

import pytest

from skewstone import balg, bset, duality, etale, skew, textio
from skewstone.errors import NoBinaryMeets

from test_duality_layer import (
    editable_masks, old_meets, right_normal_bands, seeded_space, stone_sets, toggle)
from test_quotients import all_bands

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- references

def old_dual_is_hausdorff(X):
    ultras = duality.bset_ultrafilters(X)
    basic = stone_sets(X)
    for i, g in enumerate(ultras):
        for h in ultras[i + 1:]:
            if not any(
                g.ident in basic[a] and h.ident in basic[b] and not (basic[a] & basic[b])
                for a in X.elements for b in X.elements
            ):
                return False
    return True


def old_preserves_meets(m):
    X, Y = m.source, m.target
    mx, my = old_meets(X), old_meets(Y)
    return all(m.mapping[mx(x, y)] == my(m.mapping[x], m.mapping[y])
               for x in X.elements for y in X.elements)


def old_wedge_loop(phi):
    """The earlier skew.is_wedge_morphism: one meet per pair at each end,
    here by the bound search of old_meets over each end's presheaf."""
    S, T = phi.source, phi.target
    ms, mt = old_meets(bset.band_to_presheaf(S)), old_meets(bset.band_to_presheaf(T))
    for A, meet in ((S, ms), (T, mt)):
        if any(meet(x, y) is None for x in A.elements for y in A.elements):
            raise NoBinaryMeets(())
    m = phi.mapping
    return all(m[ms(x, y)] == mt(m[x], m[y]) for x in S.elements for y in S.elements)


# ----------------------------------------------------------------- inputs

def shapes(limit, least=1, prefix=()):
    """Every non-decreasing tuple of atom stalk sizes whose Boolean set has
    at most ``limit`` elements."""
    if prefix:
        yield prefix
    for s in range(least, limit):
        if prod(t + 1 for t in prefix) * (s + 1) > limit:
            break
        yield from shapes(limit, s, prefix + (s,))


def assert_table_matches(X):
    meet, els = old_meets(X), X.elements
    want = [[meet(x, y) for y in els] for x in els]
    table = bset._meet_table(X)
    assert [[els[k] if k >= 0 else None for k in row] for row in table] == want
    assert all(X.meet_elem(x, y) == want[i][j]
               for i, x in enumerate(els) for j, y in enumerate(els))
    assert X.has_binary_meets is all(m is not None for row in want for m in row)


def counting_bound(monkeypatch):
    """Patch balg._bound to count its calls; returns the one-item counter."""
    calls, bound = [0], balg._bound

    def counted(mask, rel):
        calls[0] += 1
        return bound(mask, rel)
    monkeypatch.setattr(balg, "_bound", counted)
    return calls


# ------------------------------------------------------------------ tests

def test_meet_table_matches_the_bound_search_on_generated_sets(monkeypatch):
    calls = counting_bound(monkeypatch)
    every = list(shapes(81))
    assert len(every) == 269 and (2, 2, 2, 2) in every and (1,) * 6 in every
    for k, sizes in enumerate(every + [(3, 3, 3, 3)]):
        assert_table_matches(bset.generate_boolean_set(sizes, seed=k))
    # every candidate on valid rows is confirmed: no bound search ran
    assert calls[0] == 0


def test_meet_table_matches_the_bound_search_on_etale_duals(monkeypatch):
    calls = counting_bound(monkeypatch)
    rng = random.Random(20)
    for _ in range(40):
        assert_table_matches(etale.dual_bset(seeded_space(rng)))
    for path in sorted(DOCS.glob("*.txt")):
        for X in textio.build(textio.parse(path.read_text())).values():
            if isinstance(X, bset.BooleanSet):
                assert_table_matches(X)
    assert calls[0] == 0


def test_meet_table_falls_back_on_swapped_atom_codes(monkeypatch):
    rng = random.Random(9)
    calls = counting_bound(monkeypatch)
    for sizes in [(2, 1, 2), (1, 1, 3), (2, 2, 2)]:
        for _ in range(15):
            X = bset.generate_boolean_set(sizes, seed=rng.randrange(100))
            codes, sup, fields = X._coords
            codes = list(codes)
            n = len(X.elements)
            for _ in range(rng.randint(1, 4)):
                i, j = rng.randrange(n), rng.randrange(n)
                codes[i], codes[j] = codes[j], codes[i]
            X._coords = codes, sup, fields  # packed codes swapped
            assert_table_matches(X)
    assert calls[0] > 0


def test_meet_table_reads_no_skew_rows(monkeypatch):
    def refuse(X):
        raise AssertionError("the ∘/• rows were built")
    monkeypatch.setattr(bset, "_skew_rows", refuse)
    assert_table_matches(bset.generate_boolean_set((2, 1, 3), seed=5))
    assert_table_matches(etale.dual_bset(seeded_space(random.Random(4))))


def band_presheaves():
    """The presheaves of test_quotients.all_bands() and of every right
    normal band on four elements."""
    els = list("pqrs")
    four = [bset.validate_band(els, [[els[v] for v in row] for row in rows])
            for rows in right_normal_bands(4)]
    assert len(four) == 213
    return [bset.band_to_presheaf(S) for S in all_bands() + four]


def test_band_presheaf_meets_match_the_bound_search():
    # a band's presheaf is no Boolean set: its table is the bound search
    without = 0
    for P in band_presheaves():
        meet, els = old_meets(P), P.elements
        want = [[meet(x, y) for y in els] for x in els]
        assert [[P.meet_elem(x, y) for y in els] for x in els] == want
        assert P.has_binary_meets is all(m is not None for row in want for m in row)
        without += not P.has_binary_meets
    assert without > 0


def test_preserves_meets_matches_both_earlier_loops():
    built = textio.build(textio.parse((DOCS / "showcase.txt").read_text()))
    sets = [built["X3"], built["Cst"], bset.generate_boolean_set((1, 1)),
            bset.generate_boolean_set((2, 1))]
    seen = {"bset": set(), "skew": set()}
    for X, Y in product(sets, repeat=2):
        for m in bset.enumerate_bset_morphisms(X, Y):
            want = old_preserves_meets(m)
            assert X.preserves_meets(m.mapping, Y) is want
            seen["bset"].add(want)
        for phi in skew.enumerate_skew_morphisms(bset.to_skew(X), bset.to_skew(Y)):
            want = old_wedge_loop(phi)
            assert skew.is_wedge_morphism(phi) is want
            seen["skew"].add(want)
    assert seen == {"bset": {True, False}, "skew": {True, False}}


def test_preserves_meets_needs_meets_on_both_sides():
    P = next(P for P in band_presheaves() if not P.has_binary_meets)
    Q = bset.generate_boolean_set((1,))
    ident = {x: x for x in P.elements}
    for src, tgt, mapping in [(P, P, ident), (Q, P, {x: P.elements[0] for x in Q.elements})]:
        with pytest.raises(NoBinaryMeets) as info:
            src.preserves_meets(mapping, tgt)
        assert info.value.witness == ()


def tampered(X, rng):
    """X with its point masks edited: random points toggled, or one point
    glued to every set through another, so that those two points cannot be
    separated."""
    editable_masks(X)
    L = stone_sets(X)
    points = sorted(set().union(*L.values()))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            toggle(X, rng.choice(X.elements), rng.choice(points))
    else:
        g, h = rng.sample(points, 2)
        for a, s in L.items():
            if h in s and g not in s:
                toggle(X, a, g)
    return X


def test_dual_is_hausdorff_matches_the_pair_scan():
    rng = random.Random(3)
    seen = set()
    sets = [bset.generate_boolean_set(s, seed=1) for s in [(1,), (2, 1), (2, 2, 2), (1, 1, 3)]]
    sets += [etale.dual_bset(seeded_space(rng)) for _ in range(5)]
    for X in sets:
        assert duality.dual_is_hausdorff(X) is old_dual_is_hausdorff(X) is True
    for sizes in [(2, 1), (1, 2, 1), (2, 2)]:
        for _ in range(30):
            X = tampered(bset.generate_boolean_set(sizes), rng)
            want = old_dual_is_hausdorff(X)
            assert duality.dual_is_hausdorff(X) is want
            seen.add(want)
    assert seen == {True, False}


def test_meet_preservation_matches_the_pair_scan():
    built = textio.build(textio.parse((DOCS / "showcase.txt").read_text()))
    sets = [built["X3"], built["Cst"], bset.generate_boolean_set((1, 1)),
            bset.generate_boolean_set((2, 1))]
    seen = set()
    for X in sets:
        for Y in sets:
            for m in bset.enumerate_bset_morphisms(X, Y, proper_only=True):
                want = old_preserves_meets(m)
                assert duality.check_meet_partial_correspondence(m).preserves_meets is want
                seen.add(want)
    assert seen == {True, False}


def test_valid_sets_are_accepted_without_the_pair_scans(monkeypatch):
    # on a valid set every pair property of check_topology is accepted over
    # whole rows; the id-level pair scans would read these methods
    sets = [bset.generate_boolean_set(s, seed=2) for s in [(2, 1), (2, 2, 2), (1, 1, 3, 3)]]
    sets += [etale.dual_bset(seeded_space(random.Random(s))) for s in range(5)]

    def refuse(*args):
        raise AssertionError("a pair scan ran")
    for name in ("meet_elem", "leq_elem", "compatible_elems", "join"):
        monkeypatch.setattr(bset.BooleanSet, name, refuse)
    for X in sets:
        assert duality.check_topology(X).all_ok
