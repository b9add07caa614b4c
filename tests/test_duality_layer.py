"""One sections builder, one Stone map per Boolean set and first-witness
property reports, against copies of the code they replaced.

The references are the earlier ``generate_boolean_set`` and ``dual_bset``
(each with its own product/restriction loop), ``check_topology`` (flag loops
that keep scanning and report the last witness) and ``check_consequences``
(``scan3``, hand-written flag loops, a right-regularity check under the
name ``right_normal_circ``, and ``gamma_right_zero_circ`` as x∘y = y within
classes of equal ∘ rows).  Boolean sets must be equal with every table and
key order; reports must be equal on valid inputs.  On tampered inputs the
same laws must fail, and each witness must be the first one a full scan
finds (the reference records every witness in scan order).
"""

import dataclasses
import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from skewstone import balg, bset, duality, etale, skew, textio
from skewstone.errors import EmptySizes, FiberViolation, NotCovering, StructureError
from skewstone.report import CheckItem, Report

import mutation_engine as me
from conftest import cover_maps

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- references

def old_generate_boolean_set(atom_stalk_sizes, seed=None):
    sizes = tuple(atom_stalk_sizes)
    if not sizes:
        raise EmptySizes(())
    if any(s < 1 for s in sizes):
        raise ValueError("stalk sizes must be at least 1")
    if len(sizes) > len(bset.ATOM_LETTERS):
        raise ValueError(f"at most {len(bset.ATOM_LETTERS)} atoms supported")
    atoms = bset.ATOM_LETTERS[: len(sizes)]
    rng = random.Random(seed)
    labels = {}
    for a, s in zip(atoms, sizes):
        names = [f"{a}{i + 1}" for i in range(s)]
        if seed is not None:
            rng.shuffle(names)
        labels[a] = tuple(names)

    def subset_id(s):
        if not s:
            return "0"
        if len(s) == len(atoms):
            return "1"
        if len(s) == 1:
            return next(iter(s))
        return "".join(a for a in atoms if a in s)

    base, id_of, set_of = balg.powerset_balg(tuple(atoms), subset_id)

    def elem_id(parts):
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(" + ",".join(parts) + ")"

    stalks = {}
    members_of = {}
    for eid, s in set_of.items():
        present = [a for a in atoms if a in s]
        tuples = list(product(*(labels[a] for a in present)))
        stalks[eid] = tuple(elem_id(list(t)) for t in tuples)
        members_of[eid] = {elem_id(list(t)): dict(zip(present, t)) for t in tuples}

    restrictions = {}
    for upper, lower in base.cover_pairs:
        keep = [a for a in atoms if a in set_of[lower]]
        m = {}
        for x, choice in members_of[upper].items():
            m[x] = elem_id([choice[a] for a in keep])
        restrictions[(upper, lower)] = m

    P = bset.validate_presheaf(base, stalks, restrictions)
    return bset.validate_boolean_set(P)


def old_dual_bset(sp):
    """The earlier dual_bset, without its per-space cache."""
    base_alg, id_of, set_of = balg.powerset_balg(sp.base, balg.render_braces(sp.base))
    stalks = {}
    members = {}
    for eid, A in set_of.items():
        secs = etale.sections_over(sp, A)
        stalks[eid] = tuple(s.ident for s in secs)
        for s in secs:
            members[s.ident] = s.members
    restrictions = {}
    for upper, lower in base_alg.cover_pairs:
        B = set_of[lower]
        m = {}
        for sid in stalks[upper]:
            kept = frozenset(e for e in members[sid] if sp.proj[e] in B)
            m[sid] = "{" + ",".join(e for e in sp.total if e in kept) + "}"
        restrictions[(upper, lower)] = m
    P = bset.validate_presheaf(base_alg, stalks, restrictions)
    X = bset.validate_boolean_set(P)
    X.sections = members
    X.space = sp
    X.base_sets = set_of
    return X


def old_meets(X):
    """The earlier Presheaf.meet_elem, as a function of two ids: a bound
    search over order masks read from the restrictions (copies of
    bset._order_masks and balg._bound), so it reads no meet table."""
    n, index = len(X.elements), X.index
    below = [0] * n
    for j, y in enumerate(X.elements):
        for x in X._rest[y].values():
            below[j] |= 1 << index[x]

    def meet(x, y):
        mask = below[index[x]] & below[index[y]]
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if mask & ~below[i] == 0:
                return X.elements[i]
            m &= m - 1
        return None
    return meet


def old_check_topology(X):
    """The earlier check_topology; ``found`` also records, per law, every
    witness its loops meet, in scan order (the report keeps the last).
    Meets come from its own bound search (old_meets)."""
    meet_elem = old_meets(X)
    sp = duality.bset_to_etale(X)
    L = {a: frozenset(u.ident for u in duality.ultrafilters_containing(X, a))
         for a in X.elements}
    items = []
    found = {}
    seen = []

    def add(law, ok, witness=()):
        items.append(CheckItem(law, ok, witness))
        found[law] = seen[:]
        seen.clear()

    def fail(witness):
        seen.append(witness)
        return False, witness

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            common = L[a] & L[b]
            for gid in common:
                if not any(gid in L[c] and L[c] <= common for c in X.elements):
                    ok, wit = fail((a, b, gid))
    add("base_for_topology", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            m = meet_elem(a, b)
            if m is not None and L[m] != L[a] & L[b]:
                ok, wit = fail((a, b))
    add("meet_is_intersection", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            if (L[a] == L[b]) != (a == b):
                ok, wit = fail((a, b))
    add("injective_on_elements", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            if (L[a] <= L[b]) != X.leq_elem(a, b):
                ok, wit = fail((a, b))
    add("order_reflecting", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        if len({sp.proj[g] for g in L[a]}) != len(L[a]):
            ok, wit = fail((a,))
    add("is_local_section", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            if X.compatible_elems(a, b) and L[X.join(a, b)] != L[a] | L[b]:
                ok, wit = fail((a, b))
    add("join_is_union", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        for b in X.elements:
            union = L[a] | L[b]
            is_section = len({sp.proj[g] for g in union}) == len(union)
            if is_section and not X.compatible_elems(a, b):
                ok, wit = fail((a, b))
    add("union_section_implies_compatible", ok, wit)

    ok, wit = True, ()
    for a in X.elements:
        proj_img = frozenset(sp.proj[g] for g in L[a])
        stone = frozenset(F.generator for F in X.base.stone_map(X.p(a)))
        if proj_img != stone:
            ok, wit = fail((a,))
    add("projects_onto_stone_image", ok, wit)

    add("compact", isinstance(len(sp.total), int))

    ok, wit = True, ()
    lsets = set(L.values())
    for s in etale.all_sections(sp):
        if s.members not in lsets:
            ok, wit = fail((s.ident,))
    add("sections_exhausted", ok, wit)
    return Report(items), found


def old_check_consequences(S):
    n = len(S.elements)
    circ, bullet = S.circ_t, S.bullet_t
    els = S.elements
    items = []

    def scan3(law, pred):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not pred(i, j, k):
                        items.append(CheckItem(law, False, (els[i], els[j], els[k])))
                        return
        items.append(CheckItem(law, True))

    scan3("circ_over_bullet_left",
          lambda i, j, k: circ[i][bullet[j][k]] == bullet[circ[i][j]][circ[i][k]])
    scan3("circ_over_bullet_right",
          lambda i, j, k: circ[bullet[j][k]][i] == bullet[circ[j][i]][circ[k][i]])

    # the gamma classes, read as the classes of equal ∘ rows, which hand-built
    # tables without a kept quotient have too
    flat_c = flat_b = True
    wit_c = wit_b = ()
    for i in range(n):
        for j in range(n):
            if circ[i] == circ[j]:
                if flat_c and circ[i][j] != j:
                    flat_c, wit_c = False, (els[i], els[j])
                if flat_b and bullet[i][j] != i:
                    flat_b, wit_b = False, (els[i], els[j])
    items.append(CheckItem("gamma_right_zero_circ", flat_c, wit_c))
    items.append(CheckItem("gamma_left_zero_bullet", flat_b, wit_b))

    rn = True
    wit = ()
    for i in range(n):
        for j in range(n):
            if circ[circ[i][j]][i] != circ[j][i]:
                rn, wit = False, (els[i], els[j])
                break
        if not rn:
            break
    items.append(CheckItem("right_normal_circ", rn, wit))

    z = S.index[S.zero]
    mid = all(bullet[z][i] == i and bullet[i][z] == i for i in range(n))
    items.append(CheckItem("bullet_identity_zero", mid))
    return Report(items)


# ------------------------------------------------------------ comparison

def join_table(X):
    """The joins of a Boolean set as element indices, -1 for a pair that is
    not compatible, read through X.compatible_elems and X.join."""
    els, index = X.elements, X.index
    return [[index[X.join(x, y)] if X.compatible_elems(x, y) else -1 for y in els]
            for x in els]


def bset_view(X):
    """Everything a Boolean set exposes, with key orders."""
    return (
        X.base.elements, X.base.cover_pairs, X.elements,
        list(X.stalks.items()), list(cover_maps(X).items()),
        [(x, list(X._rest[x].items())) for x in X.elements], X.zero, join_table(X),
        list(getattr(X, "sections", {}).items()),
        list(getattr(X, "base_sets", {}).items()),
    )


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except StructureError as e:
        return type(e).__name__, e.law, e.witness, e.detail


def seeded_space(rng, points=4):
    """An etale space over 1 to ``points`` base points with fibers of 1-3
    points and a shuffled total order."""
    base = [f"u{i}" for i in range(rng.randint(1, points))]
    proj = {f"e{i}{k}": u for i, u in enumerate(base) for k in range(rng.randint(1, 3))}
    total = list(proj)
    rng.shuffle(total)
    return etale.validate_etale(total, base, proj)


def docs_stanzas(kind, cls):
    out = []
    for path in sorted(DOCS.glob("*.txt")):
        built = textio.build(textio.parse(path.read_text()))
        out += [obj for obj in built.values() if isinstance(obj, cls)]
    assert out, kind
    return out


SHAPES = [(2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2), (2, 2, 2, 5), (3, 3, 3, 3),
          (1,) * 6, (1,) * 7]
SMALL_SHAPES = [(2, 2, 2), (1, 1, 3, 3), (2, 2, 2, 2), (1, 2, 1), (3,)]


# ------------------------------------------------------- sections builder

@pytest.mark.parametrize("sizes", SHAPES)
@pytest.mark.parametrize("seed", [None, 0, 7])
def test_generator_matches_reference(sizes, seed):
    assert bset_view(bset.generate_boolean_set(sizes, seed)) == \
        bset_view(old_generate_boolean_set(sizes, seed))


def test_dual_bset_matches_reference():
    rng = random.Random(5)
    reordered = 0
    for _ in range(60):
        sp = seeded_space(rng)
        X = etale.dual_bset(sp)
        assert bset_view(X) == bset_view(old_dual_bset(sp))
        assert X.space is sp and etale.dual_bset(sp) is X
        reordered += sp.total != tuple(e for x in sp.base for e in sp.fibers[x])
    assert reordered > 30


# ---------------------------------------------------- reports, valid inputs

def valid_bsets():
    out = docs_stanzas("bset", bset.BooleanSet)
    out += [bset.generate_boolean_set(s, seed=3) for s in SMALL_SHAPES]
    rng = random.Random(8)
    out += [etale.dual_bset(seeded_space(rng)) for _ in range(6)]
    return out


def test_topology_reports_match_reference():
    for X in valid_bsets():
        report = duality.check_topology(X)
        assert report.all_ok
        assert report == old_check_topology(X)[0]
        pos, masks, through, _ = duality._stone_masks(X)
        assert pos == {g: k for k, g in enumerate(duality.bset_to_etale(X).total)}
        want = [sum(1 << pos[u.ident] for u in duality.ultrafilters_containing(X, a))
                for a in X.elements]
        assert masks == want
        assert through == [sum(1 << i for i, m in enumerate(want) if m >> k & 1)
                           for k in range(len(pos))]


def test_consequence_reports_match_reference():
    algebras = docs_stanzas("skew", skew.SkewAlgebra)
    algebras += [bset.to_skew(bset.generate_boolean_set(s, seed=3)) for s in SMALL_SHAPES]
    for S in algebras:
        report = skew.check_consequences(S)
        assert report.all_ok
        assert report == old_check_consequences(S)


# -------------------------------------------------- reports, tampered inputs

def assert_first_witnesses(X):
    new = outcome(duality.check_topology, X)
    old = outcome(old_check_topology, X)
    if new[0] != "ok":
        assert new == old
        return set()
    report, found = old[1]
    assert [it.law for it in new[1].items] == [it.law for it in report.items]
    for it, ref in zip(new[1].items, report.items):
        assert it.ok == ref.ok, it.law
        if not it.ok:
            assert it.witness == found[it.law][0], it.law
            assert ref.witness == found[it.law][-1], it.law
    return {it.law for it in new[1].items if not it.ok}


def test_topology_first_witness_with_an_ultrafilter_dropped():
    failed = Counter()
    for sizes in [(2, 2, 2), (1, 2, 1), (2, 1)]:
        count = len(duality.bset_ultrafilters(bset.generate_boolean_set(sizes)))
        for k in range(count):
            for early in (True, False):
                X = bset.generate_boolean_set(sizes)
                if not early:  # the dual space keeps every point
                    duality.bset_to_etale(X)
                ultras = list(duality.bset_ultrafilters(X))
                del ultras[k]
                X._ultra = tuple(ultras)
                failed.update(assert_first_witnesses(X))
    assert {"injective_on_elements", "order_reflecting", "sections_exhausted",
            "projects_onto_stone_image"} <= set(failed)


def test_topology_first_witness_with_an_ultrafilter_member_dropped():
    failed = Counter()
    for sizes in [(2, 1), (1, 2, 1)]:
        X0 = bset.generate_boolean_set(sizes)
        for k, u in enumerate(duality.bset_ultrafilters(X0)):
            for x in sorted(u.members, key=X0.index.__getitem__):
                X = bset.generate_boolean_set(sizes)
                ultras = list(duality.bset_ultrafilters(X))
                v = ultras[k]
                ultras[k] = duality.BSetUltrafilter(X, v.members - {x}, v.base_filter, v.ident)
                X._ultra = tuple(ultras)
                failed.update(assert_first_witnesses(X))
    assert {"base_for_topology", "meet_is_intersection", "join_is_union"} <= set(failed)


def test_topology_first_witness_with_a_corrupted_join():
    rng = random.Random(4)
    failed = Counter()
    for _ in range(40):
        X = bset.generate_boolean_set((2, 1, 2))
        # joins are read off the ∘/• rows: x, y are compatible iff x∘y = y∘x
        circ, bullet = ([row[:] for row in t] for t in bset._skew_rows(X))
        n = len(X.elements)
        i, j = rng.sample(range(n), 2)
        if circ[i][j] == circ[j][i]:
            circ[i][j] = (circ[j][i] + 1) % n
        else:
            circ[i][j] = circ[j][i]
            bullet[i][j] = bullet[j][i] = rng.randrange(n)
        X._rows = circ, bullet
        failed.update(assert_first_witnesses(X))
    assert {"join_is_union", "union_section_implies_compatible"} <= set(failed)


def right_normal_witnesses(S):
    c, els = S.circ_t, S.elements
    r = range(len(els))
    return [(els[x], els[y], els[z]) for x in r for y in r for z in r
            if c[c[x][y]][z] != c[c[y][x]][z]]


def green_r_witnesses(S):
    """Every (x, y) on which x R y (x∘y = y and y∘x = x) and equal ∘ rows
    disagree, in scan order."""
    c, els = S.circ_t, S.elements
    r = range(len(els))
    return [(els[x], els[y]) for x in r for y in r
            if (c[x][y] == y and c[y][x] == x) != (c[x] == c[y])]


def unvalidated_skew(raw):
    els, index = balg._index_elements(raw["elements"])
    circ = [[index[v] for v in row] for row in raw["circ"]]
    bullet = [[index[v] for v in row] for row in raw["bullet"]]
    return skew.SkewAlgebra(els, index, circ, bullet, index[raw["zero"]])


def assert_consequences_agree(S):
    new = outcome(skew.check_consequences, S)
    old = outcome(old_check_consequences, S)
    if new[0] != "ok":
        assert new == old
        return set()
    got, ref = new[1].items, old[1].items
    assert [it.law for it in got] == [it.law for it in ref]
    # these three laws already reported their first witness
    assert got[:2] == ref[:2] and got[3] == ref[3]
    # gamma_right_zero_circ now checks Green's R by its definition; it fails
    # wherever the reference's rule did
    rr = green_r_witnesses(S)
    assert got[2] == CheckItem("gamma_right_zero_circ", not rr, rr[0] if rr else ())
    assert got[2].ok <= ref[2].ok
    rn = right_normal_witnesses(S)
    assert got[4] == CheckItem("right_normal_circ", not rn, rn[0] if rn else ())
    z = S.index[S.zero]
    ident = [(x,) for i, x in enumerate(S.elements)
             if S.bullet_t[z][i] != i or S.bullet_t[i][z] != i]
    assert got[5].ok == ref[5].ok
    assert got[5] == CheckItem("bullet_identity_zero", not ident, ident[0] if ident else ())
    return {it.law for it in got if not it.ok}


def test_consequences_first_witness_on_mutants():
    S = bset.to_skew(bset.generate_boolean_set((2, 2), seed=1))
    els = list(S.elements)
    raw = {
        "elements": els, "zero": S.zero,
        "circ": [[S.circ(x, y) for y in els] for x in els],
        "bullet": [[S.bullet(x, y) for y in els] for x in els],
    }
    failed = Counter()
    for i in range(300):
        failed.update(assert_consequences_agree(
            unvalidated_skew(me.mutate_skew(raw, random.Random(i)))))
    assert {"circ_over_bullet_left", "circ_over_bullet_right", "gamma_left_zero_bullet",
            "right_normal_circ", "bullet_identity_zero"} <= set(failed)


def test_right_normal_circ_is_right_normality():
    # right regular (x∘y∘x = y∘x) but not right normal: r∘p∘q != p∘r∘q
    els, index = balg._index_elements(["p", "q", "r"])

    def rows(text):
        return [[index[v] for v in row.split()] for row in text.split("/")]

    S = skew.SkewAlgebra(els, index, rows("p p r/p q r/p r r"),
                         rows("p q p/q q q/r q r"), index["p"])
    report = skew.check_consequences(S)
    assert str(report.items[4]) == "FAIL right_normal_circ witness=(p,r,q)"
    with pytest.raises(StructureError) as e:
        bset.validate_band(["p", "q", "r"], [["p", "p", "r"], ["p", "q", "r"], ["p", "r", "r"]])
    assert (e.value.law, e.value.witness) == ("band.right_normal", ("p", "r", "q"))
    assert_consequences_agree(S)


# ------------------------------------------------------------ double duals

def stone_sets(X):
    """Each element of X -> the ids of the points in its mask, read back
    from the point masks (duality._stone_masks)."""
    pos, masks = duality._stone_masks(X)[:2]
    total = list(pos)
    return {a: frozenset(g for k, g in enumerate(total) if m >> k & 1)
            for a, m in zip(X.elements, masks)}


def toggle(X, a, g):
    """Toggle point g in the mask of element a, and a in the row of g."""
    pos, masks, through, _ = X._points
    i, k = X.index[a], pos[g]
    masks[i] ^= 1 << k
    through[k] ^= 1 << i


def editable_masks(X):
    """X with copies of its point masks stored in X._points, for edits."""
    pos, masks, through, fibers = duality._stone_masks(X)
    X._points = pos, list(masks), list(through), fibers
    return X


def old_unbased(els, L):
    """The first base_for_topology witness of the scan over every c."""
    for a in els:
        for b in els:
            common = L[a] & L[b]
            for gid in common:
                if not any(gid in L[c] and L[c] <= common for c in els):
                    return a, b, gid
    return None


def test_base_for_topology_first_witness_on_tampered_stone_sets():
    # points toggled in the point masks: pairs whose common set mixes
    # points with and without a one-point basic set are scanned
    rng = random.Random(6)
    failed = 0
    for sizes in [(2, 2), (1, 3), (2, 1, 2)]:
        for _ in range(40):
            X = editable_masks(bset.generate_boolean_set(sizes))
            points = sorted(set().union(*stone_sets(X).values()))
            for _ in range(rng.randint(1, 3)):
                a = rng.choice(X.elements)
                toggle(X, a, rng.choice(points))
            item = duality.check_topology(X).items[0]
            want = old_unbased(X.elements, stone_sets(X))
            assert item == CheckItem("base_for_topology", want is None, want or ())
            failed += want is not None
    assert failed > 10


def test_double_dual_refusals_name_a_law_on_tampered_ultrafilters():
    # β's maps are read off the ultrafilters of the section set: with the
    # idents of the memo swapped across fibers, after the ultrafilter space
    # is built, the projections do not commute; with two idents equal, the
    # point map is not injective
    sp = seeded_space(random.Random(3))
    D = etale.dual_bset(sp)
    duality.etale_double_dual(sp)
    ultras = D._ultra
    first, last = ultras[0], ultras[-1]
    assert first.base_filter != last.base_filter
    named = {first: last.ident, last: first.ident}
    D._ultra = tuple(dataclasses.replace(u, ident=named.get(u, u.ident)) for u in ultras)
    with pytest.raises(FiberViolation) as e:
        duality.etale_double_dual(sp)
    # e00, the first point in total order, now maps over the last base point
    assert (e.value.law, e.value.witness) == ("relmor.fiber", ("e00",))
    D._ultra = (first, dataclasses.replace(ultras[1], ident=first.ident), *ultras[2:])
    with pytest.raises(AssertionError) as e:
        duality.etale_double_dual(sp)
    assert e.value.args == (("double dual not bijective", 5, 6, 6),)


def test_dual_of_a_morphism_refuses_a_map_that_is_not_covering():
    # an identity whose map sends a point's stalk element to zero: no
    # target ultrafilter's preimage holds that point's ultrafilter
    X = bset.generate_boolean_set((2,))
    m = bset.identity_bset_morphism(X)
    with pytest.raises(NotCovering) as e:
        duality.dual_of_bset_morphism(dataclasses.replace(m, mapping=dict(m.mapping, a2="0")))
    assert (e.value.law, e.value.witness) == ("relmor.covering", ("1", "[a2]@1"))
    assert e.value.detail == "not locally surjective"


# ------------------------------------------------------------- Boolean bands

def right_normal_bands(n):
    """Every right normal band table on range(n), by backtracking over the
    off-diagonal entries in row-major order."""
    r = range(n)
    t = [[i if i == j else None for j in r] for i in r]
    cells = [(i, j) for i in r for j in r if i != j]

    def get(a, b):
        return None if a is None or b is None else t[a][b]

    def consistent():
        # associativity and right normality wherever both sides are defined
        for x, y, z in product(r, repeat=3):
            xyz = get(t[x][y], z)
            if xyz is None:
                continue
            for other in (get(x, t[y][z]), get(t[y][x], z)):
                if other is not None and other != xyz:
                    return False
        return True

    def rec(k):
        if k == len(cells):
            yield [row[:] for row in t]
            return
        i, j = cells[k]
        for v in r:
            t[i][j] = v
            if consistent():
                yield from rec(k + 1)
        t[i][j] = None

    yield from rec(0)


# one letter per band, in enumeration order: is_boolean_band and band_to_bset
BAND_CODES = {
    (True, "ok"): "B", (False, "bset.zero_stalk"): "Z",
    (False, "order.join_exists"): "j", (False, "lattice.relative_complement"): "c",
}
BAND_VERDICTS = {
    1: "B",
    2: "BZB",
    3: "jcBcZcZcZjZBBcZcZZj",
    4: "jjjjjBjjjBjcccccjjcccjBcBccccccjjjccZcccjjccZcccjjZBZccccccZBjjjcZcjcccjZ"
       "jBZccccccjZjBjcZcjjjjZcjjjjjZccccccZcjjjjjZjcjjjjZBBcZcZZZBcBcccccZcccZc"
       "ccZBZccccccZBZZcZcZcZZcZjcjjjjjZBjcjZcjjjjZcjjjjjjZBjZcjjjjjcZcjjjjj",
}


def test_is_boolean_band_against_band_to_bset():
    # a band whose bottom R class has several members is not Boolean:
    # band_to_bset fails on the zero stalk ("Z")
    for n, pinned in BAND_VERDICTS.items():
        els = list("pqrs"[:n])
        codes = ""
        for rows in right_normal_bands(n):
            S = bset.validate_band(els, [[els[v] for v in row] for row in rows])
            result = outcome(bset.band_to_bset, S)
            law = "ok" if result[0] == "ok" else result[1]
            codes += BAND_CODES[(bset.is_boolean_band(S), law)]
        assert codes == pinned, n
    assert [BAND_VERDICTS[n].count("Z") for n in (2, 3, 4)] == [1, 7, 37]
    assert [len(BAND_VERDICTS[n]) for n in (2, 3, 4)] == [3, 19, 213]
    S = bset.validate_band(["p", "q"], [["p", "q"], ["p", "q"]])
    assert not bset.is_boolean_band(S)
    assert outcome(bset.band_to_bset, S)[1:3] == ("bset.zero_stalk", ("p", "q"))
