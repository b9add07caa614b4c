"""The R-class quotient of skew algebras and bands, the structural
equalities, properness and the DOT cover order, against copies of the
separate implementations they replaced.

Each reference is the earlier code, with its ``assert`` statements written
as explicit raises so that the comparison also holds under ``python -O``.
Results must be equal, or the errors equal in type, law, witness and detail.
"""

import functools
import itertools
import random
from pathlib import Path

import pytest

from skewstone import balg, bset, dot, duality, skew, textio
from skewstone.errors import NotProper, StructureError

import morphism_reference
import mutation_engine as me
from conftest import cover_maps, make_b2, make_b4, make_b8, make_prod, make_x3_bset
from test_duality_layer import join_table

SHOWCASE = Path(__file__).resolve().parent.parent / "docs" / "showcase.txt"


# ------------------------------------------------------------- references

class QuotientNotBoolean(StructureError):
    """The earlier quotient's refusal: its R classes do not form a Boolean
    algebra under the induced operations."""
    law = "skew.quotient"


def old_band_gamma(S):
    n = len(S.elements)
    t = S.table
    cls_idx = [-1] * n
    reps = []
    for i in range(n):
        if cls_idx[i] < 0:
            reps.append(i)
            for j in range(i, n):
                if t[i][j] == j and t[j][i] == i:
                    cls_idx[j] = len(reps) - 1
    names = [f"[{S.elements[r]}]" for r in reps]
    return cls_idx, reps, names


def _old_restrictions(base, stalks, circ):
    restrictions = {}
    for upper, lower in base.cover_pairs:
        m = {}
        for x in stalks[upper]:
            values = {circ(y, x) for y in stalks[lower]}
            if len(values) != 1:
                raise AssertionError(("restriction not well-defined", x, lower))
            m[x] = values.pop()
        restrictions[(upper, lower)] = m
    return restrictions


def old_band_to_presheaf(S):
    cls_idx, reps, names = old_band_gamma(S)
    t = S.table
    k = len(reps)
    pairs = [
        (names[i], names[j])
        for i in range(k) for j in range(k)
        if cls_idx[t[reps[i]][reps[j]]] == i
    ]
    base = balg.validate_meet_semilattice(names, pairs)
    for i in range(k):
        for j in range(k):
            if base.meet(names[i], names[j]) != names[cls_idx[t[reps[i]][reps[j]]]]:
                raise AssertionError()
    stalks = {
        name: tuple(S.elements[i] for i in range(len(S.elements)) if cls_idx[i] == c)
        for c, name in enumerate(names)
    }
    return bset.validate_presheaf(base, stalks, _old_restrictions(base, stalks, S.circ))


def old_is_boolean_band(S):
    cls_idx, reps, names = old_band_gamma(S)
    t = S.table
    k = len(reps)
    pairs = [
        (names[i], names[j])
        for i in range(k) for j in range(k)
        if cls_idx[t[reps[i]][reps[j]]] == i
    ]
    bottoms = [
        c for c in range(k)
        if all(cls_idx[t[reps[c]][reps[d]]] == c for d in range(k))
    ]
    if len(bottoms) != 1:
        return False
    try:
        balg.validate_balg(names, pairs, names[bottoms[0]])
    except StructureError:
        return False
    n = len(S.elements)
    for i in range(n):
        for j in range(n):
            if t[i][j] == t[j][i]:
                ubs = [z for z in range(n) if t[i][z] == i and t[j][z] == j]
                if not any(all(t[z][u] == z for u in ubs) for z in ubs):
                    return False
    return True


def one_element_least_class(S):
    """Whether the least R class of the band S has a single member."""
    cls_idx, reps, _ = old_band_gamma(S)
    t = S.table
    least = [
        c for c in range(len(reps))
        if all(cls_idx[t[reps[c]][reps[d]]] == c for d in range(len(reps)))
    ]
    return len(least) == 1 and cls_idx.count(least[0]) == 1


def old_band_bset(S):
    """The band branch of the earlier ``to-bset`` command."""
    P = old_band_to_presheaf(S)
    bottom = next(
        e for e in P.base.elements
        if len(P.base.up_set(e)) == len(P.base.elements)
    )
    return bset.validate_boolean_set(bset.validate_presheaf(
        balg.validate_balg(
            P.base.elements, [(lo, hi) for hi, lo in P.base.cover_pairs], bottom),
        P.stalks, cover_maps(P),
    ))


def old_gamma_classes(S):
    n = len(S.elements)
    circ, bullet = S.circ_t, S.bullet_t
    rows = [
        sum(1 << j for j in range(n) if circ[i][j] == j and circ[j][i] == i)
        for i in range(n)
    ]
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            rij = ri >> j & 1
            if rij != rows[j] >> i & 1:
                raise QuotientNotBoolean((S.elements[i], S.elements[j]), "not symmetric")
            missing = rows[j] & ~ri if rij else 0
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise QuotientNotBoolean(
                    (S.elements[i], S.elements[j], S.elements[k]), "not transitive"
                )
    cls_idx = [-1] * n
    reps = []
    for i in range(n):
        if cls_idx[i] < 0:
            reps.append(i)
            for j in range(i, n):
                if rows[i] >> j & 1:
                    cls_idx[j] = len(reps) - 1
    names = [f"[{S.elements[r]}]" for r in reps]
    for i in range(n):
        for j in range(n):
            if cls_idx[circ[i][j]] != cls_idx[circ[reps[cls_idx[i]]][reps[cls_idx[j]]]]:
                raise QuotientNotBoolean((S.elements[i], S.elements[j]), "circ not a congruence")
            if cls_idx[bullet[i][j]] != cls_idx[bullet[reps[cls_idx[i]]][reps[cls_idx[j]]]]:
                raise QuotientNotBoolean((S.elements[i], S.elements[j]), "bullet not a congruence")
    k = len(reps)
    qmeet = [[cls_idx[circ[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    qjoin = [[cls_idx[bullet[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    pairs = [(names[i], names[j]) for i in range(k) for j in range(k) if qmeet[i][j] == i]
    try:
        alg = balg.validate_balg(names, pairs, names[cls_idx[S.index[S.zero]]])
    except StructureError as inner:
        raise QuotientNotBoolean((), f"quotient fails {inner.law}") from inner
    for i in range(k):
        for j in range(k):
            if alg.meet(names[i], names[j]) != names[qmeet[i][j]]:
                raise QuotientNotBoolean((names[i], names[j]), "circ does not induce meet")
            if alg.join(names[i], names[j]) != names[qjoin[i][j]]:
                raise QuotientNotBoolean((names[i], names[j]), "bullet does not induce join")
    class_of = {S.elements[i]: names[cls_idx[i]] for i in range(n)}
    classes = {
        name: tuple(S.elements[i] for i in range(n) if cls_idx[i] == c)
        for c, name in enumerate(names)
    }
    return skew.GammaQuotient(alg, class_of, classes)


def old_from_skew(S):
    gq = old_gamma_classes(S)
    base = gq.algebra
    stalks = {c: gq.classes[c] for c in base.elements}
    P = bset.validate_presheaf(base, stalks, _old_restrictions(base, stalks, S.circ))
    return bset.validate_boolean_set(P)


def old_presheaf_struct_eq(P, Q):
    if set(P.elements) != set(Q.elements):
        return False
    bmap = {}
    for e in P.base.elements:
        stalk = P.stalks[e]
        if not stalk:
            return False
        targets = {Q.p(x) for x in stalk}
        if len(targets) != 1:
            return False
        bmap[e] = targets.pop()
    if len(set(bmap.values())) != len(Q.base.elements):
        return False
    for e in P.base.elements:
        for f in P.base.elements:
            if P.base.leq(e, f) != Q.base.leq(bmap[e], bmap[f]):
                return False
    for x in P.elements:
        for f in P.base.down_set(P.p(x)):
            if P.restrict(x, f) != Q.restrict(x, bmap[f]):
                return False
    return True


def old_bset_struct_eq(X, Y):
    if set(X.elements) != set(Y.elements) or X.zero != Y.zero:
        return False
    bmap = {}
    for e in X.base.elements:
        targets = {Y.p(x) for x in X.stalks[e]}
        if len(targets) != 1:
            return False
        bmap[e] = targets.pop()
    if len(set(bmap.values())) != len(Y.base.elements):
        return False
    for e in X.base.elements:
        for f in X.base.elements:
            if X.base.leq(e, f) != Y.base.leq(bmap[e], bmap[f]):
                return False
    for x in X.elements:
        for f in X.base.down_set(X.p(x)):
            if X.restrict(x, f) != Y.restrict(x, bmap[f]):
                return False
    return True


def old_is_proper_mapping(source, target, mapping):
    return all(
        any(target.leq(t, mapping[s]) for s in source.elements)
        for t in target.elements
    )


def old_order_covers(elements, leq):
    covers = []
    for x in elements:
        for y in elements:
            if x != y and leq(x, y) and not any(
                z != x and z != y and leq(x, z) and leq(z, y) for z in elements
            ):
                covers.append((x, y))
    return covers


# ---------------------------------------------------------------- helpers

def outcome(fn, *args):
    """("ok", value) or the error's (type, law, witness, detail) or args."""
    try:
        return "ok", fn(*args)
    except StructureError as e:
        return type(e).__name__, e.law, e.witness, e.detail
    except (AssertionError, ValueError) as e:
        return type(e).__name__, e.args


def presheaf_view(P):
    """Everything a presheaf exposes, with key orders."""
    return (
        type(P).__name__, P.base.elements, P.base.cover_pairs, P.base._up,
        list(P.stalks.items()), list(cover_maps(P).items()),
        [(x, list(P._rest[x].items())) for x in P.elements],
        getattr(P, "zero", None),
        join_table(P) if isinstance(P, bset.BooleanSet) else None,
        getattr(P.base, "bottom", None),
    )


def viewed(result):
    if result[0] != "ok":
        return result
    return "ok", presheaf_view(result[1])


def band_of_table(elements, rows):
    """A RightNormalBand over validated tables, or None when it fails."""
    try:
        return bset.validate_band(elements, rows)
    except StructureError:
        return None


def raw_skew(S):
    els = list(S.elements)
    return {
        "kind": "skew", "elements": els, "zero": S.zero,
        "circ": [[S.circ(x, y) for y in els] for x in els],
        "bullet": [[S.bullet(x, y) for y in els] for x in els],
    }


def unvalidated_skew(raw):
    """A SkewAlgebra over the raw tables, without any axiom check."""
    els, index = balg._index_elements(raw["elements"])
    circ = [[index[v] for v in row] for row in raw["circ"]]
    bullet = [[index[v] for v in row] for row in raw["bullet"]]
    return skew.SkewAlgebra(els, index, circ, bullet, index[raw["zero"]])


def showcase():
    return textio.build(textio.parse(SHOWCASE.read_text()))


def sources():
    """Boolean sets whose circ reducts are the bands, and whose skew
    algebras are the skew inputs."""
    return {
        "x3": make_x3_bset(),
        "prod": make_prod(),
        "222": bset.generate_boolean_set((2, 2, 2)),
        "1133": bset.generate_boolean_set((1, 1, 3, 3)),
        "const_b4": bset.constant_bset(make_b4()),
    }


def bands():
    built = showcase()
    out = {"Band3": built["Band3"]}
    x3s = built["X3s"]
    out["X3s"] = bset.validate_band(x3s.elements, raw_skew(x3s)["circ"])
    for tag in ("222", "1133", "const_b4"):
        out[tag] = bset.presheaf_to_band(sources()[tag])
    return out


def band_mutants(count, seed):
    """Seeded circ-table edits of the bands that still validate as bands."""
    rng = random.Random(seed)
    out = []
    for tag, band in bands().items():
        els = list(band.elements)
        rows = [[band.circ(x, y) for y in els] for x in els]
        raw = {"kind": "skew", "elements": els, "zero": els[0], "circ": rows, "bullet": rows}
        for _ in range(count):
            mutant = me.mutate_skew(raw, rng)
            if mutant["circ"] != rows:
                S = band_of_table(els, mutant["circ"])
                if S is not None:
                    out.append(S)
    return out


@functools.cache
def small_bands():
    """Every band on three elements that validates as right normal."""
    els = ["p", "q", "r"]
    out = []
    for flat in itertools.product(els, repeat=9):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        S = band_of_table(els, rows)
        if S is not None:
            out.append(S)
    return out


def all_bands():
    return list(bands().values()) + band_mutants(40, 5) + small_bands()


# ------------------------------------------------------------------ bands

def test_inputs_cover_both_answers():
    verdicts = [old_is_boolean_band(S) for S in all_bands()]
    assert True in verdicts and False in verdicts
    assert len(small_bands()) > 10


def test_band_quotient_matches_reference():
    for S in all_bands():
        assert viewed(outcome(bset.band_to_presheaf, S)) == \
            viewed(outcome(old_band_to_presheaf, S)), S.elements
        assert bset.is_boolean_band(S) == \
            (old_is_boolean_band(S) and one_element_least_class(S)), S.elements


def test_band_to_bset_matches_reference():
    boolean = [S for S in all_bands() if old_is_boolean_band(S)]
    assert len(boolean) >= 5
    for S in boolean:
        assert viewed(outcome(bset.band_to_bset, S)) == \
            viewed(outcome(old_band_bset, S)), S.elements


# ------------------------------------------------------------------- skew

def skew_inputs():
    out = [showcase()["X3s"]]
    out += [bset.to_skew(X) for X in sources().values()]
    return out


def skew_mutants(count, seed):
    """Seeded single-entry edits, wrapped without validation, so the
    quotient's own checks meet tables that break the axioms."""
    rng = random.Random(seed)
    out = []
    for S in skew_inputs():
        raw = raw_skew(S)
        for _ in range(count):
            out.append(me.mutate_skew(raw, rng))
    return out


def gamma_view(gq):
    return (gq.algebra.elements, gq.algebra._up, gq.algebra.bottom,
            list(gq.class_of.items()), list(gq.classes.items()))


@pytest.mark.parametrize("seed", [1, 2])
def test_gamma_and_from_skew_match_reference(seed):
    # from_skew returns what validate_skew kept and gamma_classes views it,
    # which on every accepted algebra equals the earlier builders' output
    raws = [raw_skew(S) for S in skew_inputs()] + skew_mutants(30, seed)
    accepted = 0
    for raw in raws:
        result = outcome(skew.validate_skew, raw["elements"], raw["circ"], raw["bullet"],
                         raw["zero"])
        if result[0] != "ok":
            continue
        S = result[1]
        accepted += 1
        assert gamma_view(skew.gamma_classes(S)) == gamma_view(old_gamma_classes(S))
        assert viewed(outcome(bset.from_skew, S)) == viewed(outcome(old_from_skew, S))
    assert len(skew_inputs()) <= accepted < len(raws)


# ------------------------------------------------------- struct equality

def test_struct_eq_matches_reference():
    presheaves = [make_x3_bset(), make_prod(), bset.constant_bset(make_b4())]
    for S in list(bands().values()) + small_bands():
        result = outcome(old_band_to_presheaf, S)
        if result[0] == "ok":
            presheaves.append(result[1])
    for P in presheaves:
        for Q in presheaves:
            assert bset.presheaf_struct_eq(P, Q) == old_presheaf_struct_eq(P, Q)
    sets = [X for X in presheaves if isinstance(X, bset.BooleanSet)]
    # to_skew keeps X, so the sets that validate_skew rebuilds from its tables
    rebuilt = [skew.validate_skew(r["elements"], r["circ"], r["bullet"], r["zero"])
               for r in map(raw_skew, map(bset.to_skew, sets))]
    sets += [bset.from_skew(S) for S in rebuilt]
    assert all(Y is not X for X, Y in zip(sets, sets[len(rebuilt):]))
    sets += [old_band_bset(S) for S in bands().values()]
    assert len(sets) > 10
    hits = 0
    for X in sets:
        for Y in sets:
            hits += old_bset_struct_eq(X, Y)
            assert bset.bset_struct_eq(X, Y) == old_bset_struct_eq(X, Y)
    assert hits > len(sets)


# ------------------------------------------------------------- properness

def test_is_proper_hom_matches_is_proper_mapping():
    algebras = [make_b2(), make_b4(), make_b8()]
    seen = set()
    for A in algebras:
        for B in algebras:
            for _, phibar in bset._enumerate_bahoms(A, B):
                want = old_is_proper_mapping(A, B, phibar)
                seen.add(want)
                assert balg.is_proper_hom(balg.BAHom(A, B, phibar)) == want
    assert seen == {True, False}


def test_proper_morphism_enumeration_matches_reference():
    sets = [make_x3_bset(), bset.constant_bset(make_b2()), make_prod()]
    for X in sets:
        for Y in sets:
            every = list(bset.enumerate_bset_morphisms(X, Y))
            want = [m.mapping for m in every
                    if old_is_proper_mapping(X.base, Y.base, m.base_hom.mapping)]
            got = [m.mapping for m in bset.enumerate_bset_morphisms(X, Y, proper_only=True)]
            assert got == want


def test_not_proper_witness_matches_the_image_search():
    # dual_of_bset_morphism names the first target base element not below
    # h(top); the reference searches every image element for each
    sets = [make_x3_bset(), bset.constant_bset(make_b2()), make_prod()]
    refused = 0
    for X in sets:
        for Y in sets:
            for m in bset.enumerate_bset_morphisms(X, Y):
                if balg.is_proper_hom(m.base_hom):
                    continue
                with pytest.raises(NotProper) as e:
                    duality.dual_of_bset_morphism(m)
                assert e.value.witness == (morphism_reference.not_proper_witness(m),)
                refused += 1
    assert refused > 10


# -------------------------------------------------------------- dot covers

def test_order_covers_match_reference():
    for X in list(sources().values()):
        assert dot._presheaf_covers(X, X.index) == old_order_covers(X.elements, X.leq_elem)
    for S in skew_inputs() + list(bands().values()) + small_bands():
        assert dot._presheaf_covers(bset.band_to_presheaf(S), S.index) == \
            old_order_covers(S.elements, S.leq)
