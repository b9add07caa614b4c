"""The morphism layer as it was before homomorphisms and Boolean-set
morphisms were built from atom data: the id-level validators, each with its
own total-map check and preservation loop, the enumeration of base
homomorphisms over every image of the atoms, the enumeration of Boolean-set
morphisms by top-stalk propagation, the backtracking enumeration of skew
morphisms, properness by a search over the image, the base isomorphism
search over atom permutations and the Boolean-set isomorphism that decoded
mixed-radix atom codes inline, computed here from the restrictions.  Kept
as the differential reference of ``tests/test_morphism_atoms.py`` and of
acceptance criterion 2.
"""

from itertools import permutations, product

from skewstone import balg, bset, skew
from skewstone.errors import (
    BM1Violation,
    BM2Violation,
    NotAHomomorphism,
    NotAMorphism,
    StructureError,
)


def refuse_stray_keys(mapping, domain, entry, what):
    stray = next((x for x in mapping if x not in domain), None)
    if stray is not None:
        raise ValueError(f"{entry} entry {stray!r} is not {what}")


def validate_bahom(mapping, source, target):
    refuse_stray_keys(mapping, source.index, "map", "a source element")
    for x in source.elements:
        if x not in mapping:
            raise ValueError(f"map not total: missing {x!r}")
        if mapping[x] not in target.index:
            raise ValueError(f"image {mapping[x]!r} not in target")
    if mapping[source.bottom] != target.bottom:
        raise NotAHomomorphism((source.bottom,), "bottom")
    for x in source.elements:
        for y in source.elements:
            if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                raise NotAHomomorphism((x, y), "meet")
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise NotAHomomorphism((x, y), "join")
    return balg.BAHom(source, target, dict(mapping))


def is_proper_hom(h):
    image = set(h.mapping.values())
    return all(
        any(h.target.leq(t, v) for v in image) for t in h.target.elements
    )


def not_proper_witness(m):
    """The NotProper witness of duality.dual_of_bset_morphism: the first
    target base element below no image element."""
    return next(
        t for t in m.target.base.elements
        if not any(m.target.base.leq(t, v) for v in m.base_hom.mapping.values())
    )


def assert_morphism_consequences(m):
    X, Y = m.source, m.target
    f = [Y.index[m.mapping[x]] for x in X.elements]
    SX, SY = bset.to_skew(X), bset.to_skew(Y)
    (cx, bx), (cy, by) = (SX.circ_t, SX.bullet_t), (SY.circ_t, SY.bullet_t)
    for i, fi in enumerate(f):
        cxi, bxi, cyi, byi = cx[i], bx[i], cy[fi], by[fi]
        for j, fj in enumerate(f):
            if f[cxi[j]] != cyi[fj] or f[bxi[j]] != byi[fj]:
                raise AssertionError((X.elements[i], X.elements[j]))


def validate_bset_morphism(phi, phibar, X, Y):
    refuse_stray_keys(phi, X.index, "map", "a source element")
    if phibar is not None:
        refuse_stray_keys(phibar, X.base.index, "basemap", "a source base element")
    for x in X.elements:
        if x not in phi:
            raise ValueError(f"map not total: missing {x!r}")
        if phi[x] not in Y.index:
            raise ValueError(f"image {phi[x]!r} not in target")
    if phibar is None:
        phibar = bset.derive_base_map(X, Y, phi)
    base_hom = validate_bahom(phibar, X.base, Y.base)
    for x in X.elements:
        if phibar[X.p(x)] != Y.p(phi[x]):
            raise BM1Violation((x,))
    for x in X.elements:
        a = X.p(x)
        for b in X.base.down_set(a):
            if phi[X.restrict(x, b)] != Y.restrict(phi[x], phibar[b]):
                raise BM2Violation((x, a, b))
    m = bset.BSetMorphism(X, Y, dict(phi), base_hom)
    assert_morphism_consequences(m)
    return m


def validate_skew_morphism(mapping, S, T):
    refuse_stray_keys(mapping, S.index, "map", "a source element")
    for x in S.elements:
        if x not in mapping:
            raise ValueError(f"map not total: missing {x!r}")
        if mapping[x] not in T.index:
            raise ValueError(f"image {mapping[x]!r} not in target")
    if mapping[S.zero] != T.zero:
        raise NotAMorphism((S.zero,), "zero")
    for x in S.elements:
        for y in S.elements:
            if mapping[S.circ(x, y)] != T.circ(mapping[x], mapping[y]):
                raise NotAMorphism((x, y), "circ")
            if mapping[S.bullet(x, y)] != T.bullet(mapping[x], mapping[y]):
                raise NotAMorphism((x, y), "bullet")
    gs, gt = skew.gamma_classes(S), skew.gamma_classes(T)
    qmap = {}
    for x in S.elements:
        c = gs.class_of[x]
        img = gt.class_of[mapping[x]]
        if qmap.setdefault(c, img) != img:
            raise AssertionError(("induced map not well-defined", x))
    induced = validate_bahom(qmap, gs.algebra, gt.algebra)
    return skew.SkewMorphism(S, T, dict(mapping), induced)


def enumerate_bahoms(A, B):
    for choice in product(B.elements, repeat=len(A.atoms)):
        mapping = balg._atom_join_map(A, B, dict(zip(A.atoms, choice)))
        try:
            validate_bahom(mapping, A, B)
        except NotAHomomorphism:
            continue
        yield mapping


def enumerate_bset_morphisms(X, Y, proper_only=False):
    top = X.base.top
    for phibar in enumerate_bahoms(X.base, Y.base):
        if proper_only and not is_proper_hom(balg.BAHom(X.base, Y.base, phibar)):
            continue
        target_stalk = Y.stalks[phibar[top]]
        for choice in product(target_stalk, repeat=len(X.stalks[top])):
            phi = {}
            ok = True
            for t, img in zip(X.stalks[top], choice):
                for f in X.base.down_set(top):
                    x = X.restrict(t, f)
                    y = Y.restrict(img, phibar[f])
                    if phi.setdefault(x, y) != y:
                        ok = False
                        break
                if not ok:
                    break
            if not ok or len(phi) != len(X.elements):
                continue
            try:
                yield validate_bset_morphism(phi, dict(phibar), X, Y)
            except StructureError:
                continue


def enumerate_skew_morphisms(S, T):
    els = S.elements
    n = len(els)
    assign = {}

    def consistent(k):
        xk = els[k]
        for i in range(k + 1):
            xi = els[i]
            for a, b in ((xi, xk), (xk, xi)):
                c = S.circ(a, b)
                if c in assign and assign[c] != T.circ(assign[a], assign[b]):
                    return False
                d = S.bullet(a, b)
                if d in assign and assign[d] != T.bullet(assign[a], assign[b]):
                    return False
        return True

    def rec(k):
        if k == n:
            try:
                yield validate_skew_morphism(dict(assign), S, T)
            except (NotAMorphism, AssertionError):
                pass
            return
        x = els[k]
        choices = (T.zero,) if x == S.zero else T.elements
        for img in choices:
            assign[x] = img
            if consistent(k):
                yield from rec(k + 1)
            del assign[x]

    yield from rec(0)


def find_balg_isomorphism(A, B):
    if len(A.elements) != len(B.elements) or len(A.atoms) != len(B.atoms):
        return None
    for perm in permutations(B.atoms):
        mapping = balg._atom_join_map(A, B, dict(zip(A.atoms, perm)))
        if len(set(mapping.values())) != len(A.elements):
            continue
        ok = all(
            A.leq(x, y) == B.leq(mapping[x], mapping[y])
            for x in A.elements for y in A.elements
        )
        if ok:
            return mapping
    return None


def mixed_radix_codes(X):
    """The atom code of each element of X, in element order: one digit per
    atom a, of radix |X(a)| + 1, 0 if a is not below p(x), else 1 + the
    position of x|a in X(a), read off the restrictions."""
    digits, w = [], 1
    for a in X.base.atoms:
        digits.append((a, w, {y: k + 1 for k, y in enumerate(X.stalks[a])}))
        w *= len(X.stalks[a]) + 1
    return [sum(w * digit.get(X._rest[x].get(a), 0) for a, w, digit in digits)
            for x in X.elements]


def bset_isomorphic(X, Y):
    xs = sorted(X.base.atoms, key=lambda a: len(X.stalks[a]))
    ys = sorted(Y.base.atoms, key=lambda b: len(Y.stalks[b]))
    if [len(X.stalks[a]) for a in xs] != [len(Y.stalks[b]) for b in ys]:
        return None
    atom_map = dict(zip(xs, ys))
    weight, w = {}, 1
    for b in Y.base.atoms:
        weight[b] = w
        w *= len(Y.stalks[b]) + 1
    digits = [(len(X.stalks[a]) + 1, weight[atom_map[a]]) for a in X.base.atoms]
    y_of = dict(zip(mixed_radix_codes(Y), Y.elements))

    def image(code):
        out = 0
        for radix, w in digits:
            code, d = divmod(code, radix)
            out += w * d
        return y_of[out]

    phi = {x: image(c) for x, c in zip(X.elements, mixed_radix_codes(X))}
    phibar = balg._atom_join_map(X.base, Y.base, atom_map)
    validate_bset_morphism(phi, phibar, X, Y)
    validate_bset_morphism({y: x for x, y in phi.items()},
                           {f: e for e, f in phibar.items()}, Y, X)
    return phibar, phi
