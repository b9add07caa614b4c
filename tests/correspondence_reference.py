"""The skew ↔ Boolean-set reconstruction as it was while its R-class helpers
lived in ``skew``: ``_reconstruct`` with its eager gamma quotient
(``_quotient``), the band quotient of a band object (``_band_quotient``)
and the helpers they shared (``_row_classes``, ``_class_table``,
``_order_pairs``, and the class-count guard over the class table), with its
own copies of the Boolean-set kernels it rebuilt the tables with: the
mixed-radix atom codes (``atom_codes``), the stalk rows read from the base's
meets and relative complements, found by a bound search over its order
rows (``stalk_rows``), and the • rows from the codes (``bullet_rows``).
The Boolean set it accepts is validated by ``bset.validate_boolean_set``,
so its atom coordinates are the ones the presheaf route computes.  Kept as
the differential reference of ``tests/test_correspondence.py``.

``presheaf_build`` is the build step of ``bset._reconstruct`` as it was
before restrictions were read off the certified ∘ rows: the class order
validated as a Boolean algebra, the class presheaf through the cover walk
of ``bset.validate_presheaf`` (``bset._class_presheaf``), and the certified
codes permuted to the presheaf's element order.  It is the differential
reference of ``tests/test_certified_build.py``.

``old_product_sections`` is ``bset._product_sections`` as it was before
products were built from their atom coordinates, the differential reference
of ``tests/test_product_build.py``.
"""

from itertools import product
from math import prod
from operator import eq

from skewstone import balg, bset, skew
from skewstone.errors import StructureError


def row_classes(elements, table):
    class_of_row, class_of_id, cls_idx, reps = {}, {}, [], []
    for i, row in enumerate(table):
        c = class_of_id.get(id(row))
        if c is None:
            c = class_of_id[id(row)] = class_of_row.setdefault(tuple(row), len(reps))
            if c == len(reps):
                reps.append(i)
        cls_idx.append(c)
    return cls_idx, reps, [f"[{elements[r]}]" for r in reps]


def atom_codes(P):
    """The atom codes of a presheaf over a Boolean algebra, in element
    order, or None: one mixed-radix digit per atom a, of radix |X(a)| + 1,
    0 if a is not below p(x), else 1 + the position of x|a in X(a).  Each
    X(c) must have the product of the sizes of the atom stalks below c as
    its size, and the codes must be distinct: a permutation of range(n)."""
    B = P.base
    weights, w = [], 1
    for a in B.atoms:
        weights.append((a, w))
        w *= len(P.stalks[a]) + 1
    digit = {x: k + 1 for a in B.atoms for k, x in enumerate(P.stalks[a])}
    codes = []
    for c in B.elements:
        below = [(a, w) for a, w in weights if B.leq(a, c)]
        if len(P.stalks[c]) != prod(len(P.stalks[a]) for a, _ in below):
            return None
        codes += (sum(w * digit[P._rest[x][a]] for a, w in below) for x in P.stalks[c])
    return codes if len(set(codes)) == len(codes) else None


def greatest(mask, down):
    """The element of ``mask`` whose down row holds all of ``mask``."""
    return next(i for i in range(len(down)) if mask >> i & 1 and mask & ~down[i] == 0)


def base_tables(B):
    """The meet table of the base B and its relative complements
    comp_in[f, m] for m <= f: the greatest element below f whose meet with
    m is the bottom, found over B's down rows."""
    down, n = B._down, len(B.elements)
    bottom = 1 << B.index[B.bottom]
    meet = [[greatest(down[c] & down[f], down) for f in range(n)] for c in range(n)]
    comp_in = {}
    for f in range(n):
        below = [x for x in range(n) if down[f] >> x & 1]
        for m in below:
            comp_in[f, m] = greatest(
                sum(1 << x for x in below if down[x] & down[m] == bottom), down)
    return meet, comp_in


def stalk_rows(P, order, index):
    """Per base element c, the rows y|(c ∧ p(y)) and y|(p(y) \\ c) over the
    ids ``order``, as positions in ``index``."""
    B = P.base
    (meet, comp_in), bi = base_tables(B), B.index
    rests = []
    for y in order:
        r = [0] * len(B.elements)
        for f, x in P._rest[y].items():
            r[bi[f]] = index[x]
        rests.append(r)
    pys = [bi[P.stalk_of[y]] for y in order]
    rows = {}
    for c, mc in zip(B.elements, meet):
        minus = [comp_in[f, m] for f, m in enumerate(mc)]
        rows[c] = ([r[mc[f]] for r, f in zip(rests, pys)],
                   [r[minus[f]] for r, f in zip(rests, pys)])
    return rows


def bullet_rows(P, codes, order, index, rows):
    """The • row of each x in ``order`` from the atom codes and the stalk
    rows: x•y = x ∨ (y\\x), and code(x•y) = code(x) + code(y\\x)."""
    n = len(order)
    code, elem_of = [0] * n, [0] * n
    for x, cx in zip(P.elements, codes):
        code[index[x]] = cx
        elem_of[cx] = index[x]
    minus = {c: [code[k] for k in m] for c, (_, m) in rows.items()}
    for x in order:
        cx = code[index[x]]
        yield [elem_of[cx + d] for d in minus[P.stalk_of[x]]]


def class_table(table, cls_idx, reps):
    return [[cls_idx[table[a][b]] for b in reps] for a in reps]


def order_pairs(qmeet, names):
    return [
        (names[c], names[d]) for c, row in enumerate(qmeet) for d, m in enumerate(row) if m == c
    ]


def quotient(alg, elements, cls_idx, names):
    class_of = {x: names[c] for x, c in zip(elements, cls_idx)}
    classes = {
        name: tuple(x for x, d in zip(elements, cls_idx) if d == c)
        for c, name in enumerate(names)
    }
    return skew.GammaQuotient(alg, class_of, classes)


def reconstruct(elements, index, circ, bullet, z):
    """(X, gamma quotient, True), or (None, None, whether ∘ was rebuilt
    exactly)."""
    cls_idx, reps, names = row_classes(elements, circ)
    k = len(reps)
    qmeet = class_table(circ, cls_idx, reps)
    atoms = sum(sum(row[c] == d for d, row in enumerate(qmeet)) == 2 for c in range(k))
    if k != 1 << atoms:
        return None, None, False
    try:
        base = balg.validate_balg(names, order_pairs(qmeet, names), names[cls_idx[z]])
        P = bset._class_presheaf(base, elements, circ, cls_idx)
    except StructureError:
        return None, None, False
    codes = atom_codes(P)
    if codes is None:
        return None, None, False
    rows = stalk_rows(P, elements, index)
    if any(row != rows[names[c]][0] for row, c in zip(circ, cls_idx)):
        return None, None, False
    if not all(map(eq, bullet, bullet_rows(P, codes, elements, index, rows))):
        return None, None, True
    return bset.validate_boolean_set(P), quotient(base, elements, cls_idx, names), True


def band_quotient(S):
    """(cls_idx, names, order pairs, the classes below every class) of the
    band S."""
    cls_idx, reps, names = row_classes(S.elements, S.table)
    qmeet = class_table(S.table, cls_idx, reps)
    bottoms = [c for c, row in enumerate(qmeet) if all(m == c for m in row)]
    return cls_idx, names, order_pairs(qmeet, names), bottoms


def validate_index(elements, index, circ, bullet, z):
    """The earlier skew._validate_index: the reconstruction, and on a
    refusal the axiom scan that names the failure."""
    S = skew.SkewAlgebra(elements, index, circ, bullet, z)
    X, gq, circ_ok = reconstruct(elements, index, circ, bullet, z)
    if X is None:
        skew._axiom_scan(S, circ_ok)
        raise AssertionError("reconstruction failed, yet every axiom holds")
    S._bset = S._presheaf = X
    S._gamma = gq
    return S


def presheaf_build(elements, circ, z, coords):
    """The Boolean set of skew index tables whose certified atom
    coordinates (codes in element order, supports per class, fields) are
    ``coords``, built as the class presheaf."""
    cls_idx, _, names = row_classes(elements, circ)
    code, sup, fields = coords
    class_of = {m: c for c, m in enumerate(sup)}
    pairs = [(names[c], names[class_of[m | f]]) for c, m in enumerate(sup)
             for f in fields if not m & f]
    base = balg.validate_balg(names, pairs, names[cls_idx[z]])
    P = bset._class_presheaf(base, elements, circ, cls_idx)
    index = {x: i for i, x in enumerate(elements)}
    return bset._coded_boolean_set(
        P.base, P.stalks, P._rest, ([code[index[x]] for x in P.elements], sup, fields))


def old_product_sections(points, fibers, subset_id, elem_id):
    """``bset._product_sections`` as it was before the set was built from
    its atom coordinates: an id rendered for every (element, cover) pair,
    those cover maps through the walk of ``bset.validate_presheaf``, then
    ``bset.validate_boolean_set``."""
    base, _, set_of = balg.powerset_balg(points, subset_id)
    stalks, parts = {}, {}
    for eid, A in set_of.items():
        present = [x for x in points if x in A]
        ids = []
        for choice in product(*(fibers[x] for x in present)):
            xid = elem_id(choice)
            parts[xid] = dict(zip(present, choice))
            ids.append(xid)
        stalks[eid] = tuple(ids)
    restrictions = {}
    for upper, lower in base.cover_pairs:
        B = set_of[lower]
        restrictions[(upper, lower)] = {
            x: elem_id(tuple(c for pt, c in parts[x].items() if pt in B))
            for x in stalks[upper]
        }
    X = bset.validate_boolean_set(bset.validate_presheaf(base, stalks, restrictions))
    return X, set_of, parts
