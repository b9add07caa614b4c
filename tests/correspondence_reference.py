"""The skew ↔ Boolean-set reconstruction as it was while its R-class helpers
lived in ``skew``: ``_reconstruct`` with its eager gamma quotient
(``_quotient``), the band quotient of a band object (``_band_quotient``)
and the helpers they shared (``_row_classes``, ``_class_table``,
``_order_pairs``, and the class-count guard over the class table).  Kept as
the differential reference of ``tests/test_correspondence.py``.
"""

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
    codes = bset._atom_codes(P)
    if codes is None:
        return None, None, False
    rows = bset._stalk_rows(P, elements, index)
    if any(row != rows[names[c]][0] for row, c in zip(circ, cls_idx)):
        return None, None, False
    if not all(map(eq, bullet, bset._bullet_rows(P, codes, elements, index, rows))):
        return None, None, True
    return bset._coded_boolean_set(P, codes), quotient(base, elements, cls_idx, names), True


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
