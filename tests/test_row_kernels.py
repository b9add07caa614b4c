"""The row kernels that build a Boolean set's skew tables against copies of
the comprehensions they replaced: ``bset._stalk_rows`` (its complement rows
by ``map`` over the relative-complement table) and ``bset._bullet_rows``
(one ``itemgetter`` per stalk over the elements by code from code(x) on,
as in the skew certificate).  Compared on Boolean sets of 1, 2, 27 and 256
elements and on the wide 128-element one (seven 1-element atom stalks), in
element order and in a shuffled order.
"""

import random

import pytest

from skewstone import balg, bset


def old_stalk_rows(P, order, index):
    B = P.base
    meet, comp_in, bi = B._meet, B._comp_in, B.index
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


def old_bullet_rows(P, codes, order, index, rows):
    n = len(order)
    code, elem_of = [0] * n, [0] * n
    for x, cx in zip(P.elements, codes):
        code[index[x]] = cx
        elem_of[cx] = index[x]
    minus = {c: [code[k] for k in m] for c, (_, m) in rows.items()}
    for x in order:
        cx = code[index[x]]
        yield [elem_of[cx + d] for d in minus[P.stalk_of[x]]]


@pytest.mark.parametrize("sizes", [(), (1,), (2, 2, 2), (3, 3, 3, 3), (1,) * 7], ids=str)
def test_row_kernels_match_the_comprehensions(sizes):
    if sizes:
        X = bset.generate_boolean_set(sizes, seed=3)
    else:  # the one-element set over the one-element algebra
        X = bset.constant_bset(balg.validate_balg(["0"], [], "0"))
    assert len(X.elements) in (1, 2, 27, 256, 128)
    shuffled = list(X.elements)
    random.Random(len(shuffled)).shuffle(shuffled)
    for order in (X.elements, tuple(shuffled)):
        index = {x: i for i, x in enumerate(order)}
        rows = bset._stalk_rows(X, order, index)
        assert rows == old_stalk_rows(X, order, index)
        assert list(bset._bullet_rows(X, X._codes, order, index, rows)) == \
            list(old_bullet_rows(X, X._codes, order, index, rows))
