"""A Boolean set's skew rows (``bset._skew_rows``, read off its packed atom
coordinates by ``bset._coded_rows``) against the comprehensions they
replaced, kept in ``correspondence_reference``: the stalk rows read from
the base's meet and relative-complement tables and the • rows from the
mixed-radix atom codes.  Compared on Boolean sets of 1, 2, 27 and 256
elements and on the wide 128-element one (seven 1-element atom stalks), in
element order and, with both sides carried over by the same permutation,
in a shuffled order, where the skew certificate must also accept them.
"""

import random

import pytest

from skewstone import balg, bset

import correspondence_reference as ref


def reference_rows(X, order, index):
    """(∘ rows, • rows) over the ids ``order`` by the reference kernels."""
    codes = ref.atom_codes(X)
    rows = ref.stalk_rows(X, order, index)
    circ = [rows[X.stalk_of[x]][0] for x in order]
    return circ, list(ref.bullet_rows(X, codes, order, index, rows))


@pytest.mark.parametrize("sizes", [(), (1,), (2, 2, 2), (3, 3, 3, 3), (1,) * 7], ids=str)
def test_row_kernels_match_the_comprehensions(sizes):
    if sizes:
        X = bset.generate_boolean_set(sizes, seed=3)
    else:  # the one-element set over the one-element algebra
        X = bset.constant_bset(balg.validate_balg(["0"], [], "0"))
    n = len(X.elements)
    assert n in (1, 2, 27, 256, 128)
    circ, bullet = bset._skew_rows(X)
    assert (circ, bullet) == reference_rows(X, X.elements, X.index)
    shuffled = list(X.elements)
    random.Random(n).shuffle(shuffled)
    index = {x: i for i, x in enumerate(shuffled)}
    pos = [X.index[x] for x in shuffled]
    moved = [[index[X.elements[circ[i][j]]] for j in pos] for i in pos]
    moved_bullet = [[index[X.elements[bullet[i][j]]] for j in pos] for i in pos]
    assert (moved, moved_bullet) == reference_rows(X, shuffled, index)
    cls_idx, reps, _ = bset._row_classes(shuffled, moved)
    coords, circ_ok = bset._skew_certificate(moved, moved_bullet, index[X.zero], cls_idx, reps)
    assert coords is not None and circ_ok
