"""The Boolean set of certified skew tables is built from the certificate.

``bset._reconstruct`` takes each class's members as its stalk and reads
every restriction x|f off a certified ∘ row, r∘x for r the first member of
class f, which the certificate has just shown to be the element coded
code(x) & sup(f).  The reference (``correspondence_reference.presheaf_build``)
is the earlier build: the class presheaf through the cover walk of
``validate_presheaf``.  Both must give the same Boolean set field by field
(``test_correspondence.bset_view``: element order, the base's elements,
order rows, Stone code and bottom, stalks, ``stalk_of``, cover maps,
restrictions with their key orders, zero and atom coordinates) on every
atom-stalk shape up to 81 elements, on seeded label shuffles, on skew
documents whose ``elements:`` line is shuffled (the class order then is
not the table order, so the certified codes are permuted), on the docs and
40 etale duals, and once each on ``(1,)*8`` and ``(1,)*9``.
"""

import random
from pathlib import Path

import pytest

from skewstone import bset, etale, skew, textio

import correspondence_reference as ref
from test_correspondence import bset_view
from test_duality_layer import seeded_space
from test_skew_certificate import shapes

DOCS = Path(__file__).resolve().parent.parent / "docs"


def tables(S):
    """S's index tables as _reconstruct takes them."""
    return S.elements, S.circ_t, S.bullet_t, S._zero_i


def assert_same_build(S):
    """The set _reconstruct builds from S's tables, which equals the
    reference build field by field, and the reference's view.  The
    reference keeps the coordinates its own presheaf gives."""
    elements, circ, bullet, z = tables(S)
    X, circ_ok = bset._reconstruct(elements, circ, bullet, z, bset._row_classes(elements, circ))
    assert circ_ok and X is not None
    cls_idx, reps, _ = bset._row_classes(elements, circ)
    Y = ref.presheaf_build(elements, circ, z,
                           bset._skew_certificate(circ, bullet, z, cls_idx, reps)[0])
    assert Y._coords == bset._presheaf_coordinates(Y)
    expected = bset_view(Y)
    assert bset_view(X) == expected
    return X, expected


def assert_same_build_of(X):
    """The same for the tables of a Boolean set X; to_skew keeps X, so the
    set is built from its tables afresh, over the class names."""
    assert assert_same_build(bset.to_skew(X))[0] is not X


def shuffled_document(S, rng):
    """S's skew stanza with its ``elements:`` line shuffled; the tables and
    their headers are as printed."""
    lines = textio.print_stanza(textio.skew_stanza(S, "S")).splitlines()
    k = next(k for k, line in enumerate(lines) if line.lstrip().startswith("elements:"))
    els = list(S.elements)
    rng.shuffle(els)
    lines[k] = "  elements: " + ", ".join(els)
    return "\n".join(lines) + "\n"


def test_every_shape_up_to_81():
    every = shapes(81)
    assert len(every) == 269
    for k, sizes in enumerate(every):
        assert_same_build_of(bset.generate_boolean_set(sizes, seed=k))


@pytest.mark.parametrize("sizes", [(2, 1), (3, 2), (2, 2, 2), (1, 3, 1), (3, 3, 3)], ids=str)
def test_seeded_label_shuffles(sizes):
    for seed in range(6):
        assert_same_build_of(bset.generate_boolean_set(sizes, seed=seed))


@pytest.mark.parametrize("sizes", [(2, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2), (1, 1, 1, 2)], ids=str)
def test_documents_with_a_shuffled_elements_line(sizes):
    rng = random.Random(sum(sizes))
    permuted = 0
    for seed in range(4):
        S = bset.to_skew(bset.generate_boolean_set(sizes, seed=seed))
        T = textio.build(textio.parse(shuffled_document(S, rng)))["S"]
        assert set(T.elements) == set(S.elements)
        X, expected = assert_same_build(T)
        assert bset_view(T._bset) == expected
        # the set's element order is its classes' order, not the tables'
        permuted += X.elements != T.elements
    assert permuted >= 3


def test_docs_and_etale_duals():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        for obj in textio.build(textio.parse(path.read_text())).values():
            if isinstance(obj, bset.BooleanSet):
                assert_same_build_of(obj)
                seen += 1
            elif isinstance(obj, skew.SkewAlgebra) and obj.bullet_t is not None:
                assert bset_view(obj._bset) == assert_same_build(obj)[1]
                seen += 1
    assert seen >= 4
    rng = random.Random(35)
    for _ in range(40):
        assert_same_build_of(etale.dual_bset(seeded_space(rng)))


@pytest.mark.parametrize("k", [8, 9])
def test_wide_shapes(k):
    assert_same_build_of(bset.generate_boolean_set((1,) * k))
