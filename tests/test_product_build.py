"""Product Boolean sets are built from their atom coordinates.

``bset._product_sections``, behind ``generate_boolean_set`` and
``etale.dual_bset``, codes each element straight from its fiber choices and
reads every restriction x|f off those codes, the element coded
code(x) & sup(f); the atom-coordinate certificate of
``validate_boolean_set`` accepts the result, and no cover walk runs.  The
reference (``correspondence_reference.old_product_sections``) is the
earlier builder: an id rendered per (element, cover) pair, the cover walk of
``validate_presheaf``, then ``validate_boolean_set``.  Both must give the
same Boolean set field by field (``test_correspondence.bset_view``), the
same ``set_of`` and the same parts, on every shape in {1,2,3}^k for k <= 5
with seeded labels, on three wider shapes, and on the duals of 40 seeded
etale spaces over 1-5 base points and of the empty space, whose section
ids the reference renders by a scan of the total space.  Refusals raise
the reference's error and witness.
"""

import contextlib
import io
import itertools
import random

import pytest

from skewstone import balg, bset, cli, etale

import correspondence_reference as ref
from test_correspondence import bset_view
from test_duality_layer import outcome, seeded_space
from test_reconstruct import Spy


def product_view(built):
    """The Boolean set's fields (bset_view), ``set_of`` and parts, with key
    orders."""
    X, set_of, parts = built
    return (bset_view(X), list(set_of.items()),
            [(x, list(p.items())) for x, p in parts.items()])


def builder_args(sizes, seed):
    """The arguments generate_boolean_set passes to _product_sections, and
    the set it returns."""
    calls = []
    real = bset._product_sections

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bset, "_product_sections", spy)
        X = bset.generate_boolean_set(sizes, seed=seed)
    return calls[0], X


def assert_same_product(sizes, seed=None):
    args, X = builder_args(sizes, seed)
    new = bset._product_sections(*args)
    assert product_view(new) == product_view(ref.old_product_sections(*args)), sizes
    assert bset_view(X) == bset_view(new[0])


def test_every_shape_up_to_five_atoms():
    every = [s for k in range(1, 6) for s in itertools.product((1, 2, 3), repeat=k)]
    assert len(every) == 363
    for seed, sizes in enumerate(every):
        assert_same_product(sizes, seed)


@pytest.mark.parametrize("sizes", [(1,) * 7, (3, 3, 3, 3), (2, 2, 2, 5)], ids=str)
def test_wider_shapes(sizes):
    assert_same_product(sizes)


def test_etale_duals():
    rng = random.Random(36)
    spaces = [seeded_space(rng, points=5) for _ in range(40)]
    for sp in spaces + [etale.validate_etale((), (), {})]:  # and the empty space
        render = balg.render_braces(sp.total)
        Y, set_of, parts = ref.old_product_sections(
            sp.base, sp.fibers, balg.render_braces(sp.base),
            lambda choice: render(frozenset(choice)))
        X = etale.dual_bset(sp)
        assert bset_view(X) == bset_view(Y)
        assert list(X.base_sets.items()) == list(set_of.items())
        assert list(X.sections.items()) == [(x, frozenset(p.values())) for x, p in parts.items()]


def test_no_cover_walk_and_no_presheaf_coordinates(monkeypatch):
    walks = Spy(monkeypatch, bset, "validate_presheaf")
    coords = Spy(monkeypatch, bset, "_presheaf_coordinates")
    certificate = Spy(monkeypatch, bset, "_coordinates")
    assert len(bset.generate_boolean_set((3, 3, 3, 3)).elements) == 256
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--atoms", "7", "--stalks", "1,1,1,1,1,1,1"]) == 0
    rng = random.Random(5)
    for _ in range(3):
        etale.dual_bset(seeded_space(rng, points=5))
    assert walks.calls == coords.calls == []
    # each build runs the certificate once, on its atom rows
    assert len(certificate.calls) == 5
    assert all(r is not None for r in certificate.results)


def test_a_repeated_id_names_the_reference_witness():
    points, fibers = ("a", "b", "c"), {"a": ("a1", "a2"), "b": ("b1",), "c": ("c1", "c2")}
    subset_id = balg.render_braces(points)
    for elem_id in [
        lambda choice: choice[-1] if choice else "0",  # (a1,b1) repeats b1
        lambda choice: choice[0] if choice else "0",
        lambda choice: ",".join(sorted(choice)[:2]),
    ]:
        new = outcome(bset._product_sections, points, fibers, subset_id, elem_id)
        assert new[0] == "StalkCollision"
        assert new == outcome(ref.old_product_sections, points, fibers, subset_id, elem_id)


def test_an_empty_fiber_names_the_reference_witness():
    points, fibers = ("a", "b", "c"), {"a": ("a1",), "b": (), "c": ("c1", "c2")}
    args = (points, fibers, balg.render_braces(points), balg.render_braces(("a1", "c1", "c2")))
    new = outcome(bset._product_sections, *args)
    assert new[:3] == ("NoGlobalSupport", "bset.global_support", ("{b}",))
    assert new == outcome(ref.old_product_sections, *args)
