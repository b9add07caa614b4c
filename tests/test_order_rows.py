"""The readers of ``balg``'s up/down rows walk set bits (``balg._bits``);
they give what the index-by-index scans and hand-written lowest-bit loops
in ``order_reference`` gave: on every powerset up to 8 atoms (built from
its cover pairs, as from all its pairs of subsets before), on the meet
semilattices that ``band_to_presheaf`` builds for the tests' bands, and, for
the antisymmetry witness, on seeded random relations with cycles.
Ultrafilters and Stone masks exist only for Boolean algebras: on the bands
they are compared on the bases of the Boolean ones.
"""

import random

import pytest

from skewstone import balg, bset
from skewstone.errors import NotAPoset

import order_reference as ref
from test_duality_layer import right_normal_bands
from test_quotients import all_bands


def tables(stone):
    """ref.stone_tables' result, its relative complements in insertion order."""
    return stone and (stone[0], stone[1], list(stone[2].items()))


def code_tables(stone, down):
    """The tables that the Stone code (code, pos) gives, as ref.stone_tables
    lays them out: the meet and join rows, and per b and each a <= b the
    relative complement b minus a."""
    if stone is None:
        return None
    code, pos = stone
    return ([[pos[c & d] for d in code] for c in code], [[pos[c | d] for d in code] for c in code],
            [((b, a), pos[cb & ~code[a]])
             for b, cb in enumerate(code) for a in balg._bits(down[b])])


def assert_rows_match(L):
    assert L.cover_pairs == ref.cover_pairs(L)
    for x in L.elements:
        assert L.down_set(x) == ref.down_set(L, x)
        assert L.up_set(x) == ref.up_set(L, x)
    n = len(L.elements)
    for bot in range(n):  # each element as the bottom; all but the least are refused
        assert code_tables(balg._stone_code(n, L._up, L._down, bot), L._down) == \
            tables(ref.stone_tables(n, L._up, L._down, bot))


def assert_ultrafilters_match(B):
    assert [(u.generator, u.members) for u in B.ultrafilters()] == [
        (B.elements[i], frozenset(ref.up_set(B, B.elements[i])))
        for i in ref.ultrafilter_generators(B)]
    assert balg._ultra_masks(B) == ref.ultra_masks(B)


@pytest.mark.parametrize("k", range(9))
def test_powerset_rows_match_the_scans(k):
    points = tuple(f"p{i}" for i in range(k))
    B = balg.powerset_balg(points, balg.render_braces(points))[0]
    assert_rows_match(B)
    assert_ultrafilters_match(B)


@pytest.mark.parametrize("k", range(9))
def test_powerset_from_cover_pairs_matches_all_pairs(k):
    points = tuple(f"p{i}" for i in range(k))
    got, id_of, set_of = balg.powerset_balg(points, balg.render_braces(points))
    want, want_id_of, want_set_of = ref.powerset_balg(points, balg.render_braces(points))
    assert (id_of, set_of) == (want_id_of, want_set_of)
    for attr in ("elements", "index", "_up", "_down", "_bottom_i", "_code", "_pos", "cover_pairs"):
        assert getattr(got, attr) == getattr(want, attr), attr


def test_band_semilattice_rows_match_the_scans():
    els = list("pqrs")
    sources = all_bands() + [bset.validate_band(els, [[els[v] for v in row] for row in rows])
                             for rows in right_normal_bands(4)]
    boolean = 0
    for S in sources:
        assert_rows_match(bset.band_to_presheaf(S).base)
        if bset.is_boolean_band(S):
            assert_ultrafilters_match(bset.band_to_bset(S).base)
            boolean += 1
    assert len(sources) > 30 and 5 < boolean < len(sources)


def poset_outcome(check, elements, pairs):
    index = {e: i for i, e in enumerate(elements)}
    try:
        return check(elements, index, pairs)
    except NotAPoset as e:
        return "NotAPoset", e.witness


def old_check_poset(elements, index, pairs):
    up = ref.check_poset(elements, index, pairs)
    return up, ref.down_masks(len(elements), up)


def test_antisymmetry_witness_matches_the_pair_scan():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(2, 12)
        els = [f"x{i}" for i in rng.sample(range(20), n)]
        pairs = [(x, y) for x in els for y in els if x != y and rng.random() < 0.1]
        ring = rng.sample(els, rng.randint(2, min(n, 4)))
        cycle = list(zip(ring, ring[1:] + ring[:1]))
        # with the cycle the witness, without it (often) the up and down rows
        for rel in (pairs + cycle, pairs):
            assert poset_outcome(balg._check_poset, els, rel) == \
                poset_outcome(old_check_poset, els, rel)
        assert poset_outcome(balg._check_poset, els, pairs + cycle)[0] == "NotAPoset"


def test_poset_rows_match_the_pair_scan_on_loops_repeats_and_full_orders():
    # self-loops and repeated pairs (no cycle, and no in-degree of their
    # own), with and without a cycle; and each powerset's 3^k pairs of
    # subsets, the order already closed
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 10)
        els = [f"x{i}" for i in rng.sample(range(20), n)]
        pairs = [(x, y) for x in els for y in els if x != y and rng.random() < 0.15]
        loops = [(x, x) for x in els if rng.random() < 0.3]
        repeats = [rng.choice(pairs) for _ in range(len(pairs) // 2)] if pairs else []
        rel = pairs + loops + repeats
        rng.shuffle(rel)
        ring = rng.sample(els, min(n, rng.randint(2, 4)))
        cycle = list(zip(ring, ring[1:] + ring[:1])) if n > 1 else []
        for r in (rel, rel + cycle, loops):
            assert poset_outcome(balg._check_poset, els, r) == \
                poset_outcome(old_check_poset, els, r)
    for k in range(7):
        points = tuple(f"p{i}" for i in range(k))
        B = balg.powerset_balg(points, balg.render_braces(points))[0]
        full = [(x, y) for x in B.elements for y in B.up_set(x)]
        assert len(full) == 3 ** k
        got = poset_outcome(balg._check_poset, B.elements, full)
        assert got == poset_outcome(old_check_poset, B.elements, full) == (B._up, B._down)
