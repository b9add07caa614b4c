"""A Boolean set's one operation table is its ∘/• index rows
(``bset._skew_rows``), built from the atom coordinates on first use: joins
and compatibility are read off them, ``to_skew`` validates them, and the
ultrafilter and morphism checks rebuild no derived table.

The references are the earlier join table built from the mixed-radix atom
codes (``correspondence_reference.atom_codes``) and the eager
``_coded_boolean_set`` that kept it, the ``to_skew`` that read • through
that table, the ``_stalk_rows`` that made id-level ``meet``/``rel_complement``
calls, the morphism consequence check that compared ``to_skew`` of both sets
through id-level calls, and the ultrafilter primeness pass over the join
table.  The joins, both skew tables (``bset._skew_rows``, in element order
and in a shuffled order) and the ultrafilter check's verdicts must equal
theirs, a set must keep the atom coordinates that its presheaf gives, and
the morphism validator must refuse a map with swapped images exactly when
the old consequence check does.  The acceptance path reads no join and
builds no order masks (``bset._order_masks``), and accepting a morphism
runs no id-level restriction scan.
"""

import random
from pathlib import Path

import pytest

from skewstone import balg, bset, cli, duality, etale, skew, textio
from skewstone.errors import InternalMissingJoin, StructureError

import correspondence_reference as ref
from conftest import make_b2, make_b4, make_prod, make_x3_bset
from test_duality_layer import join_table, seeded_space

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- references

def old_coded_join_table(P, codes):
    n = len(codes)
    elem_of = [0] * n
    for i, k in enumerate(codes):
        elem_of[k] = i
    groups = {}  # (f, m) -> r -> (index, code) of each y in X(f) with y|m = r
    for i, (y, cy) in enumerate(zip(P.elements, codes)):
        for m, r in P._rest[y].items():
            groups.setdefault((P.stalk_of[y], m), {}).setdefault(r, []).append((i, cy))
    table = []
    for x, cx in zip(P.elements, codes):
        rx, e = P._rest[x], P.stalk_of[x]
        row = [-1] * n
        for f in P.base.elements:
            m = P.base.meet(e, f)
            r = rx[m]
            d = cx - codes[P.index[r]]
            for j, cy in groups[f, m].get(r, ()):
                row[j] = elem_of[d + cy]
        table.append(row)
    return table


def old_coded_boolean_set(P, codes):
    """The set with the join table of the mixed-radix ``codes``; it keeps
    no atom coordinates, as nothing read here needs them."""
    zero = P.stalks[P.base.bottom][0]
    X = bset.BooleanSet(P.base, P.stalks, P._rest, zero, None)
    X._join = old_coded_join_table(P, codes)
    return X


def old_stalk_rows(P, order, index):
    B, rest, p = P.base, P._rest, P.stalk_of
    rows = {}
    for c in B.elements:
        meet = {f: B.meet(c, f) for f in B.elements}
        minus = {f: B.rel_complement(f, c) for f in B.elements}
        rows[c] = ([index[rest[y][meet[p[y]]]] for y in order],
                   [index[rest[y][minus[p[y]]]] for y in order])
    return rows


def old_skew_tables(X, order=None):
    """to_skew's index tables over the ids ``order`` (X's element order
    when None), • read through the join table."""
    order = X.elements if order is None else order
    index = {x: i for i, x in enumerate(order)}
    rows = old_stalk_rows(X, order, index)
    to_x = [X.index[y] for y in order]
    circ, bullet = [], []
    for x in order:
        circ_row, minus_row = rows[X.stalk_of[x]]
        jrow = X._join[X.index[x]]
        circ.append(circ_row)
        bullet.append([index[X.elements[jrow[to_x[k]]]] for k in minus_row])
    return circ, bullet


def old_assert_morphism_consequences(m):
    """Joins, ∘ and • preserved, compared through id-level calls: joins on
    the join tables, ∘ and • on to_skew of both sets."""
    X, Y, phi = m.source, m.target, m.mapping
    jx = old_coded_join_table(X, ref.atom_codes(X))
    jy = old_coded_join_table(Y, ref.atom_codes(Y))
    for x in X.elements:
        for y in X.elements:
            k = jx[X.index[x]][X.index[y]]
            if k < 0:
                continue
            k2 = jy[Y.index[phi[x]]][Y.index[phi[y]]]
            if k2 < 0:
                raise InternalMissingJoin((phi[x], phi[y]))
            if phi[X.elements[k]] != Y.elements[k2]:
                raise AssertionError((x, y))
    SX, SY = bset.to_skew(X), bset.to_skew(Y)
    for x in X.elements:
        for y in X.elements:
            if phi[SX.circ(x, y)] != SY.circ(phi[x], phi[y]):
                raise AssertionError((x, y))
            if phi[SX.bullet(x, y)] != SY.bullet(phi[x], phi[y]):
                raise AssertionError((x, y))


def old_assert_is_ultrafilter(X, u):
    """The ultrafilter check with primeness by one pass over the join
    table: no compatible join of two non-members lands in u."""
    els, index = X.elements, X.index
    below, above = bset._order_masks(X)
    F = u.base_filter
    if {X.p(x) for x in u.members} != F.members:
        raise AssertionError((u.ident, F))
    idx = sorted(index[x] for x in u.members)
    umask = sum(1 << i for i in idx)
    for i in idx:
        escape = above[i] & ~umask
        if escape:
            raise AssertionError(("not upward closed", els[i], els[duality._first(escape)]))
        for j in idx:
            if not below[i] & below[j] & umask:
                raise AssertionError(("no common lower bound", els[i], els[j]))
    inside = [umask >> i & 1 for i in range(len(els))]
    outside = [i for i in range(len(els)) if not inside[i]]
    join = old_coded_join_table(X, ref.atom_codes(X))
    for i in outside:
        row = join[i]
        for j in outside:
            k = row[j]
            if k >= 0 and inside[k]:
                raise AssertionError(("not prime", els[i], els[j], els[k]))


# ------------------------------------------------------------ comparison

SHAPES = [(2, 1), (2, 2, 2), (3, 3, 3, 3), (2, 2, 2, 5), (1,) * 7]


def assert_matches_reference(X, rng):
    assert X._coords == bset._presheaf_coordinates(X)
    old = old_coded_boolean_set(X, ref.atom_codes(X))
    assert join_table(X) == old._join
    assert bset._skew_rows(X) is bset._skew_rows(X)  # built once, then kept
    circ, bullet = bset._skew_rows(X)
    assert (circ, bullet) == old_skew_tables(old)
    # a skew algebra's element order, not the stalk order, both sides
    # carried over by the same permutation
    order = list(X.elements)
    rng.shuffle(order)
    index = {x: i for i, x in enumerate(order)}
    pos = [X.index[x] for x in order]
    moved = tuple([[index[X.elements[t[i][j]]] for j in pos] for i in pos] for t in (circ, bullet))
    assert moved == old_skew_tables(old, order)
    S = bset.to_skew(X)
    assert (S.circ_t, S.bullet_t) == old_skew_tables(old)


@pytest.mark.parametrize("sizes", SHAPES)
def test_generated_sets_match_reference(sizes):
    X = bset.generate_boolean_set(sizes, seed=2)
    assert not hasattr(X, "_rows")  # validation builds no operation table
    bset.to_skew(X)
    assert X._rows == (X._skew.circ_t, X._skew.bullet_t)  # to_skew builds it
    assert_matches_reference(X, random.Random(1))


def test_docs_sets_match_reference():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        built = textio.build(textio.parse(path.read_text()))
        for X in built.values():
            if isinstance(X, bset.BooleanSet):
                assert_matches_reference(X, random.Random(2))
                seen += 1
    assert seen >= 3


def test_dual_sets_match_reference():
    rng = random.Random(6)
    for _ in range(40):
        X = etale.dual_bset(seeded_space(rng))
        assert not hasattr(X, "_rows")
        assert_matches_reference(X, rng)


def test_skew_validation_keeps_codes_and_builds_no_join_table():
    X = bset.generate_boolean_set((2, 2, 2), seed=4)
    S = bset.to_skew(X)
    els = S.elements
    # the set validate_skew rebuilds from the id tables (to_skew keeps X)
    Y = bset.from_skew(skew.validate_skew(els, [[S.circ(x, y) for y in els] for x in els],
                                          [[S.bullet(x, y) for y in els] for x in els], S.zero))
    assert Y is not X
    assert Y._coords == bset._presheaf_coordinates(Y)
    assert not hasattr(Y, "_rows")
    assert join_table(Y) == old_coded_join_table(Y, ref.atom_codes(Y))


# ------------------------------------------------------ acceptance path

def run_acceptance_path(capsys, tmp_path):
    """gen, then validate, to-skew, validate of the skew document and the
    skew round trip, on docs/prod.txt and on the generated 81-element set."""
    assert cli.main(["gen", "--atoms", "4", "--stalks", "2,2,2,2", "--seed", "1"]) == 0
    gen = tmp_path / "g.txt"
    gen.write_text(capsys.readouterr().out)
    for doc, name in ((DOCS / "prod.txt", "Prod"), (gen, "G")):
        assert cli.main(["validate", str(doc)]) == 0
        assert f"bset {name}: ok" in capsys.readouterr().out
        assert cli.main(["to-skew", str(doc), name]) == 0
        skew_doc = tmp_path / f"{name}_skew.txt"
        skew_doc.write_text(capsys.readouterr().out)
        assert cli.main(["validate", str(skew_doc)]) == 0
        assert cli.main(["roundtrip", str(skew_doc), f"{name}_skew"]) == 0
        out = capsys.readouterr().out
        assert f"skew {name}_skew: ok" in out
        assert "skew round trip: identity" in out
    assert "skew round trip: identity (81 elements)" in out


def test_acceptance_path_reads_no_join_table(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        raise AssertionError("a join was read")

    monkeypatch.setattr(bset.BooleanSet, "join", refuse)
    monkeypatch.setattr(bset.BooleanSet, "compatible_elems", refuse)
    run_acceptance_path(capsys, tmp_path)


def test_acceptance_path_builds_no_order_masks(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        raise AssertionError("order masks were built")

    monkeypatch.setattr(bset, "_order_masks", refuse)
    run_acceptance_path(capsys, tmp_path)


def test_morphism_acceptance_runs_no_restriction_scan(monkeypatch):
    # BM2 reads the restriction rows directly, with no restrict or
    # down_set call
    sets = small_sets()
    inputs = [(m.mapping, base, m.source, m.target)
              for X in sets for Y in sets for m in bset.enumerate_bset_morphisms(X, Y)
              for base in (m.base_hom.mapping, None)]
    for X in [bset.generate_boolean_set(s, seed=1) for s in [(2, 1), (1, 2, 2)]]:
        m = duality.bset_double_dual(X)
        inverse = {v: k for k, v in m.mapping.items()}
        inputs += [(m.mapping, m.base_hom.mapping, X, m.target), (inverse, None, m.target, X)]

    def refuse(*args):
        raise AssertionError("an id-level restriction scan ran")

    monkeypatch.setattr(bset.BooleanSet, "restrict", refuse)
    monkeypatch.setattr(balg.FinMeetSemilattice, "down_set", refuse)
    for phi, phibar, X, Y in inputs:
        assert bset.validate_bset_morphism(phi, phibar, X, Y).mapping == phi
    assert len(inputs) > 200


def test_duality_paths_read_no_join_and_build_no_skew_algebra(monkeypatch, capsys, tmp_path):
    assert cli.main(["gen", "--atoms", "4", "--stalks", "2,2,2,2", "--seed", "1"]) == 0
    gen = tmp_path / "g.txt"
    gen.write_text(capsys.readouterr().out)

    def refuse(*args):
        raise AssertionError("a join or a skew algebra was built")

    monkeypatch.setattr(bset, "to_skew", refuse)
    monkeypatch.setattr(bset.BooleanSet, "join", refuse)
    monkeypatch.setattr(bset.BooleanSet, "compatible_elems", refuse)
    for doc, name in ((DOCS / "prod.txt", "Prod"), (gen, "G")):
        for command in ("ultrafilters", "dualize", "roundtrip"):
            assert cli.main([command, str(doc), name]) == 0
    assert "alpha: isomorphism (81 elements)" in capsys.readouterr().out
    assert cli.main(["validate", str(DOCS / "showcase.txt")]) == 0
    assert "morphism collapse: ok" in capsys.readouterr().out
    assert cli.main(["check-morphism", str(DOCS / "showcase.txt"), "collapse"]) == 0


# ------------------------------------------------ checks without tables

def verdict(check, *args):
    """None when the check passes, else the error's type.  The witnesses
    can differ: the old check scanned every pair for joins before ∘ and •."""
    try:
        check(*args)
    except (AssertionError, StructureError) as e:
        return type(e).__name__
    return None


def small_sets():
    return [make_x3_bset(), make_prod(), bset.constant_bset(make_b2()),
            bset.constant_bset(make_b4()), bset.generate_boolean_set((2,)),
            bset.generate_boolean_set((1, 2), seed=3)]


def swapped(m, rng, count):
    """``count`` maps equal to m's but for the images of two elements of
    one stalk, swapped, unvalidated; none when no stalk has two."""
    X = m.source
    stalks = [xs for xs in X.stalks.values() if len(xs) > 1]
    out = []
    for _ in range(count if stalks else 0):
        x, y = rng.sample(rng.choice(stalks), 2)
        phi = dict(m.mapping)
        phi[x], phi[y] = phi[y], phi[x]
        out.append(bset.BSetMorphism(X, m.target, phi, m.base_hom))
    return out


def assert_morphism_checks_agree(m, rng, failed):
    # a swap within one stalk keeps the base hom and BM1, so the validator
    # refuses it (by BM2) exactly when the old consequence check does
    assert verdict(old_assert_morphism_consequences, m) is None
    for mm in swapped(m, rng, 4):
        got = verdict(bset.validate_bset_morphism, mm.mapping, m.base_hom.mapping, mm.source, mm.target)
        assert got in (None, "BM2Violation")
        assert (got is None) == (verdict(old_assert_morphism_consequences, mm) is None)
        failed.append(got)


def test_morphism_check_matches_reference_on_enumerated_morphisms():
    rng, seen, failed = random.Random(3), 0, []
    sets = small_sets()
    for X in sets:
        for Y in sets:
            for m in bset.enumerate_bset_morphisms(X, Y):
                seen += 1
                assert_morphism_checks_agree(m, rng, failed)
    assert seen > 100
    assert None in failed and any(failed)


def double_duals():
    rng = random.Random(7)
    sets = [bset.generate_boolean_set(s, seed=1) for s in [(2, 1), (2, 2, 2), (1, 1, 3)]]
    return sets + [etale.dual_bset(seeded_space(rng)) for _ in range(40)]


def test_morphism_check_matches_reference_on_double_duals():
    rng, failed = random.Random(8), []
    for X in double_duals():
        m = duality.bset_double_dual(X)
        inverse = {v: k for k, v in m.mapping.items()}
        assert verdict(old_assert_morphism_consequences,
                       bset.BSetMorphism(m.target, X, inverse, None)) is None
        assert_morphism_checks_agree(m, rng, failed)
    assert any(failed)


def test_primeness_matches_reference_on_ultrafilters():
    for X in small_sets() + double_duals():
        for u in duality.bset_ultrafilters(X):  # each passed the new check
            old_assert_is_ultrafilter(X, u)


def tag(check, *args):
    """None when the check passes, else the first entry of its complaint."""
    try:
        check(*args)
    except AssertionError as e:
        return e.args[0][0]
    return None


@pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (1, 1, 2)])
def test_primeness_matches_reference_on_filter_candidates(sizes):
    # every subset of the preimage of each base ultrafilter: those that pass
    # the first three checks are exactly the ultrafilters, so the primeness
    # check never fires here, in either form
    X = bset.generate_boolean_set(sizes, seed=2)
    for F in X.base.ultrafilters():
        pre = [x for x in X.elements if X.p(x) in F.members]
        passed = []
        for mask in range(1 << len(pre)):
            members = frozenset(x for k, x in enumerate(pre) if mask >> k & 1)
            u = duality.BSetUltrafilter(X, members, F, f"S{mask}")
            got = tag(duality._assert_is_ultrafilter, X, u)
            assert got == tag(old_assert_is_ultrafilter, X, u)
            if got is None:
                passed.append(members)
        assert passed == sorted(
            (u.members for u in duality.bset_ultrafilters(X) if u.base_filter == F),
            key=lambda ms: sum(1 << pre.index(x) for x in ms))
