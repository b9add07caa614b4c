"""Scans of a ∘ table run once per class of equal rows, against the row by
row scans they replaced.

``skew._band_check`` (its triple scan and Light's test) and the two
distributive laws of ``skew.check_consequences`` read an element's ∘ row
only through its contents, so they run once per class of equal rows
(``bset._row_classes``).  The band check must give the same verdict and
witness as the exhaustive triple scan (``test_skew._reference_band_check``)
and as the earlier Light's-test route (``test_reconstruct.old_band_check``)
on every band table of the small-band oracle test and each of its single
edits, on seeded single-edit mutants of generated algebras (class-preserving
∘ edits included), and on chains and products of chains up to 128
elements.  The consequence report must equal that of a copy of the row by
row code (``scan_check_consequences``) on seeded mutants at 27, 81 and 256
elements, for both tables, and its distributive laws those of
``test_duality_layer.old_check_consequences``.  Each check runs with equal
rows sharing one list, as parsed, and with every row its own list.

The band check skips the rows that are the identity, whose elements are
left identities and hold no witness, and scans the first other row before
Light's test; it must also agree with the route that scanned the first row
(``first_row_band_check``), also on • tables whose first row is not the
identity: the generated ones with the zero moved off the first place, and
their single edits.
"""

import itertools
import random
from math import prod
from operator import itemgetter

import pytest

from skewstone import balg, bset, skew
from skewstone.errors import NotABand
from skewstone.report import Report, _first_witness

import mutation_engine as me
from test_duality_layer import old_check_consequences, unvalidated_skew
from test_reconstruct import (
    class_preserving_circ_mutant, generated_raw, old_band_check, zero_fixed_bands,
)
from test_skew import _band_outcome, _reference_band_check


def scan_check_consequences(S):
    circ, bullet = S.circ_t, S.bullet_t
    els = S.elements
    r = range(len(els))
    cls, _, _ = bset._row_classes(els, circ)
    z = S.index[S.zero]
    return Report([
        _first_witness("circ_over_bullet_left", (
            (els[i], els[j], els[k]) for i in r for j in r for k in r
            if circ[i][bullet[j][k]] != bullet[circ[i][j]][circ[i][k]])),
        _first_witness("circ_over_bullet_right", (
            (els[i], els[j], els[k]) for i in r for j in r for k in r
            if circ[bullet[j][k]][i] != bullet[circ[j][i]][circ[k][i]])),
        _first_witness("gamma_right_zero_circ", (
            (els[i], els[j]) for i in r for j in r
            if (cls[i] == cls[j]) != (circ[i][j] == j and circ[j][i] == i))),
        _first_witness("gamma_left_zero_bullet", (
            (els[i], els[j]) for i in r for j in r
            if cls[i] == cls[j] and bullet[i][j] != i)),
        _first_witness("right_normal_circ", (
            (els[i], els[j], els[k]) for i in r for j in r
            if circ[circ[i][j]] != circ[circ[j][i]]
            for k in r if circ[circ[i][j]][k] != circ[circ[j][i]][k])),
        _first_witness("bullet_identity_zero", (
            (els[i],) for i in r if bullet[z][i] != i or bullet[i][z] != i)),
    ])


def first_row_band_check(elements, table, op):
    """``skew._band_check`` as it was when it scanned the first row, not the
    first row that is not the identity, before Light's test."""
    n = len(elements)
    for i in range(n):
        if table[i][i] != i:
            raise NotABand((elements[i],), op, "idempotent")
    if n < 2:
        return
    cls, reps, _ = bset._row_classes(elements, table)
    distinct = [tuple(table[r]) for r in reps]
    rows = [distinct[c] for c in cls]
    picks = [itemgetter(*t) for t in distinct]
    witness = skew._assoc_witness(table, rows, picks, cls, reps[:1])
    if witness is None:
        if skew._light_associative(rows, cls, reps):
            return
        witness = skew._assoc_witness(table, rows, picks, cls, reps[1:])
        if witness is None:
            raise AssertionError("Light's test refused, yet every triple associates")
    raise NotABand(tuple(elements[i] for i in witness), op, "assoc")


def layouts(table):
    """The table with equal rows sharing one list, as the parser gives
    identical lines, and with every row its own list."""
    shared = {}
    return [shared.setdefault(tuple(row), list(row)) for row in table], [list(r) for r in table]


def assert_band_checks_agree(elements, table, op):
    want = _band_outcome(_reference_band_check, elements, table, op)
    for rows in layouts(table):
        assert _band_outcome(old_band_check, elements, rows, op) == want
        assert _band_outcome(first_row_band_check, elements, rows, op) == want
        assert _band_outcome(skew._band_check, elements, rows, op) == want
    return want


def single_edits(table):
    n = len(table)
    for i, j in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != table[i][j]:
                rows = [list(r) for r in table]
                rows[i][j] = v
                yield rows


def test_band_check_on_every_small_band_and_its_single_edits():
    refused = 0
    for n in range(1, 5):
        els = tuple("0abc"[:n])
        for z, op in itertools.product(sorted({0, n - 1}), ("circ", "bullet")):
            for table in zero_fixed_bands(n, z, op):
                assert assert_band_checks_agree(els, table, op) is None
                for rows in single_edits(table):
                    refused += assert_band_checks_agree(els, rows, op) is not None
    assert refused > 1000


@pytest.mark.parametrize("sizes, count", [((2, 2, 2), 40), ((2, 2, 2, 2), 16),
                                          ((3, 3, 3, 3), 4)])
def test_band_check_on_seeded_mutants(sizes, count):
    raw = generated_raw(sizes)
    elements, index = balg._index_elements(raw["elements"])
    rng = random.Random(len(elements))
    mutants = [me.mutate_skew(raw, rng) for _ in range(count)]
    mutants += [class_preserving_circ_mutant(raw, rng) for _ in range(count // 2)]
    ops, laws = set(), set()
    for mutant in mutants:
        for op in ("circ", "bullet"):
            if mutant[op] is not raw[op]:
                table = skew._as_index_table(elements, index, mutant[op], op)
                found = assert_band_checks_agree(elements, table, op)
                ops.add(op)
                laws.add(found and found[0])
    assert ops == {"circ", "bullet"} and {"band.assoc.circ", "band.assoc.bullet"} <= laws


def moved_zero(table, z, to):
    """The index table with elements z and ``to`` swapped."""
    perm = list(range(len(table)))
    perm[z], perm[to] = to, z
    return [[perm[table[pi][pj]] for pj in perm] for pi in perm]


@pytest.mark.parametrize("sizes, edits", [((1, 2), 60), ((2, 2, 2), 60), ((2, 2, 2, 2), 20)])
def test_band_check_on_bullet_tables_whose_first_row_is_not_the_identity(sizes, edits):
    raw = generated_raw(sizes)
    elements, index = balg._index_elements(raw["elements"])
    n = len(elements)
    bullet = skew._as_index_table(elements, index, raw["bullet"], "bullet")
    z = index[raw["zero"]]
    assert bullet[z] == list(range(n))  # the zero's • row is the identity
    rng = random.Random(n)
    laws = set()
    for to in sorted({1, n // 2, n - 1} - {z}):
        table = moved_zero(bullet, z, to)
        assert table[0] != list(range(n)) and table[to] == list(range(n))
        assert assert_band_checks_agree(elements, table, "bullet") is None
        for _ in range(edits):
            rows = [list(r) for r in table]
            i = rng.choice([0, to, rng.randrange(n)])
            j = rng.randrange(n)
            rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
            found = assert_band_checks_agree(elements, rows, "bullet")
            laws.add(found and found[0])
    assert {"band.assoc.bullet", "band.idempotent.bullet"} <= laws


def chain_product(lengths, op):
    """The componentwise min ("circ") or max ("bullet") of a product of
    chains, as an index table in mixed-radix order."""
    pick = min if op == "circ" else max
    points = list(itertools.product(*map(range, lengths)))
    index = {p: i for i, p in enumerate(points)}
    return [[index[tuple(map(pick, p, q))] for q in points] for p in points]


@pytest.mark.parametrize("lengths", [(128,), (2, 64), (8, 16), (3, 5, 7), (2,) * 7])
def test_band_check_on_chains_and_their_products(lengths):
    n = prod(lengths)
    els = tuple(map(str, range(n)))
    rng = random.Random(n)
    for op in ("circ", "bullet"):
        table = chain_product(lengths, op)
        assert assert_band_checks_agree(els, table, op) is None
        for _ in range(3):
            rows = [list(r) for r in table]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rng.choice([v for v in range(n) if v != rows[i][j]])
            assert_band_checks_agree(els, rows, op)


@pytest.mark.parametrize("sizes, count", [((2, 2, 2), 40), ((2, 2, 2, 2), 10),
                                          ((3, 3, 3, 3), 2)])
def test_consequence_reports_match_the_row_by_row_scans(sizes, count):
    raw = generated_raw(sizes)
    rng = random.Random(count)
    mutants = [class_preserving_circ_mutant(raw, rng) for _ in range(count)]
    for op in itertools.islice(itertools.cycle(("circ", "bullet")), count):
        mutant = me.mutate_skew(raw, rng)
        while mutant[op] is raw[op]:
            mutant = me.mutate_skew(raw, rng)
        mutants.append(mutant)
    failed = set()
    for mutant in mutants:
        S = unvalidated_skew(mutant)
        report = scan_check_consequences(S)
        for circ in layouts(S.circ_t):
            T = skew.SkewAlgebra(S.elements, S.index, circ, S.bullet_t, S._zero_i)
            assert skew.check_consequences(T) == report
        if len(S.elements) < 256:
            assert report.items[:2] == old_check_consequences(S).items[:2]
        failed.update(it.law for it in report.items[:2] if not it.ok)
    assert failed == {"circ_over_bullet_left", "circ_over_bullet_right"}
