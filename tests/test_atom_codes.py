"""Boolean sets and the sheaf condition decided by atom coordinates, against
copies of the exhaustive code they replaced.

The references are the earlier ``validate_boolean_set`` (the bound scan over
every pair, with its ``assert`` written as an explicit raise) and the earlier
``sheaf_condition`` (every matching family of every covering sieve).  Results
must be equal: the same Boolean set, join table and key orders included, or
the same error type, law, witness and detail.
"""

import functools
import itertools
import random
from pathlib import Path

import pytest

from skewstone import balg, bset, etale, textio
from skewstone.errors import (
    MissingJoin,
    NoGlobalSupport,
    StructureError,
    ZeroStalkNotTrivial,
)

import mutation_engine as me
from conftest import cover_maps, make_b4, make_b8
from test_duality_layer import join_table

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- references

def old_validate_boolean_set(P):
    base = P.base
    if not isinstance(base, balg.FinBooleanAlgebra):
        raise ValueError("Boolean set base must be a validated Boolean algebra")
    for e in base.elements:
        if not P.stalks[e]:
            raise NoGlobalSupport((e,))
    zstalk = P.stalks[base.bottom]
    if len(zstalk) > 1:
        raise ZeroStalkNotTrivial(zstalk[:2])
    zero = zstalk[0]
    if not all(P.leq_elem(zero, x) for x in P.elements):
        raise StructureError((zero,), law="bset.minimum")
    n = len(P.elements)
    join_table = [[-1] * n for _ in range(n)]
    for x, row in zip(P.elements, join_table):
        for k, y in enumerate(P.elements):
            if P.compatible_elems(x, y):
                j = P.join_elem(x, y)
                if j is None:
                    raise MissingJoin((x, y))
                if P.p(j) != base.join(P.p(x), P.p(y)):
                    raise AssertionError((x, y, j))
                row[k] = P.index[j]
    X = bset.BooleanSet(base, P.stalks, P._rest, zero,
                        bset._presheaf_coordinates(P))
    X.scanned_join = join_table  # the table found by the scan, not one built from the codes
    return X


def old_matching_families(P, sieve):
    sieve = sorted(sieve, key=lambda e: -len(P.base.down_set(e)))

    def rec(k, fam):
        if k == len(sieve):
            yield dict(fam)
            return
        a = sieve[k]
        for x in P.stalks[a]:
            ok = True
            for b, xb in fam.items():
                if P.base.leq(a, b) and P.restrict(xb, a) != x:
                    ok = False
                    break
                if P.base.leq(b, a) and P.restrict(x, b) != xb:
                    ok = False
                    break
            if ok:
                fam[a] = x
                yield from rec(k + 1, fam)
                del fam[a]

    yield from rec(0, {})


def is_covering_sieve(B, c, members):
    """Down-closed family below c whose join is c (the empty join is bottom)."""
    members = frozenset(members)
    for a in members:
        if not B.leq(a, c):
            return False
    for a in members:
        for b in B.down_set(a):
            if b not in members:
                return False
    return B.join_all(members) == c


@functools.cache
def covering_sieves(B, c):
    """All covering sieves of c, ordered by the subset bitmask of ↓c.  They
    depend on the base only, so each base enumerates them once."""
    down = B.down_set(c)
    out = []
    for mask in range(1 << len(down)):
        s = frozenset(down[i] for i in range(len(down)) if mask >> i & 1)
        if is_covering_sieve(B, c, s):
            out.append(s)
    return out


def old_sheaf_condition(P):
    B = P.base
    for c in B.elements:
        for sieve in covering_sieves(B, c):
            for fam in old_matching_families(P, sieve):
                glue = [
                    z for z in P.stalks[c]
                    if all(P.restrict(z, a) == fam[a] for a in sieve)
                ]
                if len(glue) != 1:
                    return False
    return True


# ------------------------------------------------------------ comparison

def bset_outcome(validate, P):
    """The Boolean set with every table and key order, or the error."""
    try:
        X = validate(P)
    except StructureError as e:
        return type(e), e.law, e.witness, e.detail
    joins = X.scanned_join if hasattr(X, "scanned_join") else join_table(X)
    return (
        X.elements, list(X.stalks.items()), list(cover_maps(X).items()),
        [(x, list(X._rest[x].items())) for x in X.elements], X.zero, joins,
    )


def agree(P, sheaf=True):
    """Assert both deciders match their references on P; the reference
    outcome.  ``sheaf=False`` skips the sieve enumeration (too large)."""
    expected = bset_outcome(old_validate_boolean_set, P)
    assert bset_outcome(bset.validate_boolean_set, P) == expected
    if sheaf:
        assert bset.sheaf_condition(P) == old_sheaf_condition(P)
    return expected


def laws_of(outcomes):
    return {o[1] if isinstance(o[0], type) else "ok" for o in outcomes}


# ---------------------------------------------------------------- inputs

def b4_presheaves():
    """Every path-independent presheaf over the 4-element algebra with stalks
    of 0, 1 or 2 members (criterion 9 with empty stalks)."""
    B4 = make_b4()
    out = []
    for s0, sa, sb, s1 in itertools.product((0, 1, 2), repeat=4):
        stalks = {
            "0": [f"z{i}" for i in range(s0)],
            "a": [f"a{i}" for i in range(sa)],
            "b": [f"b{i}" for i in range(sb)],
            "1": [f"t{i}" for i in range(s1)],
        }
        maps = [
            list(itertools.product(stalks[lo], repeat=len(stalks[up])))
            for up, lo in (("1", "a"), ("1", "b"), ("a", "0"), ("b", "0"))
        ]
        for ra, rb, r0a, r0b in itertools.product(*maps):
            restrict = {
                ("1", "a"): dict(zip(stalks["1"], ra)),
                ("1", "b"): dict(zip(stalks["1"], rb)),
                ("a", "0"): dict(zip(stalks["a"], r0a)),
                ("b", "0"): dict(zip(stalks["b"], r0b)),
            }
            try:
                out.append(bset.validate_presheaf(B4, stalks, restrict))
            except StructureError:
                continue
    return out


def random_presheaf(B, rng):
    """A path-independent presheaf over B with stalks of at most 2 members,
    built bottom up: each cover target is drawn among those that agree with
    the restrictions already fixed.  None when no target agrees."""
    lower = {e: [lo for up, lo in B.cover_pairs if up == e] for e in B.elements}
    stalks, restrict, rest = {}, {}, {}
    for e in sorted(B.elements, key=lambda e: len(B.down_set(e))):
        # sizes are often those of a sheaf, so that many draws are one
        size = 1
        for a in B.atoms:
            if B.leq(a, e) and a != e:
                size *= len(stalks[a])
        if e in B.atoms or size > 2 or rng.random() < 0.25:
            size = rng.choice((1, 1, 2) if e == B.bottom else (0, 1, 1, 2, 2))
        stalks[e] = [f"{e}{i}" for i in range(size)]
        for f in lower[e]:
            restrict[(e, f)] = {}
        for x in stalks[e]:
            rest[x] = {e: x}
            for f in lower[e]:
                options = [
                    y for y in stalks[f]
                    if all(rest[x].get(g, v) == v for g, v in rest[y].items())
                ]
                if not options:
                    return None
                y = rng.choice(options)
                restrict[(e, f)][x] = y
                rest[x].update(rest[y])
    return bset.validate_presheaf(B, stalks, restrict)


def raw_of(X):
    return {
        "kind": "bset",
        "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
        "restrict": cover_maps(X),
    }


def small_spaces():
    """Etale spaces over 1 to 3 base points with the given fiber sizes."""
    out = []
    for fibers in [(1,), (3,), (1, 2), (2, 2), (3, 1), (1, 1, 1), (2, 1, 2)]:
        base = [f"u{i}" for i in range(len(fibers))]
        proj = {f"e{i}{k}": u for i, (u, s) in enumerate(zip(base, fibers)) for k in range(s)}
        out.append(etale.validate_etale(list(proj), base, proj))
    return out


# ------------------------------------------------------------------ tests

def test_b4_presheaves_with_empty_stalks():
    presheaves = b4_presheaves()
    assert len(presheaves) == 249
    found = [agree(P) for P in presheaves]
    assert laws_of(found) == {
        "ok", "bset.global_support", "bset.zero_stalk", "bset.compatible_join"}


def test_seeded_presheaves_over_b8():
    B = make_b8()
    rng = random.Random(2)
    presheaves = []
    while len(presheaves) < 1500:
        P = random_presheaf(B, rng)
        if P is not None:
            presheaves.append(P)
    found = [agree(P) for P in presheaves]
    assert sum(not isinstance(o[0], type) for o in found) > 50
    assert laws_of(found) == {
        "ok", "bset.global_support", "bset.zero_stalk", "bset.compatible_join"}


def top_edit(raw, top, rng):
    """One edit of the top stalk, which keeps path independence (nothing
    lies above it): a member takes over another member's restrictions, is
    deleted, or gets a copy."""
    stalks = {e: list(ms) for e, ms in raw["stalks"].items()}
    restrict = {k: dict(v) for k, v in raw["restrict"].items()}
    covers = [k for k in restrict if k[0] == top]
    t = rng.choice(stalks[top])
    edit = rng.choice(("collapse", "delete", "copy") if len(stalks[top]) > 1 else ("delete", "copy"))
    if edit == "collapse":
        u = rng.choice([u for u in stalks[top] if u != t])
        for k in covers:
            restrict[k][t] = restrict[k][u]
    elif edit == "delete":
        stalks[top].remove(t)
        for k in covers:
            del restrict[k][t]
    else:
        stalks[top].append(t + "'")
        for k in covers:
            restrict[k][t + "'"] = restrict[k][t]
    return {**raw, "stalks": stalks, "restrict": restrict}


@pytest.mark.parametrize("sizes, count, sheaf", [
    ((2, 2, 2), 60, True), ((1, 1, 3, 3), 40, False),
    ((2, 2, 2, 2), 30, False), ((1,) * 6, 10, False),
])
def test_mutants_of_generated_sets(sizes, count, sheaf):
    # a single mutate_bset edit below the top breaks path independence, so
    # most are rejected before the comparison; top-stalk edits are not.  The
    # sieve enumeration is exponential in the base: it runs on 8 elements.
    X = bset.generate_boolean_set(sizes, seed=3)
    raw = raw_of(X)
    cases = [raw] + [me.mutate_bset(raw, random.Random(i)) for i in range(count)]
    cases += [top_edit(raw, X.base.top, random.Random(i)) for i in range(count)]
    found = []
    for case in cases:
        try:
            P = bset.validate_presheaf(X.base, case["stalks"], case["restrict"])
        except StructureError:
            continue
        found.append(agree(P, sheaf))
    assert not isinstance(found[0][0], type)
    assert len(found) > count
    if min(sizes) > 1:
        assert "bset.compatible_join" in laws_of(found)


def test_dual_bsets_of_small_spaces():
    for sp in small_spaces():
        X = etale.dual_bset(sp)
        agree(bset.validate_presheaf(X.base, X.stalks, cover_maps(X)))


def test_bset_stanzas_of_the_docs():
    seen = 0
    for path in sorted(DOCS.glob("*.txt")):
        built = {}
        for s in textio.parse(path.read_text()).stanzas:
            if s.kind == "bset":
                base = built[s.over]
                P = bset.validate_presheaf(base, s.data.get("stalks", {}),
                                           s.data.get("restrict", {}))
                agree(P)
                seen += 1
            built[s.name] = textio._build_one(s, built)
    assert seen >= 3


def test_sheaf_condition_needs_one_zero():
    # the empty sieve covers the bottom, so its stalk has exactly one member
    b1 = balg.validate_balg(["0"], [], "0")
    for zero in ([], ["z"], ["z1", "z2"]):
        P = bset.validate_presheaf(b1, {"0": zero}, {})
        assert bset.sheaf_condition(P) == old_sheaf_condition(P) == (len(zero) == 1)

