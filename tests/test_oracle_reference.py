"""The oracle ``skewstone.laws`` against its reference and the validators.

``laws_reference.py`` is the oracle as it was when each law was written
twice, a per-witness predicate for ``holds`` and inline loops in the scans,
and rebuilt its derived tables for each witness.  The oracle must give the
same ``scan`` and the same ``holds`` verdicts on balg, skew, band and bset
raws, valid and seeded mutants, up to 27 elements.  At the sizes the
validators serve (64 and 81 elements), each validator's (law, witness) on a
seeded mutant must be the oracle's first scan finding.  ``holds`` refuses,
before evaluating anything, a law of another kind, a witness of a length
that no validator gives and an entry that is not an id of the structure.
"""

import random
import re

import pytest

from skewstone import bset, laws

import laws_reference as ref
import mutation_engine as me
from conftest import cover_maps


def balg_raw(B):
    return {"kind": "balg", "elements": list(B.elements),
            "leq": [(lo, hi) for hi, lo in B.cover_pairs], "bottom": B.bottom}


def bset_raw(X):
    return {"kind": "bset", "base": balg_raw(X.base),
            "stalks": {e: list(X.stalks[e]) for e in X.base.elements},
            "restrict": cover_maps(X)}


def skew_raw(X):
    S = bset.to_skew(X)
    els = list(S.elements)
    return {"kind": "skew", "elements": els, "zero": S.zero,
            "circ": [[S.circ(x, y) for y in els] for x in els],
            "bullet": [[S.bullet(x, y) for y in els] for x in els]}


def band_raw(skew):
    return {**skew, "zero": None, "bullet": None}


def mutate_band(raw, rng):
    els = raw["elements"]
    circ = [list(r) for r in raw["circ"]]
    i, j = rng.randrange(len(els)), rng.randrange(len(els))
    circ[i][j] = rng.choice([e for e in els if e != circ[i][j]])
    return {**raw, "circ": circ}


def instances(sizes):
    X = bset.generate_boolean_set(sizes, seed=3)
    skew = skew_raw(X)
    return {"balg": balg_raw(X.base), "skew": skew, "band": band_raw(skew),
            "bset": bset_raw(X)}


def shape(raw):
    return "band" if raw["kind"] == "skew" and raw["bullet"] is None else raw["kind"]


def random_witness(raw, form, rng):
    """A witness of the given form whose entries are ids of the structure;
    a chain walks down covers from a random base element."""
    if raw["kind"] != "bset":
        return tuple(rng.choice(raw["elements"]) for _ in form)
    base = raw["base"]
    carrier = [x for ms in raw["stalks"].values() for x in ms]

    def chain():
        walk = [rng.choice(base["elements"])]
        while rng.random() < 0.7:
            lower = [lo for lo, hi in base["leq"] if hi == walk[-1]]
            if not lower:
                break
            walk.append(rng.choice(lower))
        return ">".join(walk)

    pick = {"x": lambda: rng.choice(carrier), "e": lambda: rng.choice(base["elements"]),
            ">": chain}
    return tuple(pick[slot]() for slot in form)


def assert_same_as_reference(raw, rng, tries=3):
    found = laws.scan(raw)
    assert found == ref.scan(raw), raw
    err = me.validate_raw(raw) if shape(raw) != "band" else None
    checks = [f for f in (found, err and (err.law, err.witness)) if f]
    for law, spec in laws.LAWS.items():
        if shape(raw) in spec.kinds:
            checks += [(law, random_witness(raw, form, rng))
                       for form in spec.forms for _ in range(tries)]
    for law, witness in checks:
        assert laws.holds(law, raw, witness) == ref.holds(law, raw, witness), (law, witness)
    return found


@pytest.mark.parametrize("sizes", [(1,), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1), (2, 2, 2)])
def test_scan_and_holds_match_the_reference(sizes):
    rng = random.Random(len(sizes) * 10 + sum(sizes))
    mutators = {"balg": me.mutate_balg, "skew": me.mutate_skew, "band": mutate_band,
                "bset": me.mutate_bset}
    raws = instances(sizes)
    small = len(raws["skew"]["elements"]) <= 12
    outcomes = set()
    for kind, raw in raws.items():
        if kind == "band" and not small:
            continue  # the reference scans a valid 27-element band in about 3 s
        assert assert_same_as_reference(raw, rng) is None, kind
        for _ in range(8 if small else 3):
            found = assert_same_as_reference(mutators[kind](raw, rng), rng)
            outcomes.add(found and found[0])
    assert len(outcomes) > 2, outcomes


@pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 2, 2, 2)])
def test_validators_name_the_first_scan_finding_at_64_and_81(sizes):
    raws = instances(sizes)
    for kind, mutate in (("skew", me.mutate_skew), ("bset", me.mutate_bset)):
        raw = raws[kind]
        assert me.validate_raw(raw) is None and laws.scan(raw) is None, kind
        rng = random.Random(f"{kind} {sizes}")
        rejected = 0
        for _ in range(20):
            mutant = mutate(raw, rng)
            err = me.validate_raw(mutant)
            expected = None if err is None else (err.law, err.witness)
            assert laws.scan(mutant) == expected, (kind, expected)
            rejected += err is not None
        assert rejected >= 15, (kind, rejected)


PROD_B4 = {"kind": "balg", "elements": ["0", "a", "b", "1"],
           "leq": [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "bottom": "0"}
PROD = {"kind": "bset", "base": PROD_B4,
        "stalks": {"0": ["0"], "a": ["a1", "a2"], "b": ["b1"], "1": ["(a1,b1)", "(a2,b1)"]},
        "restrict": {("1", "a"): {"(a1,b1)": "a1", "(a2,b1)": "a2"},
                     ("1", "b"): {"(a1,b1)": "b1", "(a2,b1)": "b1"},
                     ("a", "0"): {"a1": "0", "a2": "0"}, ("b", "0"): {"b1": "0"}}}
BAND = {"kind": "skew", "elements": ["0", "x"], "zero": None,
        "circ": [["0", "0"], ["0", "x"]], "bullet": None}


@pytest.mark.parametrize("law, raw, witness, message", [
    ("band.assoc.bullet", BAND, ("0", "x", "x"), "band.assoc.bullet is not a law of a band"),
    ("order.meet_exists", PROD, ("a", "zz"),
     "order.meet_exists: 'zz' is not an element of the Boolean algebra"),
    ("band.right_normal", BAND, ("0",), "band.right_normal takes a witness of 2 or 3 ids, not 1"),
    ("bset.global_support", PROD, ("a1",), "bset.global_support: 'a1' is not an element of the base"),
    ("presheaf.path_independence", PROD, ("(a1,b1)", "1>a>0", "1>zz>0"),
     "presheaf.path_independence: 'zz' is not an element of the base"),
])
def test_holds_refuses_what_it_cannot_evaluate(law, raw, witness, message):
    # the CLI cases are in test_cli.py
    with pytest.raises(ValueError, match=re.escape(message)):
        laws.holds(law, raw, witness)


def test_scan_refuses_a_skew_algebra_without_a_zero():
    # SB4 and SB5 read the zero; replay's refusal is tested in test_cli.py
    raw = {"kind": "skew", "elements": ["0", "a"], "zero": None,
           "circ": [["0", "0"], ["0", "a"]], "bullet": [["0", "a"], ["a", "a"]]}
    with pytest.raises(ValueError, match="declares no zero"):
        laws.scan(raw)



M3 = {"kind": "balg", "elements": ["0", "a", "b", "c", "1"],
      "leq": [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
      "bottom": "0"}
M3_SINGLETONS = {"kind": "bset", "base": M3,
                 "stalks": {e: [f"s{e}"] for e in M3["elements"]},
                 "restrict": {(hi, lo): {f"s{hi}": f"s{lo}"} for lo, hi in M3["leq"]}}


def test_a_bset_scan_reports_its_base_first():
    # singleton stalks over M3 break no presheaf or Boolean set law, but the
    # base is not distributive; the finding replays on the bset raw
    finding = ("lattice.distributivity", ("a", "b", "c"))
    assert laws.scan_balg(M3) == laws.scan(M3_SINGLETONS) == finding
    assert not laws.holds(finding[0], M3_SINGLETONS, finding[1])
    assert laws.holds(finding[0], M3_SINGLETONS, ("a", "a", "b"))
