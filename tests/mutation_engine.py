"""Seeded single-edit mutations of raw structure data, for the
negative-witness quality suite: each mutant either validates, in which case
an independent full law scan must find nothing, or is rejected with a
(law, witness) pair that the independent checker must confirm."""

from skewstone import balg, bset, laws, textio
from skewstone.errors import StructureError


def validate_raw(raw):
    """Run the real validators on raw data; the StructureError or None."""
    try:
        if raw["kind"] == "balg":
            balg.validate_balg(raw["elements"], raw["leq"], raw["bottom"])
        elif raw["kind"] == "skew":
            from skewstone import skew
            skew.validate_skew(raw["elements"], raw["circ"], raw["bullet"], raw["zero"])
        elif raw["kind"] == "bset":
            b = raw["base"]
            base = balg.validate_balg(b["elements"], b["leq"], b["bottom"])
            P = bset.validate_presheaf(base, raw["stalks"], raw["restrict"])
            bset.validate_boolean_set(P)
        else:
            raise ValueError(raw["kind"])
    except StructureError as e:
        return e
    return None


def mutate_balg(raw, rng):
    pairs = list(raw["leq"])
    els = raw["elements"]
    if pairs and rng.random() < 0.5:
        pairs.remove(rng.choice(pairs))
    else:
        pairs.append((rng.choice(els), rng.choice(els)))
    return {**raw, "leq": pairs}


def mutate_skew(raw, rng):
    els = raw["elements"]
    op = rng.choice(["circ", "bullet"])
    rows = [list(r) for r in raw[op]]
    i, j = rng.randrange(len(els)), rng.randrange(len(els))
    rows[i][j] = rng.choice([e for e in els if e != rows[i][j]])
    return {**raw, op: rows}


def mutate_bset(raw, rng):
    restrict = {k: dict(v) for k, v in raw["restrict"].items()}
    key = rng.choice(sorted(restrict))
    m = restrict[key]
    x = rng.choice(sorted(m))
    stalk = [w for w in raw["stalks"][key[1]] if w != m[x]]
    if stalk and rng.random() < 0.6:
        # stay inside the target stalk: exercises path independence and joins
        m[x] = rng.choice(stalk)
    else:
        carrier = sorted(w for ms in raw["stalks"].values() for w in ms)
        m[x] = rng.choice([w for w in carrier if w != m[x]])
    return {**raw, "restrict": restrict}


MUTATORS = {"balg": mutate_balg, "skew": mutate_skew, "bset": mutate_bset}


def mutate(raw, rng):
    return MUTATORS[raw["kind"]](raw, rng)


def index_rows(elements, table):
    """The id table ``table`` as the index rows a skew stanza holds."""
    pos = {x: k for k, x in enumerate(elements)}
    return [[pos[v] for v in row] for row in table]


def raw_to_stanzas(raw, name):
    """Stanza list for a raw dict, so mutants can be replayed via the CLI."""
    if raw["kind"] == "balg":
        return [textio.Stanza("balg", name, None, {
            "elements": list(raw["elements"]),
            "leq": [tuple(p) for p in raw["leq"]],
            "bottom": raw["bottom"],
        }, 0)]
    if raw["kind"] == "skew":
        return [textio.Stanza("skew", name, None, {
            "elements": list(raw["elements"]),
            "zero": raw["zero"],
            "circ": index_rows(raw["elements"], raw["circ"]),
            "bullet": index_rows(raw["elements"], raw["bullet"]),
        }, 0)]
    if raw["kind"] == "bset":
        base = raw_to_stanzas(raw["base"], name + "_base")
        return base + [textio.Stanza("bset", name, name + "_base", {
            "stalks": {e: list(ms) for e, ms in raw["stalks"].items()},
            "restrict": {k: dict(v) for k, v in raw["restrict"].items()},
        }, 0)]
    raise ValueError(raw["kind"])


def check_mutant(raw):
    """One mutation outcome: ('accept', None) with a clean scan, or
    ('reject', (law, witness)) with the witness confirmed independently.

    Raises AssertionError on a false accept or a false reject.
    """
    err = validate_raw(raw)
    if err is None:
        found = laws.scan(raw)
        assert found is None, f"false accept: validator passed but scan found {found}"
        return "accept", None
    assert err.law in laws.LAWS, f"unknown law {err.law!r}"
    assert not laws.holds(err.law, raw, err.witness), (
        f"false reject: {err.law} at {err.witness} not confirmed"
    )
    return "reject", (err.law, err.witness)
