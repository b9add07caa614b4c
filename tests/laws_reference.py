"""Standalone law checks over raw structure data.

(The reference copy of ``skewstone.laws`` from before each law was written
once, as ``law(env, witnesses)`` over tables built once per call; kept
unchanged for ``test_oracle_reference.py``.)

These run directly on parsed stanza data (element lists, order pairs,
Cayley tables, stalk/restriction maps) with naive set arithmetic, kept
deliberately independent of the optimized validators so a reported
(law, witness) pair can be confirmed, and an accepted structure can be
re-scanned, through a second route.

Raw shapes:
    balg:  {"kind": "balg", "elements": [...], "leq": [(x, y), ...], "bottom": id}
    skew:  {"kind": "skew", "elements": [...], "zero": id,
            "circ": rows, "bullet": rows}          (rows in element order)
    bset:  {"kind": "bset", "base": <balg raw>, "stalks": {e: [...]},
            "restrict": {(e, f): {x: y}}}
"""

# ------------------------------------------------------------- naive order

def _closure(elements, pairs):
    up = {e: {e} for e in elements}
    for x, y in pairs:
        up[x].add(y)
    changed = True
    while changed:
        changed = False
        for e in elements:
            new = set(up[e])
            for f in up[e]:
                new |= up[f]
            if new != up[e]:
                up[e] = new
                changed = True
    return up


def _meet(elements, up, x, y):
    lower = [z for z in elements if x in up[z] and y in up[z]]
    for m in lower:
        if all(m in up[z] for z in lower):
            return m
    return None


def _join_simple(elements, up, x, y):
    upper = [z for z in elements if z in up[x] and z in up[y]]
    for j in upper:
        if all(z in up[j] for z in upper):
            return j
    return None


# --------------------------------------------------------------- balg laws

def order_antisymmetry(raw, witness):
    up = _closure(raw["elements"], raw["leq"])
    x, y = witness
    return not (x != y and y in up[x] and x in up[y])


def meet_exists(raw, witness):
    up = _closure(raw["elements"], raw["leq"])
    x, y = witness
    return _meet(raw["elements"], up, x, y) is not None


def join_exists(raw, witness):
    up = _closure(raw["elements"], raw["leq"])
    x, y = witness
    return _join_simple(raw["elements"], up, x, y) is not None


def lattice_distributivity(raw, witness):
    els = raw["elements"]
    up = _closure(els, raw["leq"])
    a, b, c = witness
    bc = _join_simple(els, up, b, c)
    ab = _meet(els, up, a, b)
    ac = _meet(els, up, a, c)
    if bc is None or ab is None or ac is None:
        return False
    return _meet(els, up, a, bc) == _join_simple(els, up, ab, ac)


def lattice_bottom(raw, witness):
    up = _closure(raw["elements"], raw["leq"])
    bottom = witness[0]
    x = witness[1] if len(witness) > 1 else None
    if x is None:
        return all(e in up[bottom] for e in raw["elements"])
    return x in up[bottom]


def lattice_relative_complement(raw, witness):
    els = raw["elements"]
    up = _closure(els, raw["leq"])
    a, b = witness
    if b not in up[a]:
        return True
    bottom = raw["bottom"]
    for c in els:
        if b in up[c] and _meet(els, up, c, a) == bottom and _join_simple(els, up, c, a) == b:
            return True
    return False


def scan_balg(raw):
    """First violated (law, witness) over the whole structure, or None."""
    els = raw["elements"]
    up = _closure(els, raw["leq"])
    for x in els:
        for y in els:
            if x != y and y in up[x] and x in up[y]:
                return "order.antisymmetry", (x, y)
    for x in els:
        for y in els:
            if _meet(els, up, x, y) is None:
                return "order.meet_exists", (x, y)
            if _join_simple(els, up, x, y) is None:
                return "order.join_exists", (x, y)
    bottom = raw["bottom"]
    for x in els:
        if x not in up[bottom]:
            return "lattice.bottom", (bottom, x)
    for a in els:
        for b in els:
            for c in els:
                if not lattice_distributivity(raw, (a, b, c)):
                    return "lattice.distributivity", (a, b, c)
    for b in els:
        for a in els:
            if b in up[a] and not lattice_relative_complement(raw, (a, b)):
                return "lattice.relative_complement", (a, b)
    return None


# --------------------------------------------------------------- skew laws

def _table(raw, op):
    els = raw["elements"]
    rows = raw[op]
    return {
        (els[i], els[j]): rows[i][j]
        for i in range(len(els)) for j in range(len(els))
    }


def band_idempotent(raw, witness, op):
    t = _table(raw, op)
    (x,) = witness
    return t[x, x] == x


def band_assoc(raw, witness, op):
    t = _table(raw, op)
    x, y, z = witness
    return t[t[x, y], z] == t[x, t[y, z]]


def skew_sb1(raw, witness):
    c, b = _table(raw, "circ"), _table(raw, "bullet")
    x, y = witness
    return (
        c[x, b[x, y]] == x and c[b[y, x], x] == x
        and b[x, c[x, y]] == x and b[c[y, x], x] == x
    )


def skew_sb2(raw, witness):
    c, b = _table(raw, "circ"), _table(raw, "bullet")
    x, y = witness
    return c[c[x, y], x] == c[y, x] and b[b[x, y], x] == b[x, y]


def skew_sb3(raw, witness):
    c, b = _table(raw, "circ"), _table(raw, "bullet")
    x, y = witness
    return (b[x, y] == b[y, x]) == (c[x, y] == c[y, x])


def skew_sb4(raw, witness):
    c = _table(raw, "circ")
    z = raw["zero"]
    (x,) = witness
    return c[z, x] == z and c[x, z] == z


def skew_sb5(raw, witness):
    """x↓ must be a generalized Boolean algebra under the natural order."""
    c = _table(raw, "circ")
    (x,) = witness
    members = sorted({c[c[x, s], x] for s in raw["elements"]},
                     key=raw["elements"].index)
    pairs = [(u, v) for u in members for v in members if c[u, v] == u]
    sub = {"kind": "balg", "elements": members, "leq": pairs, "bottom": raw["zero"]}
    if raw["zero"] not in members:
        return False
    return scan_balg(sub) is None


def band_right_normal(raw, witness):
    """x∘y∘z = y∘x∘z; at a pair (x, y), x∘y∘x = y∘x (right regularity)."""
    c = _table(raw, "circ")
    if len(witness) == 2:
        x, y = witness
        return c[c[x, y], x] == c[y, x]
    x, y, z = witness
    return c[c[x, y], z] == c[c[y, x], z]


def scan_skew(raw):
    """The first violation of a band (no bullet) or skew algebra, in the
    validators' order: each law runs over all its witnesses before the next
    one.  The band laws come first, for circ and then bullet; a band ends
    with right normality over pairs, then triples; a skew algebra with
    SB1, SB2 and SB3 over pairs, SB4 and SB5 over elements, and right
    normality of circ over triples."""
    els = raw["elements"]
    ops = ["circ"] + (["bullet"] if raw.get("bullet") is not None else [])
    for op in ops:
        t = _table(raw, op)
        for x in els:
            if t[x, x] != x:
                return f"band.idempotent.{op}", (x,)
        for x in els:
            for y in els:
                for z in els:
                    if t[t[x, y], z] != t[x, t[y, z]]:
                        return f"band.assoc.{op}", (x, y, z)
    if raw.get("bullet") is None:
        for x in els:
            for y in els:
                if not band_right_normal(raw, (x, y)):
                    return "band.right_normal", (x, y)
        for x in els:
            for y in els:
                for z in els:
                    if not band_right_normal(raw, (x, y, z)):
                        return "band.right_normal", (x, y, z)
        return None
    for law, holds_at in (("skew.SB1", skew_sb1), ("skew.SB2", skew_sb2),
                          ("skew.SB3", skew_sb3)):
        for x in els:
            for y in els:
                if not holds_at(raw, (x, y)):
                    return law, (x, y)
    for x in els:
        if not skew_sb4(raw, (x,)):
            return "skew.SB4", (x,)
    for x in els:
        if not skew_sb5(raw, (x,)):
            return "skew.SB5", (x,)
    c = _table(raw, "circ")
    for x in els:
        for y in els:
            for z in els:
                if c[c[x, y], z] != c[c[y, x], z]:
                    return "band.right_normal", (x, y, z)
    return None


# --------------------------------------------------------------- bset laws

def _bset_env(raw):
    base = raw["base"]
    els = base["elements"]
    up = _closure(els, base["leq"])
    stalks = {e: list(raw["stalks"].get(e, [])) for e in els}
    covers = []
    for e in els:
        for f in els:
            if f != e and e in up[f] and not any(
                g != e and g != f and e in up[g] and g in up[f] for g in els
            ):
                covers.append((e, f))
    return els, up, stalks, covers


def _chains(up, covers, e, f):
    if e == f:
        return [(e,)]
    out = []
    for u, lo in covers:
        if u == e and lo in up[f]:
            out.extend((e,) + t for t in _chains(up, covers, lo, f))
    return out


def _compose_chain(raw, chain, x):
    v = x
    for u, l in zip(chain, chain[1:]):
        m = raw["restrict"].get((u, l), {})
        if v not in m:
            return None
        v = m[v]
    return v


def presheaf_restriction(raw, witness):
    """Holds when the named cover map exists, is total and lands in the stalk."""
    els, up, stalks, covers = _bset_env(raw)
    e, f = witness[0], witness[1]
    m = raw["restrict"].get((e, f))
    if m is None:
        return not stalks[e]
    if len(witness) > 2:
        x = witness[2]
        return x in m and m[x] in stalks[f]
    return all(x in m and m[x] in stalks[f] for x in stalks[e])


def presheaf_path_independence(raw, witness):
    els, up, stalks, covers = _bset_env(raw)
    x = witness[0]
    chains = [tuple(w.split(">")) for w in witness[1:]]
    values = {_compose_chain(raw, ch, x) for ch in chains}
    return len(values) == 1 and None not in values


def presheaf_stalk_disjoint(raw, witness):
    (x,) = witness
    count = 0
    for e, members in raw["stalks"].items():
        count += list(members).count(x)
    return count <= 1


def bset_global_support(raw, witness):
    (e,) = witness
    return bool(raw["stalks"].get(e))


def bset_zero_stalk(raw, witness):
    bottom = raw["base"]["bottom"]
    return len(raw["stalks"].get(bottom, [])) <= 1


def _bset_full_rest(raw):
    """Full restriction tables, or a (law, witness) violation."""
    els, up, stalks, covers = _bset_env(raw)
    for x in [m for ms in stalks.values() for m in ms]:
        if not presheaf_stalk_disjoint(raw, (x,)):
            return None, ("presheaf.stalk_disjoint", (x,))
    for e, f in covers:
        if not presheaf_restriction(raw, (e, f)):
            bad = next(
                (x for x in stalks[e]
                 if x not in raw["restrict"].get((e, f), {})
                 or raw["restrict"][(e, f)][x] not in stalks[f]),
                None,
            )
            wit = (e, f) if bad is None else (e, f, bad)
            return None, ("presheaf.restriction", wit)
    rest = {}
    for e in els:
        for f in els:
            if f == e or e not in up[f]:
                continue
            chains = _chains(up, covers, e, f)
            for x in stalks[e]:
                vals = [(_compose_chain(raw, ch, x), ch) for ch in chains]
                good = {v for v, _ in vals}
                if len(good) != 1:
                    c1 = vals[0][1]
                    c2 = next(ch for v, ch in vals if v != vals[0][0])
                    return None, (
                        "presheaf.path_independence",
                        (x, ">".join(c1), ">".join(c2)),
                    )
                rest.setdefault(x, {})[f] = vals[0][0]
        for x in stalks[e]:
            rest.setdefault(x, {})[e] = x
    return (els, up, stalks, rest), None


def _bset_leq(env, x, y):
    els, up, stalks, rest = env
    return rest.get(y, {}).get(_p(env, x)) == x


def _p(env, x):
    els, up, stalks, rest = env
    for e, ms in stalks.items():
        if x in ms:
            return e
    raise KeyError(x)


def bset_compatible_join(raw, witness):
    """Holds when the witnessed compatible pair has a least upper bound."""
    env, bad = _bset_full_rest(raw)
    if env is None:
        return False
    els, up, stalks, rest = env
    x, y = witness
    carrier = [m for e in els for m in stalks[e]]
    lower = [z for z in carrier if _bset_leq(env, z, x) and _bset_leq(env, z, y)]
    meets = [m for m in lower if all(_bset_leq(env, z, m) for z in lower)]
    base_meet = _meet(els, up, _p(env, x), _p(env, y))
    compat = bool(meets) and _p(env, meets[0]) == base_meet
    if not compat:
        return True
    upper = [z for z in carrier if _bset_leq(env, x, z) and _bset_leq(env, y, z)]
    return any(all(_bset_leq(env, j, z) for z in upper) for j in upper)


def bset_minimum(raw, witness):
    env, bad = _bset_full_rest(raw)
    if env is None:
        return False
    els, up, stalks, rest = env
    carrier = [m for e in els for m in stalks[e]]
    return any(all(_bset_leq(env, z, x) for x in carrier) for z in carrier)


def scan_bset(raw):
    env, bad = _bset_full_rest(raw)
    if bad is not None:
        return bad
    els, up, stalks, rest = env
    for e in els:
        if not stalks[e]:
            return "bset.global_support", (e,)
    bottom = raw["base"]["bottom"]
    if len(stalks[bottom]) > 1:
        return "bset.zero_stalk", tuple(stalks[bottom][:2])
    if not bset_minimum(raw, ()):
        return "bset.minimum", (stalks[bottom][0],)
    carrier = [m for e in els for m in stalks[e]]
    for x in carrier:
        for y in carrier:
            if not bset_compatible_join(raw, (x, y)):
                return "bset.compatible_join", (x, y)
    return None


# ----------------------------------------------------------------- registry

_BALG_LAWS = {
    "order.antisymmetry": order_antisymmetry,
    "order.meet_exists": meet_exists,
    "order.join_exists": join_exists,
    "lattice.distributivity": lattice_distributivity,
    "lattice.bottom": lattice_bottom,
    "lattice.relative_complement": lattice_relative_complement,
}

_SKEW_LAWS = {
    "band.idempotent.circ": lambda raw, w: band_idempotent(raw, w, "circ"),
    "band.idempotent.bullet": lambda raw, w: band_idempotent(raw, w, "bullet"),
    "band.assoc.circ": lambda raw, w: band_assoc(raw, w, "circ"),
    "band.assoc.bullet": lambda raw, w: band_assoc(raw, w, "bullet"),
    "band.right_normal": band_right_normal,
    "skew.SB1": skew_sb1,
    "skew.SB2": skew_sb2,
    "skew.SB3": skew_sb3,
    "skew.SB4": skew_sb4,
    "skew.SB5": skew_sb5,
}

_BSET_LAWS = {
    "presheaf.restriction": presheaf_restriction,
    "presheaf.path_independence": presheaf_path_independence,
    "presheaf.stalk_disjoint": presheaf_stalk_disjoint,
    "bset.global_support": bset_global_support,
    "bset.zero_stalk": lambda raw, w: bset_zero_stalk(raw, w),
    "bset.minimum": bset_minimum,
    "bset.compatible_join": bset_compatible_join,
}

LAWS = {**_BALG_LAWS, **_SKEW_LAWS, **_BSET_LAWS}


def holds(law, raw, witness):
    """Whether the named law holds at the witness; False confirms a violation."""
    try:
        fn = LAWS[law]
    except KeyError:
        raise ValueError(f"unknown law {law!r}") from None
    return bool(fn(raw, tuple(witness)))


def scan(raw):
    """Exhaustive scan of all laws for the raw kind; first violation or None."""
    kind = raw["kind"]
    if kind == "balg":
        return scan_balg(raw)
    if kind == "skew":
        return scan_skew(raw)
    if kind == "bset":
        return scan_bset(raw)
    raise ValueError(f"no law scan for kind {kind!r}")
