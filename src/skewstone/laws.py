"""Standalone law checks over raw structure data.

These run directly on parsed stanza data (element lists, order pairs,
Cayley tables, stalk/restriction maps) with naive set arithmetic, kept
deliberately independent of the optimized validators so a reported
(law, witness) pair can be confirmed, and an accepted structure can be
re-scanned, through a second route.

Raw shapes:
    balg:  {"kind": "balg", "elements": [...], "leq": [(x, y), ...], "bottom": id}
    skew:  {"kind": "skew", "elements": [...], "zero": id,
            "circ": rows, "bullet": rows}          (rows in element order;
                                                    a band has no bullet)
    bset:  {"kind": "bset", "base": <balg raw>, "stalks": {e: [...]},
            "restrict": {(e, f): {x: y}}}

Each law is written once, as ``law(env, witnesses)``, and returns the
first witness at which it fails, or None.  ``env`` is what the laws read
of one structure, built once per ``holds`` or ``scan`` call: for a balg,
the order closure, with meets and joins kept as they are found; for a
skew raw, the circ and bullet tables as dicts, each built when a law
first reads it; for a bset, the base's environment, stalks and covers,
with the composite restrictions built when first read.  ``holds`` passes
one witness; each ``scan_*`` passes every witness of each law, law after
law, in the validators' order.
"""

from collections import Counter, namedtuple
from functools import cached_property, partial
from itertools import chain, product


def _first(env, plan):
    """The first (law, witness) of a failing law of ``plan``, a sequence of
    (law name, witnesses), or None."""
    for law, witnesses in plan:
        bad = LAWS[law].check(env, witnesses)
        if bad is not None:
            return law, bad
    return None


# ------------------------------------------------------------- naive order

def _closure(elements, pairs):
    up = {e: {e} for e in elements}
    for x, y in pairs:
        up[x].add(y)
    changed = True
    while changed:
        changed = False
        for e in elements:
            new = set().union(*(up[f] for f in up[e]))
            if new != up[e]:
                up[e], changed = new, True
    return up


class _Bounds(dict):
    """(x, y) -> the first z with le(z, x) and le(z, y) that every such z is
    le-below, or None: meets for le = ≤, joins for le = ≥.  Each is searched
    for when first read, and kept."""

    def __init__(self, elements, le):
        super().__init__()
        self.elements, self.le = elements, le

    def __missing__(self, key):
        le, (x, y) = self.le, key
        bounds = [z for z in self.elements if le(z, x) and le(z, y)]
        self[key] = found = next((m for m in bounds if all(le(z, m) for z in bounds)), None)
        return found


class _Balg:
    """A raw order with a bottom: ``up[x]`` is the set of elements above x,
    ``meet[x, y]`` and ``join[x, y]`` are None where there is none."""

    def __init__(self, raw):
        self.elements, self.bottom = raw["elements"], raw["bottom"]
        up = self.up = _closure(self.elements, raw["leq"])
        self.meet = _Bounds(self.elements, lambda a, b: b in up[a])
        self.join = _Bounds(self.elements, lambda a, b: a in up[b])


# --------------------------------------------------------------- balg laws

def order_antisymmetry(env, witnesses):
    up = env.up
    return next(((x, y) for x, y in witnesses if x != y and y in up[x] and x in up[y]), None)


def meet_exists(env, witnesses):
    return next(((x, y) for x, y in witnesses if env.meet[x, y] is None), None)


def join_exists(env, witnesses):
    return next(((x, y) for x, y in witnesses if env.join[x, y] is None), None)


def lattice_distributivity(env, witnesses):
    """a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), with b ∨ c, a ∧ b and a ∧ c defined."""
    meet, join = env.meet, env.join
    for a, b, c in witnesses:
        bc, ab, ac = join[b, c], meet[a, b], meet[a, c]
        if bc is None or ab is None or ac is None or meet[a, bc] != join[ab, ac]:
            return a, b, c
    return None


def lattice_bottom(env, witnesses):
    """At (bottom, x): bottom ≤ x."""
    return next(((b, x) for b, x in witnesses if x not in env.up[b]), None)


def lattice_relative_complement(env, witnesses):
    """At (a, b) with a ≤ b: some c ≤ b has c ∧ a = bottom and c ∨ a = b."""
    up, meet, join = env.up, env.meet, env.join
    return next(((a, b) for a, b in witnesses if b in up[a] and not any(
        b in up[c] and meet[c, a] == env.bottom and join[c, a] == b for c in env.elements
    )), None)


def scan_balg(raw):
    """First violated (law, witness) over the whole structure, or None."""
    return _scan_balg_env(_Balg(raw))


def _scan_balg_env(env):
    els = env.elements
    pairs = [(x, y) for x in els for y in els]
    found = _first(env, [("order.antisymmetry", pairs)])
    if found:
        return found
    # meet, then join, pair by pair: a missing join is reported only at a
    # pair before the first missing meet
    meet = meet_exists(env, pairs)
    join = join_exists(env, pairs if meet is None else pairs[:pairs.index(meet)])
    if join is not None:
        return "order.join_exists", join
    if meet is not None:
        return "order.meet_exists", meet
    return _first(env, [
        ("lattice.bottom", [(env.bottom, x) for x in els]),
        ("lattice.distributivity", product(els, repeat=3)),
        ("lattice.relative_complement", [(a, b) for b in els for a in els]),
    ])


# --------------------------------------------------------------- skew laws

class _Skew(dict):
    """A raw band or skew algebra: ``env["circ"][x][y]`` is x∘y and
    ``env["bullet"][x][y]`` is x•y, each table built when first read.  A
    table entry that is not an element raises ValueError at once, in
    validate's words: the first in element order, circ before bullet."""

    def __init__(self, raw):
        super().__init__()
        self.raw, self.elements, self.zero = raw, raw["elements"], raw.get("zero")
        ids = set(self.elements)
        for op in ("circ", "bullet"):
            bad = next((v for row in raw.get(op) or () for v in row if v not in ids), None)
            if bad is not None:
                raise ValueError(f"{op} entry {bad!r} is not an element")

    def __missing__(self, op):
        els = self.elements
        self[op] = table = {x: dict(zip(els, row)) for x, row in zip(els, self.raw[op])}
        return table


def band_idempotent(env, witnesses, op):
    t = env[op]
    return next(((x,) for (x,) in witnesses if t[x][x] != x), None)


def band_assoc(env, witnesses, op):
    t = env[op]
    return next(((x, y, z) for x, y, z in witnesses if t[t[x][y]][z] != t[x][t[y][z]]), None)


def band_right_normal(env, witnesses):
    """x∘y∘z = y∘x∘z; at a pair (x, y), x∘y∘x = y∘x (right regularity)."""
    c = env["circ"]
    for w in witnesses:
        if len(w) == 2:
            x, y = w
            bad = c[c[x][y]][x] != c[y][x]
        else:
            x, y, z = w
            bad = c[c[x][y]][z] != c[c[y][x]][z]
        if bad:
            return w
    return None


def skew_sb1(env, witnesses):
    c, b = env["circ"], env["bullet"]
    return next(((x, y) for x, y in witnesses if not (
        c[x][b[x][y]] == x and c[b[y][x]][x] == x and b[x][c[x][y]] == x and b[c[y][x]][x] == x
    )), None)


def skew_sb2(env, witnesses):
    c, b = env["circ"], env["bullet"]
    return next(((x, y) for x, y in witnesses
                 if c[c[x][y]][x] != c[y][x] or b[b[x][y]][x] != b[x][y]), None)


def skew_sb3(env, witnesses):
    c, b = env["circ"], env["bullet"]
    return next(((x, y) for x, y in witnesses
                 if (b[x][y] == b[y][x]) != (c[x][y] == c[y][x])), None)


def skew_sb4(env, witnesses):
    c, z = env["circ"], env.zero
    return next(((x,) for (x,) in witnesses if c[z][x] != z or c[x][z] != z), None)


def skew_sb5(env, witnesses):
    """x↓ = {x∘s∘x} must be a generalized Boolean algebra under the natural
    order, with the zero as its bottom."""
    c, els = env["circ"], env.elements
    for (x,) in witnesses:
        down = {c[c[x][s]][x] for s in els}
        members = [u for u in els if u in down]
        sub = {"kind": "balg", "elements": members, "bottom": env.zero,
               "leq": [(u, v) for u in members for v in members if c[u][v] == u]}
        if env.zero not in down or scan_balg(sub) is not None:
            return (x,)
    return None


def _check_zero(raw):
    if raw.get("zero") not in raw["elements"]:
        raise ValueError("the skew algebra declares no zero among its elements, "
                         "which skew.SB4 and skew.SB5 read")


def scan_skew(raw):
    """The first violation of a band (no bullet) or skew algebra, in the
    validators' order: each law runs over all its witnesses before the next
    one.  The band laws come first, for circ and then bullet; a band ends
    with right normality over pairs, then triples; a skew algebra with
    SB1, SB2 and SB3 over pairs, SB4 and SB5 over elements, and right
    normality of circ over triples.  A skew algebra needs a zero (_check_zero)."""
    if raw.get("bullet") is not None:
        _check_zero(raw)
    els = raw["elements"]
    singles = [(x,) for x in els]
    pairs = [(x, y) for x in els for y in els]
    ops = ["circ"] + (["bullet"] if raw.get("bullet") is not None else [])
    plan = []
    for op in ops:
        plan += [(f"band.idempotent.{op}", singles),
                 (f"band.assoc.{op}", product(els, repeat=3))]
    if raw.get("bullet") is None:
        plan.append(("band.right_normal", chain(pairs, product(els, repeat=3))))
    else:
        plan += [("skew.SB1", pairs), ("skew.SB2", pairs), ("skew.SB3", pairs),
                 ("skew.SB4", singles), ("skew.SB5", singles),
                 ("band.right_normal", product(els, repeat=3))]
    return _first(_Skew(raw), plan)


# --------------------------------------------------------------- bset laws

class _Bset:
    """A raw Boolean set over its base's environment ``base``: ``stalks``
    over the base elements, the carrier in stalk order, the pairs (e, f)
    with f < e (``below``), the Hasse covers among them and the base
    element whose stalk holds each element (``stalk_of``)."""

    def __init__(self, raw):
        self.base = _Balg(raw["base"])
        els, up = self.base.elements, self.base.up
        self.raw_stalks, self.restrict = raw["stalks"], raw["restrict"]
        self.stalks = {e: list(raw["stalks"].get(e, [])) for e in els}
        self.carrier = [x for e in els for x in self.stalks[e]]
        self.below = [(e, f) for e in els for f in els if f != e and e in up[f]]
        self.covers = [(e, f) for e, f in self.below if not any(
            g != e and g != f and e in up[g] and g in up[f] for g in els)]
        self.stalk_of = {x: e for e in els for x in self.stalks[e]}
        self._chains = {}

    def chains(self, e, f):
        """Every chain of covers from e down to f, as tuples of base ids."""
        if (e, f) not in self._chains:
            self._chains[e, f] = [(e,)] if e == f else [
                (e,) + rest for u, lo in self.covers
                if u == e and lo in self.base.up[f] for rest in self.chains(lo, f)]
        return self._chains[e, f]

    def compose(self, chain, x):
        """x restricted along a chain of base ids; None where a map is missing."""
        for u, lo in zip(chain, chain[1:]):
            m = self.restrict.get((u, lo), {})
            if x not in m:
                return None
            x = m[x]
        return x

    def _path_witnesses(self):
        for e, f in self.below:
            first, *others = self.chains(e, f)
            for x in self.stalks[e]:
                for other in others:
                    yield x, ">".join(first), ">".join(other)

    @cached_property
    def presheaf_failure(self):
        """The first violated presheaf (law, witness), or None."""
        return _first(self, [
            ("presheaf.stalk_disjoint", [(x,) for x in self.carrier]),
            ("presheaf.restriction",
             [(e, f, x) for e, f in self.covers for x in self.stalks[e]]),
            ("presheaf.path_independence", self._path_witnesses()),
        ])

    @cached_property
    def rest(self):
        """x -> {f: x restricted to f} for p(x) and each f below it; None
        when a presheaf law fails."""
        if self.presheaf_failure is not None:
            return None
        rest = {x: {e: x} for e in self.base.elements for x in self.stalks[e]}
        for e, f in self.below:
            first = self.chains(e, f)[0]
            for x in self.stalks[e]:
                rest[x][f] = self.compose(first, x)
        return rest

    def leq(self, x, y):
        """x ≤ y: y restricted to x's stalk is x."""
        return self.rest.get(y, {}).get(self.stalk_of.get(x)) == x


def presheaf_restriction(env, witnesses):
    """The map for (e, f) exists, is total on e's stalk and lands in f's
    stalk; at (e, f, x) only x is checked.  A missing map is allowed only
    from an empty stalk."""
    def holds_at(e, f, *xs):
        m = env.restrict.get((e, f))
        if m is None:
            return not env.stalks[e]
        return all(x in m and m[x] in env.stalks[f] for x in xs or env.stalks[e])
    return next((w for w in witnesses if not holds_at(*w)), None)


def presheaf_path_independence(env, witnesses):
    """At (x, chain, chain), chains of base ids joined by '>': restricting x
    along each gives one defined value."""
    def holds_at(x, *chains):
        values = {env.compose(ch.split(">"), x) for ch in chains}
        return len(values) == 1 and None not in values
    return next((w for w in witnesses if not holds_at(*w)), None)


def presheaf_stalk_disjoint(env, witnesses):
    count = Counter(x for members in env.raw_stalks.values() for x in members)
    return next(((x,) for (x,) in witnesses if count[x] > 1), None)


def bset_global_support(env, witnesses):
    return next(((e,) for (e,) in witnesses if not env.raw_stalks.get(e)), None)


def bset_zero_stalk(env, witnesses):
    """The stalk over the bottom has at most one member; the witness is not
    read."""
    if len(env.raw_stalks.get(env.base.bottom, [])) <= 1:
        return None
    return next(iter(witnesses), None)


def bset_minimum(env, witnesses):
    """Some element lies below every element; the witness is not read."""
    carrier = env.carrier
    if env.rest is not None and any(all(env.leq(z, x) for x in carrier) for z in carrier):
        return None
    return next(iter(witnesses), None)


def bset_compatible_join(env, witnesses):
    """A compatible pair (its meet lies over the meet of their stalks) has a
    least upper bound."""
    for x, y in witnesses:
        if env.rest is None:
            return x, y
        leq, carrier, p = env.leq, env.carrier, env.stalk_of.get
        lower = [z for z in carrier if leq(z, x) and leq(z, y)]
        meets = [m for m in lower if all(leq(z, m) for z in lower)]
        if meets and p(meets[0]) == env.base.meet[p(x), p(y)]:
            upper = [z for z in carrier if leq(x, z) and leq(y, z)]
            if not any(all(leq(j, z) for z in upper) for j in upper):
                return x, y
    return None


def scan_bset(raw):
    """The base's first finding, then the presheaf's, then the Boolean set's."""
    env = _Bset(raw)
    zero_stalk = env.stalks[env.base.bottom]
    return _scan_balg_env(env.base) or env.presheaf_failure or _first(env, [
        ("bset.global_support", [(e,) for e in env.base.elements]),
        ("bset.zero_stalk", [tuple(zero_stalk[:2])]),
        ("bset.minimum", [tuple(zero_stalk[:1])]),
        ("bset.compatible_join", [(x, y) for x in env.carrier for y in env.carrier]),
    ])


# ----------------------------------------------------------------- registry

# kinds: the raw structures a law is a law of ("band" is a skew raw with no
# bullet).  forms: the witnesses its validators and scan give, one letter
# per entry: x an element (of the carrier, for a bset), e a base element,
# > a chain of base elements joined by '>'.
_Law = namedtuple("_Law", "check kinds forms")
_BALG, _BAND, _SKEW, _BSET = ("balg",), ("band", "skew"), ("skew",), ("bset",)
_NAMES = {"balg": "Boolean algebra", "band": "band", "skew": "skew algebra",
          "bset": "Boolean set"}

LAWS = {
    "order.antisymmetry": _Law(order_antisymmetry, _BALG, ("xx",)),
    "order.meet_exists": _Law(meet_exists, _BALG, ("xx",)),
    "order.join_exists": _Law(join_exists, _BALG, ("xx",)),
    "lattice.distributivity": _Law(lattice_distributivity, _BALG, ("xxx",)),
    "lattice.bottom": _Law(lattice_bottom, _BALG, ("xx",)),
    "lattice.relative_complement": _Law(lattice_relative_complement, _BALG, ("xx",)),
    "band.idempotent.circ": _Law(partial(band_idempotent, op="circ"), _BAND, ("x",)),
    "band.idempotent.bullet": _Law(partial(band_idempotent, op="bullet"), _SKEW, ("x",)),
    "band.assoc.circ": _Law(partial(band_assoc, op="circ"), _BAND, ("xxx",)),
    "band.assoc.bullet": _Law(partial(band_assoc, op="bullet"), _SKEW, ("xxx",)),
    "band.right_normal": _Law(band_right_normal, _BAND, ("xx", "xxx")),
    "skew.SB1": _Law(skew_sb1, _SKEW, ("xx",)),
    "skew.SB2": _Law(skew_sb2, _SKEW, ("xx",)),
    "skew.SB3": _Law(skew_sb3, _SKEW, ("xx",)),
    "skew.SB4": _Law(skew_sb4, _SKEW, ("x",)),
    "skew.SB5": _Law(skew_sb5, _SKEW, ("x",)),
    "presheaf.restriction": _Law(presheaf_restriction, _BSET, ("ee", "eex")),
    "presheaf.path_independence": _Law(presheaf_path_independence, _BSET, ("x>>",)),
    "presheaf.stalk_disjoint": _Law(presheaf_stalk_disjoint, _BSET, ("x",)),
    "bset.global_support": _Law(bset_global_support, _BSET, ("e",)),
    "bset.zero_stalk": _Law(bset_zero_stalk, _BSET, ("xx",)),
    "bset.minimum": _Law(bset_minimum, _BSET, ("x",)),
    "bset.compatible_join": _Law(bset_compatible_join, _BSET, ("xx",)),
}


def _check_witness(law, raw, witness):
    """Raise ValueError unless ``law`` is a law of ``raw`` and ``witness``
    has one of its forms, with an id of the structure at each entry."""
    kind = raw["kind"]
    if kind == "skew" and raw.get("bullet") is None:
        kind = "band"
    if kind not in LAWS[law].kinds:
        raise ValueError(f"{law} is not a law of a {_NAMES.get(kind, kind)}")
    form = next((f for f in LAWS[law].forms if len(f) == len(witness)), None)
    if form is None:
        lengths = " or ".join(str(len(f)) for f in LAWS[law].forms)
        raise ValueError(f"{law} takes a witness of {lengths} ids, not {len(witness)}")
    if kind == "bset":
        base = set(raw["base"]["elements"])
        ids = {"x": {x for members in raw["stalks"].values() for x in members},
               "e": base, ">": base}
    else:
        ids = {"x": set(raw["elements"])}
    for slot, entry in zip(form, witness):
        for part in entry.split(">") if slot == ">" else [entry]:
            if part not in ids[slot]:
                of = _NAMES[kind] if slot == "x" else "base"
                raise ValueError(f"{law}: {part!r} is not an element of the {of}")


def holds(law, raw, witness):
    """Whether the named law holds at the witness; False confirms a violation.

    A Boolean algebra law of a bset raw is evaluated on its base, as
    scan_bset reports the base's findings.  Raises ValueError, before
    evaluating anything, when the law is unknown or not a law of ``raw``'s
    kind, when the witness has no form that the validators and ``scan``
    give the law (a length, and an id of the structure at each entry), when
    the law reads a zero that the skew raw does not declare, or when a skew
    raw's table holds an entry that is not an element (_Skew)."""
    if law not in LAWS:
        raise ValueError(f"unknown law {law!r}")
    witness = tuple(witness)
    if raw["kind"] == "bset" and LAWS[law].kinds == _BALG:
        raw = raw["base"]
    _check_witness(law, raw, witness)
    if law in ("skew.SB4", "skew.SB5"):
        _check_zero(raw)
    env = {"balg": _Balg, "skew": _Skew, "bset": _Bset}[raw["kind"]](raw)
    return LAWS[law].check(env, [witness]) is None


def scan(raw):
    """Exhaustive scan of all laws for the raw kind; first violation or None."""
    scans = {"balg": scan_balg, "skew": scan_skew, "bset": scan_bset}
    if raw["kind"] not in scans:
        raise ValueError(f"no law scan for kind {raw['kind']!r}")
    return scans[raw["kind"]](raw)
