"""Seeded input documents and the answers the benchmark expects for them.

Everything here is computed by the benchmark's own code from the
definitions, never by the code under test:

* product Boolean sets over the powerset of k atoms with stalk sizes s_i:
  the carrier has prod(1 + s_i) elements, x∘y is y's coordinates on
  p(x) ∩ p(y), x•y is x plus y's coordinates off p(x), and the ultrafilters
  are the sum(s_i) sets {x : x_i = l}, s_i of them over atom i;
* etale spaces: the dual Boolean set has prod(1 + |fiber|) sections;
* single-edit mutants in the three edit kinds of the mutation engine in
  the test suite (a ``leq`` pair, a skew table entry, a restriction target),
  kept here as a copy so the benchmark does not import the tests.

The seed permutes stalk and point labels and picks the mutants; the shapes
(and so the work per operation, up to the mutants) do not depend on it.
"""

from itertools import product

ATOM_LETTERS = "abcdefghij"


def _subset_id(mask, atoms):
    if mask == 0:
        return "0"
    if mask == (1 << len(atoms)) - 1:
        return "1"
    return "".join(a for i, a in enumerate(atoms) if mask >> i & 1)


def _elem_id(coords):
    parts = [c for c in coords if c is not None]
    if not parts:
        return "0"
    if len(parts) == 1:
        return parts[0]
    return "(" + ",".join(parts) + ")"


class ProductSet:
    """The product Boolean set with atom stalk sizes ``sizes``, as plain data.

    Ids and listing order follow the documented text format: base elements
    by binary counting over the atoms, stalks in product order.
    """

    def __init__(self, sizes, rng=None, labels=None):
        self.sizes = tuple(sizes)
        k = len(self.sizes)
        self.atoms = ATOM_LETTERS[:k]
        if labels is None:
            labels = []
            for a, s in zip(self.atoms, self.sizes):
                names = [f"{a}{i + 1}" for i in range(s)]
                rng.shuffle(names)
                labels.append(names)
        self.labels = [list(ls) for ls in labels]
        self.masks = list(range(1 << k))
        self.base_ids = [_subset_id(m, self.atoms) for m in self.masks]
        self.coords = []
        self.stalks = {}
        for m in self.masks:
            present = [i for i in range(k) if m >> i & 1]
            stalk = []
            for choice in product(*(self.labels[i] for i in present)):
                c = [None] * k
                for i, v in zip(present, choice):
                    c[i] = v
                self.coords.append(tuple(c))
                stalk.append(_elem_id(c))
            self.stalks[self.base_ids[m]] = stalk
        self.ids = [_elem_id(c) for c in self.coords]
        self.size = len(self.ids)

    # ----------------------------------------------------------- documents

    def covers(self):
        """Hasse covers (upper mask, lower mask) of the base."""
        k = len(self.sizes)
        return [(m, m & ~(1 << i)) for m in self.masks for i in range(k) if m >> i & 1]

    def balg_lines(self, name="B"):
        leq = [f"{self.base_ids[lo]}<={self.base_ids[hi]}" for hi, lo in self.covers()]
        return [f"balg {name} {{",
                f"  elements: {', '.join(self.base_ids)}",
                f"  leq: {', '.join(leq)}",
                "  bottom: 0",
                "}"]

    def restrictions(self):
        """(upper id, lower id) -> {x: x restricted}, in cover order."""
        by_stalk = {}
        for c, x in zip(self.coords, self.ids):
            by_stalk.setdefault(self._mask(c), []).append((c, x))
        out = {}
        for hi, lo in self.covers():
            drop = (hi & ~lo).bit_length() - 1
            out[self.base_ids[hi], self.base_ids[lo]] = {
                x: _elem_id(c[:drop] + (None,) + c[drop + 1:]) for c, x in by_stalk[hi]
            }
        return out

    def bset_lines(self, name="G", base="B", restrict=None):
        restrict = self.restrictions() if restrict is None else restrict
        lines = [f"bset {name} over {base} {{"]
        for e in self.base_ids:
            lines.append(f"  stalk {e}: {', '.join(self.stalks[e])}")
        for (e, f), m in restrict.items():
            lines.append(f"  restrict {e} -> {f}: {', '.join(f'{x}->{y}' for x, y in m.items())}")
        lines.append("}")
        return lines

    def bset_text(self):
        return "\n".join(self.balg_lines() + self.bset_lines()) + "\n"

    @staticmethod
    def _mask(c):
        return sum(1 << i for i, v in enumerate(c) if v is not None)

    def skew_tables(self):
        """circ and bullet as index tables, row-major in carrier order, from
        the formulas."""
        coords = self.coords
        idx = {c: k for k, c in enumerate(coords)}
        circ, bullet = [], []
        for x in coords:
            circ.append([idx[tuple(b if a is not None else None for a, b in zip(x, y))]
                         for y in coords])
            bullet.append([idx[tuple(a if a is not None else b for a, b in zip(x, y))]
                           for y in coords])
        return circ, bullet

    def skew_lines(self, name, circ, bullet):
        return ([f"skew {name} {{", f"  elements: {', '.join(self.ids)}", "  zero: 0",
                 "  circ:"] + self.table_lines(circ)
                + ["  bullet:"] + self.table_lines(bullet) + ["}"])

    def table_lines(self, table):
        ids = self.ids
        return ["    " + " ".join(ids)] + ["    " + " ".join([ids[v] for v in row])
                                          for row in table]

    # ------------------------------------------------------------- answers

    def ultrafilters(self):
        """{(atom id, frozenset of members)}: one class per stalk label."""
        out = set()
        for i, labels in enumerate(self.labels):
            atom = self.base_ids[1 << i]
            for lab in labels:
                out.add((atom, frozenset(x for c, x in zip(self.coords, self.ids)
                                         if c[i] == lab)))
        return out

    def fibers(self):
        """{atom id: number of ultrafilter points over it}."""
        return {self.base_ids[1 << i]: s for i, s in enumerate(self.sizes)}

    def raw_base(self):
        """The base algebra in the raw shape of ``skewstone.laws``."""
        return {"kind": "balg", "elements": list(self.base_ids),
                "leq": [(self.base_ids[lo], self.base_ids[hi]) for hi, lo in self.covers()],
                "bottom": "0"}


class EtaleSpace:
    """A finite etale space with the given fiber sizes, points labelled by seed."""

    def __init__(self, fibers, rng):
        self.fibers = tuple(fibers)
        self.base = [f"u{i + 1}" for i in range(len(self.fibers))]
        names = [f"p{i + 1}" for i in range(sum(self.fibers))]
        rng.shuffle(names)
        self.proj = []
        it = iter(names)
        for x, f in zip(self.base, self.fibers):
            self.proj += [(next(it), x) for _ in range(f)]
        self.total = [e for e, _ in self.proj]

    def text(self, name="E"):
        return "\n".join([
            f"etale {name} {{",
            f"  total: {', '.join(self.total)}",
            f"  base: {', '.join(self.base)}",
            f"  proj: {', '.join(f'{e}->{x}' for e, x in self.proj)}",
            "}"]) + "\n"

    def sections(self):
        n = 1
        for f in self.fibers:
            n *= 1 + f
        return n


# ---------------------------------------------------------------- mutants

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
                up[e] = new
                changed = True
    return up


def balg_mutant(raw, rng, drop):
    """One ``leq`` edit: drop a pair, or add a random one.  Returns (raw,
    valid): the mutant is valid exactly when its order closure is the
    original one."""
    pairs = list(raw["leq"])
    els = raw["elements"]
    if drop:
        pairs.remove(rng.choice(pairs))
    else:
        pairs.append((rng.choice(els), rng.choice(els)))
    mut = {**raw, "leq": pairs}
    return mut, _closure(els, pairs) == _closure(els, raw["leq"])


def bset_mutant(ps, rng, inside):
    """One restriction-target edit of a product Boolean set (raw shape): to
    another element of the target stalk when ``inside`` and there is one,
    else to any other element of the carrier."""
    restrict = {k: dict(v) for k, v in ps.restrictions().items()}
    key = rng.choice(sorted(restrict))
    m = restrict[key]
    x = rng.choice(sorted(m))
    stalk = [w for w in ps.stalks[key[1]] if w != m[x]]
    if stalk and inside:
        m[x] = rng.choice(stalk)
    else:
        m[x] = rng.choice([w for w in sorted(ps.ids) if w != m[x]])
    return {"kind": "bset", "base": ps.raw_base(),
            "stalks": {e: list(v) for e, v in ps.stalks.items()}, "restrict": restrict}


def _edit_breaks_band(t, i, j):
    """True when the edited entry t[i][j] already breaks idempotence or an
    associativity triple through (i, j); a cheap proof that the mutant is
    invalid, with no claim about which law a full scan reports first."""
    if i == j:
        return True
    n = len(t)
    tij = t[i][j]
    for k in range(n):
        if t[tij][k] != t[i][t[j][k]]:
            return True
    for w in range(n):
        if t[t[w][i]][j] != t[w][tij]:
            return True
    return False


def skew_mutant(table, rng, row):
    """One entry edit in row ``row`` of an index table: (column, value).

    Edits that do not visibly break a band law are redrawn, so every mutant
    is known to be invalid.
    """
    n = len(table)
    while True:
        j = rng.randrange(n)
        old = table[row][j]
        v = rng.choice([e for e in range(n) if e != old])
        table[row][j] = v
        broken = _edit_breaks_band(table, row, j)
        table[row][j] = old
        if broken:
            return j, v
