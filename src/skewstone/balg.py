"""Finite generalized Boolean algebras, kept as their Stone code.

A (generalized) Boolean algebra is a relatively complemented distributive
lattice with a bottom element; a unital one also has a top.  Every finite
lattice with a bottom is automatically unital (the join of all elements is a
top), so the distinction matters only for the infinite objects that are out
of representational reach here.

Only the partial order is taken as input.  Element ids are opaque strings;
the order rows and codes use dense integer indices in input order, which
fixes every deterministic choice downstream.  The order's up and down rows
are built by one pass in topological order, O(n + pairs) row ORs; only
pairs with a cycle are closed by Warshall's loop, to name the witness.
Validation accepts only through the Stone map: an order is a finite Boolean
algebra exactly when it is isomorphic to the powerset of its atoms, which
is checked in O(n·k) for k atoms.  The algebra keeps each element's atom
code; meets, joins and relative complements are read off it as AND, OR
and AND-NOT.  The exhaustive lattice, distributivity (O(n^3) over triples)
and relative-complement scans run only when that check fails, only to name
the first failed law; the intended feasible bound is about 256 elements.
"""

from dataclasses import dataclass, field
from itertools import chain, product
from operator import and_, or_

from .errors import (
    NoBottom,
    NoRelativeComplement,
    NotAHomomorphism,
    NotALattice,
    NotAPoset,
    NotDisjoint,
    NotDistinct,
    NotDistributive,
    ZeroArgument,
)
from ._memo import memo
from .report import Report, _first_witness


def _index_elements(elements):
    elements = tuple(str(e) for e in elements)
    index = {}
    for i, e in enumerate(elements):
        if e in index:
            raise ValueError(f"duplicate element id {e!r}")
        index[e] = i
    return elements, index


def _closure(n, pairs):
    """Reflexive-transitive closure as bitmask rows: up[i] = {j : i <= j}."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]
    return up


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first(mask):
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _transpose(rows, n):
    """Bitmask rows over n columns, transposed: bit i of the j-th result is
    bit j of rows[i]."""
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def _bound(mask, rel):
    """The element i of ``mask`` with ``mask`` inside ``rel[i]``, or -1 if
    there is none: with the down-set masks as ``rel`` the maximum of
    ``mask``, with the up-set masks its minimum."""
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if mask & ~rel[i] == 0:
            return i
        m &= m - 1
    return -1


def _check_poset(elements, index, leq_pairs):
    """The up and down rows of the order the pairs generate.

    The pairs other than (i, i) are edges i -> j; when they hold no cycle,
    one pass in topological order (Kahn's) builds the down rows and one in
    reverse the up rows, each an OR of whole rows per edge.  Only a cycle
    closes the pairs (_closure, _transpose), where NotAPoset names the
    least i below and above some other element, and the least such partner
    j: i is the least element of its cycle, so j > i."""
    n = len(elements)
    pairs = []
    for x, y in leq_pairs:
        if x not in index or y not in index:
            raise ValueError(f"order pair ({x!r}, {y!r}) uses undeclared elements")
        pairs.append((index[x], index[y]))
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in pairs:
        if i != j:
            succ[i].append(j)
            indeg[j] += 1
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # grows while it is read: each j once its last edge is met
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < n:
        up = _closure(n, pairs)
        down = _transpose(up, n)
        for i in range(n):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                raise NotAPoset((elements[i], elements[_first(both)]))
        raise AssertionError("a cycle of order pairs, yet no two elements below each other")
    up = [1 << i for i in range(n)]
    down = up[:]
    for i in order:
        d = down[i]
        for j in succ[i]:
            down[j] |= d
    for i in reversed(order):
        u = up[i]
        for j in succ[i]:
            u |= up[j]
        up[i] = u
    return up, down


class FinMeetSemilattice:
    """Finite meet semilattice over opaque string ids.

    Built by :func:`validate_meet_semilattice`; immutable after construction
    and safe for concurrent reads.
    """

    def __init__(self, elements, index, up, down, meet_table):
        self.elements = elements
        self.index = index
        self._up = up
        self._down = down
        self._meet = meet_table

    def __repr__(self):
        return f"<{type(self).__name__} {len(self.elements)} elements>"

    def leq(self, x, y):
        return self._up[self.index[x]] >> self.index[y] & 1 == 1

    def meet(self, x, y):
        return self.elements[self._meet[self.index[x]][self.index[y]]]

    def down_set(self, x):
        return tuple(map(self.elements.__getitem__, _bits(self._down[self.index[x]])))

    def up_set(self, x):
        return tuple(map(self.elements.__getitem__, _bits(self._up[self.index[x]])))

    @property
    @memo("_covers")
    def cover_pairs(self):
        """Hasse covers as (upper, lower) pairs, in element order."""
        covers = []
        for i, e in enumerate(self.elements):
            strict = self._down[i] & ~(1 << i)
            for j in _bits(strict):
                if self._up[j] & strict == 1 << j:
                    covers.append((e, self.elements[j]))
        return tuple(covers)


def validate_meet_semilattice(elements, leq_pairs):
    elements, index = _index_elements(elements)
    n = len(elements)
    up, down = _check_poset(elements, index, leq_pairs)
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = _bound(down[i] & down[j], down)
            if m < 0:
                raise NotALattice((elements[i], elements[j]), "meet")
            meet[i][j] = m
    return FinMeetSemilattice(elements, index, up, down, meet)


@dataclass(frozen=True)
class FilterSet:
    """A filter ``↑generator`` (or, with dual invariants, an ideal
    ``↓generator``) of a finite algebra; every filter and ideal of a finite
    lattice is principal, and each is built by ``principal_filter`` or
    ``principal_ideal``.

    Equality and hashing look at the member set only; the algebra and the
    generator are context.
    """

    algebra: "FinBooleanAlgebra" = field(compare=False)
    members: frozenset = field()
    generator: str = field(compare=False)

    def __contains__(self, x):
        return x in self.members

    def __repr__(self):
        return f"Filter({sorted(self.members)})"


class FinBooleanAlgebra(FinMeetSemilattice):
    """Validated relatively complemented distributive lattice with bottom,
    kept as its Stone code (_stone_code): ``_code[i]`` is the set of atoms
    below element i, bit k for the k-th atom, and ``_pos[c]`` is the
    element with code c.  No operation table is kept."""

    def __init__(self, elements, index, up, down, bottom_i, code, pos):
        self.elements = elements
        self.index = index
        self._up = up
        self._down = down
        self._bottom_i = bottom_i
        self._code = code
        self._pos = pos

    @property
    def bottom(self):
        return self.elements[self._bottom_i]

    @property
    def top(self):
        return self.elements[self._pos[-1]]

    @property
    @memo("_atoms")
    def atoms(self):
        pos = self._pos
        return tuple(self.elements[pos[1 << k]] for k in range(len(pos).bit_length() - 1))

    def meet(self, x, y):
        code, index = self._code, self.index
        return self.elements[self._pos[code[index[x]] & code[index[y]]]]

    def join(self, x, y):
        code, index = self._code, self.index
        return self.elements[self._pos[code[index[x]] | code[index[y]]]]

    def join_all(self, xs):
        code, index = self._code, self.index
        c = 0
        for x in xs:
            c |= code[index[x]]
        return self.elements[self._pos[c]]

    def rel_complement(self, e, f):
        """The unique c <= e with c ∧ (e∧f) = 0 and c ∨ (e∧f) = e."""
        code, index = self._code, self.index
        return self.elements[self._pos[code[index[e]] & ~code[index[f]]]]

    @property
    @memo("_covers")
    def cover_pairs(self):
        """Hasse covers as (upper, lower) pairs, in element order, read off
        the Stone code: the lower covers of x are the elements whose code is
        x's less one atom bit, in element order.  O(n·k) for k atoms."""
        els, pos = self.elements, self._pos
        return tuple((e, els[j]) for e, c in zip(els, self._code)
                     for j in sorted(pos[c ^ 1 << k] for k in _bits(c)))

    # -- filters and ideals ------------------------------------------------

    def principal_filter(self, x):
        return FilterSet(self, frozenset(self.up_set(x)), x)

    def principal_ideal(self, x):
        return FilterSet(self, frozenset(self.down_set(x)), x)

    def all_filters(self):
        """Every filter, as a principal up-set per generator, in element order."""
        return tuple(self.principal_filter(x) for x in self.elements)

    def all_ideals(self):
        return tuple(self.principal_ideal(x) for x in self.elements)

    # Member sets are bitmasks over the element indices.  A finite set that
    # is upward closed and in which any two members have a lower bound inside
    # has a least member g, so it is the row up[g]; dually an ideal (down
    # closed, closed under joins) is down[g] for its greatest member g.

    def _mask(self, members):
        index = self.index
        m = 0
        for x in members:
            m |= 1 << index[x]
        return m

    def _is_filter_mask(self, m):
        g = _bound(m, self._up)
        return g >= 0 and self._up[g] == m

    def _is_ideal_mask(self, m):
        g = _bound(m, self._down)
        return g >= 0 and self._down[g] == m

    def _is_prime_mask(self, m, op):
        """No two elements outside m have the element of ``op`` (and_ for
        the meet, or_ for the join) of their codes inside m."""
        full = (1 << len(self.elements)) - 1
        inside = [m >> i & 1 for i in self._pos]  # by code
        outside = list(map(self._code.__getitem__, _bits(full & ~m)))
        for k, c in enumerate(outside):  # op is commutative: each pair once
            for d in outside[k:]:
                if inside[op(c, d)]:
                    return False
        return m != full

    def is_filter(self, members):
        return self._is_filter_mask(self._mask(members))

    def is_ideal(self, members):
        return self._is_ideal_mask(self._mask(members))

    def _is_prime_filter_mask(self, m):
        return self._is_filter_mask(m) and self._is_prime_mask(m, or_)

    def is_prime_filter(self, members):
        return self._is_prime_filter_mask(self._mask(members))

    def is_prime_ideal(self, members):
        m = self._mask(members)
        return self._is_ideal_mask(m) and self._is_prime_mask(m, and_)

    @memo("_ultra")
    def ultrafilters(self):
        """All maximal proper filters, ordered by generator index.

        Every filter is a principal up-set, and ↑j ⊋ ↑i iff j < i, so the
        maximal proper ones are the ↑i, i proper, with no proper element
        strictly below i.  The classical properties are then checked on
        them: each ultrafilter is prime, and every non-bottom element lies
        in one.

        They hold when the stored Stone code is the one these generators
        give, which is checked in O(k·n): bit k of ``_code[x]`` is set iff
        x is in ↑ of the k-th generator, and ``_pos`` inverts ``_code``.
        The codes are then a bijection onto the 2^k sets of atoms, the
        bottom's empty, so the codes outside ↑ of the k-th atom lack bit k
        and so do their joins (each ↑atom is prime), and every non-bottom
        element has a nonzero code (lies in some ↑atom).  Only when the
        code fails is each ↑atom checked to be a prime filter, and the
        coverage scanned.
        """
        up, code, pos = self._up, self._code, self._pos
        n = len(self.elements)
        full = (1 << n) - 1
        proper = sum(1 << i for i, row in enumerate(up) if row != full)
        gens = [i for i in _bits(proper) if self._down[i] & proper == 1 << i]
        ultra = tuple(self.principal_filter(self.elements[i]) for i in gens)
        if (code == _transpose(list(map(up.__getitem__, gens)), n)
                and all(pos[c] == i for i, c in enumerate(code))):
            return ultra
        covered = 0
        for i, f in zip(gens, ultra):
            if not self._is_prime_filter_mask(up[i]):
                raise AssertionError(f)
            covered |= up[i]
        missing = full & ~covered & ~(1 << self._bottom_i)
        if missing:
            raise AssertionError(self.elements[_first(missing)])
        return ultra

    def stone_map(self, a):
        """M(a): the set of ultrafilters containing a."""
        return frozenset(f for f in self.ultrafilters() if a in f)


@memo("_umasks")
def _ultra_masks(B):
    """Each ultrafilter's member mask, in B.ultrafilters() order, and each
    element's Stone mask: bit k is set iff the k-th ultrafilter holds it."""
    ultra = [B._mask(u.members) for u in B.ultrafilters()]
    return ultra, _transpose(ultra, len(B.elements))


def _stone_code(n, up, down, bot):
    """The Stone code (code, pos) of the order, or None if it is not a
    Boolean algebra with least element ``bot``.

    The atoms are the elements whose down-set is {bottom, self}, in element
    order; code[x] is the set of atoms below x, bit k for the k-th atom, and
    pos[c] is the element whose code is c.  The order is a Boolean algebra
    with least element ``bot`` exactly when n = 2^k for k atoms and up[x]
    is the set of elements whose code contains code[x] (x <= y iff code(x)
    ⊆ code(y)): finite Stone duality, every finite Boolean algebra is the
    powerset of its atoms.  Then ``bot``, whose code is empty, is least, and
    code is a bijection, as distinct elements have distinct up rows.  That
    set is the AND of the up rows of the atoms in code[x], built for each
    code from the code less its lowest atom, one AND per element; the cost
    is O(n·k).
    """
    full = (1 << n) - 1
    base = 1 << bot
    atoms = [i for i in range(n) if i != bot and down[i] == base | 1 << i]
    if n != 1 << len(atoms):
        return None
    atom_up = [up[a] for a in atoms]
    code = _transpose(atom_up, n)
    above = [full] * n  # above[c]: the elements whose code contains c
    for c in range(1, n):
        above[c] = above[c & c - 1] & atom_up[_first(c)]
    if list(map(above.__getitem__, code)) != up:
        return None
    pos = [0] * n
    for i, c in enumerate(code):
        pos[c] = i
    return code, pos


def validate_balg(elements, leq_pairs, bottom):
    """Validate a partial order as a generalized Boolean algebra.

    Takes the order relation only (reflexive-transitive closure is implied)
    and keeps its Stone code, or raises a diagnostic naming the first failed
    law with a witness tuple.

    Acceptance is decided by the Stone map (see _stone_code), which is
    exact both ways, so the lattice, bottom, distributivity and relative
    complement scans run only on an order it rejects, to name the first
    failed law and its witness.  The scans build no algebra: if none of
    them fails, the Stone map and the laws disagree, which raises
    AssertionError, also under ``python -O``.
    """
    elements, index = _index_elements(elements)
    n = len(elements)
    if bottom not in index:
        raise ValueError(f"declared bottom {bottom!r} is not an element")
    up, down = _check_poset(elements, index, leq_pairs)
    bot = index[bottom]

    stone = _stone_code(n, up, down, bot)
    if stone is not None:
        return FinBooleanAlgebra(elements, index, up, down, bot, *stone)

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = _bound(down[i] & down[j], down)
            if m < 0:
                raise NotALattice((elements[i], elements[j]), "meet")
            meet[i][j] = m
            u = _bound(up[i] & up[j], up)
            if u < 0:
                raise NotALattice((elements[i], elements[j]), "join")
            join[i][j] = u

    not_above = ((1 << n) - 1) & ~up[bot]
    if not_above:
        raise NoBottom((bottom, elements[_first(not_above)]))

    for a in range(n):
        ma = meet[a]
        for b in range(n):
            jb = join[b]
            mab = ma[b]
            for c in range(n):
                if ma[jb[c]] != join[mab][ma[c]]:
                    raise NotDistributive((elements[a], elements[b], elements[c]))

    for b in range(n):
        db = down[b]
        for a in _bits(db):
            if not any(meet[c][a] == bot and join[c][a] == b for c in _bits(db)):
                raise NoRelativeComplement((elements[a], elements[b]))

    raise AssertionError("the Stone map refused an order that every law accepts")


# ------------------------------------------ filters, homomorphisms, powersets

def separating_ultrafilter(B, a, b):
    """First ultrafilter (in generator order) containing exactly one of a, b."""
    if a == b:
        raise NotDistinct((a, b))
    if a == B.bottom or b == B.bottom:
        raise ZeroArgument((a, b))
    for f in B.ultrafilters():
        if (a in f) != (b in f):
            return f
    raise AssertionError(f"no separating ultrafilter for {a!r}, {b!r}")


def _members(f):
    return f.members if isinstance(f, FilterSet) else frozenset(f)


def extend_filter_avoiding_ideal(B, F, I):
    """First ultrafilter containing the filter F and disjoint from the ideal I."""
    fm, im = _members(F), _members(I)
    if not B.is_filter(fm):
        raise ValueError("F is not a filter")
    if not B.is_ideal(im):
        raise ValueError("I is not an ideal")
    common = fm & im
    if common:
        raise NotDisjoint((next(x for x in B.elements if x in common),))
    for u in B.ultrafilters():
        if fm <= u.members and not (im & u.members):
            return u
    raise AssertionError("no extension ultrafilter found")


@dataclass(eq=False)
class BAHom:
    """Validated homomorphism of finite Boolean algebras."""

    source: FinBooleanAlgebra
    target: FinBooleanAlgebra
    mapping: dict


def _refuse_stray_keys(mapping, domain, entry, what):
    """Refuse the first key of ``mapping`` that is not in ``domain``, as a
    ValueError that names it."""
    stray = next((x for x in mapping if x not in domain), None)
    if stray is not None:
        raise ValueError(f"{entry} entry {stray!r} is not {what}")


def _index_map(mapping, source, target, entry, what):
    """The map ``mapping`` from the elements of ``source`` to those of
    ``target`` as target indices in source element order.  A ValueError
    names the first stray key (``entry`` names the map and ``what`` its
    keys), then the first source element without an image, then the first
    image that is not a target element."""
    _refuse_stray_keys(mapping, source.index, entry, what)
    pos = target.index
    out = []
    for x in source.elements:
        if x not in mapping:
            raise ValueError(f"{entry} not total: missing {x!r}")
        y = mapping[x]
        if y not in pos:
            raise ValueError(f"image {y!r} not in target")
        out.append(pos[y])
    return out


def _unpreserved(f, s1, t1, s2, t2):
    """The first (i, j, k), i and j in source order and k = 0 before 1 at
    each pair, where the index map ``f`` does not carry the source table
    s_k to the target table t_k: f[s_k[i][j]] != t_k[f[i]][f[j]]; None if
    f preserves both."""
    for i, fi in enumerate(f):
        s1i, t1i, s2i, t2i = s1[i], t1[fi], s2[i], t2[fi]
        for j, fj in enumerate(f):
            if f[s1i[j]] != t1i[fj]:
                return i, j, 0
            if f[s2i[j]] != t2i[fj]:
                return i, j, 1
    return None


def validate_bahom(mapping, source, target):
    """Check that ``mapping`` is a total map of source elements to target
    elements (_index_map) and a homomorphism (_check_bahom)."""
    _check_bahom(_index_map(mapping, source, target, "map", "a source element"), source, target)
    return BAHom(source, target, dict(mapping))


def _check_bahom(f, source, target):
    """Raise NotAHomomorphism unless the checked index map ``f``
    (_index_map) preserves the bottom, meets and joins.

    Accepted by the atoms (_preserved_by_atoms) in O(n); only a refusal
    reads meet and join tables off the codes and runs the pair scan
    (_unpreserved), to name the first pair whose meet or join is not
    preserved, and finding none raises AssertionError, also under -O.
    """
    if f[source._bottom_i] != target._bottom_i:
        raise NotAHomomorphism((source.bottom,), "bottom")
    if _preserved_by_atoms(f, source, target):
        return
    # the source and target meet tables, then the join tables
    tables = [[[B._pos[op(c, d)] for d in B._code] for c in B._code]
              for op in (and_, or_) for B in (source, target)]
    bad = _unpreserved(f, *tables)
    if bad is None:
        raise AssertionError("the atom check refused a map that preserves every meet and join")
    i, j, k = bad
    raise NotAHomomorphism((source.elements[i], source.elements[j]), ("meet", "join")[k])


def _preserved_by_atoms(f, source, target):
    """Whether the index map ``f`` preserves meets and joins, given that it
    keeps the bottom: iff the target codes of the images of the atoms are
    pairwise disjoint (their sum is their OR) and every element's image
    code is the OR of the image codes of the atoms below it.  Exact, as
    every element is the join of its atoms, an atom lies below a join only
    if it lies below a part, and meets distribute over joins in the target."""
    t_code, s_pos = target._code, source._pos
    images = [t_code[f[s_pos[1 << k]]] for k in range(len(s_pos).bit_length() - 1)]
    joined = [0] * len(s_pos)  # joined[c]: the OR of the images of the atoms in c
    for c in range(1, len(s_pos)):
        joined[c] = joined[c & c - 1] | images[_first(c)]
    return sum(images) == joined[-1] and all(
        joined[c] == t_code[fx] for c, fx in zip(source._code, f))


def is_proper_hom(h):
    """True iff every target element lies below some image element: a
    homomorphism is monotone, so iff it maps the top to the top."""
    return h.mapping[h.source.top] == h.target.top


# -------------------------------------------------------------------- helpers

def powerset_balg(points, render):
    """Powerset Boolean algebra of a finite point set.

    ``render`` turns a frozenset of points into an element id.  Returns
    (algebra, id_of, set_of) with both direction maps; subsets are ordered by
    binary counting over the point order, so the output is deterministic.
    """
    points = tuple(points)
    n = len(points)
    subsets = [frozenset(map(points.__getitem__, _bits(mask))) for mask in range(1 << n)]
    id_of, set_of = {}, {}
    for s in subsets:
        sid = render(s)
        if sid in set_of or s in id_of:
            raise ValueError(f"subset renderer not injective at {sid!r}")
        id_of[s] = sid
        set_of[sid] = s
    ids = list(id_of.values())
    # the covers s < s + {p}; validate_balg closes them into the order
    pairs = [(ids[m], ids[m | 1 << p]) for m in range(1 << n) for p in range(n) if not m >> p & 1]
    alg = validate_balg(ids, pairs, ids[0])
    return alg, id_of, set_of


def render_braces(points):
    """Canonical ``{u,v}`` subset id, members in input order."""
    def render(s, _points=tuple(points)):
        return "{" + ",".join(p for p in _points if p in s) + "}"
    return render


def classical_properties_report(B):
    """The seven classical facts about filters and ideals, checked
    exhaustively: nonzero elements lie in ultrafilters, ultrafilters are the
    prime filters, maximal proper ideals are the prime ideals, whose
    complements are prime filters, disjoint filters and ideals are split by
    ultrafilters, distinct nonzero elements are separated, and the Stone map
    is an isomorphism onto the ultrafilter powerset.  A failure names its
    first witness in element order, filters and ideals by generator.
    """
    els, n, bot, code, pos = B.elements, len(B.elements), B._bottom_i, B._code, B._pos
    full = (1 << n) - 1
    ultra = B.ultrafilters()
    U, stone = _ultra_masks(B)
    filters = [(f.generator, B._mask(f.members)) for f in B.all_filters()]
    ideals = [(i.generator, B._mask(i.members)) for i in B.all_ideals()]
    nonzero = [i for i in range(n) if i != bot]
    primes = {m for _, m in filters if B._is_prime_filter_mask(m)}
    proper = [m for _, m in ideals if m != full]
    maximal = [m != full and not any(m | p == p != m for p in proper) for _, m in ideals]
    prime_ideal = [B._is_ideal_mask(m) and B._is_prime_mask(m, and_) for _, m in ideals]
    # per filter the ultrafilters holding it, per ideal those missing it
    contain = [sum(1 << k for k, u in enumerate(U) if m | u == u) for _, m in filters]
    avoid = [sum(1 << k for k, u in enumerate(U) if not m & u) for _, m in ideals]
    images = set(stone)
    return Report([
        _first_witness("nonzero_in_ultrafilter", ((els[i],) for i in nonzero if not stone[i])),
        _first_witness("ultrafilters_are_prime_filters", chain(
            ((u.generator,) for u, m in zip(ultra, U) if m not in primes),
            ((g,) for g, m in filters if m in primes and m not in U))),
        _first_witness("maximal_ideals_are_prime", (
            (g,) for (g, _), mx, p in zip(ideals, maximal, prime_ideal) if mx != p)),
        _first_witness("prime_ideal_complement_is_prime_filter", (
            (g,) for (g, m), p in zip(ideals, prime_ideal)
            if p and not B._is_prime_filter_mask(full & ~m))),
        _first_witness("filter_extension_avoiding_ideal", (
            (f, i) for (f, fm), c in zip(filters, contain) for (i, im), a in zip(ideals, avoid)
            if not fm & im and not c & a)),
        _first_witness("separation_of_distinct_nonzero", (
            (els[a], els[b]) for a in nonzero for b in nonzero if a != b and stone[a] == stone[b])
            if len({stone[i] for i in nonzero}) < len(nonzero) else ()),
        _first_witness("stone_map_isomorphism", chain(
            ((els[a], els[b]) for a, b in product(range(n), repeat=2)
             if a != b and stone[a] == stone[b]
             or stone[pos[code[a] & code[b]]] != stone[a] & stone[b]
             or stone[pos[code[a] | code[b]]] != stone[a] | stone[b]),
            ((B.bottom,),) if stone[bot] else (),
            ((u.generator,) for k, u in enumerate(ultra) if 1 << k not in images))),
    ])


def _atom_join_map(A, B, amap):
    """Each element of A to the join in B of the images of the atoms below it."""
    return {e: B.join_all(amap[a] for a in A.atoms if A.leq(a, e)) for e in A.elements}

