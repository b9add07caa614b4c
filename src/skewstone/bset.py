"""Presheaves over finite meet semilattices and Boolean sets.

A presheaf assigns a finite stalk to each base element and a restriction map
to each Hasse covering pair; composite restrictions along longer chains are
derived by the walk that checks path independence, and a presheaf keeps
them, x|f for every f <= p(x), as its one restriction table.  A Boolean set
is a presheaf over a Boolean algebra with global support, a minimum element,
a trivial zero stalk, and joins of compatible pairs.  Path independence is
checked locally, cover by cover inside each down-set, which is exact by
induction along chains, and a parsed presheaf is accepted only by that
walk; the enumeration of every Hasse chain runs only on a failure, and only
to name the two chains that disagree.  A built product of fibers
(``_product_sections``, behind ``generate_boolean_set`` and
``etale.dual_bset``) is accepted by the coordinate certificate below
instead: its restrictions are read off the coordinates its choices give,
which makes them path independent by construction.

A Boolean set is decided by its atom coordinates (``_coordinates``): each
element is coded by one digit per atom a, 0 where a is not below its stalk
and else 1 + the position of its restriction to a in the stalk over a,
each digit packed into a bit field of its own, and each stalk must map one
to one onto the product of the atom stalks below it.  The Boolean set
keeps the codes, the support of each stalk (the bits of the fields of the
atoms below it) and the field of each atom, and every table is read off
them.  Its one operation table is the ∘/• index rows built from them on
first use (``_skew_rows``): x∘y is the element coded code(y) & sup(x) and
x•y the one coded code(x) | code(y) & ~sup(x) (``_coded_rows``); x and y
are compatible iff x∘y = y∘x, and then x ∨ y = x•y.  The exhaustive
least-upper-bound scan over every pair runs only when the coordinates fail,
to name the first compatible pair without a join.  A refusal that either
scan cannot explain is an internal error (AssertionError).  The one order
is the restriction order, x <= y iff x = y|p(x); its bitmask rows
(_order_masks) are built only for meets, bound searches and filter
checks.  Every presheaf's meets are one table (_meet_table), which
meet_elem, has_binary_meets and preserves_meets read.  A Boolean set's
candidates are the elements that keep the coordinates on which each pair
agrees, kept where the order masks confirm them; a bound search answers
where they do not, and for every other presheaf.

This module holds both halves of the paper's theorem, and one coordinate
function and one row kernel serve both.  Forward, a Boolean set's
coordinates are read off its restrictions to the atoms, and its skew tables
are the rows its coordinates give (``_coded_rows``).  Backward, skew tables
are accepted by the atom coordinates read off the ∘ rows of their atom
classes (``_skew_certificate``): the tables must be the rows those
coordinates give, entry by entry, the product of the primitive algebras on
the atom classes plus 0.  Skew algebras (``from_skew``) and right normal
bands (``band_to_presheaf``, ``band_to_bset``) then become presheaves the
same way: stalks are the R classes, which for a right normal ∘ are the
classes of equal ∘ rows (``_row_classes``), over their quotient (a band's
from ``_band_quotient``, a certified algebra's from the supports of its
classes), and restriction is left multiplication by the first member of
the lower class.  A band's presheaf goes through the cover walk
(``_class_presheaf``), which names its refusals.  A skew algebra's Boolean
set is built once, by ``validate_skew``'s certificate route
(``_reconstruct``), straight from the certificate: x|f is r∘x for r in
class f, which the certificate has shown to be the element coded
code(x) & sup(f), so the whole restriction table is read off the certified
∘ rows and no cover walk runs.  The set keeps the certified coordinates,
and it is both that presheaf and what ``from_skew`` returns.
``to_skew(X)`` runs only the certificate's coordinate half on its own
tables, which are X's coordinates run forward: the coordinates read back
off their ∘ rows must be X's (``_read_back``), and the algebra keeps X.
"""

import random
from dataclasses import dataclass
from itertools import accumulate, chain, product, repeat
from math import prod
from operator import and_, itemgetter, ne

from . import balg, skew
from ._memo import memo
from .errors import (
    BM1Violation,
    BM2Violation,
    EmptySizes,
    InternalMissingJoin,
    MissingJoin,
    MissingRestriction,
    NoBinaryMeets,
    NoGlobalSupport,
    NotRightNormal,
    PathDependent,
    StalkCollision,
    StructureError,
    ZeroStalkNotTrivial,
    _band_endpoint,
)


class Presheaf:
    """Validated presheaf of sets; immutable, safe for concurrent reads."""

    def __init__(self, base, stalks, rest):
        self.base = base
        self.stalks = stalks
        self._rest = rest
        self.elements = tuple(
            x for e in base.elements for x in stalks[e]
        )
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.stalk_of = {x: e for e in base.elements for x in stalks[e]}

    def __repr__(self):
        return f"<{type(self).__name__} {len(self.elements)} elements over {len(self.base.elements)}>"

    def p(self, x):
        return self.stalk_of[x]

    def restrict(self, x, f):
        """x|^p(x)_f for f <= p(x)."""
        try:
            return self._rest[x][f]
        except KeyError:
            raise ValueError(f"restriction of {x!r} to {f!r} is not defined") from None

    @property
    def has_global_support(self):
        return all(self.stalks[e] for e in self.base.elements)

    def leq_elem(self, x, y):
        return self._rest[y].get(self.stalk_of[x]) == x

    def meet_elem(self, x, y):
        """Greatest lower bound from the meet table (_meet_table), or None."""
        k = _meet_table(self)[self.index[x]][self.index[y]]
        return self.elements[k] if k >= 0 else None

    def join_elem(self, x, y):
        """Least upper bound by a bound search, or None."""
        above = _order_masks(self)[1]
        k = balg._bound(above[self.index[x]] & above[self.index[y]], above)
        return self.elements[k] if k >= 0 else None

    def compatible_elems(self, x, y):
        """x and y agree on p(x) ∧ p(y), so their restriction there is their meet."""
        m = self.base.meet(self.p(x), self.p(y))
        return self._rest[x][m] == self._rest[y][m]

    @property
    @memo("_has_meets")
    def has_binary_meets(self):
        """Whether the meet table (_meet_table) has a meet for every pair."""
        return all(min(row) >= 0 for row in _meet_table(self))

    def preserves_meets(self, mapping, other):
        """Whether the element map ``mapping`` into the presheaf ``other``
        takes each meet to the meet of the images, compared row by row in
        the two meet tables (_meet_table).  NoBinaryMeets when either side
        lacks a meet."""
        if not self.has_binary_meets or not other.has_binary_meets:
            raise NoBinaryMeets(())
        f = [other.index[mapping[x]] for x in self.elements]
        ty = _meet_table(other)
        return all(list(map(f.__getitem__, row)) == list(map(ty[fi].__getitem__, f))
                   for fi, row in zip(f, _meet_table(self)))

    def circ(self, x, y):
        """x∘y = y restricted to p(x) ∧ p(y)."""
        return self.restrict(y, self.base.meet(self.p(x), self.p(y)))


@memo("_order")
def _order_masks(P):
    """(below, above): bit i of below[j] and bit j of above[i] are set iff
    element i <= element j in the restriction order."""
    n, index = len(P.elements), P.index
    below, above = [0] * n, [0] * n
    for j, y in enumerate(P.elements):
        for x in P._rest[y].values():
            i = index[x]
            below[j] |= 1 << i
            above[i] |= 1 << j
    return below, above


def _lower_covers(base):
    """The lower covers of each base element, in cover_pairs order."""
    lower = {e: [] for e in base.elements}
    for upper, lo in base.cover_pairs:
        lower[upper].append(lo)
    return lower


def _cover_paths(base, lower, e, f):
    """All descending Hasse chains from e to f, as tuples of ids."""
    if e == f:
        return [(e,)]
    out = []
    for lo in lower[e]:
        if base.leq(f, lo):
            out.extend((e,) + rest for rest in _cover_paths(base, lower, lo, f))
    return out


def _local_restrictions(base, stalk_map, cover_maps, lower):
    """Composite restrictions from one walk of ↓e per base element e, or None.

    The walk starts at e and reaches each f in ↓e over a lower cover (g, f)
    from an element g it has already reached; the first such cover fixes the
    values of the stalk of e at f, and every other cover (g, f) inside ↓e
    must give the same values.  When all of them do, composing along any
    descending chain gives those values (by induction along the chain), so
    they are the path-independent composites.  A mismatch means two chains
    disagree, and the caller runs the chain scan to name them.
    """
    rest = {x: {} for e in base.elements for x in stalk_map[e]}
    for e in base.elements:
        xs = stalk_map[e]
        if not xs:
            continue
        vals = {e: xs}
        reached = [e]
        for g in reached:  # grows while it is walked
            vg = vals[g]
            for f in lower[g]:
                v = tuple(map(cover_maps[(g, f)].__getitem__, vg))
                seen = vals.get(f)
                if seen is None:
                    vals[f] = v
                    reached.append(f)
                elif seen != v:
                    return None
        for f in base.down_set(e):
            for x, y in zip(xs, vals[f]):
                rest[x][f] = y
    return rest


def _chain_scan(base, stalk_map, cover_maps, lower):
    """Composes restrictions along every descending chain and raises
    PathDependent at the first element whose chains disagree."""
    for e in base.elements:
        for f in base.down_set(e):
            paths = _cover_paths(base, lower, e, f)
            for x in stalk_map[e]:
                values = []
                for path in paths:
                    v = x
                    for up, lo in zip(path, path[1:]):
                        v = cover_maps[(up, lo)][v]
                    values.append((v, path))
                v0, p0 = values[0]
                for v, pth in values[1:]:
                    if v != v0:
                        raise PathDependent(
                            (x, ">".join(p0), ">".join(pth)),
                            detail=f"{v0!r} vs {v!r}",
                        )


def validate_presheaf(base, stalks, restrictions):
    """Validate stalk and restriction data over an already validated base.

    ``stalks`` maps base elements to sequences of ids (missing keys mean
    empty stalks); ``restrictions`` maps Hasse cover pairs (upper, lower) to
    per-element target maps.  Composite restrictions are checked to be
    path-independent locally: one walk of ↓e per base element e, comparing
    every Hasse cover inside ↓e (see _local_restrictions), at
    O(|stalk(e)| · covers in ↓e) instead of once per descending chain.  Only
    when a cover disagrees does the scan over every chain run, so the
    PathDependent witness (x, chain1, chain2) is the first one it finds;
    finding none raises AssertionError, also under ``python -O``.  The
    presheaf keeps the composites, x|f for every f <= p(x), as its one
    restriction table; the cover maps are only the walk's input.
    """
    stalk_map = {}
    seen = {}
    for e in base.elements:
        members = tuple(str(x) for x in stalks.get(e, ()))
        for x in members:
            if x in seen:
                raise StalkCollision((x,))
            seen[x] = e
        stalk_map[e] = members
    for e in stalks:
        if e not in base.index:
            raise ValueError(f"stalk key {e!r} is not a base element")

    covers = set(base.cover_pairs)
    for pair in restrictions:
        if tuple(pair) not in covers:
            raise ValueError(f"restriction {pair!r} is not a Hasse covering pair")
    cover_maps = {}
    for e, f in base.cover_pairs:
        given = restrictions.get((e, f))
        if given is None:
            if stalk_map[e]:
                raise MissingRestriction((e, f))
            given = {}
        m = {}
        for x in stalk_map[e]:
            if x not in given:
                raise MissingRestriction((e, f, x))
            y = given[x]
            if y not in stalk_map[f]:
                raise MissingRestriction((e, f, x), detail=f"target {y!r} not in stalk {f!r}")
            m[x] = y
        stray = next((x for x in given if x not in m), None)
        if stray is not None:
            raise ValueError(f"restriction {(e, f)!r} maps {stray!r}, not in stalk {e!r}")
        cover_maps[(e, f)] = m

    lower = _lower_covers(base)
    rest = _local_restrictions(base, stalk_map, cover_maps, lower)
    if rest is None:
        _chain_scan(base, stalk_map, cover_maps, lower)
        raise AssertionError("two covers disagree, yet every chain agrees")
    return Presheaf(base, stalk_map, rest)


# ------------------------------------------------------------ order and ops

class BooleanSet(Presheaf):
    """Presheaf over a Boolean algebra with minimum and compatible joins.

    ``_coords`` are the packed atom coordinates that validate_boolean_set
    found (_coordinates): the code of each element, in element order, the
    support of each stalk, in base order, and the bit field of each atom,
    in atom order.  join, compatible_elems and bullet read the ∘/• rows
    built from them on first use (_skew_rows): x∘y and y∘x are y and x
    restricted to p(x) ∧ p(y), so x and y agree there (are compatible) iff
    x∘y = y∘x, and then x ∨ y = x ∨ (y\\x) = x•y.  The meet table
    (_meet_table) reads its candidates off the codes, not the rows.
    """

    def __init__(self, base, stalks, rest, zero, coords):
        super().__init__(base, stalks, rest)
        self.zero = zero
        self._coords = coords

    def join(self, x, y):
        i, j = self.index[x], self.index[y]
        circ, bullet = _skew_rows(self)
        if circ[i][j] != circ[j][i]:
            raise InternalMissingJoin((x, y))
        return self.elements[bullet[i][j]]

    def compatible_elems(self, x, y):
        i, j = self.index[x], self.index[y]
        circ = _skew_rows(self)[0]
        return circ[i][j] == circ[j][i]

    def setminus(self, y, x):
        return self.restrict(y, self.base.rel_complement(self.p(y), self.p(x)))

    def bullet(self, x, y):
        return self.elements[_skew_rows(self)[1][self.index[x]][self.index[y]]]


def _coordinates(rows, cls_idx, z, classes):
    """The packed atom coordinates of elements, from one row per atom: (the
    code of each element, the support of each class, the bit field of each
    atom), or None.

    Element i lies in class cls_idx[i] of ``classes`` (its stalk, or its
    class of equal ∘ rows), and z is the zero.  ``rows`` holds one (a, row)
    per atom a, a class, in atom order: row[i] is x|a, x restricted to a,
    or z where a is not below p(x), so every entry is z or in a.  The digit
    of x at a is 0 if x|a is z, else 1 + the position of x|a in a, in
    element order, packed into a field of |a|.bit_length() bits, atom after
    atom; the support of x has every bit of the fields where its digit is
    not 0.  The coordinates are returned when the zero's class is z alone,
    there are 2^k classes for k atoms, the codes are a bijection onto the
    product of the {0..|a|}, and the members of each class share one
    support.

    Over a presheaf (_presheaf_coordinates) that is the sheaf condition:
    x ↦ (x|a) maps each X(c) one to one onto the product of the X(a) over
    the atoms a <= c (every covering sieve of c holds the atoms below c;
    c = 0 asks for one zero), as the codes within X(c) are distinct and
    there are as many elements as the products have tuples together.
    """
    n = len(cls_idx)
    size, last, digit = [0] * classes, [0] * classes, [0] * n
    for i, c in enumerate(cls_idx):
        size[c] += 1
        digit[i] = size[c]
        last[c] = i
    if (size[cls_idx[z]] != 1 or classes != 1 << len(rows)
            or n != prod(size[a] + 1 for a, _ in rows)):
        return None
    digit[z] = 0
    code, mask, fields, shift = [0] * n, [0] * n, [], 0
    for a, row in rows:
        width = size[a].bit_length()
        field = ((1 << width) - 1) << shift
        fields.append(field)
        code = [c | digit[v] << shift for c, v in zip(code, row)]
        mask = [m | field if v != z else m for m, v in zip(mask, row)]
        shift += width
    sup = list(map(mask.__getitem__, last))
    if len(set(code)) != n or list(map(sup.__getitem__, cls_idx)) != mask:
        return None
    return code, sup, fields


def _presheaf_coordinates(P):
    """The atom coordinates (_coordinates) of a presheaf over a Boolean
    algebra, each x|a read off x's restrictions, or None; None also when
    the zero stalk is not one element."""
    zs = P.stalks[P.base.bottom]
    if len(zs) != 1:
        return None
    return _table_coordinates(P.base, P.stalks, [P._rest[x] for x in P.elements], P.index, zs[0])


def _table_coordinates(B, stalks, rests, index, z):
    """The atom coordinates (_coordinates) of the restriction rows
    ``rests`` over the Boolean algebra B, one per element in element order
    (``index``), with z the one member of the zero stalk, or None."""
    rows = [(B.index[a], [index[r.get(a, z)] for r in rests]) for a in B.atoms]
    cls_idx = [c for c, e in enumerate(B.elements) for _ in stalks[e]]
    return _coordinates(rows, cls_idx, index[z], len(B.elements))


def _coded_map(X, Y, parts):
    """The element map X -> Y that reads each image's atom code off x's.

    ``parts`` holds one (c, a, h) per atom c of Y that the base map takes
    to an atom a of X, with h[k] the position in Y(c) of the image of the
    k-th member of X(a).  The image of x has, at such a c, the digit of
    h(x|a) when a is below p(x), and at every other atom of Y the digit 0.
    """
    (cxs, _, fx), (cys, _, fy) = X._coords, Y._coords
    fx, fy = dict(zip(X.base.atoms, fx)), dict(zip(Y.base.atoms, fy))
    digits = [(fx[a], balg._first(fx[a]), (0, *((1 + k) << balg._first(fy[c]) for k in h)))
              for c, a, h in parts]
    y_of = dict(zip(cys, Y.elements))
    return {x: y_of[sum(v[(cx & f) >> s] for f, s, v in digits)]
            for x, cx in zip(X.elements, cxs)}


def validate_boolean_set(P):
    """Upgrade a validated presheaf over a Boolean algebra to a Boolean set.

    Checks global support and the trivial zero stalk; the zero is then the
    minimum, since every x restricts to it.  Every compatible pair then has
    a join exactly when the atom coordinates are a bijection
    (_presheaf_coordinates), and the Boolean set keeps them.  Only when
    they are not does the exhaustive pair scan run, to name the first pair
    without a join.
    """
    base = P.base
    if not isinstance(base, balg.FinBooleanAlgebra):
        raise ValueError("Boolean set base must be a validated Boolean algebra")
    for e in base.elements:
        if not P.stalks[e]:
            raise NoGlobalSupport((e,))
    zstalk = P.stalks[base.bottom]
    if len(zstalk) > 1:
        raise ZeroStalkNotTrivial(zstalk[:2])
    coords = _presheaf_coordinates(P)
    if coords is None:
        for x in P.elements:
            for y in P.elements:
                if P.compatible_elems(x, y):
                    j = P.join_elem(x, y)
                    if j is None:
                        raise MissingJoin((x, y))
                    if P.p(j) != base.join(P.p(x), P.p(y)):
                        raise AssertionError((x, y, j))
        raise AssertionError("atom coordinates failed, yet every compatible pair has a join")
    return _coded_boolean_set(P.base, P.stalks, P._rest, coords)


def _coded_boolean_set(base, stalks, rest, coords):
    """The Boolean set of the stalks and restrictions ``rest`` over
    ``base``, whose atom coordinates ``coords`` (_coordinates) are a
    bijection (so the zero stalk has one element)."""
    return BooleanSet(base, stalks, rest, stalks[base.bottom][0], coords)


# ------------------------------------------------------- skew correspondence

def _coded_rows(code, sup, members):
    """The ∘ and • rows that packed atom coordinates (_coordinates) give,
    as element indices: ``code`` per element, ``sup`` per class and the
    ``members`` of each class.  Two iterators: the ∘ row of each class,
    which its members share, and the • row of each member, class by class.

    x∘y is the element coded code(y) & sup(x), y's coordinates on x's
    support and 0 elsewhere.  x•y is the element coded
    code(x) | code(y) & ~sup(x), x's coordinates on x's support and y's
    elsewhere; the two parts have no bit in common, so each class's codes
    code(y) & ~sup(x) are one ``itemgetter``, applied to the window of the
    elements in code order from code(x) on.  The codes of a Boolean set, or
    of certified tables, are closed under both formulas.
    """
    elem_of = [0] * (max(code) + 1)
    for i, cx in enumerate(code):
        elem_of[cx] = i
    circ = (list(map(elem_of.__getitem__, map(and_, code, repeat(m)))) for m in sup)
    if len(code) == 1:  # itemgetter of one index returns the entry itself
        return circ, iter([[0]])

    def bullet():
        for ms, m in zip(members, sup):
            outside = list(map(and_, code, repeat(~m)))
            pick, span = itemgetter(*outside), max(outside) + 1
            for i in ms:
                cx = code[i]
                yield list(pick(elem_of[cx:cx + span]))

    return circ, bullet()


@memo("_rows")
def _skew_rows(X):
    """The ∘ and • index rows of X, its one operation table, read off its
    atom coordinates by the certificate's two formulas (_coded_rows): one
    ∘ row per stalk, shared by its members, and one • row per element.  The
    members of each stalk are consecutive in element order."""
    code, sup, _ = X._coords
    sizes = [len(X.stalks[e]) for e in X.base.elements]
    members = [range(end - k, end) for k, end in zip(sizes, accumulate(sizes))]
    circ_rows, bullet = _coded_rows(code, sup, members)
    circ = [row for row, k in zip(circ_rows, sizes) for _ in range(k)]
    return circ, list(bullet)


@memo("_meet")
def _meet_table(X):
    """x ∧ y for every pair of X's elements, as indices in element order,
    -1 where there is none: the greatest common lower bound in the order
    masks (balg._bound), the one meet table of every presheaf.

    A Boolean set reads a candidate per pair off its atom coordinates.
    With each element's coordinates as a set of (atom, stalk member) bits,
    one bit per nonzero digit of its code, the meet of x and y is the
    element whose set is the intersection of theirs, the coordinates on
    which x and y agree: both x and y restricted to the join of those
    atoms.  The order masks confirm a whole row at once: below[m] must equal
    common = below[x] & below[y] for every y, so m is a common lower bound
    (each element is its own restriction to its stalk) above every other
    one.  By antisymmetry no other element is, and m is what balg._bound
    returns.  A row with any unconfirmed candidate, and every row of any
    other presheaf, is answered by that bound search pair by pair, so the
    table does not depend on what the codes hold.
    """
    below = _order_masks(X)[0]
    cands = repeat(None)
    if isinstance(X, BooleanSet):
        codes, _, fields = X._coords
        bits, offset = [0] * len(codes), 0
        for f in fields:
            shift = balg._first(f)
            top = f >> shift  # the largest digit the field holds
            onehot = [0, *(1 << offset + d for d in range(top))]
            bits = [b | onehot[(c & f) >> shift] for b, c in zip(bits, codes)]
            offset += top
        elem_of = {b: i for i, b in enumerate(bits)}
        cands = (list(map(elem_of.__getitem__, map(and_, repeat(b), bits))) for b in bits)
    table = []
    for bx, cand in zip(below, cands):
        common = list(map(and_, repeat(bx), below))
        if cand is None or common != list(map(below.__getitem__, cand)):
            cand = [balg._bound(c, below) for c in common]
        table.append(cand)
    return table


@memo("_skew")
def to_skew(X):
    """The skew algebra whose Cayley tables are X's ∘/• rows (_skew_rows).
    Both tables are X's coordinates run forward (_coded_rows), so the
    certificate's table half could not fail on them; validate_skew's
    index-level core runs only its coordinate half, whose read-back must
    give X's elements, zero and coordinates (_read_back).  The algebra
    keeps X itself as its Boolean set, so from_skew(to_skew(X)) is X."""
    circ, bullet = _skew_rows(X)
    return skew._validate_index(X.elements, X.index, circ, bullet, X.index[X.zero], X)


def from_skew(S):
    """Boolean set on the gamma quotient (skew.gamma_classes): stalks are
    R classes, restriction is left multiplication by any member of the
    target class (see _reconstruct).  It is the set that validate_skew
    built after its certificate, or the X of to_skew(X) (_read_back), kept
    on S."""
    return S._bset


def _class_presheaf(base, elements, table, cls_idx):
    """The validated presheaf of the classes of equal rows of the ∘ index
    ``table`` over their quotient ``base``.

    ``cls_idx[i]`` is the index in ``base.elements`` of element i's class.
    The stalk over a class is its members in element order; an x over the
    upper end of a cover restricts to y∘x for y the first member of the
    lower class.  The members of a class share one row, so every y gives
    the same restriction.
    """
    members = [[] for _ in base.elements]
    for i, c in enumerate(cls_idx):
        members[c].append(i)
    stalks = {e: tuple(elements[i] for i in ms) for e, ms in zip(base.elements, members)}
    restrictions = {}
    for upper, lower in base.cover_pairs:
        row = table[members[base.index[lower]][0]]
        restrictions[(upper, lower)] = {
            elements[x]: elements[row[x]] for x in members[base.index[upper]]}
    return validate_presheaf(base, stalks, restrictions)


def _row_classes(elements, table, with_rows=False):
    """Classes of equal rows of the ∘ index ``table``, which for a right
    normal ∘ are the classes of Green's R-relation (x R y iff x∘y = y and
    y∘x = x).

    Returns (cls_idx, reps, names): the class index of each element, the
    first element of each class, and the class names "[rep]", classes in
    order of their first element; ``with_rows`` adds each class's row as a
    tuple.  Each distinct row object is converted to a tuple once, as
    parsed and rebuilt ∘ rows are shared per class.
    """
    class_of_row, class_of_id, cls_idx, reps = {}, {}, [], []
    for i, row in enumerate(table):
        c = class_of_id.get(id(row))
        if c is None:
            c = class_of_id[id(row)] = class_of_row.setdefault(tuple(row), len(reps))
            if c == len(reps):
                reps.append(i)
        cls_idx.append(c)
    names = [f"[{elements[r]}]" for r in reps]
    if with_rows:
        return cls_idx, reps, names, list(class_of_row)
    return cls_idx, reps, names


def _band_quotient(elements, table):
    """R classes of the ∘ index ``table`` (_row_classes) and their quotient,
    ordered by c <= d iff c∘d = c: (cls_idx, names, order pairs of class
    names, the classes below every class)."""
    cls_idx, reps, names = _row_classes(elements, table)
    q = [[cls_idx[table[a][b]] for b in reps] for a in reps]
    bottoms = [c for c, row in enumerate(q) if all(m == c for m in row)]
    pairs = [(names[c], names[d]) for c, row in enumerate(q) for d, m in enumerate(row) if m == c]
    return cls_idx, names, pairs, bottoms


def _skew_coordinates(circ, z, cls_idx, reps):
    """The coordinate half of the certificate (_skew_certificate): the
    packed atom coordinates (_coordinates) read off the ∘ index rows of
    the atom classes, or None.

    The atom classes are the classes other than the zero's whose first
    member r has a ∘ row inside the zero's class and its own; r∘x stands
    for x|a.
    """
    zc = cls_idx[z]
    atoms = [(c, circ[r]) for c, r in enumerate(reps)
             if c != zc and all(cls_idx[v] in (zc, c) for v in set(circ[r]))]
    return _coordinates(atoms, cls_idx, z, len(reps))


def _coded_tables_match(circ, bullet, coords, cls_idx, reps):
    """The table half of the certificate (_skew_certificate): whether the
    ∘ rows, and whether both tables, are the ones the coordinates give
    (_coded_rows), entry by entry; • is compared only when ∘ matches.  The
    ∘ check runs once per class, whose members share one row."""
    code, sup, _ = coords
    members = [[] for _ in reps]
    for i, c in enumerate(cls_idx):
        members[c].append(i)
    circ_rows, bullet_rows = _coded_rows(code, sup, members)
    if any(map(ne, circ_rows, map(circ.__getitem__, reps))):
        return False, False
    given = map(bullet.__getitem__, chain.from_iterable(members))
    return True, not any(map(ne, bullet_rows, given))


def _skew_certificate(circ, bullet, z, cls_idx, reps):
    """The atom-coordinate certificate of skew index tables: (their packed
    atom coordinates, True) when they pass, else (None, whether the ∘
    checks passed).

    The tables pass when the coordinates read off the ∘ rows of their atom
    classes exist (_skew_coordinates) and both tables are the ones they
    give (_coded_tables_match): entrywise, x∘y has code code(y) & sup(x)
    and x•y has code code(x) | code(y) & ~sup(x).  Distinct classes then
    have distinct supports, as two classes of one support would have one ∘
    row.

    Exact both ways, by the finite form of the paper's theorem: tables that
    pass are, coordinate by coordinate, the product of the primitive
    algebras on the atom classes plus 0, which satisfies SB1-SB5 and right
    normality since each factor does (SB1-SB4 and right normality are
    identities, and x↓ is the product of the {0, x_a}); the tables of a
    Boolean set pass, each x∘y being y|(p(x) ∧ p(y)) and x•y being
    x ∨ (y|(p(y) \\ p(x))) in its atom coordinates.
    """
    coords = _skew_coordinates(circ, z, cls_idx, reps)
    if coords is None:
        return None, False
    circ_ok, ok = _coded_tables_match(circ, bullet, coords, cls_idx, reps)
    return coords if ok else None, circ_ok


def _read_back(X, elements, circ, z, classes):
    """Check that X is the Boolean set of the skew index tables that
    to_skew(X) built from X's coordinates: ``circ`` is their ∘ table, z
    the zero's index and ``classes`` the classes of equal ∘ rows
    (_row_classes).

    Those tables are X's coordinates run forward (_coded_rows), so only
    the coordinate half of the certificate runs (_skew_coordinates): the
    coordinates it reads back off the ∘ rows, the elements and the zero
    must be X's, or the tables are not X's (AssertionError, also under
    ``python -O``).  The coordinates fix the classes, by their supports,
    and every restriction, so X is then the set of the tables, its base
    names aside.
    """
    cls_idx, reps, _ = classes
    if (elements, z, _skew_coordinates(circ, z, cls_idx, reps)) != (
            X.elements, X.index[X.zero], X._coords):
        raise AssertionError("to_skew's tables do not read back the coordinates they came from")


def _reconstruct(elements, circ, bullet, z, classes):
    """Whether the skew index tables are to_skew(X) of a Boolean set X:
    (X, True) if so, else (None, whether ∘ passed the certificate).
    ``classes`` is (cls_idx, reps, names), the classes of equal ∘ rows
    (_row_classes), which the caller has computed.

    By the paper's theorem the right-hand skew Boolean algebras are exactly
    these, and they are decided by their atom coordinates
    (_skew_certificate), which no step after it can refuse.  X is then the
    set of R classes of ∘, the classes of equal ∘ rows, read off the
    certificate.  Its base is the class order (c <= d iff the support of c
    is inside that of d), validated as a Boolean algebra with the zero's
    class as bottom: the certified supports are the 2^k unions of the atom
    fields, one per class, so the order is given by its k·2^(k-1) covers, c
    below the class whose support is c's plus one field outside it.  Its
    stalks are the class members in element order, and x|f is r∘x for r
    the first member of class f, for every f <= p(x): the certificate has
    shown that entry to be the element coded code(x) & sup(f), so the
    restrictions are path independent and no cover walk runs.  The set
    keeps the certified coordinates, the codes in its own element order,
    which are the ones its restrictions give: each digit is the same
    position in the same stalk.  A certificate refusal raises nothing, so
    the caller's scans report it; the class order refused as a Boolean
    algebra after a certificate accepted is an internal error
    (AssertionError, also under ``python -O``).  The tables of to_skew(X)
    do not come here: they are read back (_read_back).
    """
    cls_idx, reps, names = classes
    coords, circ_ok = _skew_certificate(circ, bullet, z, cls_idx, reps)
    if coords is None:
        return None, circ_ok
    code, sup, fields = coords
    class_of = {m: c for c, m in enumerate(sup)}
    pairs = [(names[c], names[class_of[m | f]]) for c, m in enumerate(sup)
             for f in fields if not m & f]
    try:
        base = balg.validate_balg(names, pairs, names[cls_idx[z]])
    except StructureError as e:
        raise AssertionError(f"certified skew tables, yet {e.law} fails") from e
    members = [[] for _ in reps]
    for i, c in enumerate(cls_idx):
        members[c].append(i)
    stalks, rest = {}, {}
    for e, ms in zip(base.elements, members):
        stalks[e] = tuple(elements[i] for i in ms)
        rows = [(f, circ[reps[base.index[f]]]) for f in base.down_set(e)]
        for i in ms:
            rest[elements[i]] = {f: elements[row[i]] for f, row in rows}
    codes = list(map(code.__getitem__, chain.from_iterable(members)))
    return _coded_boolean_set(base, stalks, rest, (codes, sup, fields)), True


def bset_struct_eq(X, Y):
    """presheaf_struct_eq with the same zero."""
    return X.zero == Y.zero and presheaf_struct_eq(X, Y)


def bset_isomorphic(X, Y):
    """An isomorphism X -> Y as (base_map, element_map), or None.

    By the finite form of the theorem a Boolean set is the product of its
    atom stalks, so X and Y are isomorphic iff their atom stalk sizes agree
    as multisets.  Atoms are matched by stalk size (in atom order within a
    size), the k-th member of a matched X stalk goes to the k-th member of
    its partner, and each element goes to the element of Y with the same
    atom coordinates under the matching (_coded_map).  The result is validated
    as a Boolean-set morphism in both directions.
    """
    xs = sorted(X.base.atoms, key=lambda a: len(X.stalks[a]))
    ys = sorted(Y.base.atoms, key=lambda b: len(Y.stalks[b]))
    if [len(X.stalks[a]) for a in xs] != [len(Y.stalks[b]) for b in ys]:
        return None
    atom_map = dict(zip(xs, ys))
    phi = _coded_map(X, Y, [(b, a, range(len(X.stalks[a]))) for a, b in atom_map.items()])
    phibar = balg._atom_join_map(X.base, Y.base, atom_map)
    validate_bset_morphism(phi, phibar, X, Y)
    validate_bset_morphism({y: x for x, y in phi.items()},
                           {f: e for e, f in phibar.items()}, Y, X)
    return phibar, phi


# ----------------------------------------------------------------- morphisms

@dataclass(eq=False)
class BSetMorphism:
    """Element map with its base homomorphism; BM1 and BM2 validated."""

    source: BooleanSet
    target: BooleanSet
    mapping: dict
    base_hom: balg.BAHom


def derive_base_map(X, Y, mapping):
    """The unique base map satisfying the commuting square, if any."""
    out = {}
    for e in X.base.elements:
        targets = {Y.p(mapping[x]) for x in X.stalks[e]}
        if len(targets) != 1:
            a = min(X.stalks[e], key=X.index.__getitem__)
            raise BM1Violation((a,), detail=f"stalk {e!r} maps into several stalks")
        out[e] = targets.pop()
    return out


def validate_bset_morphism(phi, phibar, X, Y):
    """Check that both maps are total (balg._index_map, the element map
    before the base map, which the commuting square derives when not
    given), that the base map is a homomorphism, that the square commutes
    on every element (BM1) and then that phi(x|b) = phi(x)|phibar(b) for
    every b <= p(x) (BM2): one pass over X's restriction rows, in element
    and down-set order, which names the first (x, p(x), b).  BM1 puts
    phibar(b) in the row of phi(x).  A right normal band as an endpoint is
    refused with a ValueError.
    """
    for end, obj in (("source", X), ("target", Y)):
        if isinstance(obj, RightNormalBand):
            raise _band_endpoint(end)
    balg._index_map(phi, X, Y, "map", "a source element")
    if phibar is None:
        phibar = derive_base_map(X, Y, phi)
    balg._check_bahom(balg._index_map(phibar, X.base, Y.base, "basemap", "a source base element"),
                      X.base, Y.base)
    for x in X.elements:
        if phibar[X.p(x)] != Y.p(phi[x]):
            raise BM1Violation((x,))
    for x, rx in X._rest.items():
        ry = Y._rest[phi[x]]
        for b, xb in rx.items():
            if phi[xb] != ry[phibar[b]]:
                raise BM2Violation((x, X.stalk_of[x], b))
    return BSetMorphism(X, Y, dict(phi), balg.BAHom(X.base, Y.base, dict(phibar)))


def identity_bset_morphism(X):
    return validate_bset_morphism(
        {x: x for x in X.elements}, {e: e for e in X.base.elements}, X, X
    )


def compose_bset_morphisms(g, f):
    if f.target is not g.source:
        raise AssertionError("f.target is not g.source")
    return validate_bset_morphism(
        {x: g.mapping[f.mapping[x]] for x in f.source.elements},
        {e: g.base_hom.mapping[f.base_hom.mapping[e]] for e in f.source.base.elements},
        f.source,
        g.target,
    )


def enumerate_bset_morphisms(X, Y, proper_only=False):
    """All morphisms X -> Y, each validated (validate_bset_morphism).

    By the finite form of the theorem a Boolean set is the product of its
    atom stalks, so a morphism is a base homomorphism, given by a partial
    map g from the atoms of Y's base to those of X's (_enumerate_bahoms),
    with one map h_c: X(g(c)) -> Y(c) per atom c where g is defined; the
    element map reads each image's atom code off x's (_coded_map).  Every
    pair (g, h) is a morphism, so a refusal is an internal error and is
    raised.  The base hom is proper iff g is total.  Morphisms come in the
    order of g, then of the h_c by target atom, each h_c as a tuple of
    positions in Y(c) in lexicographic order.
    """
    for g, phibar in _enumerate_bahoms(X.base, Y.base):
        if proper_only and None in g:
            continue
        pairs = [(c, a) for c, a in zip(Y.base.atoms, g) if a is not None]
        choices = [product(range(len(Y.stalks[c])), repeat=len(X.stalks[a])) for c, a in pairs]
        for hs in product(*choices):
            phi = _coded_map(X, Y, [(c, a, h) for (c, a), h in zip(pairs, hs)])
            yield validate_bset_morphism(phi, phibar, X, Y)


def _enumerate_bahoms(A, B):
    """All Boolean algebra homomorphisms A -> B, as (g, map) pairs.

    A homomorphism of finite Boolean algebras is a partial map g from the
    atoms of B to those of A, given as a tuple in B's atom order with None
    where g is undefined: an atom a of A goes to the join of the atoms c
    with g(c) = a, and an element to the join of the images of its atoms
    (balg._atom_join_map).  That is (|A's atoms| + 1)^|B's atoms| maps,
    each a homomorphism by construction, in lexicographic order of g over
    (None, *A.atoms).
    """
    for g in product((None, *A.atoms), repeat=len(B.atoms)):
        amap = {a: B.join_all(c for c, ga in zip(B.atoms, g) if ga == a) for a in A.atoms}
        yield g, balg._atom_join_map(A, B, amap)


# ------------------------------------------------------- right normal bands

class RightNormalBand:
    """Band whose circ satisfies x∘y∘z = y∘x∘z."""

    def __init__(self, elements, index, table):
        self.elements = elements
        self.index = index
        self.table = table

    def circ(self, x, y):
        return self.elements[self.table[self.index[x]][self.index[y]]]

    def leq(self, x, y):
        i, j = self.index[x], self.index[y]
        return self.table[i][j] == i

    def __repr__(self):
        return f"<RightNormalBand {len(self.elements)} elements>"


def validate_band(elements, table):
    """The right normal band of the id table ``table``, row-major in element
    order (_band_of_index)."""
    elements, index = balg._index_elements(elements)
    return _band_of_index(elements, index, skew._as_index_table(elements, index, table, "circ"))


def _band_of_index(elements, index, t):
    """validate_band on the index table ``t``: a band, right regular, then
    right normal, each failure with its first witness."""
    skew._band_check(elements, t, "circ")
    n = len(elements)
    for i in range(n):
        for j in range(n):
            if t[t[i][j]][i] != t[j][i]:
                raise NotRightNormal((elements[i], elements[j]))
    for witness in skew._right_normal_witnesses(elements, t):  # right regular so far
        raise NotRightNormal(witness)
    return RightNormalBand(elements, index, t)


@memo("_presheaf")
def band_to_presheaf(S):
    """Stalks are R classes over the quotient meet semilattice, whose meet
    is induced by circ (R is a congruence of a right normal band); its order
    is the natural order of S.  A skew algebra's is its Boolean set."""
    cls_idx, names, pairs, _ = _band_quotient(S.elements, S.table)
    base = balg.validate_meet_semilattice(names, pairs)
    return _class_presheaf(base, S.elements, S.table, cls_idx)


@memo("_bset")
def band_to_bset(S):
    """The Boolean set of a band: R classes over the quotient, validated as
    a Boolean algebra with the least class as bottom.  Raises the first
    failed law when the band is not Boolean."""
    cls_idx, names, pairs, bottoms = _band_quotient(S.elements, S.table)
    base = balg.validate_balg(names, pairs, names[bottoms[0]])
    return validate_boolean_set(_class_presheaf(base, S.elements, S.table, cls_idx))


def presheaf_to_band(P):
    """The circ reduct x∘y = y|_{p(x)∧p(y)}; needs global support to be
    mutually inverse with band_to_presheaf."""
    if not P.has_global_support:
        empty = next(e for e in P.base.elements if not P.stalks[e])
        raise NoGlobalSupport((empty,))
    els = P.elements
    return validate_band(els, [[P.circ(x, y) for y in els] for x in els])


def presheaf_struct_eq(P, Q):
    """Structural equality: identical carriers and restriction tables, with
    bases identified along the projection-induced bijection (which must be
    an order isomorphism)."""
    if set(P.elements) != set(Q.elements):
        return False
    bmap = {}
    for e in P.base.elements:
        targets = {Q.p(x) for x in P.stalks[e]}
        if len(targets) != 1:
            return False
        bmap[e] = targets.pop()
    if len(set(bmap.values())) != len(Q.base.elements):
        return False
    for e in P.base.elements:
        for f in P.base.elements:
            if P.base.leq(e, f) != Q.base.leq(bmap[e], bmap[f]):
                return False
    for x in P.elements:
        for f in P.base.down_set(P.p(x)):
            if P.restrict(x, f) != Q.restrict(x, bmap[f]):
                return False
    return True


def is_boolean_band(S):
    """Whether the R classes of S form a Boolean set (band_to_bset succeeds):
    a Boolean quotient, a one-element least class, compatible joins."""
    try:
        band_to_bset(S)
    except StructureError:
        return False
    return True


# -------------------------------------------------------------------- sheaves

def sheaf_condition(P):
    """Unique amalgamation for every matching family of every covering
    sieve, decided by atom coordinates (_presheaf_coordinates)."""
    return _presheaf_coordinates(P) is not None


# ------------------------------------------------------------------ builders

ATOM_LETTERS = "abcdefghij"


def _product_sections(points, fibers, subset_id, elem_id):
    """The Boolean set of sections of a product etale space.

    The base is the powerset of ``points``, with ids from ``subset_id``.
    The stalk over A is the product of the fibers of A's points, in point
    order, each choice named by ``elem_id`` (called with the chosen tuple);
    restriction is projection.  Returns the set, the base's ``set_of``
    (id -> subset) and each element's parts (point -> choice).

    The set is built from its atom coordinates (_coordinates), which the
    choices give: the atom over {p} has a field of
    len(fibers[p]).bit_length() bits, fields in atom order, and a choice
    has the digit 1 + its fiber position in the field of each of its
    points.  x|f is then the element coded code(x) & sup(f) for every
    f <= p(x), sup(f) the fields of f's points: the projection of x's
    choice onto f's points.  That table is path independent by
    construction, as (x|g)|f has code code(x) & sup(g) & sup(f) =
    code(x) & sup(f) for f <= g, so no cover walk runs.  It is accepted by
    the certificate of validate_boolean_set, run on its atom rows
    (_table_coordinates), which must give back these coordinates; a
    refusal is an internal error (AssertionError, also under ``python -O``).
    A repeated id raises StalkCollision with the first repeat, stalks in
    base order, and an empty stalk NoGlobalSupport with the first one.
    """
    base, _, set_of = balg.powerset_balg(points, subset_id)
    field, digits, shift = {}, {}, 0
    for a in base.atoms:
        (pt,) = set_of[a]
        size = len(fibers[pt])
        field[pt] = ((1 << size.bit_length()) - 1) << shift
        digits[pt] = [k << shift for k in range(1, size + 1)]
        shift += size.bit_length()
    stalks, parts, code_of, sup = {}, {}, {}, []
    for eid in base.elements:
        present = [x for x in points if x in set_of[eid]]
        sup.append(sum(map(field.__getitem__, present)))
        ids = []
        for choice, ds in zip(product(*map(fibers.__getitem__, present)),
                              product(*map(digits.__getitem__, present))):
            xid = elem_id(choice)
            if xid in code_of:
                raise StalkCollision((xid,))
            code_of[xid] = sum(ds)
            parts[xid] = dict(zip(present, choice))
            ids.append(xid)
        stalks[eid] = tuple(ids)
    for e, xs in stalks.items():
        if not xs:
            raise NoGlobalSupport((e,))
    elem_of = {c: x for x, c in code_of.items()}
    rest = {}
    for e in base.elements:
        down = base.down_set(e)
        masks = [sup[base.index[f]] for f in down]
        for x in stalks[e]:
            c = code_of[x]
            rest[x] = dict(zip(down, [elem_of[c & m] for m in masks]))
    coords = list(code_of.values()), sup, list(field.values())
    X = _coded_boolean_set(base, stalks, rest, coords)
    if _table_coordinates(base, stalks, rest.values(), X.index, X.zero) != coords:
        raise AssertionError("built product sections, yet their atom coordinates fail")
    return X, set_of, parts


def generate_boolean_set(atom_stalk_sizes, seed=None):
    """Canonical Boolean set over the powerset of k atoms: the section set
    of the product etale space whose fiber over each atom has the given size.

    The stalk over a subset is the product of the chosen atom stalks below
    it (singleton over bottom), restrictions are projections.  The seed only
    permutes stalk-element labels; the structure is unchanged.  The output is
    built from its atom coordinates and accepted by their certificate
    (_product_sections), not assumed valid.
    """
    sizes = tuple(atom_stalk_sizes)
    if not sizes:
        raise EmptySizes(())
    if any(s < 1 for s in sizes):
        raise ValueError("stalk sizes must be at least 1")
    if len(sizes) > len(ATOM_LETTERS):
        raise ValueError(f"at most {len(ATOM_LETTERS)} atoms supported")
    atoms = ATOM_LETTERS[: len(sizes)]
    rng = random.Random(seed)
    labels = {}
    for a, s in zip(atoms, sizes):
        names = [f"{a}{i + 1}" for i in range(s)]
        if seed is not None:
            rng.shuffle(names)
        labels[a] = tuple(names)

    def subset_id(s):
        if not s:
            return "0"
        if len(s) == len(atoms):
            return "1"
        if len(s) == 1:
            return next(iter(s))
        return "".join(a for a in atoms if a in s)

    def elem_id(parts):
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        return "(" + ",".join(parts) + ")"

    return _product_sections(tuple(atoms), labels, subset_id, elem_id)[0]


def constant_bset(base):
    """One element per stalk; all restrictions forced."""
    stalks = {e: (f"c{e}",) for e in base.elements}
    restrictions = {
        (e, f): {f"c{e}": f"c{f}"} for e, f in base.cover_pairs
    }
    return validate_boolean_set(validate_presheaf(base, stalks, restrictions))
