"""The two contravariant dualization functors and their round trips.

One direction sends a Boolean set to the etale space of its ultrafilters
over the ultrafilters of the base; the other sends an etale space to the
Boolean set of its sections over the powerset of the base.  Every map the
duality derives, the double duals α and β and the duals of morphisms both
ways, is a morphism of its own category, checked by that category's
validator.  The meets/Hausdorff and meet-preservation/partial-map
correspondences are computed with both sides evaluated independently.

Base ultrafilters are represented by their atoms in the finite case, but all
logic here goes through the FilterSet interface so the computations mirror
the filter-theoretic constructions rather than the atom shortcut.

Each element's set of ultrafilters, the points of its basic open set, has
one form: a bitmask over the dual's points (_stone_masks), built once per
Boolean set.  The double dual and the checks of the dual topology read
these masks, with the Boolean set's ∘/• rows and its meet table
(bset._meet_table), one verified meet per pair, computed once.  Every
property is still checked over every element or pair; an exact check over
whole rows accepts it, and only a failure runs the pair scan, over the same
masks and rows, that names the first witness.
"""

from dataclasses import dataclass, field
from itertools import compress, product, repeat
from operator import and_, eq, or_

from . import balg, bset, etale
from ._memo import memo
from .balg import _bits, _first
from .errors import NotProper
from .report import CheckItem, Report, _first_witness


@dataclass(frozen=True)
class BSetUltrafilter:
    """Ultrafilter of a Boolean set: the up-set of an element over an atom,
    over that atom's base ultrafilter."""

    bset: "bset.BooleanSet" = field(compare=False)
    members: frozenset = field()
    base_filter: balg.FilterSet = field(compare=False)
    ident: str = field(compare=False)

    def __contains__(self, x):
        return x in self.members

    def __repr__(self):
        return f"Ultra({self.ident})"


@memo("_ultra")
def bset_ultrafilters(X):
    """All ultrafilters of X, grouped by base ultrafilter.

    Every filter of a finite Boolean set is principal: a minimal member m is
    below every other member x, as m and x have a lower bound in the filter,
    so the filter is the up-set of m.  That up-set is prime only if p(m) is
    an atom a: for an atom a < p(m), m is the compatible join of m|a and
    m|(p(m) \\ a), and neither is above m.  So the ultrafilters over the base
    ultrafilter F generated by a are the up-sets of the elements over a, the
    rows above[m] of bset._order_masks(X).  They must partition the preimage
    of F, and each is checked to be a prime filter projecting onto F
    (_assert_is_ultrafilter).  Each is named by its first member in
    X.elements order, and they are listed in that order.
    """
    els, above = X.elements, bset._order_masks(X)[1]
    out = []
    for F in X.base.ultrafilters():
        a = F.generator
        pre = [i for i, x in enumerate(els) if X.p(x) in F.members]
        pre_mask = sum(1 << i for i in pre)
        ups = sorted((above[i] for i in pre if X.p(els[i]) == a), key=_first)
        # the elements covered twice, outside the preimage, or not at all
        covered = stray = 0
        for up in ups:
            stray |= up & (covered | ~pre_mask)
            covered |= up
        stray |= pre_mask & ~covered
        if stray:
            raise AssertionError(("not a partition of the preimage", a, els[_first(stray)]))
        for up in ups:
            members = frozenset(map(els.__getitem__, _bits(up)))
            u = BSetUltrafilter(X, members, F, f"[{els[_first(up)]}]@{a}")
            _assert_is_ultrafilter(X, u)
            out.append(u)
    return tuple(out)


def _assert_is_ultrafilter(X, u):
    """Assert that u projects onto its base filter and is an upward closed,
    pairwise bounded below, prime set of elements (as masks over X).

    The middle two are accepted by whole rows: u is upward closed iff the
    union of its members' above rows lies in u, and pairwise bounded below
    within itself iff the meet of their below rows meets u, as a minimal
    member of a finite such set is below every other.  Only a refusal runs
    the pair scan, which names the first failing member or pair.

    Given the first three, u is prime iff it is the set of z with z|a = s,
    where a is the atom generating the base filter and s = m|a for any
    member m.  If it is, a compatible join x ∨ y in u restricts to s on a as
    x or y does, so x or y is in u.  If u is prime, it holds x|a for each
    member x = x|a ∨ x|(p(x) \\ a), and so, upward closed, every z over s."""
    (els, index), (below, above) = (X.elements, X.index), bset._order_masks(X)
    F = u.base_filter
    if {X.p(x) for x in u.members} != F.members:
        raise AssertionError((u.ident, F))
    idx = sorted(index[x] for x in u.members)
    umask = sum(1 << i for i in idx)
    low, up = -1, 0
    for i in idx:
        low &= below[i]
        up |= above[i]
    if not low & umask or up & ~umask:
        for i in idx:
            escape = above[i] & ~umask
            if escape:
                raise AssertionError(("not upward closed", els[i], els[_first(escape)]))
            for j in idx:
                if not below[i] & below[j] & umask:
                    raise AssertionError(("no common lower bound", els[i], els[j]))
    a = F.generator
    s = X._rest[els[idx[0]]][a]
    prime = sum(1 << i for i, z in enumerate(els) if X._rest[z].get(a) == s)
    if prime != umask:
        raise AssertionError(("not prime", els[_first(prime ^ umask)]))


def ultrafilters_containing(X, a):
    """The ultrafilters of X containing the element a."""
    return tuple(u for u in bset_ultrafilters(X) if a in u)


@memo("_points")
def _stone_masks(X):
    """The Stone representation of X: each element's set of ultrafilters as
    a bitmask, bit k for the k-th point of bset_to_etale(X).total.  Returns
    (the bit of each point id, each element's mask in X.elements order, per
    point the mask of the indices of the elements in its ultrafilter, per
    base point of the space the mask of its fiber), built in one pass over
    bset_ultrafilters.  Cached per Boolean set."""
    sp = bset_to_etale(X)
    pos, index = {g: k for k, g in enumerate(sp.total)}, X.index
    through = [0] * len(pos)
    for u in bset_ultrafilters(X):
        through[pos[u.ident]] = sum(1 << index[a] for a in u.members)
    masks = balg._transpose(through, len(X.elements))
    fibers = [sum(1 << pos[g] for g in sp.fibers[x]) for x in sp.base]
    return pos, masks, through, fibers


def _one_per_fiber(mask, fibers):
    """Whether the point mask holds at most one point of each fiber."""
    for f in fibers:
        s = mask & f
        if s & (s - 1):
            return False
    return True


@memo("_etale")
def bset_to_etale(X):
    """Etale space of ultrafilters over the base's ultrafilters: a point is
    named by its ultrafilter's ident, a base point by the generating atom of
    its base ultrafilter.  Cached per Boolean set."""
    ultras = bset_ultrafilters(X)
    total = tuple(u.ident for u in ultras)
    proj = {u.ident: u.base_filter.generator for u in ultras}
    return etale.validate_etale(
        total, tuple(F.generator for F in X.base.ultrafilters()), proj)


# -------------------------------------------------------------- double duals

def bset_double_dual(X):
    """The comparison isomorphism from X onto the section set of its dual.

    Elements map to the set of ultrafilters containing them, base elements
    to their Stone map image; the result is validated as a Boolean-set
    morphism and checked bijective with morphism inverse.
    """
    sp = bset_to_etale(X)
    D = etale.dual_bset(sp)
    phi = {a: "{" + ",".join(map(sp.total.__getitem__, _bits(m))) + "}"
           for a, m in zip(X.elements, _stone_masks(X)[1])}
    phibar = {e: "{" + ",".join(map(sp.base.__getitem__, _bits(m))) + "}"
              for e, m in zip(X.base.elements, balg._ultra_masks(X.base)[1])}
    m = bset.validate_bset_morphism(phi, phibar, X, D)
    if not len(set(phi.values())) == len(D.elements) == len(X.elements):
        raise AssertionError(("double dual not bijective", len(D.elements), len(X.elements)))
    inverse = {v: k for k, v in phi.items()}
    inv_bar = {v: k for k, v in phibar.items()}
    bset.validate_bset_morphism(inverse, inv_bar, D, X)
    return m


def etale_double_dual(sp):
    """The comparison isomorphism β from a space onto the ultrafilter space
    of its section set, a relational morphism: a point maps to the class of
    sections through it, a base point to the singleton subset naming its
    principal ultrafilter.  Both maps are checked bijective by counting;
    the validator refuses projections that do not commute (FiberViolation)."""
    D = etale.dual_bset(sp)
    sp2 = bset_to_etale(D)
    idents = {}
    for u in bset_ultrafilters(D):
        idents.setdefault(u.members, []).append(u.ident)
    point_map = {}
    for a in sp.total:
        through = frozenset(sid for sid, mem in D.sections.items() if a in mem)
        matches = idents.get(through, ())
        if len(matches) != 1:
            raise AssertionError((a, through))
        point_map[a] = matches[0]
    render = balg.render_braces(sp.base)
    base_map = {x: render({x}) for x in sp.base}
    for f, src, tgt in ((point_map, sp.total, sp2.total), (base_map, sp.base, sp2.base)):
        images = len(set(f.values()))
        if not images == len(src) == len(tgt):
            raise AssertionError(("double dual not bijective", images, len(src), len(tgt)))
    return etale.validate_relational_morphism(
        {a: {g} for a, g in point_map.items()}, base_map, sp, sp2)


# --------------------------------------------------------- morphism dualization

def dual_of_relational(rm):
    """Dualize a covering relational morphism to a section-level morphism,
    contravariantly: a section pulls back to the points whose image meets it,
    a base subset pulls back along the base map."""
    etale.require_covering(rm)
    sp, tq = rm.source, rm.target
    DS, DT = etale.dual_bset(sp), etale.dual_bset(tq)
    points, subset = balg.render_braces(sp.total), balg.render_braces(sp.base)
    phi = {
        sid: points({e for e in sp.total if rm.phi[e] & DT.sections[sid]})
        for sid in DT.elements
    }
    phibar = {
        aid: subset({e for e in sp.base if rm.phibar[e] in DT.base_sets[aid]})
        for aid in DT.base.elements
    }
    return bset.validate_bset_morphism(phi, phibar, DT, DS)


def dual_of_bset_morphism(m):
    """Dualize a Boolean-set morphism to a covering relational morphism
    between the ultrafilter spaces, contravariantly.

    An ultrafilter G of the target maps to the set of source ultrafilters
    contained in the elementwise preimage of G; the base map is the preimage
    of base ultrafilters, which needs the base hom to be proper.  The dual
    is checked covering (etale.require_covering).
    """
    if not balg.is_proper_hom(m.base_hom):
        top, B = m.base_hom.mapping[m.source.base.top], m.target.base
        wit = next(t for t in B.elements if not B.leq(t, top))
        raise NotProper((wit,))
    X, Y = m.source, m.target
    spx, spy = bset_to_etale(X), bset_to_etale(Y)
    phibar = {}
    for F in Y.base.ultrafilters():
        pre = frozenset(
            e for e in X.base.elements if m.base_hom.mapping[e] in F.members
        )
        if not X.base.is_filter(pre):
            raise AssertionError(F)
        matches = [G.generator for G in X.base.ultrafilters() if G.members == pre]
        if len(matches) != 1:
            raise AssertionError((F, pre))
        phibar[F.generator] = matches[0]
    phi = {}
    for u in bset_ultrafilters(Y):
        pre = frozenset(x for x in X.elements if m.mapping[x] in u.members)
        fprime = phibar[u.base_filter.generator]
        # the preimage is a union of ultrafilters over the pulled-back base
        # ultrafilter: any ultrafilter meeting it is contained in it
        for v in bset_ultrafilters(X):
            if (v.base_filter.generator == fprime and v.members & pre
                    and not v.members <= pre):
                raise AssertionError((u.ident, v.ident))
        images = frozenset(
            v.ident for v in bset_ultrafilters(X) if v.members <= pre
        )
        phi[u.ident] = images
    return etale.require_covering(etale.validate_relational_morphism(phi, phibar, spy, spx))


# ----------------------------------------------------- correspondence checks

def dual_is_hausdorff(X):
    """Hausdorffness of the ultrafilter space under the topology generated
    by the sets of ultrafilters through each element.

    Two points are separated iff some pair of disjoint basic opens contains
    them (unions of basics cannot separate when no basics do), so every
    pair of points is checked for basic separation.  In the point masks
    (_stone_masks): with apart[a] the elements whose sets are disjoint from
    a's, g and h are separated iff the union of apart[a] over the a
    through g holds an element through h.
    """
    pos, masks, through, _ = _stone_masks(X)
    full = (1 << len(masks)) - 1
    apart = []
    for m in masks:
        touching = 0
        for k in _bits(m):
            touching |= through[k]
        apart.append(full & ~touching)
    reach = []
    for t in through:
        r = 0
        for a in _bits(t):
            r |= apart[a]
        reach.append(r)
    pts = [pos[u.ident] for u in bset_ultrafilters(X)]
    return all(reach[g] & through[h] for i, g in enumerate(pts) for h in pts[i + 1:])


@dataclass
class MeetHausdorffReport:
    has_meets: bool
    dual_hausdorff: bool

    @property
    def equivalent(self):
        return self.has_meets == self.dual_hausdorff

    def __str__(self):
        return (
            f"binary meets: {self.has_meets}; dual Hausdorff: {self.dual_hausdorff}; "
            f"equivalence {'holds' if self.equivalent else 'FAILS'}"
        )


def check_meets_vs_hausdorff(X):
    """Both sides of the meets/Hausdorff correspondence, each computed: the
    meets from the verified meet table (bset._meet_table, which falls back
    to a bound search wherever the order masks do not confirm an entry), and
    the separation of every pair of dual points.

    At finite scale both values are always true (every finite Boolean set
    has binary meets and every finite dual is discrete), so the report
    records what was computed rather than a vacuous implication.
    """
    return MeetHausdorffReport(X.has_binary_meets, dual_is_hausdorff(X))


@dataclass
class MeetPartialReport:
    preserves_meets: bool
    dual_partial_map: bool

    @property
    def equivalent(self):
        return self.preserves_meets == self.dual_partial_map

    def __str__(self):
        return (
            f"meet-preserving: {self.preserves_meets}; dual partial map: "
            f"{self.dual_partial_map}; equivalence {'holds' if self.equivalent else 'FAILS'}"
        )


def check_meet_partial_correspondence(m):
    """Meet preservation of the morphism versus partiality of its dual,
    both sides computed independently: the meet tables of both sets are
    compared row by row (Presheaf.preserves_meets)."""
    preserves = m.source.preserves_meets(m.mapping, m.target)
    return MeetPartialReport(preserves, dual_of_bset_morphism(m).partial_map)


# ----------------------------------------------------------------- functor laws

def check_functor_laws_bset(f, g):
    """Identity and composition laws for dualizing Boolean-set morphisms
    f: X -> Y and g: Y -> Z, plus the double-dual naturality squares."""
    X, Y, Z = f.source, f.target, g.target
    items = []

    for name, obj in (("X", X), ("Y", Y), ("Z", Z)):
        d = dual_of_bset_morphism(bset.identity_bset_morphism(obj))
        ident = etale.identity_relational(bset_to_etale(obj))
        items.append(_first_witness(f"dual_identity_{name}", _relational_differences(d, ident)))

    gf = bset.compose_bset_morphisms(g, f)
    lhs = dual_of_bset_morphism(gf)
    rhs = etale.compose_relational(dual_of_bset_morphism(f), dual_of_bset_morphism(g))
    items.append(_first_witness("dual_composition", _relational_differences(lhs, rhs)))

    for name, m in (("f", f), ("g", g), ("gf", gf)):
        dd = dual_of_relational(dual_of_bset_morphism(m))
        left = bset.compose_bset_morphisms(dd, bset_double_dual(m.source))
        right = bset.compose_bset_morphisms(bset_double_dual(m.target), m)
        items.append(_first_witness(f"naturality_{name}", _bset_differences(left, right)))
    return Report(items)


def check_functor_laws_relational(chi, psi):
    """Identity and composition laws for dualizing relational covering
    morphisms chi: S -> T and psi: T -> U, plus the etale-side naturality
    squares, which compose β (etale_double_dual) of each end as it is."""
    S, T, U = chi.source, chi.target, psi.target
    items = []

    for name, sp in (("S", S), ("T", T), ("U", U)):
        d = dual_of_relational(etale.identity_relational(sp))
        ident = bset.identity_bset_morphism(etale.dual_bset(sp))
        items.append(_first_witness(f"dual_identity_{name}", _bset_differences(d, ident)))

    pc = etale.compose_relational(psi, chi)
    lhs = dual_of_relational(pc)
    rhs = bset.compose_bset_morphisms(dual_of_relational(chi), dual_of_relational(psi))
    items.append(_first_witness("dual_composition", _bset_differences(lhs, rhs)))

    for name, rm in (("chi", chi), ("psi", psi), ("psi_chi", pc)):
        dd = dual_of_bset_morphism(dual_of_relational(rm))
        left = etale.compose_relational(dd, etale_double_dual(rm.source))
        right = etale.compose_relational(etale_double_dual(rm.target), rm)
        items.append(_first_witness(f"naturality_{name}", _relational_differences(left, right)))
    return Report(items)


def _bset_differences(f, g):
    """Where two Boolean-set morphisms out of one source differ: each
    element with two images, in element order, then each base element."""
    X, fb, gb = f.source, f.base_hom.mapping, g.base_hom.mapping
    yield from ((x,) for x in X.elements if f.mapping[x] != g.mapping[x])
    yield from ((e,) for e in X.base.elements if fb[e] != gb[e])


def _relational_differences(f, g):
    """Where two relational morphisms out of one space differ: each point
    with two images, in total-space order, then each base point."""
    sp = f.source
    yield from ((e,) for e in sp.total if f.phi[e] != g.phi[e])
    yield from ((x,) for x in sp.base if f.phibar[x] != g.phibar[x])


# ----------------------------------------------- dual-space topology suite

def check_topology(X):
    """The ten properties of the section topology of the dual space, checked
    exhaustively: the sets of ultrafilters through elements form a base,
    respect meets/joins/order, are sections, project onto Stone map images,
    are compact (finite guard), and exhaust the local sections of the dual.
    A failed property names its first witness, scanning elements (and pairs
    of them) in X.elements order.

    Each pair property is accepted by an exact check over whole rows of the
    point masks (_stone_masks), the meet table and the ∘/• index rows
    (bset._skew_rows); only when that check fails does the pair scan, over
    the same masks and rows, run in the same order to name the first
    witness:
    - base: the law holds iff the least set through each point (the meet
      of the sets through it) is itself one of the sets;
    - meets: each meet row's sets equal the row of intersections;
    - injective: the masks are distinct;
    - order: the elements whose sets contain a's are those through every
      point of a's set, which must be the elements above a;
    - joins: per row, the sets of the joins of the compatible pairs
      (x∘y = y∘x, joined by x•y) equal the unions;
    - sections: for a section a, the b with a section union are the
      sections with no other point in a fiber of a's points, and each must
      be compatible with a.
    """
    sp = bset_to_etale(X)
    pos, M, through, fibers = _stone_masks(X)
    els = X.elements
    circ, bullet = bset._skew_rows(X)
    meets = bset._meet_table(X)
    above = bset._order_masks(X)[1]
    n = len(els)

    # a point whose one-point set is basic lies in a basic set inside any
    # common set through it, so it is never a witness
    singles = 0
    for m in M:
        if m and not m & (m - 1):
            singles |= m

    def unbased():
        for i, j in product(range(n), repeat=2):
            common = M[i] & M[j]
            for k in _bits(common & ~singles):
                if not any(m >> k & 1 and not m & ~common for m in M):
                    yield els[i], els[j], sp.total[k]

    least = [-1] * len(through)
    for m in M:
        for k in _bits(m):
            least[k] &= m
    basic = set(M)
    based = all(s in basic for s in least if s != -1)

    meets_ok = all(list(map(M.__getitem__, row)) == list(map(and_, repeat(m), M))
                   for m, row in zip(M, meets))

    full = (1 << n) - 1
    supersets = []
    for m in M:
        s = full
        for k in _bits(m):
            s &= through[k]
        supersets.append(s)

    sections = [_one_per_fiber(m, fibers) for m in M]
    section_mask = sum(1 << i for i, ok in enumerate(sections) if ok)
    # per point, the elements through another point of its fiber
    clash = [0] * len(through)
    for f in fibers:
        for k in _bits(f):
            for k2 in _bits(f & ~(1 << k)):
                clash[k] |= through[k2]
    joins_ok = unions_ok = True
    for i, (m, crow, ccol, brow) in enumerate(zip(M, circ, zip(*circ), bullet)):
        comp = list(map(eq, crow, ccol))
        joins_ok = joins_ok and (list(map(M.__getitem__, compress(brow, comp)))
                                 == list(map(or_, repeat(m), compress(M, comp))))
        if unions_ok and sections[i]:
            union_sections = section_mask
            for k in _bits(m):
                union_sections &= ~clash[k]
            unions_ok = all(map(comp.__getitem__, _bits(union_sections)))

    stone, base_index = balg._ultra_masks(X.base)[1], X.base.index

    def shadow(m):
        return sum(1 << k for k, f in enumerate(fibers) if m & f)

    def witnesses(failing):
        return ((els[i], els[j]) for i, j in product(range(n), repeat=2) if failing(i, j))

    return Report([
        _first_witness("base_for_topology", () if based else unbased()),
        _first_witness("meet_is_intersection", () if meets_ok else witnesses(
            lambda i, j: (k := meets[i][j]) >= 0 and M[k] != M[i] & M[j])),
        _first_witness("injective_on_elements", () if len(basic) == n else witnesses(
            lambda i, j: (M[i] == M[j]) != (i == j))),
        _first_witness("order_reflecting", () if supersets == above else witnesses(
            lambda i, j: (not M[i] & ~M[j]) != bool(above[i] >> j & 1))),
        _first_witness("is_local_section", (
            (a,) for a, ok in zip(els, sections) if not ok)),
        _first_witness("join_is_union", () if joins_ok else witnesses(
            lambda i, j: circ[i][j] == circ[j][i] and M[bullet[i][j]] != M[i] | M[j])),
        _first_witness("union_section_implies_compatible", () if unions_ok else witnesses(
            lambda i, j: _one_per_fiber(M[i] | M[j], fibers) and circ[i][j] != circ[j][i])),
        _first_witness("projects_onto_stone_image", (
            (a,) for a, m in zip(els, M) if shadow(m) != stone[base_index[X.p(a)]])),
        # compactness of each point set: tautological at finite scale,
        # recorded as the guard that the dual has finitely many points
        CheckItem("compact", isinstance(len(sp.total), int)),
        _first_witness("sections_exhausted", (
            (s.ident,) for s in etale.all_sections(sp)
            if sum(1 << pos[g] for g in s.members) not in basic)),
    ])
