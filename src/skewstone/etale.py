"""Finite etale spaces over finite (hence discrete) base spaces.

A finite Hausdorff space is discrete, so a finite Boolean space carries no
extra data beyond its point set and every surjection of finite sets is a
surjective local homeomorphism; topology is implicit throughout, which is
recorded here because it collapses the Hausdorff distinction of the
meets-vs-Hausdorff correspondence at desk scale.

Sections are represented as subsets of the total space with injective
projection, so the restriction and join constructions are literal set
operations (intersection with a fiber preimage, union with a complement
restriction).
"""

from dataclasses import dataclass, field
from itertools import product

from . import balg, bset
from ._memo import memo
from .errors import (
    FiberViolation,
    NotCompatible,
    NotCovering,
    NotNested,
    NotSurjective,
)


class FinEtaleSpace:
    """Surjection p: E -> X of finite sets with a stalk index."""

    def __init__(self, total, base, proj):
        self.total = total
        self.base = base
        self.proj = proj
        self.fibers = {
            x: tuple(e for e in total if proj[e] == x) for x in base
        }

    def __repr__(self):
        return f"<FinEtaleSpace {len(self.total)} over {len(self.base)}>"


def validate_etale(total, base, proj):
    total, points = balg._index_elements(total)
    base, base_index = balg._index_elements(base)
    balg._refuse_stray_keys(proj, points, "projection", "a point of the total space")
    for e in total:
        if e not in proj:
            raise ValueError(f"projection not total: missing {e!r}")
        if proj[e] not in base_index:
            raise ValueError(f"projection image {proj[e]!r} not a base point")
    image = {proj[e] for e in total}
    for x in base:
        if x not in image:
            raise NotSurjective((x,))
    return FinEtaleSpace(total, base, {e: proj[e] for e in total})


@dataclass(frozen=True)
class LocalSection:
    """Subset of the total space on which the projection is injective."""

    space: FinEtaleSpace = field(compare=False)
    members: frozenset = field()

    @property
    def footprint(self):
        """The base set this section is over."""
        return frozenset(self.space.proj[e] for e in self.members)

    @property
    def ident(self):
        return balg.render_braces(self.space.total)(self.members)

    def over(self, x):
        """The unique member over base point x."""
        for e in self.members:
            if self.space.proj[e] == x:
                return e
        raise KeyError(x)

    def __repr__(self):
        return f"Section({self.ident})"


def make_section(space, members):
    members = frozenset(members)
    seen = {}
    for e in members:
        x = space.proj[e]
        if x in seen:
            raise ValueError(f"not a section: {seen[x]!r} and {e!r} share fiber {x!r}")
        seen[x] = e
    return LocalSection(space, members)


def _base_points(sp, A):
    """The points of the base subset A, in base order; A is read once, and a
    ValueError names the least id of A that is not a base point."""
    A = frozenset(A)
    stray = A.difference(sp.fibers)
    if stray:
        raise ValueError(f"{min(stray)!r} is not a base point")
    return [x for x in sp.base if x in A]


def sections_over(sp, A):
    """All sections over the base subset A: one fiber choice per point.

    Deterministic order: the product of fiber choices, points in base order.
    The empty subset yields the single empty section.
    """
    out = []
    for choice in product(*(sp.fibers[x] for x in _base_points(sp, A))):
        out.append(LocalSection(sp, frozenset(choice)))
    return tuple(out)


def construct_section(sp, A):
    """The lexicographically least transversal over A."""
    return LocalSection(sp, frozenset(sp.fibers[x][0] for x in _base_points(sp, A)))


def all_sections(sp):
    """Every local section, ordered by base-subset bitmask then fiber choice."""
    out = []
    for mask in range(1 << len(sp.base)):
        out.extend(sections_over(sp, map(sp.base.__getitem__, balg._bits(mask))))
    return tuple(out)


def restrict_section(C, A, B):
    """C|^A_B = C ∩ p^{-1}(B), for B ⊆ A = p(C); a NotNested names its
    points in base order, then any stray ids sorted."""
    A, B = frozenset(A), frozenset(B)
    rank = {x: (0, k) for k, x in enumerate(C.space.base)}
    if C.footprint != A:
        raise NotNested(tuple(sorted(A ^ C.footprint, key=lambda x: rank.get(x, (1, x)))),
                        detail="A is not the footprint of C")
    if not B <= A:
        raise NotNested(tuple(sorted(B - A, key=lambda x: rank.get(x, (1, x)))))
    return LocalSection(C.space, frozenset(e for e in C.members if C.space.proj[e] in B))


def sections_compatible(a, b):
    """Compatibility in the dual order: greatest common restriction projects
    onto the footprint intersection, which means agreement on the overlap."""
    overlap = a.footprint & b.footprint
    agree = frozenset(
        x for x in overlap if a.over(x) == b.over(x)
    )
    return agree == overlap


def join_sections(a, b):
    """a ∨ b = a ∪ b|_{p(b) \\ p(a)}, the least upper bound of a and b."""
    sp = a.space
    if not sections_compatible(a, b):
        bad = next(
            x for x in a.footprint & b.footprint if a.over(x) != b.over(x)
        )
        raise NotCompatible((a.ident, b.ident, bad))
    tail = frozenset(e for e in b.members if sp.proj[e] not in a.footprint)
    return LocalSection(sp, a.members | tail)


@memo("_dual")
def dual_bset(sp):
    """The Boolean set of sections over the powerset algebra of the base.

    All subsets of a finite discrete space are compact-open, so this is the
    product section set of ``bset._product_sections`` over the base points
    and their fibers, built from its atom coordinates and accepted by their
    certificate, with no cover walk: the dual is the product of the fibers
    over the powerset of the base.  Section ids list their members in
    ``sp.total`` order, each sorted by its rank there, so an id costs
    O(|choice| log |choice|) and not a scan of the total space.  The
    returned Boolean set carries ``sections`` (element id -> member
    frozenset), ``space`` and ``base_sets`` (base id -> subset) attributes
    for downstream use.  Cached per space so repeated dualizations share one
    object.
    """
    rank = {e: k for k, e in enumerate(sp.total)}
    X, set_of, parts = bset._product_sections(
        sp.base, sp.fibers, balg.render_braces(sp.base),
        lambda choice: "{" + ",".join(sorted(choice, key=rank.__getitem__)) + "}")
    X.sections = {sid: frozenset(pts.values()) for sid, pts in parts.items()}
    X.space = sp
    X.base_sets = set_of
    return X


# ------------------------------------------------------ relational morphisms

@dataclass(eq=False)
class RelationalMorphism:
    """Set-valued fiber-respecting map with computed flags.

    Continuity and properness are identically true for finite discrete
    spaces and recorded as constants so reports state what was computed.
    """

    source: FinEtaleSpace
    target: FinEtaleSpace
    phi: dict
    phibar: dict
    locally_injective: bool
    locally_surjective: bool
    partial_map: bool
    continuous: bool = True
    proper: bool = True

    @property
    def covering(self):
        return self.locally_injective and self.locally_surjective


def validate_relational_morphism(phi, phibar, sp, tq):
    """Check the fiber condition and compute the morphism flags.

    Locally surjective uses the strong reading: for every target point y and
    every base point e with q(y) = phibar(e) there is x over e with y in
    phi(x).
    """
    balg._refuse_stray_keys(phi, sp.proj, "phi", "a source point")
    balg._refuse_stray_keys(phibar, sp.fibers, "phibar", "a source base point")
    for x in sp.base:
        if x not in phibar or phibar[x] not in tq.base:
            raise ValueError(f"base map not total at {x!r}")
    norm = {}
    for e in sp.total:
        if e not in phi:
            raise ValueError(f"phi not total: missing {e!r}")
        img = frozenset(phi[e])
        for f in img:
            if f not in tq.proj:
                raise ValueError(f"phi({e!r}) contains unknown point {f!r}")
        norm[e] = img
    for e in sp.total:
        want = phibar[sp.proj[e]]
        for f in norm[e]:
            if tq.proj[f] != want:
                raise FiberViolation((e,), detail=f"{f!r} lies over {tq.proj[f]!r}, not {want!r}")

    inj = _overlap(sp, norm) is None
    surj = _missed(sp, tq, norm, phibar) is None
    partial = all(len(norm[e]) <= 1 for e in sp.total)
    return RelationalMorphism(sp, tq, norm, dict(phibar), inj, surj, partial)


def _overlap(sp, phi):
    """The first two points of one source fiber whose images under ``phi``
    meet, base points and fibers in order, or None when locally injective."""
    for x in sp.base:
        fib = sp.fibers[x]
        for i, e1 in enumerate(fib):
            for e2 in fib[i + 1:]:
                if phi[e1] & phi[e2]:
                    return e1, e2
    return None


def _missed(sp, tq, phi, phibar):
    """The first source base point e and target point y over phibar(e) that
    no image of e's fiber contains, base points and fibers in order, or None
    when locally surjective."""
    for e in sp.base:
        for y in tq.fibers[phibar[e]]:
            if not any(y in phi[x] for x in sp.fibers[e]):
                return e, y
    return None


def identity_relational(sp):
    return validate_relational_morphism(
        {e: {e} for e in sp.total}, {x: x for x in sp.base}, sp, sp
    )


def compose_relational(psi, phi):
    """(psi ∘ phi)(x) = union of psi over phi(x)."""
    if phi.target is not psi.source:
        raise AssertionError("phi.target is not psi.source")
    out = {
        e: frozenset(z for f in phi.phi[e] for z in psi.phi[f])
        for e in phi.source.total
    }
    bar = {x: psi.phibar[phi.phibar[x]] for x in phi.source.base}
    return validate_relational_morphism(out, bar, phi.source, psi.target)


def require_covering(rm):
    """``rm`` when it is covering; else NotCovering names the first two
    points of one fiber whose images meet (_overlap) or, for a locally
    injective ``rm``, the base point and the target point that its fiber
    misses (_missed)."""
    if rm.covering:
        return rm
    if not rm.locally_injective:
        raise NotCovering(_overlap(rm.source, rm.phi), detail="not locally injective")
    raise NotCovering(_missed(rm.source, rm.target, rm.phi, rm.phibar),
                      detail="not locally surjective")


def enumerate_covering_relational(sp, tq):
    """All covering relational morphisms sp -> tq.

    Per base point, a covering morphism is exactly a function from the target
    fiber over the image point back to the source fiber (each target point is
    claimed by one source point); enumerate base maps, then those functions.
    """
    for bar_choice in product(tq.base, repeat=len(sp.base)):
        phibar = dict(zip(sp.base, bar_choice))
        per_point = []
        for e in sp.base:
            src = sp.fibers[e]
            dst = tq.fibers[phibar[e]]
            per_point.append([dict(zip(dst, owners)) for owners in product(src, repeat=len(dst))])
        for combo in product(*per_point):
            phi = {x: set() for x in sp.total}
            for claims in combo:
                for y, owner in claims.items():
                    phi[owner].add(y)
            rm = validate_relational_morphism(phi, phibar, sp, tq)
            if rm.covering:
                yield rm
