"""Right-hand skew Boolean algebras as double Cayley tables.

A carrier with two band operations (circ, bullet) and a zero: both
operations are bands, the absorption identities tie them together,
commutation in one operation is equivalent to commutation in the other, zero
annihilates circ, every principal down-set ``x↓ = {x∘s∘x : s}`` is a
unital Boolean algebra under the natural order, and circ is right normal
(x∘y∘z = y∘x∘z).

By the paper's theorem these algebras are exactly the skew algebras of
Boolean sets, products of primitive algebras in finite form, so
``validate_skew`` accepts by their atom coordinates and by nothing else
(``bset._reconstruct``): read off the ∘ rows of the atom classes among the
classes of equal ∘ rows (the R classes of a right normal band), they must
be a bijection onto the product of the atom stalks plus 0 under which both
tables are the product's, entry by entry.  That costs O(n^2); only then is
the Boolean set of the R classes built, from the certificate: one
``validate_balg`` of the class quotient, and every restriction read off a
certified ∘ row, with no second check of the class presheaf.  The algebra
keeps it, which ``from_skew`` returns and ``gamma_classes`` views.  When
the tables are refused the axioms are checked exhaustively, only to name
the first failed one: associativity by Light's test over a generating set
after the triples of the first row, with the triple scan only to name its
witness; SB1-SB4 by O(n^2) scans over pairs; SB5 by one ``validate_balg``
per element; right normality of ∘ last.  The associativity scans read a row only through its
contents, so they run once per class of c equal rows: O(g·c·n) for g
generators, and O(c·n^2) for the triple scan.  A ∘ table has one class per
R class (16 of 256 rows over four 3-element stalks), a • table one per row.
The distributive laws of ``check_consequences`` run per ∘ class the same
way.  Intended feasible bound about 512 elements.

This module keeps the tables, the axioms and their scans; the
correspondence with Boolean sets, both ways, lives in :mod:`skewstone.bset`,
the R classes and the certificate (``bset._reconstruct``) included.  The
natural order, x <= y iff x∘y = x, is the restriction order x = y|p(x) of
the presheaf of R classes (``bset.band_to_presheaf``), and meets are read
there.
"""

from dataclasses import dataclass
from operator import eq, getitem, itemgetter

from . import balg, bset
from ._memo import memo
from .errors import (
    NotABand,
    NotAMorphism,
    NotRightNormal,
    SkewAxiomViolation,
    StructureError,
    _band_endpoint,
)
from .report import Report, _first_witness


class SkewAlgebra:
    """Validated right-hand skew Boolean algebra.

    ``circ`` and ``bullet`` are index matrices in element order.  Built
    only by ``validate_skew``, which keeps the Boolean set of its R classes
    (``_bset``); the gamma quotient is a view of it.  Immutable
    after validation.
    """

    def __init__(self, elements, index, circ, bullet, zero_i):
        self.elements = elements
        self.index = index
        self.circ_t = circ
        self.bullet_t = bullet
        self._zero_i = zero_i

    def __repr__(self):
        return f"<SkewAlgebra {len(self.elements)} elements>"

    @property
    def zero(self):
        return self.elements[self._zero_i]

    def circ(self, x, y):
        return self.elements[self.circ_t[self.index[x]][self.index[y]]]

    def bullet(self, x, y):
        return self.elements[self.bullet_t[self.index[x]][self.index[y]]]

    def leq(self, x, y):
        """Natural partial order: x <= y iff x = x∘y."""
        i, j = self.index[x], self.index[y]
        return self.circ_t[i][j] == i

    def down_closure(self, x):
        """x↓ = {x∘s∘x : s}, in element order."""
        i = self.index[x]
        circ = self.circ_t
        seen = sorted({circ[circ[i][s]][i] for s in range(len(self.elements))})
        return tuple(self.elements[k] for k in seen)

    def down_algebra(self, x):
        """x↓ as a validated unital Boolean algebra under the natural order,
        for SB5's scan."""
        members = self.down_closure(x)
        pairs = [(u, v) for u in members for v in members if self.leq(u, v)]
        return balg.validate_balg(members, pairs, self.zero)


def _band_check(elements, table, op):
    """Idempotence, then associativity, each with its first witness in
    scan order.

    A left identity i (i·j = j for all j) holds no witness, as (i·j)·k =
    j·k = i·(j·k).  The triples (i, j, k) with i the first element whose
    row is not the identity are scanned first, then Light's test decides
    associativity; the rest of the (i, j, k) scan runs only when the test
    fails, to name the first failing triple, and finding none raises
    AssertionError, also under ``python -O``.  A failure in that row (an
    edited zero row of ∘, or the first edited row of • after its identity
    zero row) is thus found in O(n^2), where Light's test may meet it only
    at its last generators.

    Every scan reads row i only through its contents, so it runs once per
    class of equal rows (``bset._row_classes``, whose row tuples it reads),
    with one ``itemgetter`` per class: for c classes, Light's test costs
    O(g·c·n) for g generators and the triple scan O(c·n^2) plus O(n) per
    failing pair.  A ∘ table has one class per R class, 16 of 256 rows in
    a product of four 3-element stalks; a • table has n, and costs what it
    did row by row.
    """
    n = len(elements)
    for i in range(n):
        if table[i][i] != i:
            raise NotABand((elements[i],), op, "idempotent")
    cls, reps, _, distinct = bset._row_classes(elements, table, with_rows=True)
    identity = tuple(range(n))
    t = next((c for c, row in enumerate(distinct) if row != identity), None)
    if t is None:
        return  # every row the identity: i·j = j is associative
    rows = [distinct[c] for c in cls]
    picks = [itemgetter(*row) for row in distinct]
    witness = _assoc_witness(table, rows, picks, cls, reps[t:t + 1])
    if witness is None:
        if _light_associative(rows, cls, reps):
            return
        witness = _assoc_witness(table, rows, picks, cls, reps[t + 1:])
        if witness is None:
            raise AssertionError("Light's test refused, yet every triple associates")
    raise NotABand(tuple(elements[i] for i in witness), op, "assoc")


def _assoc_witness(table, rows, picks, cls, firsts):
    """The first (i, j, k) with (i·j)·k != i·(j·k), i in ``firsts``, or
    None.  ``rows`` are the rows as tuples, ``cls`` the class of equal rows
    of each element and ``picks`` one ``itemgetter`` per class.

    A pair (i, j) passes when the row of i·j is row j composed through row
    i; that reads only the value i·j and the contents of row j, so it is
    tested once per (i·j, class of j), in order of first j.  A failing pair
    always has a k, which names its first j.  ``firsts`` holds the first
    element of each class it scans, as an element whose row equals an
    earlier clean one is clean.
    """
    r = range(len(table))
    for i in firsts:
        ti = table[i]
        for v, c in dict.fromkeys(zip(ti, cls)):
            if rows[v] == picks[c](ti):
                continue
            j = next(j for j in r if ti[j] == v and cls[j] == c)
            tij, tj = table[v], table[j]
            for k in r:
                if tij[k] != ti[tj[k]]:
                    return i, j, k
    return None


def _light_associative(rows, cls, reps):
    """Light's associativity test over a greedily chosen generating set.

    The middles a with (x·a)·y = x·(a·y) for all x, y form a submagma, so
    the operation is associative iff every generator is such a middle.
    Elements are visited in descending order of the size of their row's
    image; each one the chosen generators do not yet produce becomes a
    generator and is tested at once, then the closure grows by it.  A test
    compares the row of x·a with row a composed through row x; it reads
    only row x, so it runs for the first x of each class of equal rows
    (``cls``, with first elements ``reps``), and the image sizes are
    counted once per class.  ``rows`` are the table's rows as tuples, at
    least two of them, as ``itemgetter`` with one index returns a scalar.
    """
    n = len(rows)
    inside = bytearray(n)
    members = []
    xs = [rows[r] for r in reps]
    size = [len(set(t)) for t in xs]
    for a in sorted(range(n), key=lambda i: size[cls[i]], reverse=True):
        if inside[a]:
            continue
        xa = [tx[a] for tx in xs]
        if not all(map(eq, map(rows.__getitem__, xa), map(itemgetter(*rows[a]), xs))):
            return False
        inside[a] = 1
        members.append(a)
        new = [a]
        while new:
            found = set()
            for u in new:
                found.update(map(rows[u].__getitem__, members))
            for v in members:
                found.update(map(rows[v].__getitem__, new))
            new = [p for p in found if not inside[p]]
            for p in new:
                inside[p] = 1
            members.extend(new)
    return True


def _not_an_element(what, entry):
    return ValueError(f"{what} entry {entry!r} is not an element")


def _zero_index(index, zero):
    if zero not in index:
        raise ValueError(f"zero {zero!r} is not an element")
    return index[zero]


def _as_index_table(elements, index, rows, what):
    """The id table ``rows`` as index rows, for callers that pass id tables
    (the parser makes index rows itself).  Each distinct row object is
    translated once, so rows that share an id list share one index row; the
    length of every row is checked, and the first bad row raises."""
    n = len(elements)
    if len(rows) != n:
        raise ValueError(f"{what} table needs {n} rows, got {len(rows)}")
    out, done = [], {}
    pos = index.__getitem__
    for r, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{what} row {elements[r]!r} needs {n} entries")
        t = done.get(id(row))
        if t is None:
            try:
                t = done[id(row)] = list(map(pos, row))
            except KeyError as k:
                raise _not_an_element(what, k.args[0]) from None
        out.append(t)
    return out


def validate_skew(elements, circ_table, bullet_table, zero):
    """Check SB1 through SB5 and right normality, and return the validated
    algebra.

    Tables are row-major in element order, rows of ids; ``_validate_index``
    is the same check on index rows, which the parser gives
    (``textio._build_stanza``).  Acceptance is decided only by
    the finite form of the paper's theorem (bset._reconstruct): the tables
    are accepted when the atom coordinates read off their ∘ rows make them
    the product of the primitive algebras on the atom classes plus 0,
    entry by entry, at O(n^2).  The Boolean set that their R classes form
    is then built from the certificate, with one validate_balg of the 2^m
    classes of the quotient and its restrictions read off the certified ∘
    rows, and kept: from_skew returns it and gamma_classes views it.
    Refused tables are scanned from the start to name the violated axiom
    with a witness tuple, the first in scan order: the band checks (Light's
    test, with the triple scan only to find the witness; the ∘ check is
    left out when ∘ alone passed the certificate), SB1-SB4 over pairs,
    SB5, which materializes each x↓ and validates it as a unital Boolean
    algebra under the natural order, and last right normality of ∘.
    """
    elements, index = balg._index_elements(elements)
    z = _zero_index(index, zero)
    circ = _as_index_table(elements, index, circ_table, "circ")
    bullet = _as_index_table(elements, index, bullet_table, "bullet")
    return _validate_index(elements, index, circ, bullet, z)


def _validate_index(elements, index, circ, bullet, z, X=None):
    """validate_skew on index tables, the zero at index ``z``.  The one
    place a SkewAlgebra is built, so every algebra holds its Boolean set.
    The classes of equal ∘ rows (bset._row_classes) are found once here,
    and the algebra keeps one ∘ row object per class, however the caller
    shared them.  ``X`` is passed only by to_skew(X), with the tables it
    built from X's coordinates: they are read back (bset._read_back), the
    certificate's coordinate half alone, and the algebra keeps X.  Any
    other tables go through the whole certificate (bset._reconstruct), and
    the algebra keeps the set it builds.  A read-back that does not give X
    back, and a refusal that no axiom explains, raise AssertionError, also
    under ``python -O``."""
    classes = bset._row_classes(elements, circ)
    cls, reps, _ = classes
    circ = list(map([circ[r] for r in reps].__getitem__, cls))
    S = SkewAlgebra(elements, index, circ, bullet, z)
    if X is not None:
        bset._read_back(X, elements, circ, z, classes)
    else:
        X, circ_ok = bset._reconstruct(elements, circ, bullet, z, classes)
        if X is None:
            _axiom_scan(S, circ_ok)
            raise AssertionError("certificate failed, yet every axiom holds")
    S._bset = S._presheaf = X
    return S


def _axiom_scan(S, circ_is_band):
    """The exhaustive SB1-SB5 and right normality checks in scan order,
    raising the first failure; the ∘ band check is left out when
    ``circ_is_band``.  Right normality runs last, so every input that
    breaks SB1-SB5 keeps its (law, witness)."""
    elements, circ, bullet, z = S.elements, S.circ_t, S.bullet_t, S._zero_i
    n = len(elements)
    if not circ_is_band:
        _band_check(elements, circ, "circ")
    _band_check(elements, bullet, "bullet")

    for i in range(n):
        for j in range(n):
            if circ[i][bullet[i][j]] != i or circ[bullet[j][i]][i] != i:
                raise SkewAxiomViolation("SB1", (elements[i], elements[j]))
            if bullet[i][circ[i][j]] != i or bullet[circ[j][i]][i] != i:
                raise SkewAxiomViolation("SB1", (elements[i], elements[j]))

    for i in range(n):
        for j in range(n):
            if circ[circ[i][j]][i] != circ[j][i]:
                raise SkewAxiomViolation("SB2", (elements[i], elements[j]))
            if bullet[bullet[i][j]][i] != bullet[i][j]:
                raise SkewAxiomViolation("SB2", (elements[i], elements[j]))

    for i in range(n):
        for j in range(n):
            if (bullet[i][j] == bullet[j][i]) != (circ[i][j] == circ[j][i]):
                raise SkewAxiomViolation("SB3", (elements[i], elements[j]))

    for i in range(n):
        if circ[z][i] != z or circ[i][z] != z:
            raise SkewAxiomViolation("SB4", (elements[i],))

    for x in elements:
        try:
            S.down_algebra(x)
        except StructureError as inner:
            raise SkewAxiomViolation(
                "SB5", (x,), detail=f"x↓ fails {inner.law} witness=({','.join(inner.witness)})"
            ) from inner

    for witness in _right_normal_witnesses(elements, circ):
        raise NotRightNormal(witness)


# ------------------------------------------------------------- derived order

def natural_leq(S, x, y):
    """x <= y iff x = x∘y; equivalently y = x•y (asserted in debug runs)."""
    out = S.leq(x, y)
    if __debug__:
        assert out == (S.bullet(x, y) == y), (x, y)
    return out


def skew_rel_complement(S, x, y):
    """x\\y = x|(p(x) \\ p(y)), the complement of y∘x inside x↓."""
    return S._bset.setminus(x, y)


def meet(S, x, y):
    """Greatest lower bound under the natural order, or None when absent;
    absence is a first-class outcome."""
    return bset.band_to_presheaf(S).meet_elem(x, y)


def is_wedge_algebra(S):
    return bset.band_to_presheaf(S).has_binary_meets


# ----------------------------------------------------------- gamma quotient

@dataclass(eq=False)
class GammaQuotient:
    """Partition by Green's R-relation of (S,∘) with its Boolean quotient."""

    algebra: balg.FinBooleanAlgebra
    class_of: dict
    classes: dict


@memo("_gamma")
def gamma_classes(S):
    """The partition x R y iff x∘y = y and y∘x = x with its Boolean
    quotient: the base and stalks of the Boolean set that validate_skew
    kept on S, with ``class_of`` in S's element order."""
    X = S._bset
    return GammaQuotient(X.base, {x: X.stalk_of[x] for x in S.elements}, X.stalks)


# -------------------------------------------------------------- consequences

def _right_normal_witnesses(elements, t):
    """Every (x, y, z) with x∘y∘z != y∘x∘z, in scan order, for the ∘ index
    table t; the rows of x∘y and y∘x are compared whole first, and not at
    all when they are one list, as they are in a valid parsed or to_skew
    table: x∘y and y∘x lie in one R class, whose rows share one list."""
    r = range(len(t))
    for i in r:
        for j in r:
            rij, rji = t[t[i][j]], t[t[j][i]]
            if rij is not rji and rij != rji:
                for k in r:
                    if rij[k] != rji[k]:
                        yield elements[i], elements[j], elements[k]


def _left_distributivity_witnesses(elements, circ, bullet, reps):
    """The (x, y, z) with x∘(y•z) != (x∘y)•(x∘z), the first z of each
    failing (x, y), in scan order, for x the first element of each class of
    equal ∘ rows (``reps``): the law reads x only through its ∘ row, so the
    first of these is the first witness of the full scan.  For each y the
    z-vectors of both sides are built whole."""
    r = range(len(elements))
    for i in reps:
        ci = circ[i]
        at = ci.__getitem__
        for j, bj in enumerate(bullet):
            lhs = list(map(at, bj))
            rhs = list(map(bullet[ci[j]].__getitem__, ci))
            if lhs != rhs:
                k = next(k for k in r if lhs[k] != rhs[k])
                yield elements[i], elements[j], elements[k]


def _right_distributivity_witness(elements, circ, bullet, cls):
    """The least (x, y, z) with (y•z)∘x != (y∘x)•(z∘x), as a sequence of at
    most one witness.

    For fixed (y, z) the x-vector of both sides reads only the ∘ rows of
    y•z, y and z, so the first failing x is computed once per triple of
    classes of equal ∘ rows (``cls``); the pairs (y, z) are visited in
    order, once per (class of y•z, class of z) for each y, and only the
    running minimum is kept.
    """
    n = len(elements)
    r = range(n)
    first = {}
    least, best = n, ()
    for j in r:
        bj, cj = bullet[j], cls[j]
        across = list(map(bullet.__getitem__, circ[j]))  # the • rows of y∘x
        # keys in order of their first z; each value is a z of that key
        for (cw, ck), z in dict(zip(zip(map(cls.__getitem__, bj), cls), r)).items():
            fi = first.get((cw, cj, ck))
            if fi is None:
                lhs, rhs = circ[bj[z]], list(map(getitem, across, circ[z]))
                fi = n if lhs == rhs else next((i for i in r if lhs[i] != rhs[i]), n)
                first[cw, cj, ck] = fi
            if fi < least:
                k = next(k for k in r if cls[k] == ck and cls[bj[k]] == cw)
                least, best = fi, ((elements[fi], elements[j], elements[k]),)
    return best


def check_consequences(S):
    """Exhaustively verify the derived identities of a validated algebra:
    circ distributes over bullet on both sides, the gamma classes (the
    classes of equal ∘ rows) are Green's R classes by its definition, x R y
    iff x∘y = y and y∘x = x (so right zero for circ), and are left zero for
    bullet, (S,∘) is right normal (x∘y∘z = y∘x∘z, by comparing the rows of
    x∘y and y∘x), and zero is the bullet identity.  A failed identity names
    its first witness, scanning elements in S.elements order.

    Both distributive laws read ∘ only through rows, so each runs once per
    class of equal ∘ rows (one per R class of a valid algebra): the left
    law in O(c·n^2) for c classes, as whole vectors, and the right law in
    O(n·c) pair visits plus O(n) per triple of classes met.  The R-class
    laws scan pairs, and right normality compares the rows of x∘y and y∘x
    for every pair, O(n^2) row comparisons.
    """
    circ, bullet = S.circ_t, S.bullet_t
    els = S.elements
    r = range(len(els))
    cls, reps, _ = bset._row_classes(els, circ)
    z = S.index[S.zero]
    return Report([
        _first_witness("circ_over_bullet_left",
                       _left_distributivity_witnesses(els, circ, bullet, reps)),
        _first_witness("circ_over_bullet_right",
                       _right_distributivity_witness(els, circ, bullet, cls)),
        _first_witness("gamma_right_zero_circ", (
            (els[i], els[j]) for i in r for j in r
            if (cls[i] == cls[j]) != (circ[i][j] == j and circ[j][i] == i))),
        _first_witness("gamma_left_zero_bullet", (
            (els[i], els[j]) for i in r for j in r
            if cls[i] == cls[j] and bullet[i][j] != i)),
        _first_witness("right_normal_circ", _right_normal_witnesses(els, circ)),
        _first_witness("bullet_identity_zero", (
            (els[i],) for i in r if bullet[z][i] != i or bullet[i][z] != i)),
    ])


# ----------------------------------------------------------------- morphisms

@dataclass(eq=False)
class SkewMorphism:
    """Map preserving circ, bullet and zero, with its induced quotient hom."""

    source: SkewAlgebra
    target: SkewAlgebra
    mapping: dict
    induced: balg.BAHom


def validate_skew_morphism(mapping, S, T):
    """Check that ``mapping`` is a total map of S's elements to T's
    (balg._index_map) that preserves the zero, then ∘ and • pair by pair
    (balg._unpreserved).  The induced map of gamma quotients is the base
    hom of ``mapping`` as a morphism of the Boolean sets that S and T
    keep (bset.validate_bset_morphism): by the paper's theorem such
    a map is one, so BM1/BM2 never refuse it.  A right normal band as an
    endpoint is refused with a ValueError."""
    for end, obj in (("source", S), ("target", T)):
        if isinstance(obj, bset.RightNormalBand):
            raise _band_endpoint(end)
    f = balg._index_map(mapping, S, T, "map", "a source element")
    if f[S._zero_i] != T._zero_i:
        raise NotAMorphism((S.zero,), "zero")
    bad = balg._unpreserved(f, S.circ_t, T.circ_t, S.bullet_t, T.bullet_t)
    if bad is not None:
        i, j, k = bad
        raise NotAMorphism((S.elements[i], S.elements[j]), ("circ", "bullet")[k])
    induced = bset.validate_bset_morphism(mapping, None, S._bset, T._bset).base_hom
    return SkewMorphism(S, T, dict(mapping), induced)


def is_wedge_morphism(phi):
    """Whether the morphism preserves binary meets of the natural order,
    which are those of the Boolean sets of its ends (Presheaf.preserves_meets)."""
    return bset.from_skew(phi.source).preserves_meets(phi.mapping, bset.from_skew(phi.target))


def compose_skew_morphisms(g, f):
    if f.target is not g.source:
        raise AssertionError("f.target is not g.source")
    return validate_skew_morphism(
        {x: g.mapping[f.mapping[x]] for x in f.source.elements}, f.source, g.target
    )


def skew_struct_eq(S, T):
    """Equality as labeled structures: same ids, same zero, same tables."""
    if set(S.elements) != set(T.elements) or S.zero != T.zero:
        return False
    if S.elements == T.elements:
        return S.circ_t == T.circ_t and S.bullet_t == T.bullet_t
    return all(
        S.circ(x, y) == T.circ(x, y) and S.bullet(x, y) == T.bullet(x, y)
        for x in S.elements for y in S.elements
    )


def enumerate_skew_morphisms(S, T):
    """All morphisms S -> T, each validated (validate_skew_morphism): by the
    paper's theorem they are the morphisms of the Boolean sets that S and T
    keep (bset.enumerate_bset_morphisms), in that order."""
    for m in bset.enumerate_bset_morphisms(S._bset, T._bset):
        yield validate_skew_morphism(m.mapping, S, T)
