"""Exception types used across the package.

Every structural failure names a law and carries a minimal witness tuple of
element ids, so a rejection can be replayed against the raw input data with
``skewstone.laws`` (or the ``replay`` CLI subcommand) independently of the
validator that produced it.
"""


class DocumentError(Exception):
    """Problem at the text-format level (parsing, references, names)."""


class ParseError(DocumentError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class UnresolvedReference(DocumentError):
    def __init__(self, name, line=None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unresolved reference {name!r}{where}")


class DuplicateName(DocumentError):
    def __init__(self, name, line=None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate stanza name {name!r}{where}")


def _band_endpoint(name):
    """The ValueError for a morphism endpoint, named ``name``, that is a
    right normal band: a band has no zero and no bullet, so no morphisms."""
    return ValueError(f"{name} is a right normal band (a skew stanza without "
                      "bullet:), which has no morphisms")


class StructureError(Exception):
    """A named law failed on concrete elements.

    ``law`` is a stable dotted identifier, ``witness`` a tuple of element ids
    (chains are encoded as ``"e>f>g"``).
    """

    law = "structure"

    def __init__(self, witness=(), detail="", law=None):
        if law is not None:
            self.law = law
        self.witness = tuple(str(w) for w in witness)
        msg = f"{self.law} witness=({','.join(self.witness)})"
        if detail:
            msg += f" {detail}"
        self.detail = detail
        super().__init__(msg)


# ---------------------------------------------------------------- order / balg

class NotAPoset(StructureError):
    law = "order.antisymmetry"


class NotALattice(StructureError):
    def __init__(self, witness, kind, detail=""):
        super().__init__(witness, detail, law=f"order.{kind}_exists")


class NotDistributive(StructureError):
    law = "lattice.distributivity"


class NoBottom(StructureError):
    law = "lattice.bottom"


class NoRelativeComplement(StructureError):
    law = "lattice.relative_complement"


class NotAHomomorphism(StructureError):
    def __init__(self, witness, kind, detail=""):
        super().__init__(witness, detail, law=f"hom.{kind}")


class NotProper(StructureError):
    law = "hom.proper"


class NotDistinct(StructureError):
    law = "argument.distinct"


class ZeroArgument(StructureError):
    law = "argument.nonzero"


class NotDisjoint(StructureError):
    law = "argument.disjoint"


# ---------------------------------------------------------------------- skew

class NotABand(StructureError):
    def __init__(self, witness, op, kind, detail=""):
        super().__init__(witness, detail, law=f"band.{kind}.{op}")


class SkewAxiomViolation(StructureError):
    def __init__(self, axiom, witness, detail=""):
        super().__init__(witness, detail, law=f"skew.{axiom}")


class NotAMorphism(StructureError):
    def __init__(self, witness, op, detail=""):
        super().__init__(witness, detail, law=f"morphism.{op}")


# ---------------------------------------------------------------------- bset

class PathDependent(StructureError):
    law = "presheaf.path_independence"


class MissingRestriction(StructureError):
    law = "presheaf.restriction"


class StalkCollision(StructureError):
    law = "presheaf.stalk_disjoint"


class NoGlobalSupport(StructureError):
    law = "bset.global_support"


class ZeroStalkNotTrivial(StructureError):
    law = "bset.zero_stalk"


class MissingJoin(StructureError):
    law = "bset.compatible_join"


class InternalMissingJoin(StructureError):
    law = "bset.internal_join"


class BM1Violation(StructureError):
    law = "bsetmor.BM1"


class BM2Violation(StructureError):
    law = "bsetmor.BM2"


class NotRightNormal(StructureError):
    law = "band.right_normal"


class EmptySizes(StructureError):
    law = "argument.sizes"


# --------------------------------------------------------------------- etale

class NotSurjective(StructureError):
    law = "etale.surjective"


class NotNested(StructureError):
    law = "section.nested"


class NotCompatible(StructureError):
    law = "section.compatible"


class FiberViolation(StructureError):
    law = "relmor.fiber"


class NotCovering(StructureError):
    law = "relmor.covering"


# ------------------------------------------------------------------- duality

class NoBinaryMeets(StructureError):
    law = "bset.binary_meets"
