"""Exception types shared across the package.

Names follow the error vocabulary of the public operation contracts so that
callers (and the CLI) can catch conditions by meaning rather than by message.
"""


class SubtleError(Exception):
    """Base class for all package errors."""


class AlphaIsSquare(SubtleError):
    """The designated degree-1 class reduces to 0, or no such class exists."""


class NonHomogeneousRelation(SubtleError):
    """A relation mixes bidegrees."""


class EmptyGeneratorNameClash(SubtleError):
    """A generator name is empty or collides with another one."""


class NegativeBidegree(SubtleError):
    """A generator's bidegree is negative or (0)[0], so a cell could be infinite."""


class UnknownGenerator(SubtleError):
    """An expression references a generator the presentation does not have."""


class ZeroElement(SubtleError):
    """An operation received 0 where a nonzero element is required."""


class BoundTooSmall(SubtleError):
    """Requested truncation bound cannot accommodate the input relations."""


class ExceedsBound(SubtleError):
    """An element or box lies outside the certified truncation bound."""


class ResourceLimit(SubtleError):
    """A computation exceeded its configured resource budget."""


class ZeroDivisorOfEverything(SubtleError):
    """Colon-ideal divisor reduces to 0, so the colon ideal is the whole ring."""


class ShapeMismatch(SubtleError):
    """A table is missing the metadata required by the operation."""


class BidegreeMismatch(SubtleError):
    """An assigned image or value does not sit in the required bidegree."""


class MissingRhoDesignation(SubtleError):
    """The field model does not name a class playing {-1}, needed for Sq1 on tau."""


class UnknownDerivationValue(SubtleError):
    """Sq1 was applied to an element involving a generator with unsolved value."""


class UnsupportedAtom(SubtleError):
    """A formal motive atom has no dimension table in this artifact."""


class UnsupportedTensor(SubtleError):
    """No decomposition rule covers this tensor product of atoms."""


class UnsupportedBlock(SubtleError):
    """The block identifier is outside the range this builder supports."""


class InvalidModuleProduct(SubtleError):
    """Two module elements were multiplied; module generators admit no products."""


class RelationLeavesModule(SubtleError):
    """A relation of a module without a unit component mixes monomials free of
    module generators with module monomials."""
