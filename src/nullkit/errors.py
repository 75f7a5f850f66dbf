"""Exception types shared across the toolkit.

Every error raised on a bad input or a violated precondition is a subclass
of NullkitError, so callers (in particular the command line driver) can
separate input problems from genuine assertion failures.
"""


class NullkitError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(NullkitError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(NullkitError):
    """The supplied (or requested) modulus polynomial is not irreducible."""


class NoDefaultModulus(NullkitError):
    """No built-in irreducible modulus is known for this field size."""


class DivisionByZero(NullkitError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class FieldMismatch(NullkitError):
    """Operands belong to different or incompatible fields."""


class RingMismatch(NullkitError):
    """Operands belong to different polynomial rings."""


class ParseError(NullkitError):
    """Malformed input text: the bare reason, and its position if known."""

    def __init__(self, reason, position=None):
        super().__init__(reason if position is None
                         else f"{reason} (at position {position})")
        self.reason = reason
        self.position = position


class UnknownVariable(ParseError):
    """A name in the input is not a declared ring variable."""


class DimensionMismatch(NullkitError):
    """A point has the wrong number of coordinates for the ambient space."""


class ArityMismatch(NullkitError):
    """A substitution received the wrong number of arguments."""


class ZeroDivisorIdeal(NullkitError):
    """Quotient or saturation by the zero ideal."""


class DegreeOverflow(NullkitError):
    """A Groebner computation exceeded the degree or basis-size guard."""


class SizeOverflow(NullkitError):
    """A point enumeration would exceed the configured size limit."""


class NonHomogeneousProjective(NullkitError):
    """A projective zero set was requested for a non-homogeneous ideal."""


class EmptyVariety(NullkitError):
    """An operation that needs points was given an empty variety."""


class NonHomogeneousGenerator(NullkitError):
    """A stored generator that must be homogeneous is not."""


class ClassificationFailure(NullkitError):
    """An empty projective zero set fits neither branch of the dichotomy."""


class ZeroGeneratorCount(NullkitError):
    """A certificate needs at least one nonzero stored generator."""


class NotInVanishingIdeal(NullkitError):
    """Membership certification requested for a non-member."""


class SuiteFailure(NullkitError):
    """A checked step of the counterexample suite did not hold."""


class InconsistentTower(NullkitError):
    """The declared coefficient/point fields do not form one tower."""
