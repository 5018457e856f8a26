"""Exception hierarchy shared by all hankelkit modules."""


class HankelkitError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(HankelkitError, ZeroDivisionError):
    """Division by the zero field element (or zero raised to a negative power)."""


class PoleAtPoint(HankelkitError):
    """Specialization point is a root of the reduced denominator."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"denominator vanishes at q = {point}")


class ParseError(HankelkitError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnsupportedNegativeUpper(HankelkitError):
    """Gaussian binomial with negative upper index is not defined here."""


class PoleInSequence(HankelkitError):
    """A denominator factor of a moment generator vanished."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"moment generator has a pole at term {index}")


class SingularLeadingMinor(HankelkitError):
    """A leading principal minor vanished during LDL^t elimination."""

    def __init__(self, order):
        self.order = order
        super().__init__(f"leading principal minor of order {order} is zero")


class NotNormalized(HankelkitError):
    """Moment sequence does not start with c(0) = 1."""


class PoleInFormula(HankelkitError):
    """A closed-form expression hit a vanishing denominator."""


class MissingParameter(HankelkitError):
    """A formula requires a parameter that was not supplied."""


class InsufficientSamples(HankelkitError):
    """More samples were requested than the deterministic enumeration has."""
