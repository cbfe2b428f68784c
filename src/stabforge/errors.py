"""Exception types shared across the package."""


class StabforgeError(Exception):
    """Base class for all errors raised by this package."""


class NonUnit(StabforgeError):
    """An operation required a unit (lowest digit nonzero) and got one that isn't."""


class NotASquare(StabforgeError):
    """hensel_sqrt was asked for a square root that does not exist."""


class InsufficientPrecision(StabforgeError):
    """The requested datum is not determined at the tracked precision."""


class IndeterminateAtPrecision(StabforgeError):
    """All tracked digits vanish, so the quantity cannot be computed."""


class DepthTooSmall(StabforgeError):
    """A filtration quotient is too shallow for the requested computation."""


class BadAction(StabforgeError):
    """A cyclic action matrix does not satisfy T^r = id or breaks the relations."""


class UnknownName(StabforgeError):
    """A relation script referenced a name missing from the environment."""


class NotApplicable(StabforgeError):
    """The requested construction does not exist for these parameters."""
