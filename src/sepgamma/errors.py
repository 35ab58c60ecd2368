"""Exception hierarchy shared by all modules.

The CLI maps these onto its stable exit codes:
1 = parse/I-O, 2 = precondition, 3 = verification mismatch, 4 = resource bound.
"""


class SepGammaError(Exception):
    """Base class for all library errors."""


class GraphFormatError(SepGammaError):
    """Malformed graph input (bad line, self-loop, label < 1 or above n,
    negative vertex count); repeated edges are merged, not rejected."""


class PreconditionError(SepGammaError):
    """An operation's mathematical precondition does not hold for the input."""


class VerificationError(SepGammaError):
    """Two methods that must agree produced different values."""


class BoundExceededError(SepGammaError):
    """A resource guard tripped; the request is intractable at desk scale."""
