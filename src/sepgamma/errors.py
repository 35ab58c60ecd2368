"""Exception hierarchy shared by all modules, and the resource guards.

The CLI maps these onto its stable exit codes:
1 = parse/I-O, 2 = precondition, 3 = verification mismatch, 4 = resource bound.

BOUNDS is the one table of the guards that --bound-override moves: each
guard has one name, from the command line to the comparison that trips
it.  Every guarded function takes a `bounds` mapping of those names to
limits (the one `solve` takes, None for none) and reads its limit through
`bound`, which falls back to the default here.
"""

from types import MappingProxyType
from typing import Mapping, Optional

BOUNDS = MappingProxyType({
    # n of the cut sum, which sizes the walk's memory as well as its time:
    # O(n) bitmaps of 2^n bits, so memory grows as 2^n past the default;
    # also the largest block s of the suspension pair count, which holds
    # O(s) bitmaps of 2^s bits on a block that takes them (128 KB each at
    # 20); a block of at most matching.SUBSETS_UP_TO = 13 vertices runs the
    # subset DP instead, up to 2^s ints of up to 2^s bits (2.5 MB on K13)
    "cut-sum": 20,
    # largest block s of the type-B interior pair count: on a block that
    # takes them, O(s) bitmaps of 2^t bits, t < s one side, so memory grows
    # as 2^t past it
    "matched-sets": 16,
    "hrep-dim": 7,  # dimension of the Ehrhart oracle's facet search
    "hrep-points": 64,  # distinct points of that search
    "box": 10 ** 9,  # lattice points in the bounding box of each dilate tP counted
    "cliques": 10 ** 7,  # cliques of the flag-complex witness, the empty one included
})


def bound(bounds: Optional[Mapping], name: str) -> int:
    """The limit of guard `name`: its value in `bounds`, else its default
    in BOUNDS.  A name that is no guard raises KeyError."""
    default = BOUNDS[name]
    return default if bounds is None else bounds.get(name, default)


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
