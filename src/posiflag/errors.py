"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BadParameters", "CapExceeded", "DimensionMismatch", "IndexOutOfRange",
    "InvariantViolated", "NotHyperbolic", "NotSingleJordanBlock", "NotTransverse",
    "NotUnipotent", "NotUnipotentUpperTriangular", "ParseError", "PosiflagError",
    "PreconditionViolated", "RationalEigenlineRequired", "SingularGapTooSmall",
    "SingularMatrix", "ZeroSuperdiagonal",
]


class PosiflagError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(PosiflagError):
    pass


class IndexOutOfRange(PosiflagError):
    pass


class SingularMatrix(PosiflagError):
    pass


class BadParameters(PosiflagError):
    pass


class ParseError(PosiflagError):
    pass


class NotUnipotent(PosiflagError):
    pass


class NotUnipotentUpperTriangular(PosiflagError):
    pass


class NotSingleJordanBlock(PosiflagError):
    pass


class PreconditionViolated(PosiflagError):
    pass


class InvariantViolated(PosiflagError):
    """An internal postcondition failed: a defect in this package, not a
    property of the input.  Raised explicitly so that it survives `-O`."""


class NotTransverse(PosiflagError):
    """Two flags that were required to be transverse are not.

    `pair` carries 1-based positions of the offending flags when the check
    ran over an indexed family, or None for a bare two-flag check.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class ZeroSuperdiagonal(PosiflagError):
    """A superdiagonal entry of a transporter vanished during sign
    normalization.  No diagonal sign change can make the factor totally
    positive, so this signals certain non-positivity of the tuple.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class NotHyperbolic(PosiflagError):
    pass


class RationalEigenlineRequired(NotHyperbolic):
    """The element is hyperbolic but its eigenlines are irrational, so no
    exact target flag can be built."""


class SingularGapTooSmall(PosiflagError):
    def __init__(self, message: str, min_gap: float):
        super().__init__(message)
        self.min_gap = min_gap


class CapExceeded(PosiflagError):
    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap
