"""Exception types shared across the library."""


class MoonshineError(Exception):
    """Base class for all library errors."""


class MixedDiscriminant(MoonshineError):
    """Arithmetic attempted between values in different quadratic fields."""


class NotInvertible(MoonshineError):
    """Series has no invertible leading coefficient."""


class CutoffUnderflow(MoonshineError):
    """Requested data beyond the exact cutoff of a series."""


class NotUnimodular(MoonshineError):
    """Matrix is not in SL_2(Z)."""


class OutOfRange(MoonshineError):
    """Parameter outside the supported range."""


class UnboundedSupport(MoonshineError):
    """Operation requires a y-polynomial series but got an annulus expansion."""


class WindowTooNarrow(MoonshineError):
    """y-window of an operand is too narrow for an exact product."""


class NotInGroup(MoonshineError):
    """Matrix not in the required congruence subgroup."""


class UnknownClass(MoonshineError):
    """Conjugacy class label not in the catalog."""


class ClosureOverflow(MoonshineError):
    """Group enumeration exceeded its safety bound."""


class DeterminantNotUnit(MoonshineError):
    """Linear solve refused: determinant has no invertible leading term."""


class DataCorrupt(MoonshineError):
    """Stored table failed an internal consistency check."""
