"""Exception hierarchy.

Everything raised on purpose derives from HardyZError so the CLI can map
failures to exit codes: validation and domain problems exit 2, numerically
inconclusive results (a contour count that cannot be trusted, a phase walk
that cannot follow the argument) exit 3.  check_order is the one rule for
derivative orders, raising whichever of these classes its caller names.
"""

from __future__ import annotations

from numbers import Integral


class HardyZError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(HardyZError):
    """Unknown datum name or malformed catalog entry."""


class AxiomViolationError(CatalogError):
    """Structural data fail a required property (a(1) != 1, lambda <= 0, ...)."""


class DomainError(HardyZError):
    """Argument outside the supported domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too near) a pole.

    Attributes record which gamma factor and which pole index tripped when
    that is known; both are None for the Dirichlet-series pole at s = 1.
    """

    def __init__(self, message: str, factor: int | None = None, index: int | None = None):
        super().__init__(message)
        self.factor = factor
        self.index = index


class ExcludedRegionError(DomainError):
    """Point falls inside the exclusion disc around a pole of psi."""


class UnsupportedOrderError(DomainError):
    """Derivative order beyond the implemented range."""


class RangeError(DomainError):
    """Scalar parameter outside its validated range (T, window, k caps)."""


class GeometryError(DomainError):
    """Contour or differentiation circle would leave the safe region."""


class PrecisionError(HardyZError):
    """Requested computation cannot meet the accuracy contract."""


class InconclusiveContourError(HardyZError):
    """Rectangle count not to be trusted: the phase walk could not follow the
    argument, the function nearly vanishes on an edge, or the winding number
    is off an integer (each a sign of a zero on or near the boundary)."""


class TrackingError(HardyZError):
    """The phase walk of argument tracking could not follow the argument
    (a zero on or near the path)."""


class ProximityError(DomainError):
    """Evaluation point coincides with a tabulated zero."""


class ContextError(HardyZError):
    """EvalContext field fails its validity invariant."""


def check_order(k, cap: int, error: type[HardyZError], what: str) -> None:
    """Refuse k unless it is an integer in 0..cap; bool and 1.0 are refused."""
    if isinstance(k, bool) or not isinstance(k, Integral) or not 0 <= k <= cap:
        raise error(f"{what} must be an integer in 0..{cap}, got {k!r}")
