"""Exception types raised by the numerical laboratory.

A laboratory function raises only when it cannot compute its number or its
input is outside its domain.  A claim of the paper is judged by a report
record, never by an exception, and a raise fails only the records it stops.
A function returns what it computes, and the comparison with a closed form
or a bound belongs to the record that makes it.
"""


class LiouvilleLabError(Exception):
    """Base class for all laboratory-specific failures."""


class QuadratureBudgetError(LiouvilleLabError):
    """Quadrature budget exceeded; carries the partial value, the error estimate
    and the tolerance that estimate missed."""

    def __init__(self, message: str, *, value, estimate: float, tolerance: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
        self.tolerance = tolerance


class NyquistError(LiouvilleLabError):
    """Nyquist violation: too few circle samples for the requested mode count."""


class StiffODEError(LiouvilleLabError):
    """Stiff or singular ODE: adaptive step size underflowed."""


class DegenerateLayerError(LiouvilleLabError):
    """Degenerate layer: no boundary data and no bubble trace."""


class NotASolutionError(LiouvilleLabError):
    """Field handed to a Pohozaev check does not solve its equation."""


class UnresolvedSpectrumError(LiouvilleLabError):
    """Unresolved spectrum: eigenvalue still moving under mesh refinement."""


class ShootingError(LiouvilleLabError):
    """No radial solution found at this lambda/guess."""
