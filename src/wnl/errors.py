"""Exception types shared across the package.

Every precondition failure raises one of these rather than a bare
ValueError, so callers (and the CLI) can distinguish "you gave me a bad
input" from "the computation ran out of budget" without string matching.
"""

from __future__ import annotations


class WnlError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WnlError):
    """An input lies outside the documented domain of an operation."""


class PeriodicityError(DomainError):
    """x * winding_k is not an integer, so e^{i x h(t)} is not 2*pi periodic."""


class GridResolutionError(WnlError):
    """The requested FFT grid or window cannot represent the spectrum.

    The message names what failed: the last window tried and
    ``window='full'`` when the Parseval gate fails, or ``grid_pow`` when
    a pinned full-window grid of 2^grid_pow points is short of the 8x
    oversampling floor.
    """


class QuadratureBudgetError(WnlError):
    """Adaptive refinement ran out of levels before reaching tolerance.

    Carries the best available estimate so callers can decide whether the
    partial answer is still useful.
    """

    def __init__(self, message: str, estimate: complex | float | None = None):
        super().__init__(message)
        self.estimate = estimate


class ConvergenceError(WnlError):
    """The hypergeometric series failed to converge within its term cap.

    Refinements that run out of levels, the Miller sweeps of Bessel J
    among them, raise QuadratureBudgetError instead.
    """


class MisalignedError(WnlError):
    """Two inputs that must describe the same object do not line up."""
