"""Gauss-Legendre panel quadrature and the one stopping rule of the package.

Everything here is deliberately boring: fixed-order Gauss-Legendre rules
composited over explicit panels, and ``refine``, which decides when a
quadrature has converged.  Every adaptive quadrature of the package (the
limit L(h) on its three routes and the single Fourier coefficient) hands
``refine`` its sequence of refinement levels and stops at the first
level whose value lies within its tolerance of the previous level's.
Node/weight tables come from numpy and are cached per order.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, QuadratureBudgetError

_BLOCK_NODES = 32768  # nodes per integrand call: 256 KB temporaries beat full-size ones


def require_tolerance(tol: float) -> None:
    """A nan or non-positive tolerance can never be met; refuse it up front."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")


@lru_cache(maxsize=16)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _checked(breakpoints: Sequence[float] | np.ndarray) -> np.ndarray:
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2 or np.any(np.diff(bp) <= 0.0):
        raise ValueError("breakpoints must be a strictly increasing 1-d sequence")
    return bp


def _rule(bp: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an ``order``-point rule on each panel of ``bp``."""
    x, w = _gl_rule(order)
    a = bp[:-1][:, None]
    b = bp[1:][:, None]
    half = 0.5 * (b - a)
    nodes = half * x[None, :]
    nodes += 0.5 * (a + b)
    return nodes.ravel(), (half * w[None, :]).ravel()


def integrate_panels(
    f: Callable[[np.ndarray], np.ndarray],
    breakpoints: Sequence[float] | np.ndarray,
    order: int = 16,
) -> complex:
    """Sum of weights * f(nodes) over the composite rule.

    f runs on blocks of about ``_BLOCK_NODES`` nodes, so none of its
    temporaries is larger than a block; the weighted values go into one
    array that is summed once, which gives the sum of a single call on
    all nodes bit for bit.  f must act pointwise.
    """
    bp = _checked(breakpoints)
    panels = bp.size - 1
    step = max(1, _BLOCK_NODES // order)
    terms = None
    for first in range(0, panels, step):
        nodes, weights = _rule(bp[first : first + step + 1], order)
        values = f(nodes)
        if terms is None:
            terms = np.empty(panels * order, dtype=np.result_type(values, weights))
        np.multiply(weights, values, out=terms[first * order : first * order + weights.size])
    return complex(np.sum(terms))


def refine(
    value_at: Callable[[int], complex],
    levels: Iterable[int],
    tol: float,
    what: str,
    failure: str,
    answer: Callable[[complex], complex],
    confirm: Callable[[int], tuple[complex, float]] | None = None,
) -> complex:
    """answer(value_at(level)) at the first level within tol of the one before.

    The levels are evaluated in order.  A value that is not finite raises
    :class:`DomainError` naming ``what`` at once, since no finer level can
    mend it; running out of levels raises :class:`QuadratureBudgetError`
    with the ``failure`` message and answer(last value) as its estimate.
    ``confirm`` maps the settled level to its value on a mesh refined
    where the levels are not, and that value's rounding noise; a move past
    both tol and the noise raises QuadratureBudgetError with its answer.
    """
    prev = None
    for level in levels:
        value = value_at(level)
        if not cmath.isfinite(value):
            raise DomainError(f"{what} is not finite at refinement level {level}")
        if prev is not None and abs(value - prev) <= tol:
            check, noise = confirm(level) if confirm else (value, 0.0)
            if not abs(check - value) <= max(tol, noise):  # a nan check fails too
                message = f"{failure}: a finer mesh moves level {level} by {abs(check - value):.3g}"
                raise QuadratureBudgetError(message, estimate=answer(value))
            return answer(value)
        prev = value
    raise QuadratureBudgetError(failure, estimate=answer(prev))
