"""Gauss-Legendre panel quadrature used by the numeric modules.

Everything here is deliberately boring: fixed-order Gauss-Legendre rules
composited over uniform or explicit panels, plus a doubling loop for
oscillatory integrands where the panel count is the only knob worth
turning.  Node/weight tables come from numpy and are cached per order.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Callable, Sequence

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


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panels0: int,
    tol: float,
    max_doublings: int = 12,
    what: str = "the integrand",
) -> tuple[complex, float]:
    """Composite 16-point GL on uniform panels, doubled until two refinements agree.

    Returns ``(value, err_estimate)`` where the estimate is the last
    inter-level difference.  Raises :class:`QuadratureBudgetError`, with
    the newest value attached, if the cap is reached first, and
    :class:`DomainError` naming ``what`` as soon as a level's sum is not
    finite, since no refinement can mend that.
    """

    def level(panels: int) -> complex:
        value = integrate_panels(f, np.linspace(a, b, panels + 1), 16)
        if not cmath.isfinite(value):
            raise DomainError(f"{what} is not finite on {panels} panels over [{a!r}, {b!r}]")
        return value

    panels = max(1, panels0)
    prev = level(panels)
    delta = float("inf")
    for _ in range(max_doublings):
        panels *= 2
        cur = level(panels)
        delta = abs(cur - prev)
        if delta <= tol:
            return cur, delta
        prev = cur
    raise QuadratureBudgetError(
        f"panel doubling cap ({max_doublings}) reached at {panels} panels; "
        f"last difference {delta:.3e} > tol {tol:.3e}",
        estimate=prev,
    )
