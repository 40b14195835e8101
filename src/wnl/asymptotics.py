"""The scaled-norm limit, convergence studies, and the closing estimates.

The scaled coefficient norm of e^{i n h} converges to

    L(h) = (2/pi)^(3/2) * integral over [0, pi] of sqrt(h''(t)) dt

for admissible phases.  This module computes L two independent ways
(t-parameterized and slope-parameterized), runs the empirical
convergence study that the acceptance gate scores, and carries the
small lemmas that close the argument: the truncated Riemann sum and
the epsilon split of the central sum into edge strips, an
equidistribution-weighted middle, and the limit integral it tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _table
from ._quad import integrate_panels
from .errors import DomainError, QuadratureBudgetError
from .phase import (
    PhaseFunction,
    _invert_increasing_slope,
    _partition,
    require_valid,
)
from .spectrum import compute_spectrum, partition_sums, scaled_norm

_LIMIT_PREFACTOR = (2.0 / math.pi) ** 1.5


def _geometric_breakpoints(a: float, b: float, levels: int) -> np.ndarray:
    """Panel edges refining geometrically toward both endpoints of [a, b].

    The left half runs a, a + s/2^levels, ..., a + s/2 and the right
    half mirrors it, sharing the midpoint, so the edges stay strictly
    increasing.
    """
    span = b - a
    left = a + span * 0.5 ** np.arange(levels, 0, -1)
    right = b - span * 0.5 ** np.arange(2, levels + 1)
    return np.concatenate(([a], left, right, [b]))


def _refine_until_stable(
    total: Callable[[int], float], tol: float, scale: float, failure: str
) -> float:
    """scale * total(levels) once two successive levels agree to tol/2.

    Levels run 10, 12, ..., 48; if none settles, QuadratureBudgetError
    carries the failure message and the last scaled total.
    """
    prev = None
    for levels in range(10, 49, 2):
        value = total(levels)
        if prev is not None and abs(value - prev) <= 0.5 * tol:
            return scale * value
        prev = value
    raise QuadratureBudgetError(failure, estimate=scale * prev)


def asymptotic_limit(phase: PhaseFunction, tol: float = 1e-10) -> float:
    """L(h) by quadrature of sqrt(|h''|) over [0, pi].

    sqrt(|h''|) typically vanishes like a fractional power at the
    endpoints, so uniform panels stall; geometric refinement toward 0
    and pi restores fast convergence.  Levels are added two at a time
    until successive totals agree to tol/2.

    Validation is the caller's business here: the integral itself only
    needs |h''| on (0, pi), which lets the quadrature be self-tested on
    synthetic curvature profiles that are not phases at all.
    """

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(phase.d2(t)))

    def total(levels: int) -> float:
        bp = _geometric_breakpoints(0.0, math.pi, levels)
        return float(integrate_panels(integrand, bp, 32).real)

    failure = f"limit integral did not stabilize to {tol:g} for {phase.label!r}"
    return _refine_until_stable(total, tol, _LIMIT_PREFACTOR, failure)


def full_circle_reference(phase: PhaseFunction, tol: float = 1e-10) -> float:
    """Half the sqrt-curvature integral over [0, 2 pi], for any phase.

    For odd phases this equals :func:`asymptotic_limit` by symmetry.
    For phases without that symmetry (complex Blaschke zeros) it is the
    natural conjectural value, since rotating a zero shifts the phase
    along the circle without touching coefficient magnitudes, while the
    [0, pi] integral alone is not rotation invariant.  h'' may change
    sign inside the circle here, so its zeros are located first and the
    panel edges pinned to them, keeping each sqrt kink on a breakpoint.
    """
    two_pi = 2.0 * math.pi

    def d2_at(t: float) -> float:
        return float(phase.d2(np.asarray(t)))

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(phase.d2(t)))

    grid = np.linspace(0.0, two_pi, 1 << 14)
    vals = phase.d2(grid)
    flips = np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]
    edges = [0.0]
    for i in flips:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = d2_at(a)
        for _ in range(60):
            m = 0.5 * (a + b)
            if (d2_at(m) < 0.0) == (fa < 0.0):
                a, fa = m, d2_at(m)
            else:
                b = m
        kink = 0.5 * (a + b)
        if kink - edges[-1] > 1e-9 and two_pi - kink > 1e-9:
            edges.append(kink)
    edges.append(two_pi)

    def total(levels: int) -> float:
        value = 0.0
        for lo, hi in zip(edges, edges[1:]):
            bp = _geometric_breakpoints(lo, hi, levels)
            value += float(integrate_panels(integrand, bp, 32).real)
        return value

    failure = f"full-circle reference did not stabilize to {tol:g} for {phase.label!r}"
    return _refine_until_stable(total, tol, 0.5 * _LIMIT_PREFACTOR, failure)


def asymptotic_limit_slope_route(phase: PhaseFunction, tol: float = 1e-8) -> float:
    """L(h) again, integrating (h'' o psi)^(-1/2) in the slope variable.

    Substituting u = h'(t) turns the sqrt-curvature integral into one
    over the slope interval [h'(0), h'(pi)]; nothing is shared with the
    t-route but the phase itself, so agreement is a real check.
    """
    norm = require_valid(phase)
    alpha = float(norm.d1(np.asarray(0.0)))
    beta = float(norm.d1(np.asarray(np.pi)))

    def integrand(u: np.ndarray) -> np.ndarray:
        t = _invert_increasing_slope(norm, u)
        return 1.0 / np.sqrt(norm.d2(t))

    def total(levels: int) -> float:
        bp = _geometric_breakpoints(alpha, beta, levels)
        bp[0] = alpha + (beta - alpha) * 2.0 ** (-levels - 20)  # stay off the edge
        bp[-1] = beta - (beta - alpha) * 2.0 ** (-levels - 20)
        return float(integrate_panels(integrand, bp, 32).real)

    failure = f"slope-route limit integral did not stabilize for {phase.label!r}"
    return _refine_until_stable(total, tol, _LIMIT_PREFACTOR, failure)


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRow:
    """Everything measured at one scale.

    The parameter is a float so integer ladders (Theorem-1 style) and
    real ladders (Theorem-2 style, winding zero only) share one shape.
    parseval_defect and tail_bound ride along as diagnostics; the
    exported schema carries the six analysis fields only.
    """

    param: float
    scaled_norm: float
    external_sum: float
    periphery_sum: float
    central_sum: float
    parseval_defect: float
    tail_bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Scaled norms along a parameter ladder, against the limit L.

    Errors are always recomputed from scaled_norm and limit, never
    stored, so the two can never drift apart.
    """

    phase_label: str
    limit: float
    rows: tuple[StudyRow, ...]

    def errors(self) -> list[float]:
        return [abs(r.scaled_norm - self.limit) for r in self.rows]

    _COLUMNS = (
        "param", "scaled_norm", "abs_err", "external_sum", "periphery_sum", "central_sum"
    )

    def _rows(self) -> list[tuple]:
        return [
            (r.param, r.scaled_norm, e, r.external_sum, r.periphery_sum, r.central_sum)
            for r, e in zip(self.rows, self.errors())
        ]

    def csv_text(self) -> str:
        header = f"phase_label={self.phase_label} limit={self.limit!r}"
        return _table.csv_text(header, self._COLUMNS, self._rows())

    def payload(self) -> dict:
        """The report as a JSON-ready dict, with the same columns as the CSV."""
        fields = {"phase_label": self.phase_label, "limit": self.limit}
        return _table.payload(fields, self._COLUMNS, self._rows())

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.csv_text())

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(_table.json_text(self.payload()))


def convergence_study(
    phase: PhaseFunction,
    params: Sequence[float],
    grid_pow: int | None = None,
    limit_tol: float = 1e-10,
) -> ConvergenceReport:
    """Measure the scaled norm and partition sums at each scale in params.

    Parameters must be an increasing ladder of reals >= 2.  Non-integer
    entries require winding zero, since e^{ixh} stops being periodic at
    non-integer x otherwise; integer ladders work for any winding.

    The scales are measured one after another, in the order of params.
    """
    params = [float(p) for p in params]
    if len(params) == 0:
        raise DomainError("params must be non-empty")
    if not all(map(math.isfinite, params)):
        raise DomainError(f"params must be finite, got {params!r}")
    if any(p < 2 for p in params):
        raise DomainError(f"all params must be >= 2, got {params!r}")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise DomainError(f"params must be strictly increasing, got {params!r}")
    if phase.winding_k != 0:
        fractional = [p for p in params if abs(p - round(p)) > 1e-9]
        if fractional:
            raise DomainError(
                f"non-integer params {fractional!r} need winding 0, but "
                f"{phase.label!r} has winding {phase.winding_k}"
            )
    norm = require_valid(phase)
    limit = asymptotic_limit(phase, tol=limit_tol)

    def one(n: float) -> StudyRow:
        spec = compute_spectrum(norm, n, grid_pow=grid_pow)
        part = _partition(norm, n)
        sums = partition_sums(spec, part)
        return StudyRow(
            param=n,
            scaled_norm=scaled_norm(spec),
            external_sum=sums.external,
            periphery_sum=sums.periphery,
            central_sum=sums.central,
            parseval_defect=spec.parseval_defect,
            tail_bound=spec.tail_bound,
        )

    rows = tuple(one(n) for n in params)
    return ConvergenceReport(phase_label=norm.label, limit=limit, rows=rows)


# ---------------------------------------------------------------------------
# Closing lemmas
# ---------------------------------------------------------------------------


def truncated_riemann(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int
) -> float:
    """(b-a)/n times the sum of f at a + j(b-a)/n for j = 2 .. n.

    The j = 0, 1 nodes are dropped, which is what makes the sum usable
    for integrands blowing up at the left endpoint.  Non-finite values
    raise DomainError.
    """
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n!r}")
    if not b > a:
        raise DomainError(f"need b > a, got [{a!r}, {b!r}]")
    j = np.arange(2, n + 1)
    vals = np.asarray(f(a + j * (b - a) / n), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand produced non-finite values on the grid")
    return float((b - a) / n * np.sum(vals))


@dataclass(frozen=True)
class FinalStepReport:
    """The epsilon split of the central scaled sum.

    ``edge_left``/``edge_right`` are the sqrt-curvature sums over the
    strips between the partition seams and the slopes at epsilon, pi -
    epsilon, weighted by 1 (a bound, since |cos| <= 1);  ``middle`` is
    the cosine-weighted sum over the remaining bulk, and
    ``limit_piece`` is the portion of L(h) over [epsilon, pi - epsilon]
    that the middle tracks as n grows.
    """

    n: int
    eps: float
    edge_left: float
    middle: float
    edge_right: float
    limit_piece: float

    @property
    def total(self) -> float:
        return self.edge_left + self.middle + self.edge_right


def final_step_report(
    phase: PhaseFunction, n: int, eps: float = 0.1, grid_size: int = 16384
) -> FinalStepReport:
    """Split the central approximation sum at slope seams h'(eps), h'(pi-eps).

    Every term uses the stationary shape sqrt(2/pi) (n g'')^(-1/2): the
    edge strips keep the worst-case weight 1, the middle keeps its
    |cos(rho + pi/4)| factor, whose average 2/pi is exactly what links
    the middle to the limit integral over [eps, pi - eps].

    The strips split the partition's central range at the integers
    floor(n u_lo) and floor(n u_hi), with u_lo = g'(eps) and u_hi =
    g'(pi - eps): index k is in the left strip when k/n <= u_lo, in the
    middle when u_lo < k/n <= u_hi and in the right strip otherwise, so
    each central index counts exactly once.  One inverse-slope call
    covers the whole range.
    """
    norm = require_valid(phase)
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n!r}")
    if not (0.0 < eps < math.pi / 2.0):
        raise DomainError(f"eps must lie in (0, pi/2), got {eps!r}")
    part = _partition(norm, float(n), grid_size)
    alpha_n, beta_n = part.alpha_n, part.beta_n
    u_lo = float(norm.d1(np.asarray(eps)))
    u_hi = float(norm.d1(np.asarray(math.pi - eps)))
    if not (alpha_n <= u_lo < u_hi <= beta_n):
        raise DomainError(
            f"eps = {eps!r} puts the slope seams [{u_lo:.4f}, {u_hi:.4f}] outside "
            f"the central window [{alpha_n:.4f}, {beta_n:.4f}]; use a larger eps "
            "or a larger n"
        )

    central = part.central_range()
    ks = np.arange(central.start, central.stop)
    t = _invert_increasing_slope(norm, ks / n)
    vals = 1.0 / np.sqrt(norm.d2(t))
    cut_lo, cut_hi = np.searchsorted(
        ks, (math.floor(u_lo * n), math.floor(u_hi * n)), side="right"
    )
    mid = slice(cut_lo, cut_hi)
    rho = n * norm.h(t[mid]) - ks[mid] * t[mid]
    vals[mid] *= np.abs(np.cos(rho + math.pi / 4.0))
    pref = math.sqrt(2.0 / math.pi)
    edge_left = float(pref * np.sum(vals[:cut_lo]) / n)
    middle = float(pref * np.sum(vals[mid]) / n)
    edge_right = float(pref * np.sum(vals[cut_hi:]) / n)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(norm.d2(t), 0.0))

    limit_piece = _LIMIT_PREFACTOR * float(
        integrate_panels(
            integrand, np.linspace(eps, math.pi - eps, 65), 32
        ).real
    )
    return FinalStepReport(
        n=n,
        eps=eps,
        edge_left=edge_left,
        middle=middle,
        edge_right=edge_right,
        limit_piece=limit_piece,
    )
