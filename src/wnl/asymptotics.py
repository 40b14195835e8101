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
from typing import Callable, Sequence

import numpy as np

from ._quad import integrate_panels, refine, require_tolerance
from ._table import Table
from .errors import DomainError
from .phase import (
    PhaseFunction,
    _curvature_sign_changes,
    _invert_increasing_slope,
    _partition,
    require_valid,
)
from .spectrum import compute_spectrum, partition_sums, scaled_norm
from .stationary import _stationary_points

_LIMIT_PREFACTOR = (2.0 / math.pi) ** 1.5
_REFERENCE_TOL = 1e-10  # stopping tolerance of the full-circle reference and the limit piece
_SLOPE_ROUTE_TOL = 1e-9
_LEVELS = range(10, 49, 2)  # geometric refinement levels of the limit routes


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


def _settle(
    f: Callable, pieces: Callable, span: tuple, tol: float, scale: float, what: str, failure: str
) -> float:
    """scale times the integral of f over the panels of pieces(level), to tol.

    Only end panels shrink from level to level, so the settled total must
    hold with every other panel halved too: within tol, or within the
    rounding noise of f, the integral of |f(t') - f(t)| for t' = t + 2^-46
    (t - lo)(hi - t)/(hi - lo) on span = (lo, hi).  That noise is ~1e-14
    for analytic curvature and ~1e-6 for central differences.
    """
    lo, hi = span

    def noise(t: np.ndarray) -> np.ndarray:
        return np.abs(f(t + 2.0**-46 * (t - lo) * (hi - t) / (hi - lo)) - f(t))

    def total(level: int, halve: bool = False, g: Callable = f) -> float:
        value = 0.0
        for bp in pieces(level):
            if halve:  # split every panel but the two end ones
                bp = np.insert(bp, np.arange(2, bp.size - 1), 0.5 * (bp[1:-2] + bp[2:-1]))
            value += float(integrate_panels(g, bp, 32).real)
        return value

    def confirm(level: int) -> tuple[float, float]:
        return total(level, True), total(level, True, noise)

    return refine(total, _LEVELS, tol, what, failure, lambda v: scale * v, confirm)


def _root_curvature_integral(
    phase: PhaseFunction, lo: float, hi: float, tol: float, scale: float, name: str
) -> float:
    """scale times the integral of sqrt(|h''|) over [lo, hi], split at the zeros of h''.

    The brackets of :func:`wnl.phase._curvature_sign_changes` that start
    before hi, bisected all at once, give the zeros; one more than 1e-9
    past the edge before it and short of hi is an edge.  Pieces refine
    toward both ends, where sqrt(|h''|) typically vanishes like a power.
    """
    edges = [lo]
    scan = _curvature_sign_changes(phase)
    brackets = np.empty((0, 2)) if scan is None else scan[0]
    a, b = brackets[brackets[:, 0] < hi].T
    if a.size:
        left_neg = phase.d2(a) < 0.0
        for _ in range(60):
            m = 0.5 * (a + b)
            stays = (phase.d2(m) < 0.0) == left_neg
            a, b = np.where(stays, m, a), np.where(stays, b, m)
        for kink in (0.5 * (a + b)).tolist():
            if kink - edges[-1] > 1e-9 and hi - kink > 1e-9:
                edges.append(kink)
    edges.append(hi)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.sqrt(np.abs(phase.d2(t)))

    def pieces(level: int) -> list[np.ndarray]:
        return [_geometric_breakpoints(lo, hi, level) for lo, hi in zip(edges, edges[1:])]

    what = f"sqrt|h''| of {phase.label!r}"
    failure = f"{name} did not stabilize to {tol:g} for {phase.label!r}"
    return _settle(integrand, pieces, (lo, hi), 0.5 * tol, scale, what, failure)


def asymptotic_limit(phase: PhaseFunction, tol: float = 1e-10) -> float:
    """L(h) by quadrature of sqrt(|h''|) over [0, pi], to tol.

    Validation is the caller's business here: the integral itself only
    needs |h''| on (0, pi), which lets the quadrature be self-tested on
    synthetic curvature profiles that are not phases at all.  A zero of
    h'' inside (0, pi), which no admissible phase has, is a panel edge.
    """
    require_tolerance(tol)
    return _root_curvature_integral(phase, 0.0, math.pi, tol, _LIMIT_PREFACTOR, "limit integral")


def full_circle_reference(phase: PhaseFunction) -> float:
    """Half the sqrt-curvature integral over [0, 2 pi], for any phase, to 1e-10.

    For odd phases this equals :func:`asymptotic_limit` by symmetry.
    For phases without that symmetry (complex Blaschke zeros) it is the
    natural conjectural value, since rotating a zero shifts the phase
    along the circle without touching coefficient magnitudes, while the
    [0, pi] integral alone is not rotation invariant.  h'' may change
    sign anywhere on the circle here; each of its zeros is a panel edge,
    unless h'' vanishes on most of the circle and the sign scan gives None.
    """
    return _root_curvature_integral(
        phase, 0.0, 2.0 * math.pi, _REFERENCE_TOL, 0.5 * _LIMIT_PREFACTOR, "full-circle reference"
    )


def asymptotic_limit_slope_route(phase: PhaseFunction) -> float:
    """L(h) again, to 1e-9, integrating (h'' o psi)^(-1/2) in the slope variable.

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

    def pieces(levels: int) -> list[np.ndarray]:
        bp = _geometric_breakpoints(alpha, beta, levels)
        bp[0] = alpha + (beta - alpha) * 2.0 ** (-levels - 20)  # stay off the edge
        bp[-1] = beta - (beta - alpha) * 2.0 ** (-levels - 20)
        return [bp]

    what = f"(h'' o psi)^(-1/2) of {phase.label!r}"
    failure = f"slope-route limit integral did not stabilize for {phase.label!r}"
    tol = 0.5 * _SLOPE_ROUTE_TOL
    return _settle(integrand, pieces, (alpha, beta), tol, _LIMIT_PREFACTOR, what, failure)


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

    def table(self) -> Table:
        header = f"phase_label={self.phase_label} limit={self.limit!r}"
        fields = {"phase_label": self.phase_label, "limit": self.limit}
        columns = (
            "param", "scaled_norm", "abs_err", "external_sum", "periphery_sum", "central_sum"
        )
        rows = [
            (r.param, r.scaled_norm, e, r.external_sum, r.periphery_sum, r.central_sum)
            for r, e in zip(self.rows, self.errors())
        ]
        return Table(header, fields, columns, rows)


def convergence_study(phase: PhaseFunction, params: Sequence[float]) -> ConvergenceReport:
    """Measure the scaled norm and partition sums at each scale in params.

    The limit L is :func:`asymptotic_limit` at its default tolerance, 1e-10.
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
    limit = asymptotic_limit(phase)

    def one(n: float) -> StudyRow:
        spec = compute_spectrum(norm, n)
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
    for integrands blowing up at the left endpoint.  An n that is not an
    integer >= 2 (an integral float is taken), or a non-finite value of
    f, raises DomainError.
    """
    if not (2 <= n < math.inf and n == int(n)):
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
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
    that the middle tracks as n grows, from the sqrt|h''| quadrature of
    :func:`asymptotic_limit` on that interval, to 1e-10.
    """

    n: int
    eps: float
    edge_left: float
    middle: float
    edge_right: float
    limit_piece: float


def final_step_report(phase: PhaseFunction, n: int, eps: float = 0.1) -> FinalStepReport:
    """Split the central approximation sum at slope seams h'(eps), h'(pi-eps).

    Every term uses the stationary shape sqrt(2/pi) (n g'')^(-1/2): the
    edge strips keep the worst-case weight 1, the middle keeps its
    |cos(rho + pi/4)| factor, whose average 2/pi is exactly what links
    the middle to the limit integral over [eps, pi - eps].

    The strips split the partition's central range at the integers
    floor(n u_lo) and floor(n u_hi), with u_lo = g'(eps) and u_hi =
    g'(pi - eps): index k is in the left strip when k/n <= u_lo, in the
    middle when u_lo < k/n <= u_hi and in the right strip otherwise, so
    each central index counts exactly once.  The indices, g''(t*) and
    rho are the columns :func:`wnl.stationary.stationary_comparison`
    reads, from one slope inversion over the whole range.
    """
    norm = require_valid(phase)
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n!r}")
    if not (0.0 < eps < math.pi / 2.0):
        raise DomainError(f"eps must lie in (0, pi/2), got {eps!r}")
    part = _partition(norm, float(n))
    alpha_n, beta_n = part.alpha_n, part.beta_n
    u_lo = float(norm.d1(np.asarray(eps)))
    u_hi = float(norm.d1(np.asarray(math.pi - eps)))
    if not (alpha_n <= u_lo < u_hi <= beta_n):
        raise DomainError(
            f"eps = {eps!r} puts the slope seams [{u_lo:.4f}, {u_hi:.4f}] outside "
            f"the central window [{alpha_n:.4f}, {beta_n:.4f}]; use a larger eps "
            "or a larger n"
        )

    ks, _, g2, rho = _stationary_points(norm, part)
    vals = 1.0 / np.sqrt(g2)
    cut_lo, cut_hi = np.searchsorted(
        ks, (math.floor(u_lo * n), math.floor(u_hi * n)), side="right"
    )
    mid = slice(cut_lo, cut_hi)
    vals[mid] *= np.abs(np.cos(rho[mid] + math.pi / 4.0))
    pref = math.sqrt(2.0 / math.pi)
    edge_left = float(pref * np.sum(vals[:cut_lo]) / n)
    middle = float(pref * np.sum(vals[mid]) / n)
    edge_right = float(pref * np.sum(vals[cut_hi:]) / n)
    limit_piece = _root_curvature_integral(
        norm, eps, math.pi - eps, _REFERENCE_TOL, _LIMIT_PREFACTOR, "final-step limit piece"
    )
    return FinalStepReport(
        n=n,
        eps=eps,
        edge_left=edge_left,
        middle=middle,
        edge_right=edge_right,
        limit_piece=limit_piece,
    )
