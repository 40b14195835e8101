"""Stationary-phase approximation of central coefficients, with bounds.

For a normalized phase g (g'' > 0 on (0, pi)) and an index nu in the
central window, the coefficient integral has one interior stationary
point t* = psi(nu/x) on (0, pi) and its mirror image on (-pi, 0).  The
two saddle contributions combine into

    a_nu  ~  sqrt(2/pi) (x g''(t*))^(-1/2) cos(rho + pi/4),
    rho   =  x g(t*) - nu t*,

and the error of that formula is controlled by a two-term budget: a
C / (x g''(t*) delta) piece from the non-stationary remainder and an
x omega(delta) delta^3 piece from freezing g'' across the stationary
neighborhood of half-width delta.  Both delta and omega(delta) are read
from the index partition at scale x, which computes them once.  The
Fresnel helpers quantify the model integral's own tail, computed on a
rotated contour where the integrand decays instead of oscillating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._quad import integrate_panels
from .errors import DomainError, MisalignedError
from .phase import (
    PhaseFunction,
    TermPartition,
    _invert_increasing_slope,
    _partition,
    require_valid,
)
from .spectrum import compute_spectrum

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class StationaryApproximation:
    """Saddle-point value and certified error budget for one index."""

    nu: int
    t_star: float
    rho: float
    approx: float
    remainder_bound: float


def approximate_central_range(
    phase: PhaseFunction,
    x: float,
    calib_c: float = 8.0,
    grid_size: int = 16384,
) -> list[StationaryApproximation]:
    """Stationary approximations for every index in the central window.

    x may be any real >= 2 (the partition construction is continuous
    in x).  The list can be empty at small x.
    """
    norm = require_valid(phase)
    return _approximate_central(norm, _partition(norm, x, grid_size), calib_c)


def approximate_central(
    phase: PhaseFunction,
    n: float,
    nu: int,
    part: TermPartition,
    calib_c: float = 8.0,
) -> StationaryApproximation:
    """Stationary approximation of the coefficient at one central index.

    The partition decides membership: an index outside its central
    class raises DomainError, because the saddle point would sit too
    close to an endpoint (or beyond it) for the expansion to mean
    anything.  The partition must have been built for this phase at
    this scale.
    """
    norm = require_valid(phase)
    if part.label != norm.label:
        raise MisalignedError(
            f"partition is for {part.label!r} but the phase normalizes "
            f"to {norm.label!r}"
        )
    if abs(part.n - n) > 1e-9:
        raise MisalignedError(f"partition has n = {part.n!r} but n = {n!r} was given")
    if part.classify(nu) != "central":
        raise DomainError(
            f"nu = {nu} is {part.classify(nu)}, not central, at n = {n!r}"
        )
    return _approximate_at(norm, part, np.asarray([nu]), calib_c)[0]


def _approximate_central(
    norm: PhaseFunction, part: TermPartition, calib_c: float
) -> list[StationaryApproximation]:
    rng = part.central_range()
    if len(rng) == 0:
        return []
    return _approximate_at(norm, part, np.arange(rng.start, rng.stop), calib_c)


def _approximate_at(
    norm: PhaseFunction,
    part: TermPartition,
    nus: np.ndarray,
    calib_c: float,
) -> list[StationaryApproximation]:
    x, delta = part.n, part.delta
    t_star = _invert_increasing_slope(norm, nus / x)
    g2 = norm.d2(t_star)
    rho = x * norm.h(t_star) - nus * t_star
    approx = _SQRT_2_OVER_PI / np.sqrt(x * g2) * np.cos(rho + math.pi / 4.0)
    bounds = calib_c / (x * g2 * delta) + x * part.omega * delta**3
    return [
        StationaryApproximation(
            nu=int(n),
            t_star=float(t),
            rho=float(r),
            approx=float(a),
            remainder_bound=float(b),
        )
        for n, t, r, a, b in zip(nus, t_star, rho, approx, bounds)
    ]


# ---------------------------------------------------------------------------
# Side-by-side comparison with the exact spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    nu: int
    t_star: float
    rho: float
    approx: float
    exact: complex
    remainder_bound: float

    @property
    def abs_err(self) -> float:
        return abs(self.approx - self.exact)

    @property
    def rel_err(self) -> float:
        mag = abs(self.exact)
        return self.abs_err / mag if mag > 0.0 else math.inf


@dataclass(frozen=True)
class ComparisonTable:
    """Central-window stationary approximations against FFT coefficients.

    delta and omega are those of the partition the rows were built
    from, so the remainder budget can be re-derived from the table.
    """

    x: float
    label: str
    calib_c: float
    delta: float
    omega: float
    rows: tuple[ComparisonRow, ...]

    def max_abs_err(self) -> float:
        return max((r.abs_err for r in self.rows), default=0.0)

    def max_rel_err(self) -> float:
        return max((r.rel_err for r in self.rows), default=0.0)

    def bound_violations(self) -> int:
        """How many rows have |approx - exact| above their remainder bound."""
        return sum(1 for r in self.rows if r.abs_err > r.remainder_bound)

    def csv_text(self) -> str:
        """Five data columns; exact is the real part of the coefficient.

        For odd phases the coefficients are real to rounding anyway;
        the header records the largest imaginary magnitude dropped so
        the file never hides one.
        """
        max_im = max((abs(r.exact.imag) for r in self.rows), default=0.0)
        lines = [
            f"# x={self.x!r} label={self.label} calib_c={self.calib_c!r} "
            f"max_im={max_im!r}",
            "nu,exact,approx,abs_err,remainder_bound",
        ]
        for r in self.rows:
            lines.append(
                f"{r.nu},{r.exact.real!r},{r.approx!r},{r.abs_err!r},"
                f"{r.remainder_bound!r}"
            )
        return "\n".join(lines) + "\n"

    def payload(self) -> dict:
        """The table as a JSON-ready dict, with the same columns as the CSV."""
        return {
            "x": self.x,
            "label": self.label,
            "calib_c": self.calib_c,
            "rows": [
                {
                    "nu": r.nu,
                    "exact": r.exact.real,
                    "approx": r.approx,
                    "abs_err": r.abs_err,
                    "remainder_bound": r.remainder_bound,
                }
                for r in self.rows
            ],
        }

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.csv_text())


def stationary_comparison(
    phase: PhaseFunction,
    x: float,
    calib_c: float = 8.0,
    grid_pow: int | None = None,
) -> ComparisonTable:
    """Approximate every central coefficient and fetch its exact value.

    The exact side is the FFT spectrum of the normalized phase at the
    same x, so the two columns share nothing but the phase itself.
    """
    norm = require_valid(phase)
    part = _partition(norm, x)
    approxes = _approximate_central(norm, part, calib_c)
    spec = compute_spectrum(norm, x, grid_pow=grid_pow)
    rows = tuple(
        ComparisonRow(
            nu=ap.nu,
            t_star=ap.t_star,
            rho=ap.rho,
            approx=ap.approx,
            exact=spec.coeff(ap.nu),
            remainder_bound=ap.remainder_bound,
        )
        for ap in approxes
    )
    return ComparisonTable(
        x=x,
        label=norm.label,
        calib_c=calib_c,
        delta=part.delta,
        omega=part.omega,
        rows=rows,
    )


def fitted_calibration(phase: PhaseFunction, table: ComparisonTable) -> float:
    """Smallest C >= 0 making every remainder bound dominate its actual error.

    Inverts the two-term budget rowwise: the C piece must cover whatever
    the frozen-curvature piece x omega(delta) delta^3 does not.  Returns
    0 when the second term alone already dominates everywhere.  The
    table must have been built for this phase.
    """
    norm = require_valid(phase)
    if table.label != norm.label:
        raise MisalignedError(
            f"table is for {table.label!r} but the phase normalizes to {norm.label!r}"
        )
    x, delta = table.x, table.delta
    frozen_piece = x * table.omega * delta**3
    c = 0.0
    for r in table.rows:
        g2 = float(norm.d2(np.asarray(r.t_star)))
        c = max(c, (r.abs_err - frozen_piece) * (x * g2 * delta))
    return c


# ---------------------------------------------------------------------------
# Fresnel model integral
# ---------------------------------------------------------------------------

_TAIL_PANELS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0)
_ROTATE_CUT = 0.5


def _fresnel_tail_impl(x: float) -> complex:
    """Integral of e^{i u^2} over [x, inf) for x >= 0 (no domain gate).

    On u^2 = x^2 + i s the integrand becomes e^{i x^2} e^{-s} against a
    smooth kernel, so the oscillatory tail turns into a damped integral
    over [0, 48] (truncation error ~ e^{-48}); below the rotation cut
    the short remaining piece [x, 0.5] is handled by direct quadrature,
    where the integrand has not yet begun to oscillate.
    """
    if x < _ROTATE_CUT:
        finite = integrate_panels(
            lambda u: np.exp(1j * u * u), (x, _ROTATE_CUT), order=32
        )
        return finite + _fresnel_tail_impl(_ROTATE_CUT)

    def kernel(s: np.ndarray) -> np.ndarray:
        return np.exp(-s) / (2.0 * np.sqrt(x * x + 1j * s))

    rotated = integrate_panels(kernel, _TAIL_PANELS, order=32)
    return 1j * complex(np.exp(1j * x * x)) * rotated


def fresnel_tail(xcut: float) -> complex:
    """Integral of e^{i u^2} over [xcut, inf) for strictly positive xcut.

    The modulus never exceeds 1/xcut.  The full integral from zero is a
    separate function, so a zero or negative cut here is a caller bug
    and is rejected.
    """
    if not (xcut > 0.0) or not math.isfinite(xcut):
        raise DomainError(f"xcut must be finite and positive, got {xcut!r}")
    return _fresnel_tail_impl(xcut)


def fresnel_full() -> complex:
    """Integral of e^{i u^2} over [0, inf) = sqrt(pi)/2 * e^{i pi/4}."""
    return _fresnel_tail_impl(0.0)


# ---------------------------------------------------------------------------
# First-derivative-test bounds
# ---------------------------------------------------------------------------


def lemma1_var_bound(
    phase: PhaseFunction, x: float, nu: float, grid_size: int = 8192
) -> float:
    """Variation of 1/phi' for phi(t) = x h(t) - nu t over [-pi, pi].

    This is the first-derivative-test bound on the coefficient integral
    (the periodic boundary terms cancel).  Requires phi' to stay away
    from zero; a sign change or near-zero sample raises DomainError.
    The grid sum converges to the true variation from below and is
    exact up to rounding when 1/phi' is piecewise monotone with turning
    points on the grid.
    """
    t = np.linspace(-np.pi, np.pi, grid_size)
    slope = x * phase.d1(t) - nu
    smallest = float(np.min(np.abs(slope)))
    scale = abs(x) * float(np.max(np.abs(phase.d1(t)))) + abs(nu) + 1.0
    if smallest < 1e-12 * scale or (np.any(slope > 0.0) and np.any(slope < 0.0)):
        raise DomainError(
            f"phi' vanishes on [-pi, pi] (min |phi'| = {smallest:.3e}); "
            "the variation bound needs a stationary-point-free phase"
        )
    recip = 1.0 / slope
    return float(np.sum(np.abs(np.diff(recip))))


def lemma1_monotone_bound(phimin_a: float, phimin_b: float) -> float:
    """2 / min(|phi'(a)|, |phi'(b)|) for monotone phi' on [a, b].

    The two arguments are the endpoint slopes; monotonicity means the
    smaller magnitude is attained at an endpoint, which is all the
    first-derivative test needs.  Symmetric in its arguments.  A zero
    slope admits no bound and raises DomainError.
    """
    if phimin_a == 0.0 or phimin_b == 0.0:
        raise DomainError(
            f"endpoint slopes must be nonzero, got ({phimin_a!r}, {phimin_b!r})"
        )
    return 2.0 / min(abs(phimin_a), abs(phimin_b))
