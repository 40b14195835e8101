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
from the index partition at scale x, which computes them once.

Away from the central window the coefficient integral has no
stationary point; Lemma 1's first-derivative bounds cover that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _table
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
_VAR_BOUND_GRID = 8192  # samples of phi' in lemma1_var_bound


def _approximate_at(
    norm: PhaseFunction,
    part: TermPartition,
    nus: np.ndarray,
    calib_c: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """t*, rho, the saddle-point value and its remainder bound at each index."""
    x, delta = part.n, part.delta
    t_star = _invert_increasing_slope(norm, nus / x)
    g2 = norm.d2(t_star)
    rho = x * norm.h(t_star) - nus * t_star
    approx = _SQRT_2_OVER_PI / np.sqrt(x * g2) * np.cos(rho + math.pi / 4.0)
    bounds = calib_c / (x * g2 * delta) + x * part.omega * delta**3
    return t_star, rho, approx, bounds


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

    _COLUMNS = ("nu", "exact", "approx", "abs_err", "remainder_bound")

    def _rows(self) -> list[tuple]:
        return [
            (r.nu, r.exact.real, r.approx, r.abs_err, r.remainder_bound) for r in self.rows
        ]

    def csv_text(self) -> str:
        """Five data columns; exact is the real part of the coefficient.

        For odd phases the spectrum comes from a Hermitian FFT, so
        the coefficients are exactly real; the header records the
        largest imaginary magnitude dropped so the file never hides one.
        """
        max_im = max((abs(r.exact.imag) for r in self.rows), default=0.0)
        header = f"x={self.x!r} label={self.label} calib_c={self.calib_c!r} max_im={max_im!r}"
        return _table.csv_text(header, self._COLUMNS, self._rows())

    def payload(self) -> dict:
        """The table as a JSON-ready dict, with the same columns as the CSV."""
        fields = {"x": self.x, "label": self.label, "calib_c": self.calib_c}
        return _table.payload(fields, self._COLUMNS, self._rows())

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
    spec = compute_spectrum(norm, x, grid_pow=grid_pow)
    rng = part.central_range()
    if len(rng) and not (spec.nu_min <= rng.start and rng[-1] <= spec.nu_max):
        raise DomainError(
            f"central indices [{rng.start}, {rng[-1]}] outside the computed "
            f"window [{spec.nu_min}, {spec.nu_max}]"
        )
    nus = np.arange(rng.start, rng.stop)
    t_star, rho, approx, bounds = _approximate_at(norm, part, nus, calib_c)
    first = rng.start - spec.nu_min
    exact = spec.coeffs[first : first + nus.size]
    columns = (nus, t_star, rho, approx, exact, bounds)
    rows = tuple(map(ComparisonRow, *(c.tolist() for c in columns)))
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
    abs_err = np.array([r.abs_err for r in table.rows])
    g2 = norm.d2(np.array([r.t_star for r in table.rows]))
    return float(np.max((abs_err - frozen_piece) * (x * g2 * delta), initial=0.0))


# ---------------------------------------------------------------------------
# First-derivative-test bounds
# ---------------------------------------------------------------------------


def lemma1_var_bound(phase: PhaseFunction, x: float, nu: float) -> float:
    """Variation of 1/phi' for phi(t) = x h(t) - nu t over [-pi, pi].

    This is the first-derivative-test bound on the coefficient integral
    (the periodic boundary terms cancel).  Requires phi' to stay away
    from zero; a sign change or near-zero sample raises DomainError.
    The grid sum converges to the true variation from below and is
    exact up to rounding when 1/phi' is piecewise monotone with turning
    points on the grid.
    """
    t = np.linspace(-np.pi, np.pi, _VAR_BOUND_GRID)
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
