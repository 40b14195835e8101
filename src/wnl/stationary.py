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

``stationary_comparison`` returns the central window as one table of
numpy columns (index, t*, rho, g''(t*), approximation, FFT coefficient,
bound).  The phase is odd, so its FFT coefficients are real: float64
from one Hermitian FFT.  ``_stationary_points`` yields nu, t* and
g''(t*) one block of indices at a time, and the comparison fills its
columns, rho included, from those blocks;
``asymptotics.final_step_report`` reads the same blocks and keeps none
of them.  The error statistics and the
written table are column expressions, and ``fitted_calibration`` reads
the stored g'' column.

Away from the central window the coefficient integral has no
stationary point; Lemma 1's first-derivative bounds cover that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

import numpy as np

from ._quad import _BLOCK
from ._table import Table
from .errors import DomainError, MisalignedError
from .phase import (
    PhaseFunction,
    TermPartition,
    _circle_table,
    _invert_increasing_slope,
    partition_terms,
    require_valid,
)
from .spectrum import compute_spectrum

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _stationary_points(
    norm: PhaseFunction, part: TermPartition
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield nu, t* = psi(nu/x) and g''(t*) over the partition's central
    range, one block of ``_quad._BLOCK`` indices at a time, so no array
    spans the whole range.  Each root depends on its own target only,
    so the blocks equal one slope inversion over the range bit for bit."""
    rng = part.central_range()
    for start in range(rng.start, rng.stop, _BLOCK):
        nus = np.arange(start, min(start + _BLOCK, rng.stop))
        t_star = _invert_increasing_slope(norm, nus / part.n)
        yield nus, t_star, norm.d2(t_star)


# ---------------------------------------------------------------------------
# Side-by-side comparison with the exact spectrum
# ---------------------------------------------------------------------------


class ComparisonRow(NamedTuple):
    """One central index of a :class:`ComparisonTable`, as Python scalars."""

    nu: int
    t_star: float
    rho: float
    approx: float
    exact: float
    remainder_bound: float

    @property
    def abs_err(self) -> float:
        return abs(self.approx - self.exact)

    @property
    def rel_err(self) -> float:
        mag = abs(self.exact)
        return self.abs_err / mag if mag > 0.0 else math.inf


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Central-window stationary approximations against FFT coefficients.

    A table of numpy columns, one entry per central index: ``nu``,
    ``t_star``, ``rho``, ``g2`` = g''(t*), ``approx``, ``exact`` and
    ``remainder_bound``, all float64 but ``nu``: the phase is odd, so its
    coefficients are real.  The error columns
    ``abs_err`` and ``rel_err`` are derived once, on first use.
    delta and omega are those of the partition the table was built from,
    so the remainder budget can be re-derived from the table.  ``rows``
    gives the same entries as :class:`ComparisonRow` tuples, built on
    first use; nothing in the package reads it.
    """

    x: float
    label: str
    calib_c: float
    delta: float
    omega: float
    nu: np.ndarray
    t_star: np.ndarray
    rho: np.ndarray
    g2: np.ndarray
    approx: np.ndarray
    exact: np.ndarray
    remainder_bound: np.ndarray

    @cached_property
    def rows(self) -> tuple[ComparisonRow, ...]:
        columns = (self.nu, self.t_star, self.rho, self.approx, self.exact, self.remainder_bound)
        entries = zip(*(c.tolist() for c in columns))
        # ComparisonRow._make without its length check, which costs a third of the build
        return tuple(map(tuple.__new__, repeat(ComparisonRow), entries))

    @cached_property
    def abs_err(self) -> np.ndarray:
        """|approx - exact|, as ``ComparisonRow.abs_err`` computes it."""
        return np.abs(self.approx - self.exact)

    @cached_property
    def rel_err(self) -> np.ndarray:
        """abs_err / |exact|, inf where the coefficient is 0, as ``ComparisonRow.rel_err``."""
        mag = np.abs(self.exact)
        return np.divide(self.abs_err, mag, out=np.full(mag.shape, math.inf), where=mag > 0.0)

    def max_abs_err(self) -> float:
        return float(np.max(self.abs_err, initial=0.0))

    def max_rel_err(self) -> float:
        return float(np.max(self.rel_err, initial=0.0))

    def bound_violations(self) -> int:
        """How many rows have |approx - exact| above their remainder bound."""
        return int(np.count_nonzero(self.abs_err > self.remainder_bound))

    def table(self) -> Table:
        """Five data columns: nu, exact, approx, abs_err and remainder_bound.

        The coefficients of an odd phase are real, so the header's
        max_im, the largest imaginary part dropped, is always 0.0; the
        file format keeps the field.
        """
        header = f"x={self.x!r} label={self.label} calib_c={self.calib_c!r} max_im=0.0"
        fields = {"x": self.x, "label": self.label, "calib_c": self.calib_c}
        columns = (self.nu, self.exact, self.approx, self.abs_err, self.remainder_bound)
        rows = list(zip(*(c.tolist() for c in columns)))
        return Table(header, fields, ("nu", "exact", "approx", "abs_err", "remainder_bound"), rows)


def stationary_comparison(
    phase: PhaseFunction,
    x: float,
    calib_c: float = 8.0,
) -> ComparisonTable:
    """Approximate every central coefficient and fetch its exact value.

    The exact side is the FFT spectrum of the normalized phase at the
    same x, so the two columns share nothing but the phase itself.  The
    columns t*, g''(t*) and rho are allocated once, after the first
    block's slope inversion, and filled from the blocks of
    ``_stationary_points``.  calib_c must be finite and non-negative.
    """
    if not (0.0 <= calib_c < math.inf):
        raise DomainError(f"calib_c must be finite and non-negative, got {calib_c!r}")
    norm = require_valid(phase)
    part = partition_terms(norm, x)
    spec = compute_spectrum(norm, x)
    rng = part.central_range()
    if len(rng) and not (spec.nu_min <= rng.start and rng[-1] <= spec.nu_max):
        raise DomainError(
            f"central indices [{rng.start}, {rng[-1]}] outside the computed "
            f"window [{spec.nu_min}, {spec.nu_max}]"
        )
    t_star = g2 = rho = np.empty(0)
    for ks, t, d2 in _stationary_points(norm, part):
        if t_star.size == 0:  # allocated past the first inversion and its temporaries
            t_star, g2, rho = np.empty(len(rng)), np.empty(len(rng)), np.empty(len(rng))
        s = slice(ks[0] - rng.start, ks[-1] + 1 - rng.start)
        t_star[s], g2[s] = t, d2
        rho[s] = x * norm.h(t) - ks * t
    nus = np.arange(rng.start, rng.stop)
    approx = _SQRT_2_OVER_PI / np.sqrt(x * g2) * np.cos(rho + math.pi / 4.0)
    bounds = calib_c / (x * g2 * part.delta) + x * part.omega * part.delta**3
    first = rng.start - spec.nu_min
    return ComparisonTable(
        x=x,
        label=norm.label,
        calib_c=calib_c,
        delta=part.delta,
        omega=part.omega,
        nu=nus,
        t_star=t_star,
        rho=rho,
        g2=g2,
        approx=approx,
        exact=spec.coeffs[first : first + nus.size],
        remainder_bound=bounds,
    )


def fitted_calibration(phase: PhaseFunction, table: ComparisonTable) -> float:
    """Smallest C >= 0 making every remainder bound dominate its actual error.

    Inverts the two-term budget rowwise: the C piece must cover whatever
    the frozen-curvature piece x omega(delta) delta^3 does not.  Returns
    0 when the second term alone already dominates everywhere.  The
    table must have been built for this phase; its g'' column is used
    as stored.
    """
    norm = require_valid(phase)
    if table.label != norm.label:
        raise MisalignedError(
            f"table is for {table.label!r} but the phase normalizes to {norm.label!r}"
        )
    x, delta = table.x, table.delta
    frozen_piece = x * table.omega * delta**3
    return float(np.max((table.abs_err - frozen_piece) * (x * table.g2 * delta), initial=0.0))


# ---------------------------------------------------------------------------
# First-derivative-test bounds
# ---------------------------------------------------------------------------


def lemma1_var_bound(phase: PhaseFunction, x: float, nu: float) -> float:
    """Variation of 1/phi' for phi(t) = x h(t) - nu t over one period.

    This is the first-derivative-test bound on the coefficient integral
    (the periodic boundary terms cancel).  Requires phi' to stay away
    from zero; a sign change or near-zero sample raises DomainError.
    phi' is read off the phase's circle table, h' on the 32769 points of
    [0, 2 pi] (:func:`wnl.phase._circle_table`).  The grid sum converges
    to the true variation from below and is exact up to rounding when
    1/phi' is piecewise monotone with turning points on the grid, as at
    0 and pi for an odd phase.
    """
    if not (math.isfinite(x) and math.isfinite(nu)):
        raise DomainError(f"x and nu must be finite, got ({x!r}, {nu!r})")
    d1 = _circle_table(phase)[1]
    slope = x * d1 - nu
    smallest = float(np.min(np.abs(slope)))
    scale = abs(x) * float(np.max(np.abs(d1))) + abs(nu) + 1.0
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
    or non-finite slope admits no bound and raises DomainError.
    """
    if not all(0.0 < abs(s) < math.inf for s in (phimin_a, phimin_b)):
        raise DomainError(
            f"endpoint slopes must be finite and nonzero, got ({phimin_a!r}, {phimin_b!r})"
        )
    return 2.0 / min(abs(phimin_a), abs(phimin_b))
