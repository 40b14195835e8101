"""Fourier coefficients of e^{i x h(t)} and the scaled coefficient norm.

Two independent routes to the same numbers live here on purpose.
``compute_spectrum`` samples the exponential on a power-of-two grid and
reads coefficients off one FFT; ``coefficient_quadrature`` integrates a
single coefficient by adaptive panel quadrature.  Tests hold them
against each other, and the asymptotic claims are then checked against
whichever route fits the problem size.

A spectrum is trusted only as far as its certificates: the windowed
Parseval defect measures the coefficient mass the window missed, and
``tail_bound`` is a first-derivative-test estimate of the absolute-sum
mass outside the window.  Both are computed, never guessed; when no
honest bound exists (degenerate curvature) the tail bound is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _table
from ._quad import integrate_adaptive
from .errors import (
    DomainError,
    GridResolutionError,
    MisalignedError,
    PeriodicityError,
)
from .phase import PhaseFunction, TermPartition

_PARSEVAL_GATE = 1e-6  # a window missing this much square mass is rejected
_QUAD_MAX_DOUBLINGS = 10  # panel doublings coefficient_quadrature may spend


def check_periodicity(phase: PhaseFunction, x: float) -> None:
    """e^{i x h} is 2*pi periodic iff x * winding_k is an integer; x must be finite."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    xk = x * phase.winding_k
    if abs(xk - round(xk)) > 1e-9 * max(1.0, abs(xk)):
        raise PeriodicityError(
            f"x * winding_k = {xk!r} is not an integer; e^(i x h) is not periodic "
            f"for {phase.label!r} at x = {x!r}"
        )


@dataclass(frozen=True)
class CoefficientSpectrum:
    """Windowed Fourier coefficients of e^{i x h(t)} with certificates."""

    x: float
    nu_min: int
    nu_max: int
    coeffs: np.ndarray
    tail_bound: float
    parseval_defect: float
    grid_pow: int
    label: str

    def nu_values(self) -> np.ndarray:
        return np.arange(self.nu_min, self.nu_max + 1)

    def coeff(self, nu: int) -> complex:
        if not (self.nu_min <= nu <= self.nu_max):
            raise DomainError(
                f"nu = {nu} outside the computed window [{self.nu_min}, {self.nu_max}]"
            )
        return complex(self.coeffs[nu - self.nu_min])

    def abs_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def to_csv(self, path: str | Path) -> None:
        """One row per coefficient: nu, its real and imaginary parts and |a_nu|."""
        header = (
            f"x={self.x!r} grid_pow={self.grid_pow} "
            f"parseval_defect={self.parseval_defect!r} tail_bound={self.tail_bound!r} "
            f"label={self.label}"
        )
        rows = [
            (nu, c.real, c.imag, abs(c))
            for nu, c in zip(self.nu_values().tolist(), self.coeffs.tolist())
        ]
        Path(path).write_text(_table.csv_text(header, ("nu", "re", "im", "abs"), rows))


def _monotone_pieces(phase: PhaseFunction, grid_size: int = 4096) -> int | None:
    """Number of monotone segments of h' around the circle, or None.

    Counted as sign changes of h'' over [-pi, pi); zero samples are
    dropped first.  Returns None when h'' vanishes on most of the
    circle, in which case no variation certificate is available.
    """
    t = np.linspace(-np.pi, np.pi, grid_size, endpoint=False)
    s = np.sign(phase.d2(t))
    s = s[s != 0.0]
    if s.size < grid_size // 2:
        return None
    flips = int(np.sum(s[1:] != s[:-1]))
    if s[0] != s[-1]:
        flips += 1  # wraparound seam
    return max(flips, 2)


def _tail_bound(
    phase: PhaseFunction, x: float, m1: float, m2: float, lo: int, hi: int
) -> float:
    """First-derivative-test bound on sum |a_nu| outside [lo, hi].

    For nu below the slope band, phi' = x h' - nu stays positive, and
    per monotone piece of h' the variation of 1/phi' is at most
    B / (d (d + B)) with B the band width and d the distance to the
    band.  Summing the resulting coefficient bound over the excluded
    indices gives a log; pieces/2 scales it for phases whose slope is
    not a single hump.  Exact for the degenerate single-spike case.
    """
    band = x * (m2 - m1)
    if band == 0.0:
        return 0.0  # single spike at nu = x * slope; nothing outside
    pieces = _monotone_pieces(phase)
    if pieces is None:
        return math.inf
    dl = x * m1 - lo
    dr = hi - x * m2
    if dl <= 1.0 or dr <= 1.0:
        return math.inf
    per_side = math.log1p(band / (dl - 1.0)) + math.log1p(band / (dr - 1.0))
    return (pieces / 2.0) * per_side / math.pi


def compute_spectrum(
    phase: PhaseFunction,
    x: float,
    grid_pow: int | None = None,
    window: str = "auto",
) -> CoefficientSpectrum:
    """All Fourier coefficients of e^{i x h(t)} in one FFT, windowed.

    The automatic window is [x m1 - W, x m2 + W] with (m1, m2) the slope
    range of h and W = max(64, 4 sqrt(x)); outside it the coefficients
    of a curvature-definite phase are negligible, and the Parseval gate
    verifies that rather than assuming it.  ``window="full"`` keeps all
    N coefficients instead (the right mode for phases whose spectrum
    decays too slowly to window, at the price of an inf tail bound
    unless curvature certifies one).

    The grid is chosen as the smallest power of two with at least
    8 * (x * max|h'| + 64) points unless ``grid_pow`` pins it; a window
    that does not fit the grid raises GridResolutionError, as does a
    Parseval defect above 1e-6.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if window not in ("auto", "full"):
        raise DomainError(f"window must be 'auto' or 'full', got {window!r}")
    check_periodicity(phase, x)

    m1, m2 = phase.slope_range()
    scale = x * max(abs(m1), abs(m2)) + 64.0
    if grid_pow is None:
        grid_pow = max(8, math.ceil(math.log2(8.0 * scale)))
    n_grid = 2**grid_pow
    if n_grid < 8.0 * (x * max(abs(m1), abs(m2)) + 1.0):
        raise GridResolutionError(
            f"grid_pow={grid_pow} gives {n_grid} samples, below the 8x oversampling "
            f"floor for x={x!r}; raise grid_pow"
        )

    t = 2.0 * np.pi * np.arange(n_grid) / n_grid
    samples = np.exp(1j * x * phase.h(t))
    fcoef = np.fft.fft(samples) / n_grid

    if window == "auto":
        w_pad = max(64.0, 4.0 * math.sqrt(x))
        lo = math.ceil(x * m1 - w_pad)
        hi = math.floor(x * m2 + w_pad)
        if lo < -n_grid // 2 or hi >= n_grid // 2:
            raise GridResolutionError(
                f"window [{lo}, {hi}] does not fit a {n_grid}-point grid; "
                "raise grid_pow"
            )
    else:
        lo = -(n_grid // 2)
        hi = n_grid // 2 - 1

    nu = np.arange(lo, hi + 1)
    coeffs = fcoef[np.mod(nu, n_grid)]
    defect = abs(float(np.sum(np.abs(coeffs) ** 2)) - 1.0)
    if defect > _PARSEVAL_GATE:
        raise GridResolutionError(
            f"windowed Parseval defect {defect:.3e} exceeds {_PARSEVAL_GATE:g}; "
            "the window is missing real coefficient mass (raise grid_pow, or use "
            "window='full' for slowly decaying spectra)"
        )
    tail = _tail_bound(phase, x, m1, m2, lo, hi)
    return CoefficientSpectrum(
        x=x,
        nu_min=lo,
        nu_max=hi,
        coeffs=coeffs,
        tail_bound=tail,
        parseval_defect=defect,
        grid_pow=grid_pow,
        label=phase.label,
    )


def coefficient_quadrature(
    phase: PhaseFunction,
    x: float,
    nu: int,
    tol: float = 1e-11,
) -> complex:
    """One coefficient (1/2pi) integral of e^{i(x h(t) - nu t)} dt, directly.

    Composite Gauss-Legendre over [-pi, pi] sized to a few radians of
    phase travel per panel, then panel doubling until two refinements
    agree to tol/2.  Completely independent of the FFT route.
    """
    check_periodicity(phase, x)
    slope = max(abs(v) for v in phase.slope_range())
    travel = x * slope + abs(nu)
    panels0 = max(4, math.ceil(1.5 * travel))

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.exp(1j * (x * phase.h(t) - nu * t))

    value, _ = integrate_adaptive(
        integrand,
        -math.pi,
        math.pi,
        panels0,
        tol=math.pi * tol,  # tolerance on the 2pi-normalized coefficient
        order=16,
        max_doublings=_QUAD_MAX_DOUBLINGS,
    )
    return value / (2.0 * math.pi)


def scaled_norm(spec: CoefficientSpectrum) -> float:
    """Sum of |a_nu| over the window, divided by sqrt(x).

    Requires a finite tail bound: without one the windowed sum carries
    no certificate that the outside mass is small, so the value would
    be a guess.  Spectra of curvature-degenerate phases (inf tail)
    must be summed explicitly by the caller instead.
    """
    if not math.isfinite(spec.tail_bound):
        raise DomainError(
            "scaled_norm needs a finite tail_bound; this spectrum carries none "
            f"(label={spec.label!r})"
        )
    return spec.abs_sum() / math.sqrt(spec.x)


class PartitionSums(NamedTuple):
    """Absolute coefficient mass (external, periphery, central), unscaled."""

    external: float
    periphery: float
    central: float

    @property
    def total(self) -> float:
        return self.external + self.periphery + self.central


def partition_sums(spec: CoefficientSpectrum, part: TermPartition) -> PartitionSums:
    """Split sum |a_nu| by partition class.

    The spectrum must be the normalized phase's spectrum at x = n: the
    partition seams live on the normalized index line.  Labels and
    scales are checked, and the window must cover every non-external
    index so no interior mass is silently dropped.
    """
    if spec.label != part.label:
        raise MisalignedError(
            f"spectrum is for {spec.label!r} but partition is for {part.label!r}"
        )
    if abs(spec.x - part.n) > 1e-9:
        raise MisalignedError(f"spectrum x = {spec.x!r} but partition n = {part.n}")
    if spec.nu_min > part.ext_left_max or spec.nu_max < part.ext_right_min:
        raise MisalignedError(
            f"window [{spec.nu_min}, {spec.nu_max}] does not cover the partition "
            f"interior ({part.ext_left_max}, {part.ext_right_min})"
        )
    nu = spec.nu_values()
    absa = np.abs(spec.coeffs)
    masks = part.masks(nu)
    periphery = float(
        np.sum(absa[masks["periphery_left"]]) + np.sum(absa[masks["periphery_right"]])
    )
    return PartitionSums(
        external=float(np.sum(absa[masks["external"]])),
        periphery=periphery,
        central=float(np.sum(absa[masks["central"]])),
    )
