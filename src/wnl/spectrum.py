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
_SAMPLE_BUDGET = 2**24  # largest FFT grid compute_spectrum will allocate


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


def _grid_coefficients(phase: PhaseFunction, x: float, n_grid: int) -> np.ndarray:
    """All N coefficients of e^{i x h(t)} on the N-point grid, from one FFT.

    An odd or even phase is sampled on [0, pi] only, N/2 + 1 points.
    """
    m = n_grid // 2 + 1 if phase.odd or phase.even else n_grid
    hv = phase.h(2.0 * np.pi * np.arange(m) / n_grid)  # before z: h's own peak comes first
    z = np.empty(n_grid if phase.even else m, dtype=complex)
    head = z[:m]
    np.multiply(1j * x, hv, out=head)
    del hv
    np.exp(head, out=head)
    if phase.odd:
        return np.fft.hfft(z, n_grid, norm="forward")
    if phase.even:
        z[m:] = z[m - 2 : 0 : -1]  # the sample at t_{N-j} is the one at t_j
    return np.fft.fft(z, norm="forward", out=z)


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
    verifies that rather than assuming it.  Its grid is the smallest
    power of two, at least 2^8, with N >= 2 max(-lo, hi + 1) points, so
    that no kept index wraps.  Near a slope extreme where |h'''| is
    large (a Blaschke zero close to the circle) the coefficients decay
    only on the fold scale (x |h'''|)^(1/3), which W can miss; so when
    the gate fails, W doubles and the window is cut again from the same
    FFT.  A new FFT runs only when the wider window needs a larger
    grid, and the widening stops at a pinned ``grid_pow`` or at the
    sample budget.  ``window="full"`` keeps all N coefficients instead
    (the right mode for phases whose spectrum decays too slowly to
    window, at the price of an inf tail bound unless curvature
    certifies one); its grid has at least 8 * (x * max|h'| + 64)
    points, and a pinned ``grid_pow`` below the 8x oversampling floor
    raises GridResolutionError.

    For an odd phase e^{i x h(-t)} is the conjugate of e^{i x h(t)}, so
    every coefficient is real: h is sampled on [0, pi] only, N/2 + 1
    points, and one Hermitian FFT (``np.fft.hfft``) yields the N
    coefficients.  For an even phase e^{i x h(-t)} equals e^{i x h(t)}:
    h and exp run on the same N/2 + 1 points, whose values are mirrored
    into the rest of the buffer before the complex FFT.  Other phases
    are sampled at all N points.  One complex buffer holds the samples,
    is exponentiated in place and, for the complex FFT, receives the
    transform, with ``norm="forward"`` scaling by the exact 1/N; a
    full-window spectrum thus holds at most two complex N-arrays
    (buffer and kept window) besides the FFT's own scratch.
    ``numpy.fft`` is used rather than ``scipy.fft``, whose import alone
    costs more start-up time and memory than its faster transform saves.

    A window that does not fit the grid raises GridResolutionError, as
    does a Parseval defect above 1e-6 that widening cannot mend.  A grid
    above 2^24 points raises DomainError before any sample is allocated.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if window not in ("auto", "full"):
        raise DomainError(f"window must be 'auto' or 'full', got {window!r}")
    check_periodicity(phase, x)

    m1, m2 = phase.slope_range()
    peak = x * max(abs(m1), abs(m2))
    w_pad = max(64.0, 4.0 * math.sqrt(x))

    def auto_window(pad: float) -> tuple[int, int, int]:
        """[x m1 - pad, x m2 + pad] and the grid size it needs."""
        lo, hi = math.ceil(x * m1 - pad), math.floor(x * m2 + pad)
        return lo, hi, 2 * max(-lo, hi + 1)  # no kept index wraps

    if window == "auto":
        lo, hi, need = auto_window(w_pad)
    else:
        need = 8.0 * (peak + 64.0)
    pinned = grid_pow is not None
    if grid_pow is None:
        grid_pow = max(8, math.ceil(math.log2(need)))
    n_grid = 2**grid_pow
    if n_grid > _SAMPLE_BUDGET:
        raise DomainError(
            f"x={x!r} needs a {n_grid}-point grid, above the budget of "
            f"{_SAMPLE_BUDGET} samples"
        )
    if window == "full":
        if n_grid < 8.0 * (peak + 1.0):
            raise GridResolutionError(
                f"grid_pow={grid_pow} gives {n_grid} samples, below the 8x oversampling "
                f"floor for x={x!r}; raise grid_pow"
            )
        lo = -(n_grid // 2)
        hi = n_grid // 2 - 1
    elif n_grid < need:
        raise GridResolutionError(
            f"window [{lo}, {hi}] does not fit a {n_grid}-point grid; raise grid_pow"
        )

    fcoef = _grid_coefficients(phase, x, n_grid)
    while True:
        # the window is one contiguous run of fcoef, or two when it wraps past N
        start = lo % n_grid
        stop = start + hi - lo + 1
        wrapped = max(stop - n_grid, 0)
        coeffs = np.concatenate([fcoef[start:stop], fcoef[:wrapped]], dtype=complex)
        if window == "full":
            del fcoef  # each N-array is dropped once read: they set peak memory
        sq = np.abs(coeffs)
        sq *= sq
        defect = abs(float(np.sum(sq)) - 1.0)
        if window == "full" or not defect > _PARSEVAL_GATE:
            break
        # widen the auto window: the same FFT while it fits, a larger grid if allowed
        w_pad *= 2.0
        wide_lo, wide_hi, need = auto_window(w_pad)
        if need > n_grid:
            wide_pow = math.ceil(math.log2(need))
            if pinned or 2**wide_pow > _SAMPLE_BUDGET:
                break
            grid_pow, n_grid = wide_pow, 2**wide_pow
            del fcoef, coeffs, sq
            fcoef = _grid_coefficients(phase, x, n_grid)
        lo, hi = wide_lo, wide_hi
    if defect > _PARSEVAL_GATE:
        raise GridResolutionError(
            f"windowed Parseval defect {defect:.3e} exceeds {_PARSEVAL_GATE:g}; "
            f"the window [{lo}, {hi}] is missing real coefficient mass (use "
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

    Composite Gauss-Legendre sized to a few radians of phase travel per
    panel, then panel doubling until two refinements agree to tol/2 on
    the normalized coefficient.  An odd phase makes the coefficient real,
    (1/pi) integral over [0, pi] of cos(x h(t) - nu t) dt, so only that
    half is integrated; other phases integrate the complex exponential
    over [-pi, pi].  Completely independent of the FFT route.
    """
    check_periodicity(phase, x)
    slope = max(abs(v) for v in phase.slope_range())
    travel = x * slope + abs(nu)
    start = 0.0 if phase.odd else -math.pi
    span = math.pi - start
    panels0 = max(4, math.ceil(0.75 * travel * (span / math.pi)))  # same density

    def integrand(t: np.ndarray) -> np.ndarray:
        arg = x * phase.h(t) - nu * t
        return np.cos(arg) if phase.odd else np.exp(1j * arg)

    value, _ = integrate_adaptive(
        integrand,
        start,
        math.pi,
        panels0,
        tol=0.5 * span * tol,  # tol/2 on the normalized coefficient
        order=16,
        max_doublings=_QUAD_MAX_DOUBLINGS,
    )
    return value / span


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
