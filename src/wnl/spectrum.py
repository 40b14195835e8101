"""Fourier coefficients of e^{i x h(t)} and the scaled coefficient norm.

Two independent routes to the same numbers live here on purpose.
``compute_spectrum`` samples the exponential on a grid of 5-smooth
length, sized so that every alias of a kept coefficient lies well
outside its window, and reads coefficients off one FFT;
``coefficient_quadrature`` integrates a single coefficient by adaptive
panel quadrature.  Tests hold them against each other, and the
asymptotic claims are then checked against whichever route fits the
problem size.

A spectrum is trusted only as far as its certificates: the windowed
Parseval defect measures the coefficient mass the window missed, and
``tail_bound`` is a first-derivative-test estimate of the absolute-sum
mass outside the window.  Both are computed, never guessed; when no
honest bound exists (degenerate curvature) the tail bound is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._quad import integrate_panels, refine, require_tolerance
from ._table import Table
from .errors import (
    DomainError,
    GridResolutionError,
    MisalignedError,
    PeriodicityError,
)
from .phase import PhaseFunction, TermPartition, _curvature_zeros

_PARSEVAL_GATE = 1e-6  # a window missing this much square mass is rejected
_QUAD_MAX_DOUBLINGS = 10  # panel doublings coefficient_quadrature may spend
_PANEL_PHASE = 16.0  # most rad of phase per 16-node panel, first quadrature level
_SAMPLE_BUDGET = 2**24  # largest FFT grid, or quadrature level in nodes, to allocate


def check_periodicity(phase: PhaseFunction, x: float) -> None:
    """e^{i x h} is 2*pi periodic iff x * winding_k is an integer; x must be finite.

    The one periodicity rule: the spectrum, its quadrature twin and
    :func:`wnl.asymptotics.convergence_study` all apply it.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    xk = x * phase.winding_k
    if abs(xk - round(xk)) > 1e-9 * max(1.0, abs(xk)):
        raise PeriodicityError(
            f"x * winding_k = {xk!r} is not an integer; e^(i x h) is not periodic "
            f"for {phase.label!r} at x = {x!r}"
        )


def _index(nu: int) -> int:
    """nu as an int: an integral float is taken, any other value raises DomainError."""
    if not (math.isfinite(nu) and nu == int(nu)):
        raise DomainError(f"nu must be an integer, got {nu!r}")
    return int(nu)


@dataclass(frozen=True)
class CoefficientSpectrum:
    """Windowed Fourier coefficients of e^{i x h(t)} with certificates.

    ``coeffs`` is float64 for an odd phase, whose coefficients are real,
    and complex otherwise; ``coeff`` returns a ``complex`` either way.
    """

    x: float
    nu_min: int
    nu_max: int
    coeffs: np.ndarray
    tail_bound: float
    parseval_defect: float
    grid_size: int
    label: str

    @property
    def grid_pow(self) -> float:
        """log2 of ``grid_size``; perfbench/tracer.py still reads the grid as 2**grid_pow."""
        return math.log2(self.grid_size)

    def nu_values(self) -> np.ndarray:
        return np.arange(self.nu_min, self.nu_max + 1)

    def coeff(self, nu: int) -> complex:
        """a_nu; a nu that is not an integer (an integral float is taken) raises DomainError."""
        nu = _index(nu)
        if not (self.nu_min <= nu <= self.nu_max):
            raise DomainError(
                f"nu = {nu} outside the computed window [{self.nu_min}, {self.nu_max}]"
            )
        return complex(self.coeffs[nu - self.nu_min])

    def abs_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))

    def table(self) -> Table:
        """One row per coefficient: nu, its real and imaginary parts and |a_nu|."""
        header = (
            f"x={self.x!r} grid_size={self.grid_size} "
            f"parseval_defect={self.parseval_defect!r} tail_bound={self.tail_bound!r} "
            f"label={self.label}"
        )
        fields = {
            "x": self.x, "grid_size": self.grid_size, "parseval_defect": self.parseval_defect,
            "tail_bound": self.tail_bound, "label": self.label,
        }
        rows = [
            (nu, c.real, c.imag, abs(c))
            for nu, c in zip(self.nu_values().tolist(), self.coeffs.tolist())
        ]
        return Table(header, fields, ("nu", "re", "im", "abs"), rows)


def _tail_bound(
    phase: PhaseFunction, x: float, m1: float, m2: float, lo: int, hi: int
) -> float:
    """First-derivative-test bound on sum |a_nu| outside [lo, hi].

    For nu below the slope band, phi' = x h' - nu stays positive, and
    per monotone piece of h' the variation of 1/phi' is at most
    B / (d (d + B)) with B the band width and d the distance to the
    band.  Summing the resulting coefficient bound over the excluded
    indices gives a log, scaled by pieces/2: the zeros of h'' on the
    circle (at least 2) that :func:`wnl.phase._curvature_zeros` finds, or
    inf when it gives None.  Exact for the degenerate single-spike case.
    """
    band = x * (m2 - m1)
    if band == 0.0:
        return 0.0  # single spike at nu = x * slope; nothing outside
    zeros = _curvature_zeros(phase)
    if zeros is None:
        return math.inf
    pieces = max(zeros.size, 2)
    dl = x * m1 - lo
    dr = hi - x * m2
    if dl <= 1.0 or dr <= 1.0:
        return math.inf
    per_side = math.log1p(band / (dl - 1.0)) + math.log1p(band / (dr - 1.0))
    return (pieces / 2.0) * per_side / math.pi


def _fft_size(n: float) -> int:
    """The smallest even 2^a 3^b 5^c >= n.

    pocketfft transforms these lengths about as fast per point as a power
    of two.  Even, because the even-phase mirror in _grid_coefficients
    fills the N/2 - 1 points past the N/2 + 1 samples of [0, pi].
    """
    n = math.ceil(n)
    best = 2 ** max(1, (n - 1).bit_length())  # the power of two
    five = 1
    while five < best:
        factor = five
        while factor < best:  # factor = 3^b 5^c, times the least 2^a >= 2 reaching n
            best = min(best, factor << max(1, (-(-n // factor) - 1).bit_length()))
            factor *= 3
        five *= 5
    return best


def _grid_coefficients(phase: PhaseFunction, x: float, n_grid: int) -> np.ndarray:
    """All N coefficients of e^{i x h(t)} on the N-point grid, from one FFT.

    An odd or even phase (read once, even only if not odd) is sampled on
    [0, pi] only, N/2 + 1 points.  An odd phase samples the conjugate
    e^{-i x h}, whose ``irfft`` (scaled by 1/N) is the N real coefficients:
    ``hfft(e^{i x h}, norm="forward")`` without its conjugated copy.
    """
    odd = phase.odd
    even = not odd and phase.even
    m = n_grid // 2 + 1 if odd or even else n_grid
    hv = phase.h(2.0 * np.pi * np.arange(m) / n_grid)  # before z: h's own peak comes first
    z = np.empty(n_grid if even else m, dtype=complex)
    head = z[:m]
    np.multiply(-1j * x if odd else 1j * x, hv, out=head)
    del hv
    np.exp(head, out=head)
    if odd:
        return np.fft.irfft(z, n_grid)
    if even:
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
    range of h, read off h' at the zeros of h'' (``slope_range``), and
    W = max(64, 4 sqrt(x)); outside it the coefficients of a
    curvature-definite phase are negligible, and the Parseval gate
    verifies that rather than assuming it.  Its grid has N points, the
    smallest even 2^a 3^b 5^c with N >= w + 4W, w = hi - lo + 1: every
    alias nu +- N of a kept index then lies at least 4W beyond the
    window, 5W from the slope band.  Near a slope extreme where |h'''|
    is large (a Blaschke zero close to the circle) the coefficients
    decay only on the fold scale (x |h'''|)^(1/3), which W can miss; so
    when the gate fails, W doubles and the window is cut again from the
    same FFT while N >= w' + 4W' still holds.  Otherwise the same rule
    sizes a new grid, and the widening stops at the sample budget.
    ``window="full"`` keeps all N coefficients instead (the right mode
    for phases whose spectrum decays too slowly to window, at the price
    of an inf tail bound unless curvature certifies one); its grid is
    the smallest power of two with at least 8 * (x * max|h'| + 64)
    points, or 2^grid_pow points when ``grid_pow`` pins it.  A pinned
    grid below the 8x oversampling floor raises GridResolutionError.

    For an odd phase e^{i x h(-t)} is the conjugate of e^{i x h(t)}, so
    every coefficient is real: h is sampled on [0, pi] only, N/2 + 1
    points, and one Hermitian FFT (the inverse real FFT of the conjugate
    samples, ``np.fft.irfft``) yields the N coefficients as float64, and
    the window stays float64.  For an even phase e^{i x h(-t)} equals
    e^{i x h(t)}: h and exp run on the same N/2 + 1 points, whose values
    are mirrored into the rest of the buffer before the complex FFT.
    Other phases are sampled at all N points.  One complex buffer holds
    the samples, is exponentiated in place and, for the complex FFT,
    receives the transform, with ``norm="forward"`` scaling by 1/N; a
    full-window spectrum thus holds at most two complex N-arrays
    (buffer and kept window) besides the FFT's own scratch.
    ``numpy.fft`` is used rather than ``scipy.fft``, whose import alone
    costs more start-up time and memory than its faster transform saves.

    A ``grid_pow`` that is not an integer >= 0, or one given with the
    auto window (whose grid is a function of the window, so a pin could
    only fall short or be wasted), raises DomainError before any
    sampling.  A Parseval defect above 1e-6 that widening cannot mend
    raises GridResolutionError.  A grid above 2^24 points raises
    DomainError before any sample is allocated (a pinned one before
    2**grid_pow is computed), and so does a phase whose h' or h'' is not
    finite on the circle, or whose e^{i x h} is not finite on the grid.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if window not in ("auto", "full"):
        raise DomainError(f"window must be 'auto' or 'full', got {window!r}")
    if grid_pow is not None:
        if not (math.isfinite(grid_pow) and grid_pow == int(grid_pow) and grid_pow >= 0):
            raise DomainError(f"grid_pow must be an integer >= 0, got {grid_pow!r}")
        if window == "auto":
            raise DomainError("grid_pow pins the grid of window='full' only; auto sizes its own")
    check_periodicity(phase, x)

    m1, m2 = phase.slope_range()
    peak = x * max(abs(m1), abs(m2))
    w_pad = max(64.0, 4.0 * math.sqrt(x))

    def auto_window(pad: float) -> tuple[int, int, float]:
        """[x m1 - pad, x m2 + pad] and the grid size it needs."""
        lo, hi = math.ceil(x * m1 - pad), math.floor(x * m2 + pad)
        return lo, hi, hi - lo + 1 + 4.0 * pad  # each alias lands 4 pad past the window

    if window == "auto":
        lo, hi, need = auto_window(w_pad)
        n_grid = _fft_size(need)
    elif grid_pow is None:
        n_grid = 2 ** math.ceil(math.log2(8.0 * (peak + 64.0)))
    elif grid_pow > _SAMPLE_BUDGET.bit_length() - 1:  # checked before 2**grid_pow is built
        raise DomainError(f"grid_pow={grid_pow!r} pins a grid above the budget of {_SAMPLE_BUDGET}")
    else:
        n_grid = 2 ** int(grid_pow)
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

    fcoef = _grid_coefficients(phase, x, n_grid)
    while True:
        # the window is one contiguous run of fcoef, or two when it wraps past N
        start = lo % n_grid
        stop = start + hi - lo + 1
        wrapped = max(stop - n_grid, 0)
        coeffs = np.concatenate([fcoef[start:stop], fcoef[:wrapped]])
        if window == "full":
            del fcoef  # each N-array is dropped once read: they set peak memory
        sq = np.abs(coeffs)
        sq *= sq
        defect = abs(float(np.sum(sq)) - 1.0)
        if not math.isfinite(defect):
            raise DomainError(
                f"e^(i x h) of {phase.label!r} is not finite on the {n_grid}-point "
                f"grid at x = {x!r}"
            )
        if window == "full" or not defect > _PARSEVAL_GATE:
            break
        # widen the auto window: the same FFT while it fits, a larger grid if allowed
        w_pad *= 2.0
        wide_lo, wide_hi, need = auto_window(w_pad)
        if need > n_grid:
            wide_grid = _fft_size(need)
            if wide_grid > _SAMPLE_BUDGET:
                break
            n_grid = wide_grid
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
        grid_size=n_grid,
        label=phase.label,
    )


def coefficient_quadrature(
    phase: PhaseFunction,
    x: float,
    nu: int,
    tol: float = 1e-11,
) -> complex:
    """One coefficient (1/2pi) integral of e^{i(x h(t) - nu t)} dt, directly.

    16-point Gauss-Legendre panels, at most 16 rad of phase (bounded by
    |x| max|h'| + |nu| per radian of t) on each at the first level, about
    6 nodes per wavelength; then panel doubling until two levels agree to
    tol/2 on the normalized coefficient.  An odd phase makes it real,
    (1/pi) integral over [0, pi] of cos(x h(t) - nu t) dt, so only that
    half is integrated; other phases integrate the complex exponential
    over [-pi, pi], on an even number of panels so that t = 0 is a panel
    edge.  Completely independent of the FFT route.  A tol
    that is nan or <= 0, a nu that is not an integer (an integral float
    is taken), or an integrand that is not finite, raises DomainError.
    So does a first level over 2^24 nodes; no level over it is evaluated.
    """
    require_tolerance(tol)
    check_periodicity(phase, x)
    nu = _index(nu)
    slope = max(abs(v) for v in phase.slope_range())
    travel = abs(x) * slope + abs(nu)
    odd = phase.odd
    start = 0.0 if odd else -math.pi
    span = math.pi - start
    panels0 = max(4, math.ceil(travel * span / _PANEL_PHASE))
    if not odd:
        panels0 += panels0 % 2  # t = 0, where abs has its kink, on a panel edge
    doublings = min(_QUAD_MAX_DOUBLINGS, (_SAMPLE_BUDGET // (16 * panels0)).bit_length() - 1)
    if doublings < 0:  # 16 nodes per panel
        raise DomainError(f"x={x!r} needs {16 * panels0} nodes, above the budget {_SAMPLE_BUDGET}")

    def integrand(t: np.ndarray) -> np.ndarray:
        arg = x * phase.h(t)  # a new array: h may return t itself
        arg -= nu * t
        if odd:
            return np.cos(arg, out=arg)
        z = 1j * arg
        return np.exp(z, out=z)

    def level(panels: int) -> complex:
        return integrate_panels(integrand, np.linspace(start, math.pi, panels + 1), 16)

    levels = (panels0 << k for k in range(doublings + 1))
    what = f"e^(i x h) of {phase.label!r} at x = {x!r}"
    failure = f"panel doubling cap ({doublings}) reached for {what}"
    tol_raw = 0.5 * span * tol  # tol/2 on the normalized coefficient
    return refine(level, levels, tol_raw, what, failure, lambda value: value / span)


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


def partition_sums(spec: CoefficientSpectrum, part: TermPartition) -> PartitionSums:
    """Split sum |a_nu| by partition class.

    The spectrum must be the normalized phase's spectrum at x = n: the
    partition seams live on the normalized index line.  Labels and
    scales are checked, and the window must cover every non-external
    index so no interior mass is silently dropped; each class is a run
    of the window (the external class two) between the partition's cuts.
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
    absa = np.abs(spec.coeffs)
    first, lo, hi, last = (cut - spec.nu_min for cut in part.cuts)  # each >= 1, as checked
    return PartitionSums(
        external=float(np.sum(np.concatenate([absa[:first], absa[last:]]))),
        periphery=float(np.sum(absa[first:lo]) + np.sum(absa[hi:last])),
        central=float(np.sum(absa[lo:hi])),
    )
