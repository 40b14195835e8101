"""Coefficient spectra: FFT route, quadrature route, certificates, partitions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from wnl import spectrum
from wnl.errors import (
    DomainError,
    GridResolutionError,
    MisalignedError,
    PeriodicityError,
    QuadratureBudgetError,
)
from wnl.phase import (
    PhaseFunction,
    build_blaschke,
    build_blaschke_general,
    build_from_callable,
    build_linear,
    build_piecewise_abs,
    build_sine,
    partition_terms,
    require_valid,
)
from wnl.spectrum import (
    CoefficientSpectrum,
    coefficient_quadrature,
    compute_spectrum,
    partition_sums,
    scaled_norm,
)

# e^{i x sin t} has coefficients J_nu(x); frozen at x = 10.5.
J0_10_5 = -0.23664819446234712622
J5_10_5 = -0.26105250194504920749
J30_10_5 = 6.1576504742210592905e-12


def test_sine_spectrum_is_bessel():
    spec = compute_spectrum(build_sine(), 10.5)
    assert spec.coeff(0).real == pytest.approx(J0_10_5, abs=1e-13)
    assert spec.coeff(5).real == pytest.approx(J5_10_5, abs=1e-13)
    assert spec.coeff(30).real == pytest.approx(J30_10_5, abs=1e-13)
    # J_{-nu} = (-1)^nu J_nu
    assert spec.coeff(-5).real == pytest.approx(-J5_10_5, abs=1e-13)


def test_two_paths_agree():
    """FFT and direct quadrature share nothing; agreement is evidence."""
    for phase, x in [(build_sine(), 5.0), (build_blaschke([0.5]), 5.0)]:
        spec = compute_spectrum(phase, x)
        for nu in (-7, -1, 0, 2, 6):
            direct = coefficient_quadrature(phase, x, nu, tol=1e-12)
            assert abs(spec.coeff(nu) - direct) < 1e-10


@pytest.mark.parametrize(
    "phase", [build_sine(), build_blaschke([0.5]), build_blaschke([0.3, 0.7])],
    ids=lambda p: p.label,
)
def test_odd_phase_coefficients_are_real(phase):
    spec = compute_spectrum(phase, 20.0)
    assert np.max(np.abs(spec.coeffs.imag)) < 1e-12


class _FullRoute(PhaseFunction):
    """A phase that reads neither odd nor even, whatever h is: the
    spectrum and the quadrature take their full-circle routes."""

    odd = False
    even = False


class _OddRoute(PhaseFunction):
    """A phase that reads odd without sampling h, so an instrumented h
    sees the nodes of the half route and nothing else."""

    odd = True
    even = False


@pytest.mark.parametrize(
    "route, sampled",
    [(_FullRoute, lambda n: n), (_OddRoute, lambda n: n // 2 + 1)],
    ids=["full", "odd"],
)
def test_route_subclasses_force_their_routes(route, sampled):
    """A phase keeps its parity once read, but a subclass's class
    attributes still decide the route: the spectrum samples h on all N
    grid points for _FullRoute and on N/2 + 1 for _OddRoute, also after
    the plain phase with the same callables has been read."""
    sine, sizes = build_sine(), []

    def h(t):
        sizes.append(np.size(t))
        return np.sin(t)

    assert PhaseFunction(h, sine.d1, sine.d2, sine.label).odd
    phase = route(h, sine.d1, sine.d2, sine.label)
    for _ in range(2):
        sizes.clear()
        grid = compute_spectrum(phase, 64.0).grid_size
        assert max(sizes) == sampled(grid)
    assert (phase.odd, phase.even) == (route.odd, route.even)


@pytest.mark.parametrize(
    "phase, xs",
    [
        (build_sine(), (10.5, 20.0, 1000.0, 8192.0)),
        (build_blaschke([0.3, 0.7]), (20.0, 256.0, 4096.0)),
    ],
    ids=["sine", "blaschke[0.3,0.7]"],
)
def test_half_route_matches_full_route(phase, xs):
    """Odd phases take the Hermitian FFT on half the samples and keep
    their real coefficients as float64; forcing the full complex FFT must
    give the same coefficients, and its imaginary parts stay at rounding
    level, so the reality check still sees an FFT."""
    for x in xs:
        half = compute_spectrum(phase, x)
        full = compute_spectrum(_FullRoute(phase.h, phase.d1, phase.d2, phase.label), x)
        assert (half.nu_min, half.nu_max, half.grid_size) == (
            full.nu_min,
            full.nu_max,
            full.grid_size,
        )
        assert half.coeffs.dtype == np.float64
        assert np.max(np.abs(half.coeffs - full.coeffs)) <= 1e-12
        assert np.max(np.abs(full.coeffs.imag)) <= 1e-9


@pytest.mark.parametrize(
    "phase, x",
    [(build_sine(), 1000.0), (build_sine(), 351.5), (build_blaschke([0.3, 0.7]), 4096.0)],
    ids=["sine-1000", "sine-351.5", "blaschke[0.3,0.7]-4096"],
)
def test_odd_spectrum_is_real_end_to_end(phase, x):
    """An odd phase's coefficients stay float64 from the FFT to every sum:
    abs of a real value is fabs, which equals hypot(a, 0), so the Parseval
    defect, abs_sum, the partition sums and the written table equal those
    of the same coefficients widened to complex, byte for byte."""
    norm = require_valid(phase)
    spec = compute_spectrum(norm, x)
    assert spec.coeffs.dtype == np.float64
    assert type(spec.coeff(spec.nu_min)) is complex
    wide = dataclasses.replace(spec, coeffs=spec.coeffs.astype(complex))
    sq = np.abs(wide.coeffs)
    sq *= sq
    assert spec.parseval_defect == abs(float(np.sum(sq)) - 1.0)
    assert spec.abs_sum() == wide.abs_sum()
    part = partition_terms(norm, x)
    assert partition_sums(spec, part) == partition_sums(wide, part)
    assert spec.table().csv_text() == wide.table().csv_text()


@pytest.mark.parametrize(
    "alphas, x",
    [
        ([0.3, 0.7], 1000.0),
        ([0.3, 0.7], 4096.0),
        ([0.3, 0.95], 300.0),
        ([0.3, 0.95], 1000.0),
        ([0.3, 0.95], 3000.0),
    ],
    ids=["1000.0", "4096.0", "0.3,0.95-300.0", "0.3,0.95-1000.0", "0.3,0.95-3000.0"],
)
@pytest.mark.parametrize("theta", [0.7, math.pi / 2.0, 2.0])
def test_rotated_zeros_keep_every_magnitude(theta, alphas, x):
    """Rotating every zero by theta shifts h along the circle, t -> t -
    theta, plus a constant, which leaves each |a_nu| alone.  The rotated
    zeros are complex, so their spectrum takes the full complex FFT,
    while build_blaschke(alphas) takes the odd Hermitian route: the
    two routes must give the same window and the same magnitudes.  The
    window is cut from h' at the zeros of h'', which rotate with the
    phase; a slope range sampled on a grid misses the rotated extremes of
    [0.3, 0.95].  The samples of x h carry rounding of about x |h| eps ~
    1e-11 (|h| <= 13 here), which averages over the N = 2^16 samples of a
    coefficient to about 1e-11 / sqrt(N) ~ 4e-14, the largest gap
    measured; 1e-12 allows 20 times that."""
    odd = compute_spectrum(build_blaschke(alphas), x)
    rotated = compute_spectrum(
        build_blaschke_general([a * np.exp(1j * theta) for a in alphas]), x
    )
    assert (rotated.nu_min, rotated.nu_max) == (odd.nu_min, odd.nu_max)
    assert np.max(np.abs(np.abs(rotated.coeffs) - np.abs(odd.coeffs))) <= 1e-12


def test_even_half_route_matches_full_route():
    """The even abs phase samples h on [0, pi] only and mirrors; forcing
    the full N-point sample must give the same window, grid and
    coefficients.  The parity reads sample h inside (-pi, pi), under
    the instrument's bound of pi."""
    phase = build_piecewise_abs()
    seen = []

    def h(t):
        seen.append(np.max(t))
        return phase.h(t)

    for x in (1024.0, 4096.0):
        seen.clear()
        half = compute_spectrum(dataclasses.replace(phase, h=h), x, window="full")
        assert max(seen) <= np.pi  # the half route ran
        full_phase = _FullRoute(phase.h, phase.d1, phase.d2, phase.label)
        full = compute_spectrum(full_phase, x, window="full")
        assert (half.nu_min, half.nu_max, half.grid_size) == (
            full.nu_min,
            full.nu_max,
            full.grid_size,
        )
        assert np.max(np.abs(half.coeffs - full.coeffs)) <= 1e-12


@pytest.mark.parametrize(
    "phase, x, window",
    [
        (build_sine(), 1000.0, "auto"),
        (build_blaschke([0.3, 0.7]), 256.0, "auto"),
        (build_piecewise_abs(), 1024.0, "full"),
        (build_blaschke_general([0.4 + 0.3j]), 256.0, "auto"),
        (build_sine(), 351.5, "auto"),
    ],
    ids=["sine", "blaschke[0.3,0.7]", "abs-full", "blaschke-complex", "sine-fractional"],
)
def test_buffer_route_is_the_reference_expression(phase, x, window):
    """compute_spectrum exponentiates in place and lets the FFT scale by
    1/N; that is the plain expression times 1 / N, byte for byte, on the
    5-smooth auto grids as on the power-of-two full one.  For an odd
    phase the plain expression is the Hermitian FFT of e^{i x h}, where
    the spectrum takes the inverse real FFT of its conjugate: both give
    float64, and the window keeps that dtype."""
    spec = compute_spectrum(phase, x, window=window)
    n = spec.grid_size
    if phase.odd:
        t = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        fcoef = np.fft.hfft(np.exp(1j * x * phase.h(t)), n) * (1.0 / n)
    elif phase.even:
        t = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        z = np.exp(1j * x * phase.h(t))
        fcoef = np.fft.fft(np.concatenate([z, z[-2:0:-1]])) * (1.0 / n)
    else:
        t = 2.0 * np.pi * np.arange(n) / n
        fcoef = np.fft.fft(np.exp(1j * x * phase.h(t))) * (1.0 / n)
    expected = fcoef[spec.nu_values() % n]
    assert spec.coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "phase, x, window, grid, bound",
    [
        (build_piecewise_abs(), 4096.0, "full", 2**16, 2.25),
        (build_sine().normalized(), 16384.0, "auto", 36000, 1.6),
    ],
    ids=["abs-full", "sine"],
)
def test_spectrum_peak_memory(phase, x, window, grid, bound):
    """The full window on 2^16 points peaks near two complex N-arrays
    (samples and FFT in one buffer, plus the kept copy).  The odd sine
    keeps 33793 of its N = 36000 coefficients, all real: the N float64
    FFT outputs, the kept float64 window and its squared magnitudes come
    to 0.5 + (0.5 + 0.5) * 33793 / 36000 = 1.44 of the unit, and the tail
    bound's circle scan runs beside them.  A complex window would add
    0.5 * 33793 / 36000 = 0.47 to that, 1.91, above the sine bound.
    Bounds in units of 16 N bytes."""
    compute_spectrum(phase, x, window=window)  # warm-up: FFT plan caches
    tracemalloc.start()
    try:
        spec = compute_spectrum(phase, x, window=window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.grid_size == grid
    assert peak <= bound * 16 * grid


@pytest.mark.parametrize(
    "phase, xs",
    [(build_sine(), (50.0, 1000.0)), (build_blaschke([0.3, 0.7]), (20.0, 256.0))],
    ids=["sine", "blaschke[0.3,0.7]"],
)
def test_quadrature_half_route_matches_full_route(phase, xs):
    """Odd phases integrate cos(x h - nu t) over [0, pi] only; forcing the
    complex integral over [-pi, pi] must agree within the quadrature's
    own tol, at indices on both band edges, inside and outside the band.
    For sine both routes are also held against scipy's J_nu(x).  The
    instrument records node arrays only, not the 0-d reads of the
    winding at -pi and pi, and the instrumented phase reads odd without
    sampling h."""
    seen = []

    def h(t):
        if np.ndim(t):
            seen.append(np.min(t))
        return phase.h(t)

    half_phase = _OddRoute(h, phase.d1, phase.d2, phase.label)
    full_phase = _FullRoute(phase.h, phase.d1, phase.d2, phase.label)
    for x in xs:
        m1, m2 = phase.slope_range()
        lo, hi = round(x * m1), round(x * m2)
        for nu in (lo - 30, lo, -7, (lo + hi) // 2, hi, hi + 30):
            seen.clear()
            half = coefficient_quadrature(half_phase, x, nu)
            assert min(seen) >= 0.0  # the half route ran
            full = coefficient_quadrature(full_phase, x, nu)
            assert abs(half - full) <= 1e-11
            if phase.label == "sine":
                assert abs(half - jv(nu, x)) <= 1e-11
                assert abs(full - jv(nu, x)) <= 1e-11


def test_nearly_odd_callable_takes_the_full_route():
    """sin t + 1e-5 (cos t - cos 0.31) is odd only at t = +-0.31; the full
    FFT keeps its even part, which the half route would drop."""
    phase = build_from_callable(lambda t: np.sin(t) + 1e-5 * (np.cos(t) - np.cos(0.31)))
    assert not phase.odd
    spec = compute_spectrum(phase, 50.0)
    for nu in (-30, -10, 0, 10, 45):
        assert abs(spec.coeff(nu) - coefficient_quadrature(phase, 50.0, nu)) < 1e-9


def test_window_sized_grid():
    """The auto grid is the smallest even 5-smooth N >= w + 4W: at x = 1000
    the 2253-coefficient window plus 4 * 4 sqrt(1000) = 506 asks for 2759
    points and gets 2880 = 2^6 3^2 5; at x = 5 the 139-coefficient window
    plus 4 * 64 gets 400 = 2^4 5^2."""
    spec = compute_spectrum(build_sine(), 1000.0)
    assert (spec.nu_min, spec.nu_max) == (-1126, 1126)
    assert spec.grid_size == 2880
    assert compute_spectrum(build_sine(), 5.0).grid_size == 400


def test_fft_size_is_the_smallest_even_5_smooth_length():
    """Held against every even 2^a 3^b 5^c listed by its exponents: each n
    up to 2^14, and up to 1e5 both ends and a fraction inside each gap
    between neighbours.  The size must be even: the even-phase mirror
    z[m:] = z[m - 2 : 0 : -1] copies N/2 - 1 samples into the N - m
    places past m = N // 2 + 1, which an odd N does not have."""
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(1, 18) for b in range(11) for c in range(8)
    )
    smooth = [s for s in smooth if s <= 2**17]

    def smallest(n):
        return next(s for s in smooth if s >= n)

    for n in range(1, 2**14 + 1):
        assert spectrum._fft_size(n) == smallest(n)
    for below, above in zip(smooth, smooth[1:]):
        if above > 10**5:
            break
        for n in (below, below + 1, below + 0.25, above - 0.5, above):
            assert spectrum._fft_size(n) == smallest(n)
    with pytest.raises(ValueError, match="broadcast"):
        spectrum._grid_coefficients(build_piecewise_abs(), 4.0, 375)  # 3 * 5^3


@pytest.mark.parametrize("x", [2.0, 128.0, 2048.0])
@pytest.mark.parametrize(
    "phase",
    [build_sine(), build_blaschke([0.3, 0.7]), build_blaschke([0.9])],
    ids=lambda p: p.label,
)
def test_aliases_stay_clear_of_the_window(phase, x):
    """Every alias nu +- N of a kept coefficient lies 4W past the auto
    window, so the auto grid gives the coefficients of a full 2^20-point
    grid (at least 26 times the window here) over the same window, to
    rounding.  The samples of x h carry rounding of at most x max|h| eps,
    and exp and the FFT add a few eps times log2 N; eps (x max|h| + 64)
    covers both, per coefficient, and the window's length times it bounds
    the gap in sum |a_nu|.  With aliases beside the window, as under the
    power-of-two rule ([0.9] at x = 2 on 256 points), a coefficient was
    1.2e-8 off and the sum 1.3e-7."""
    norm = phase.normalized()
    auto = compute_spectrum(norm, x)
    full = compute_spectrum(norm, x, grid_pow=20, window="full")
    fine = full.coeffs[auto.nu_min - full.nu_min : auto.nu_max - full.nu_min + 1]
    h_max = np.max(np.abs(norm.h(np.linspace(-np.pi, np.pi, 4097))))
    tol = np.finfo(float).eps * (x * h_max + 64.0)
    assert np.max(np.abs(auto.coeffs - fine)) <= tol
    assert abs(auto.abs_sum() - np.sum(np.abs(fine))) <= auto.coeffs.size * tol


@pytest.mark.parametrize("grid_pow", [2.5, math.inf, -2], ids=["fraction", "inf", "negative"])
def test_pinned_grid_pow_must_be_an_integer(grid_pow):
    """The check comes before any sampling: this phase refuses every evaluation."""

    def refuse(t):
        raise AssertionError("compute_spectrum sampled the phase")

    phase = dataclasses.replace(build_sine(), h=refuse, d1=refuse, d2=refuse)
    with pytest.raises(DomainError, match="grid_pow must be an integer"):
        compute_spectrum(phase, 10.0, grid_pow=grid_pow)


def test_auto_window_refuses_a_pinned_grid():
    """The auto grid is sized by its window, so a pinned one could only fall
    short or be wasted; it is refused before any sampling."""

    def refuse(t):
        raise AssertionError("compute_spectrum sampled the phase")

    phase = dataclasses.replace(build_sine(), h=refuse, d1=refuse, d2=refuse)
    with pytest.raises(DomainError, match="window='full' only"):
        compute_spectrum(phase, 10.0, grid_pow=12)


@pytest.mark.parametrize("grid_pow, window", [(10, "full")])
def test_pinned_grid_below_the_window_is_refused(grid_pow, window):
    """Sine at x = 1000 needs 8 (x + 1) samples in the full window; a pinned
    grid short of them is a resolution error."""
    with pytest.raises(GridResolutionError, match="raise grid_pow"):
        compute_spectrum(build_sine(), 1000.0, grid_pow=grid_pow, window=window)


@pytest.mark.parametrize("window", ["full"])
def test_integral_float_grid_pow_is_the_integer(window):
    pinned = compute_spectrum(build_sine(), 10.0, grid_pow=9.0, window=window)
    same = compute_spectrum(build_sine(), 10.0, grid_pow=9, window=window)
    assert type(pinned.grid_size) is int and pinned.grid_size == 2**9
    assert np.array_equal(pinned.coeffs, same.coeffs)


@pytest.mark.parametrize(
    "grid_pow, window",
    [(None, "auto"), (25, "full"), (20000, "full"), (10**9, "full")],
    ids=["auto", "pinned", "pinned-20000", "pinned-1e9"],
)
def test_sample_budget_checked_before_allocation(grid_pow, window):
    """A pinned grid_pow is compared with the budget before 2**grid_pow is
    built: 2**20000 has 6,021 digits, past Python's limit for printing an
    int, and 2**(10**9) would take 125 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            compute_spectrum(build_sine(), 1e12, grid_pow=grid_pow, window=window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_parseval_defect_small():
    spec = compute_spectrum(build_sine(), 20.0)
    assert spec.parseval_defect < 1e-12


@pytest.mark.parametrize(
    "budget, match",
    [(300_000, r"defect 2\.604e-06 .*window \[-259968, 4095\]")],
    ids=["auto"],
)
def test_parseval_failure_names_the_window(budget, match, monkeypatch):
    """Widening stops once the window outgrows the sample budget; the
    error then names the last window and window='full', not a finer
    grid.  The budget is lowered to 300,000 here: six doublings fit a
    281,250-point grid, the seventh needs 307,200.  Under the real
    budget it passes (test_auto_window_widens_until_parseval_passes)."""
    monkeypatch.setattr(spectrum, "_SAMPLE_BUDGET", budget)
    with pytest.raises(GridResolutionError, match=match + ".*window='full'") as err:
        compute_spectrum(build_blaschke([0.999]), 128.0)
    assert "grid_pow" not in str(err.value)


@pytest.mark.parametrize(
    "alpha, x, doublings, ffts",
    [
        (0.8, 128.0, 1, 2),
        (0.9, 4096.0, 1, 2),
        (0.9, 128.0, 2, 3),
        (0.95, 1024.0, 3, 4),
        (0.999, 128.0, 7, 5),
    ],
)
def test_auto_window_widens_until_parseval_passes(alpha, x, doublings, ffts, monkeypatch):
    """A Blaschke zero near the circle fails the gate at W = max(64, 4 sqrt x);
    W doubles until it passes, re-cutting one FFT while the grid holds the
    window with its 4W margin.  Doubling W adds 2W to the window and 4W to
    the margin, so most widenings need a new grid: 0.999 re-cuts its first
    259,200-point grid three times, then samples 262,144, 270,000, 281,250
    and 307,200 points."""
    grid_coefficients = spectrum._grid_coefficients
    calls = []

    def counted(*args):
        calls.append(args[2])
        return grid_coefficients(*args)

    monkeypatch.setattr(spectrum, "_grid_coefficients", counted)
    phase = build_blaschke([alpha])
    spec = compute_spectrum(phase, x)
    m1, m2 = phase.slope_range()
    w_pad = max(64.0, 4.0 * math.sqrt(x)) * 2**doublings
    assert (spec.nu_min, spec.nu_max) == (
        math.ceil(x * m1 - w_pad),
        math.floor(x * m2 + w_pad),
    )
    assert spec.parseval_defect <= 1e-6
    assert len(calls) == ffts and calls[-1] == spec.grid_size


def test_tail_bound_finite_and_honest():
    """The certificate must dominate the actual out-of-window mass."""
    spec = compute_spectrum(build_sine(), 30.0)
    assert math.isfinite(spec.tail_bound)
    wide = compute_spectrum(build_sine(), 30.0, window="full")
    inside = set(range(spec.nu_min, spec.nu_max + 1))
    outside_mass = sum(
        abs(wide.coeff(nu))
        for nu in range(wide.nu_min, wide.nu_max + 1)
        if nu not in inside
    )
    assert outside_mass <= spec.tail_bound


def test_scaled_norm_matches_direct_sum():
    spec = compute_spectrum(build_sine(), 25.0)
    assert scaled_norm(spec) == pytest.approx(spec.abs_sum() / math.sqrt(25.0))


def test_scaled_norm_at_fractional_scale_is_bessel_sum():
    """S(x) for sine at x = 351, 351.5, 352 equals sum |J_nu(x)| / sqrt(x)
    over the same window, with scipy's jv as the oracle.  The error at
    the half-integer scale is larger than at both integer neighbours, so
    a fractional scale is not bracketed by them."""
    limit = 16.0 / math.gamma(0.25) ** 2
    errs = {}
    for x in (351.0, 351.5, 352.0):
        spec = compute_spectrum(build_sine().normalized(), x)
        oracle = np.sum(np.abs(jv(spec.nu_values(), x))) / math.sqrt(x)
        assert scaled_norm(spec) == pytest.approx(oracle, abs=1e-10)
        errs[x] = abs(oracle - limit)
    assert errs[351.5] > max(errs[351.0], errs[352.0])


def test_linear_phase_is_one_spike():
    """h = 3t has the one coefficient a_{3x} = 1, so nothing lies outside."""
    spec = compute_spectrum(build_linear(3), 10.0)
    assert spec.tail_bound == 0.0
    assert spec.coeff(30) == 1


def test_full_window_tail_is_uncertified():
    spec = compute_spectrum(build_piecewise_abs(), 64.0, window="full")
    assert spec.tail_bound == math.inf
    with pytest.raises(DomainError, match="tail"):
        scaled_norm(spec)


def test_sawtooth_closed_form():
    """|t| phase at scale n: a_nu = 2 i n / (pi (n^2 - nu^2)) for odd n + nu,
    0 for even n + nu, and 1/2 at nu = +-n.  Aliasing on the finite grid
    limits agreement to ~1e-7 at grid_pow 14."""
    n = 64
    spec = compute_spectrum(build_piecewise_abs(), float(n), grid_pow=14, window="full")
    nu = np.arange(-150, 151)
    got = np.array([spec.coeff(v) for v in nu])
    want = np.zeros_like(got)
    odd_mask = (n + nu) % 2 == 1
    want[odd_mask] = 2j * n / (math.pi * (n**2 - nu[odd_mask] ** 2))
    want[nu == n] = 0.5
    want[nu == -n] = 0.5
    assert np.max(np.abs(got - want)) < 1e-6


def test_x_must_be_positive():
    with pytest.raises(DomainError):
        compute_spectrum(build_sine(), 0.0)
    with pytest.raises(DomainError):
        compute_spectrum(build_sine(), -3.0)


@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "route",
    [compute_spectrum, lambda phase, x: coefficient_quadrature(phase, x, 0)],
    ids=["fft", "quadrature"],
)
def test_non_finite_x_rejected(route, x):
    with pytest.raises(DomainError, match="finite"):
        route(build_sine(), x)


def test_nan_phase_is_a_domain_error(monkeypatch):
    """h = nan near t = 1: with h' finite the Parseval defect is nan, with h'
    and h'' nan too the zeros of h'' are sought on a nan.  Either is named
    before any window widens.  h'' = nan on (4, 2 pi) alone is named before
    any sampling: the zeros of h'' set the slope range and the tail bound."""

    def h(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - 1.0) < 0.01, np.nan, np.sin(t))

    grid_coefficients = spectrum._grid_coefficients
    calls = []

    def counted(*args):
        calls.append(args[2])
        return grid_coefficients(*args)

    monkeypatch.setattr(spectrum, "_grid_coefficients", counted)
    with pytest.raises(DomainError, match="'sine' is not finite"):
        compute_spectrum(dataclasses.replace(build_sine(), h=h), 100.0)
    assert len(calls) == 1
    with pytest.raises(DomainError, match="'custom' is not finite"):
        compute_spectrum(build_from_callable(h), 100.0)
    assert len(calls) == 1
    sine = build_sine()
    phase = dataclasses.replace(sine, d2=lambda t: np.where(t > 4.0, np.nan, sine.d2(t)))
    with pytest.raises(DomainError, match="h'' of 'sine' is not finite"):
        compute_spectrum(phase, 64.0)
    assert len(calls) == 1


def _counted_levels(monkeypatch):
    """Record the panel count of every level coefficient_quadrature integrates."""
    levels = []
    integrate_panels = spectrum.integrate_panels

    def counted(f, bp, order):
        levels.append(bp.size - 1)
        return integrate_panels(f, bp, order)

    monkeypatch.setattr(spectrum, "integrate_panels", counted)
    return levels


def test_nan_phase_quadrature_is_a_domain_error(monkeypatch):
    """h = nan near t = 1 with h' finite: the first level's sum is nan, and
    the quadrature names the phase instead of spending its doubling budget."""
    sine = build_sine()
    phase = dataclasses.replace(
        sine, h=lambda t: np.where(np.abs(np.asarray(t) - 1.0) < 0.01, np.nan, sine.h(t))
    )
    levels = _counted_levels(monkeypatch)
    with pytest.raises(DomainError, match="'sine' at x = 100.0 is not finite"):
        coefficient_quadrature(phase, 100.0, 3)
    assert len(levels) == 1


def test_quadrature_nu_must_be_an_integer():
    """A fractional nu is no Fourier index; an integral float is the integer."""
    norm = build_sine().normalized()
    with pytest.raises(DomainError, match="nu must be an integer"):
        coefficient_quadrature(norm, 10.0, 2.5)
    assert coefficient_quadrature(norm, 10.0, 7.0) == coefficient_quadrature(norm, 10.0, 7)


def test_quadrature_budget_checked_before_allocation(monkeypatch):
    """x = 8e6 starts at 1,570,797 panels of 16 nodes (25.1e6 nodes), above
    the 2^24-sample budget of compute_spectrum: refused before a panel edge
    is allocated (the doubling levels would reach 1.6e9 panels, 13 GB of
    edges)."""

    def refuse(*args, **kwargs):
        raise AssertionError("coefficient_quadrature integrated above the budget")

    monkeypatch.setattr(spectrum, "integrate_panels", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            coefficient_quadrature(build_sine(), 8e6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_quadrature_levels_stop_at_the_budget(monkeypatch):
    """At x = 4e6 the first level, 785,399 panels (12.6e6 nodes), fits the
    budget and the next does not: refinement stops after that one level,
    with its value as the estimate."""
    levels = []

    def unsettled(f, bp, order):
        levels.append(bp.size - 1)
        if (bp.size - 1) * order > 2**24:
            raise AssertionError("a level above the budget was integrated")
        return complex(len(levels))  # no two levels agree

    monkeypatch.setattr(spectrum, "integrate_panels", unsettled)
    with pytest.raises(QuadratureBudgetError) as refused:
        coefficient_quadrature(build_sine(), 4e6, 0)
    assert levels == [785_399]
    assert refused.value.estimate == 1.0 / math.pi


@pytest.mark.parametrize("tol", [1e-11, 1e-12])
@pytest.mark.parametrize(
    "phase, x, nus",
    [
        (build_sine(), 9000.0, (-8550, 1, 8550)),
        (build_blaschke([0.3, 0.7]), 1024.0, (-7110, -4219, -1327)),
        (build_blaschke([0.9]), 64.0, (-1197, -610, -22)),
        (build_blaschke_general([0.4 + 0.3j]), 256.0, (-751, -427, -102)),
    ],
    ids=["sine", "blaschke[0.3,0.7]", "blaschke[0.9]", "blaschke-complex"],
)
def test_quadrature_panels_carry_16_rad_and_settle_at_the_second_level(
    monkeypatch, phase, x, nus, tol
):
    """The first level splits the span into panels of at most 16 rad of
    phase, bounding the phase speed by x max|h'| + |nu|.  At that density
    the second level already agrees with it, and the value lies within
    1e-13 of the FFT coefficient, for nu near both ends and the middle of
    the window."""
    spec = compute_spectrum(phase, x)
    slope = max(abs(v) for v in phase.slope_range())
    span = math.pi if phase.odd else 2.0 * math.pi
    levels = _counted_levels(monkeypatch)
    for nu in nus:
        levels.clear()
        direct = coefficient_quadrature(phase, x, nu, tol=tol)
        first = math.ceil((x * slope + abs(nu)) * span / 16.0)
        if not phase.odd:
            first += first % 2  # an even count, so t = 0 is a panel edge
        assert levels == [first, 2 * first], nu
        assert abs(direct - spec.coeff(nu)) < 1e-13, nu


@pytest.mark.parametrize("n, nu", [(7, 21), (10, 1), (33, 0), (64, 65), (101, -100)])
def test_abs_quadrature_puts_the_kink_on_a_panel_edge(monkeypatch, n, nu):
    """|t| has its kink at t = 0.  Each of these first levels rounds up from
    an odd panel count, which would put the kink inside a panel and cost a
    third level; with t = 0 on a panel edge the second level settles, on the
    closed form 2 i n / (pi (n^2 - nu^2)) for odd n + nu and 0 for even."""
    levels = _counted_levels(monkeypatch)
    got = coefficient_quadrature(build_piecewise_abs(), float(n), nu)
    first = math.ceil((n + abs(nu)) * 2.0 * math.pi / 16.0)
    assert first % 2 == 1
    assert levels == [first + 1, 2 * first + 2]
    want = 2j * n / (math.pi * (n * n - nu * nu)) if (n + nu) % 2 else 0.0
    assert abs(got - want) < 1e-15


@pytest.mark.parametrize(
    "phase, x, nu",
    [
        (build_sine().normalized(), 3e4, 0),
        (build_sine().normalized(), 3e4, 1234),
        (build_blaschke([0.3, 0.7]), 1024.0, 2000),
        (build_blaschke_general([0.4 + 0.3j]), 1024.0, 2000),
    ],
    ids=["sine-0", "sine-1234", "blaschke[0.3,0.7]", "blaschke-complex"],
)
def test_quadrature_at_negative_x_is_the_conjugate(monkeypatch, phase, x, nu):
    """For real h, a_nu(-x) = conj(a_{-nu}(x)).  The panels are sized by
    |x|, so both sides settle at their second level; a negative x must not
    shrink the first level to its floor of 4 panels."""
    levels = _counted_levels(monkeypatch)
    negative = coefficient_quadrature(phase, -x, nu)
    assert len(levels) == 2
    levels.clear()
    positive = coefficient_quadrature(phase, x, -nu)
    assert len(levels) == 2
    assert abs(negative - positive.conjugate()) <= 1e-15


def test_quadrature_leaves_the_nodes_of_an_identity_phase_alone():
    """h(t) = t returns the nodes themselves; the integrand must not write
    into them.  The coefficients of e^{i x t} are 1 at nu = x and 0 elsewhere."""
    ident = build_from_callable(lambda t: t, label="identity")
    assert coefficient_quadrature(ident, 5.0, 5) == pytest.approx(1.0, abs=1e-12)
    assert coefficient_quadrature(ident, 5.0, 3) == pytest.approx(0.0, abs=1e-12)


def test_nonperiodic_x_rejected():
    with pytest.raises(PeriodicityError):
        compute_spectrum(build_blaschke([0.5]), 2.5)


def test_real_x_fine_for_winding_zero():
    spec = compute_spectrum(build_sine(), 2.5)
    assert isinstance(spec, CoefficientSpectrum)


def test_window_argument_checked():
    with pytest.raises(DomainError):
        compute_spectrum(build_sine(), 5.0, window="everything")


def test_coeff_outside_window_raises():
    spec = compute_spectrum(build_sine(), 5.0)
    with pytest.raises(DomainError):
        spec.coeff(10**6)


def test_coeff_nu_must_be_an_integer():
    """coeff reads an integral float as its integer and refuses any other nu
    with DomainError, as coefficient_quadrature does."""
    spec = compute_spectrum(build_sine(), 5.0)
    assert spec.coeff(3.0) == spec.coeff(3)
    assert spec.coeff(-2.0) == spec.coeff(-2)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="nu must be an integer"):
            spec.coeff(bad)


@given(x=st.floats(3.0, 60.0))
@settings(max_examples=20, deadline=None)
def test_window_growth_is_monotone(x):
    """Widening the grid must not change windowed coefficients much."""
    lo = compute_spectrum(build_sine(), x, grid_pow=12, window="full")
    hi = compute_spectrum(build_sine(), x, grid_pow=15, window="full")
    for nu in (-1, 0, 3):
        assert abs(lo.coeff(nu) - hi.coeff(nu)) < 1e-10


def test_partition_sums_total_matches_norm():
    norm = build_sine().normalized()
    spec = compute_spectrum(norm, 400.0)
    part = partition_terms(build_sine(), 400.0)
    sums = partition_sums(spec, part)
    assert sum(sums) == pytest.approx(spec.abs_sum(), abs=1e-12)
    assert sums.central > sums.periphery > 0.0
    assert sums.external > 0.0


def test_partition_sums_alignment_checks():
    norm = build_sine().normalized()
    spec = compute_spectrum(norm, 400.0)
    with pytest.raises(MisalignedError, match="partition"):
        partition_sums(spec, partition_terms(build_blaschke([0.5]), 400.0))
    with pytest.raises(MisalignedError, match="n ="):
        partition_sums(spec, partition_terms(build_sine(), 401.0))
    raw_spec = compute_spectrum(build_sine(), 400.0)
    with pytest.raises(MisalignedError):
        partition_sums(raw_spec, partition_terms(build_sine(), 400.0))
    short = dataclasses.replace(spec, nu_min=0, coeffs=spec.coeffs[-spec.nu_min :])
    with pytest.raises(MisalignedError, match="does not cover the partition interior"):
        partition_sums(short, partition_terms(build_sine(), 400.0))


def test_csv_round_trip(tmp_path):
    spec = compute_spectrum(build_sine(), 7.0)
    out = tmp_path / "spec.csv"
    out.write_text(spec.table().csv_text())
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# x=7.0 ")
    assert lines[1] == "nu,re,im,abs"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
    assert len(rows) == spec.nu_max - spec.nu_min + 1
    # repr round-trips exactly
    assert float(rows[0][1]) == spec.coeff(0).real
    assert float(rows[3][3]) == abs(spec.coeff(3))
