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
)
from wnl.phase import (
    build_blaschke,
    build_blaschke_general,
    build_from_callable,
    build_piecewise_abs,
    build_sine,
    partition_terms,
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


@pytest.mark.parametrize(
    "phase, xs",
    [
        (build_sine(), (10.5, 20.0, 1000.0, 8192.0)),
        (build_blaschke([0.3, 0.7]), (20.0, 256.0, 4096.0)),
    ],
    ids=["sine", "blaschke[0.3,0.7]"],
)
def test_half_route_matches_full_route(phase, xs):
    """Odd phases take the Hermitian FFT on half the samples; forcing the
    full complex FFT must give the same coefficients, and its imaginary
    parts stay at rounding level, so the reality check still sees an FFT."""
    for x in xs:
        half = compute_spectrum(phase, x)
        full = compute_spectrum(dataclasses.replace(phase, odd=False), x)
        assert (half.nu_min, half.nu_max, half.grid_pow) == (
            full.nu_min,
            full.nu_max,
            full.grid_pow,
        )
        assert half.coeffs.dtype == complex
        assert np.max(np.abs(half.coeffs - full.coeffs)) <= 1e-12
        assert np.max(np.abs(full.coeffs.imag)) <= 1e-9


def test_even_half_route_matches_full_route():
    """The even abs phase samples h on [0, pi] only and mirrors; forcing
    the full N-point sample must give the same window, grid and
    coefficients."""
    phase = build_piecewise_abs()
    seen = []

    def h(t):
        seen.append(np.max(t))
        return phase.h(t)

    for x in (1024.0, 4096.0):
        seen.clear()
        half = compute_spectrum(dataclasses.replace(phase, h=h), x, window="full")
        assert max(seen) <= np.pi  # the half route ran
        full = compute_spectrum(dataclasses.replace(phase, even=False), x, window="full")
        assert (half.nu_min, half.nu_max, half.grid_pow) == (
            full.nu_min,
            full.nu_max,
            full.grid_pow,
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
    1/N; on a power-of-two grid that is the plain expression, byte for byte."""
    spec = compute_spectrum(phase, x, window=window)
    n = 2**spec.grid_pow
    if phase.odd:
        t = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        fcoef = np.fft.hfft(np.exp(1j * x * phase.h(t)), n) / n
    elif phase.even:
        t = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        z = np.exp(1j * x * phase.h(t))
        fcoef = np.fft.fft(np.concatenate([z, z[-2:0:-1]])) / n
    else:
        t = 2.0 * np.pi * np.arange(n) / n
        fcoef = np.fft.fft(np.exp(1j * x * phase.h(t))) / n
    expected = fcoef[spec.nu_values() % n].astype(complex)
    assert spec.coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "phase, x, window, bound",
    [
        (build_piecewise_abs(), 4096.0, "full", 2.25),
        (build_sine().normalized(), 16384.0, "auto", 1.6),
    ],
    ids=["abs-full", "sine"],
)
def test_spectrum_peak_memory(phase, x, window, bound):
    """One spectrum on 2^16 points peaks near two complex N-arrays for the
    full window (samples and FFT in one buffer, plus the kept copy) and
    1.5 for an odd phase; bounds in units of 16 N bytes."""
    compute_spectrum(phase, x, window=window)  # warm-up: FFT plan caches
    tracemalloc.start()
    try:
        spec = compute_spectrum(phase, x, window=window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.grid_pow == 16
    assert peak <= bound * 16 * 2**16


@pytest.mark.parametrize(
    "phase, xs",
    [(build_sine(), (50.0, 1000.0)), (build_blaschke([0.3, 0.7]), (20.0, 256.0))],
    ids=["sine", "blaschke[0.3,0.7]"],
)
def test_quadrature_half_route_matches_full_route(phase, xs):
    """Odd phases integrate cos(x h - nu t) over [0, pi] only; forcing the
    complex integral over [-pi, pi] must agree within the quadrature's
    own tol, at indices on both band edges, inside and outside the band.
    For sine both routes are also held against scipy's J_nu(x)."""
    seen = []

    def h(t):
        seen.append(np.min(t))
        return phase.h(t)

    half_phase = dataclasses.replace(phase, h=h)
    for x in xs:
        m1, m2 = phase.slope_range()
        lo, hi = round(x * m1), round(x * m2)
        for nu in (lo - 30, lo, -7, (lo + hi) // 2, hi, hi + 30):
            seen.clear()
            half = coefficient_quadrature(half_phase, x, nu)
            assert min(seen) >= 0.0  # the half route ran
            full = coefficient_quadrature(dataclasses.replace(phase, odd=False), x, nu)
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
    """The auto grid is the smallest power of two holding the window."""
    spec = compute_spectrum(build_sine(), 1000.0)
    assert (spec.nu_min, spec.nu_max) == (-1126, 1126)
    assert spec.grid_pow == 12
    assert compute_spectrum(build_sine(), 5.0).grid_pow == 8


@pytest.mark.parametrize("grid_pow", [None, 25], ids=["auto", "pinned"])
def test_sample_budget_checked_before_allocation(grid_pow):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="budget"):
            compute_spectrum(build_sine(), 1e12, grid_pow=grid_pow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_parseval_defect_small():
    spec = compute_spectrum(build_sine(), 20.0)
    assert spec.parseval_defect < 1e-12


@pytest.mark.parametrize(
    "grid_pow, budget", [(None, 2**19), (19, spectrum._SAMPLE_BUDGET)], ids=["auto", "pinned"]
)
def test_parseval_failure_names_the_window(grid_pow, budget, monkeypatch):
    """Widening stops once the window outgrows the sample budget (lowered
    to 2^19 here, which this phase reaches after six doublings) or a
    pinned grid; the error then names the last window and
    window='full', not a finer grid.  Under the real budget it passes
    (test_auto_window_widens_until_parseval_passes)."""
    monkeypatch.setattr(spectrum, "_SAMPLE_BUDGET", budget)
    match = r"defect 2\.605e-06 .*window \[-259968, 4095\].*window='full'"
    with pytest.raises(GridResolutionError, match=match) as err:
        compute_spectrum(build_blaschke([0.999]), 128.0, grid_pow=grid_pow)
    assert "grid_pow" not in str(err.value)


@pytest.mark.parametrize(
    "alpha, x, doublings, ffts",
    [
        (0.8, 128.0, 1, 1),
        (0.9, 4096.0, 1, 1),
        (0.9, 128.0, 2, 1),
        (0.95, 1024.0, 3, 1),
        (0.999, 128.0, 7, 2),
    ],
)
def test_auto_window_widens_until_parseval_passes(alpha, x, doublings, ffts, monkeypatch):
    """A Blaschke zero near the circle fails the gate at W = max(64, 4 sqrt x);
    W doubles until it passes, re-cutting one FFT while the grid holds the
    window.  Only 0.999 outgrows its first grid, 2^19 -> 2^20 points."""
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
    assert len(calls) == ffts and calls[-1] == 2**spec.grid_pow


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


@given(x=st.floats(3.0, 60.0))
@settings(max_examples=20, deadline=None)
def test_window_growth_is_monotone(x):
    """Widening the grid must not change windowed coefficients much."""
    lo = compute_spectrum(build_sine(), x, grid_pow=12)
    hi = compute_spectrum(build_sine(), x, grid_pow=15)
    for nu in (-1, 0, 3):
        assert abs(lo.coeff(nu) - hi.coeff(nu)) < 1e-10


def test_partition_sums_total_matches_norm():
    norm = build_sine().normalized()
    spec = compute_spectrum(norm, 400.0)
    part = partition_terms(build_sine(), 400.0)
    sums = partition_sums(spec, part)
    assert sums.total == pytest.approx(spec.abs_sum(), abs=1e-12)
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


def test_csv_round_trip(tmp_path):
    spec = compute_spectrum(build_sine(), 7.0)
    out = tmp_path / "spec.csv"
    spec.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# x=7.0 ")
    assert lines[1] == "nu,re,im,abs"
    rows = {int(r.split(",")[0]): r.split(",") for r in lines[2:]}
    assert len(rows) == spec.nu_max - spec.nu_min + 1
    # repr round-trips exactly
    assert float(rows[0][1]) == spec.coeff(0).real
    assert float(rows[3][3]) == abs(spec.coeff(3))
