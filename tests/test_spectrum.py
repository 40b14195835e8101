"""Coefficient spectra: FFT route, quadrature route, certificates, partitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from wnl.errors import DomainError, MisalignedError, PeriodicityError
from wnl.phase import (
    build_blaschke,
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


def test_parseval_defect_small():
    spec = compute_spectrum(build_sine(), 20.0)
    assert spec.parseval_defect < 1e-12


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
