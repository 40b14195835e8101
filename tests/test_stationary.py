"""Stationary-phase approximations, the Fresnel model integral, first-derivative bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnl._quad import integrate_adaptive
from wnl.errors import DomainError, MisalignedError
from wnl.phase import (
    build_blaschke,
    build_sine,
    legendre,
    partition_terms,
    require_valid,
)
from wnl.spectrum import compute_spectrum
from wnl.stationary import (
    approximate_central,
    approximate_central_range,
    fitted_calibration,
    fresnel_full,
    fresnel_tail,
    lemma1_monotone_bound,
    lemma1_var_bound,
    stationary_comparison,
)

J0_400 = -0.038825181530783955714

# integral of e^{i u^2} over [0, inf) is sqrt(pi/8) (1 + i)
FRESNEL_FULL = 0.6266570686577501256
FRESNEL_TAILS = {
    0.5: 0.12977303944295541086 + 0.58517604438920264401j,
    2.0: 0.16519560622453375274 - 0.17811942068600598469j,
    10.0: 0.025531883844305777473 + 0.042986168728126783446j,
}
# integral of e^{i u^2} over [1, 2] and its modulus
SEGMENT_1_2 = -0.44306277546705570861 + 0.49450818762037500849j
SEGMENT_1_2_ABS = 0.66396006704331144789


# ---------------------------------------------------------------------------
# Central approximations
# ---------------------------------------------------------------------------


def test_rho_matches_legendre_transform():
    """rho at index nu is -sign * x * (Legendre transform at sign*nu/x)."""
    for phase, x in [(build_sine(), 500.0), (build_blaschke([0.5]), 500.0)]:
        part = partition_terms(phase, x)
        for ap in approximate_central_range(phase, x)[:: len(part.central_range()) // 7]:
            expect = -phase.sign * x * legendre(phase, phase.sign * ap.nu / x)
            assert ap.rho == pytest.approx(expect, abs=1e-9)


def test_sine_rho_at_zero_index():
    ap = approximate_central(
        build_sine(), 1000.0, 0, partition_terms(build_sine(), 1000.0)
    )
    assert ap.rho == pytest.approx(-1000.0, abs=1e-10)
    assert ap.t_star == pytest.approx(math.pi / 2.0, abs=1e-11)
    # the approximation then reproduces the classic leading term
    expect = math.sqrt(2.0 / (math.pi * 1000.0)) * math.cos(1000.0 - math.pi / 4.0)
    assert ap.approx == pytest.approx(expect, rel=1e-12)


def test_central_approximation_accuracy():
    """Relative error is small except where cos(rho + pi/4) crosses zero,
    so the tight claim is restricted to rows with a healthy magnitude."""
    table = stationary_comparison(build_sine(), 400.0)
    assert len(table.rows) > 300
    assert table.max_abs_err() < 3e-3
    assert table.bound_violations() == 0
    envelope = math.sqrt(2.0 / (math.pi * 400.0))
    healthy = [r for r in table.rows if abs(r.nu) <= 200 and abs(r.exact) > 0.3 * envelope]
    assert len(healthy) > 250
    assert max(r.rel_err for r in healthy) < 5e-3


def test_exact_column_is_bessel_oracle():
    table = stationary_comparison(build_sine(), 400.0)
    row0 = next(r for r in table.rows if r.nu == 0)
    assert row0.exact.real == pytest.approx(J0_400, abs=1e-12)


def test_approximate_central_guards():
    phase = build_sine()
    part = partition_terms(phase, 300.0)
    with pytest.raises(MisalignedError):
        approximate_central(phase, 301.0, 0, part)
    with pytest.raises(MisalignedError):
        approximate_central(build_blaschke([0.5]), 300.0, 0, part)
    with pytest.raises(DomainError, match="central"):
        approximate_central(phase, 300.0, 299, part)


def test_fitted_calibration_dominates():
    phase = build_sine()
    table = stationary_comparison(phase, 150.0)
    c = fitted_calibration(phase, table)
    assert c >= 0.0
    refit = stationary_comparison(phase, 150.0, calib_c=c + 1e-9)
    assert refit.bound_violations() == 0


def test_fitted_calibration_frozen_for_sine():
    """Frozen from the 60-step bisection inverse; t* now moves by rounding only."""
    phase = build_sine()
    table = stationary_comparison(phase, 1000.0)
    assert fitted_calibration(phase, table) == 0.0
    assert table.bound_violations() == 0


def test_calib_c_reaches_the_bounds():
    """At C = 0 only the frozen-curvature piece x omega delta^3 is left."""
    phase = build_sine()
    table = stationary_comparison(phase, 150.0, calib_c=0.0)
    default = stationary_comparison(phase, 150.0)
    assert (table.delta, table.omega) == (default.delta, default.omega)
    frozen_piece = 150.0 * table.omega * table.delta**3
    assert len(table.rows) > 0
    for r, d in zip(table.rows, default.rows):
        assert r.remainder_bound == frozen_piece
        assert r.remainder_bound < d.remainder_bound


@pytest.mark.parametrize("phase", [build_sine(), build_blaschke([0.3, 0.7])])
def test_fitted_calibration_matches_row_loop(phase):
    """One array call of g'' gives the fitted C of the per-row scalar loop.

    With omega set to 0 the frozen piece vanishes and every row bids for
    the maximum, so the comparison reads g''(t*) on all rows.
    """
    norm = require_valid(phase)
    table = dataclasses.replace(stationary_comparison(phase, 1000.0), omega=0.0)
    x, delta = table.x, table.delta
    frozen_piece = x * table.omega * delta**3
    c = 0.0
    for r in table.rows:
        g2 = float(norm.d2(np.asarray(r.t_star)))
        c = max(c, (r.abs_err - frozen_piece) * (x * g2 * delta))
    assert c > 0.0
    assert fitted_calibration(phase, table) == c


def test_fitted_calibration_rejects_other_phase():
    table = stationary_comparison(build_sine(), 150.0)
    with pytest.raises(MisalignedError):
        fitted_calibration(build_blaschke([0.5]), table)


def test_comparison_csv(tmp_path):
    table = stationary_comparison(build_sine(), 60.0)
    out = tmp_path / "table.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# x=60.0 label=-(sine) calib_c=8.0 max_im=")
    assert lines[1] == "nu,exact,approx,abs_err,remainder_bound"
    assert len(lines) == len(table.rows) + 2
    first = lines[2].split(",")
    assert int(first[0]) == table.rows[0].nu
    assert float(first[1]) == table.rows[0].exact.real


# ---------------------------------------------------------------------------
# Fresnel model integral
# ---------------------------------------------------------------------------


def test_fresnel_full_frozen():
    got = fresnel_full()
    assert got.real == pytest.approx(FRESNEL_FULL, abs=1e-13)
    assert got.imag == pytest.approx(FRESNEL_FULL, abs=1e-13)
    assert got.real == pytest.approx(math.sqrt(math.pi / 8.0), abs=1e-13)


@pytest.mark.parametrize("xcut", sorted(FRESNEL_TAILS))
def test_fresnel_tail_frozen(xcut):
    got = fresnel_tail(xcut)
    assert abs(got - FRESNEL_TAILS[xcut]) < 1e-13


@pytest.mark.parametrize("xcut", [0.5, 2.0, 10.0])
def test_fresnel_additivity(xcut):
    """Head by quadrature plus tail must equal the full integral."""
    head, _ = integrate_adaptive(
        lambda u: np.exp(1j * u * u), 0.0, xcut, panels0=8, tol=1e-13
    )
    assert abs(head + fresnel_tail(xcut) - fresnel_full()) < 1e-12


def test_fresnel_segment_via_tail_difference():
    seg = fresnel_tail(1.0) - fresnel_tail(2.0)
    assert abs(seg - SEGMENT_1_2) < 1e-13
    assert abs(seg) == pytest.approx(SEGMENT_1_2_ABS, abs=1e-13)


def test_fresnel_tail_decay():
    # |tail(x)| <= 1/x from the first-derivative test
    for x in (1.0, 4.0, 20.0, 100.0):
        assert abs(fresnel_tail(x)) <= 1.0 / x


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_fresnel_tail_domain(bad):
    with pytest.raises(DomainError):
        fresnel_tail(bad)


# ---------------------------------------------------------------------------
# First-derivative-test bounds
# ---------------------------------------------------------------------------


def test_lemma1_monotone_bound_value():
    assert lemma1_monotone_bound(0.5, -4.0) == pytest.approx(4.0)
    assert lemma1_monotone_bound(-4.0, 0.5) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        lemma1_monotone_bound(0.0, 1.0)


def test_lemma1_var_bound_closed_form():
    """For x h' - nu of one sign, the variation telescopes to endpoint values."""
    phase = build_blaschke([0.5])
    x, nu = 40.0, 20.0  # slope band of x h' is [-120, -40/3]; nu above it
    got = lemma1_var_bound(phase, x, nu)
    d1_0 = float(phase.d1(np.asarray(0.0)))
    d1_pi = float(phase.d1(np.asarray(math.pi)))
    expect = 2.0 * abs(1.0 / (x * d1_0 - nu) - 1.0 / (x * d1_pi - nu))
    assert got == pytest.approx(expect, rel=1e-6)


def test_lemma1_var_bound_rejects_stationary_phase():
    with pytest.raises(DomainError):
        lemma1_var_bound(build_sine(), 10.0, 0.0)


@given(nu=st.floats(25.0, 200.0))
@settings(max_examples=30)
def test_lemma1_dominates_actual_coefficient(nu):
    """(var bound) / 2 pi must dominate the actual |a_nu| outside the band."""
    from wnl.spectrum import coefficient_quadrature

    phase = build_blaschke([0.5])
    x = 40.0
    bound = lemma1_var_bound(phase, x, nu) / (2.0 * math.pi)
    actual = abs(coefficient_quadrature(phase, x, int(nu), tol=1e-12))
    assert actual <= bound + 1e-12
