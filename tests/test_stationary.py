"""Stationary-phase approximations of central coefficients and their bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnl import stationary
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
    ComparisonTable,
    fitted_calibration,
    lemma1_monotone_bound,
    lemma1_var_bound,
    stationary_comparison,
)

J0_400 = -0.038825181530783955714


# ---------------------------------------------------------------------------
# Central approximations
# ---------------------------------------------------------------------------


def test_rho_matches_legendre_transform():
    """rho at index nu is -sign * x * (Legendre transform at sign*nu/x)."""
    for phase, x in [(build_sine(), 500.0), (build_blaschke([0.5]), 500.0)]:
        part = partition_terms(phase, x)
        for ap in stationary_comparison(phase, x).rows[:: len(part.central_range()) // 7]:
            expect = -phase.sign * x * legendre(phase, phase.sign * ap.nu / x)
            assert ap.rho == pytest.approx(expect, abs=1e-9)


def test_sine_rho_at_zero_index():
    ap = next(r for r in stationary_comparison(build_sine(), 1000.0).rows if r.nu == 0)
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


def test_fitted_calibration_tells_close_zeros_apart():
    """Zeros that agree to six significant digits are still different phases."""
    near, far = build_blaschke([0.123456789]), build_blaschke([0.1234571])
    assert (near.label, far.label) == ("blaschke[0.123456789]", "blaschke[0.1234571]")
    with pytest.raises(MisalignedError):
        fitted_calibration(far, stationary_comparison(near, 1000.0))


def test_comparison_rejects_a_window_short_of_the_central_range(monkeypatch):
    """A central index below the spectrum's window raises; the slice never wraps."""
    full = stationary.compute_spectrum

    def from_zero(*args, **kwargs):
        spec = full(*args, **kwargs)
        return dataclasses.replace(spec, nu_min=0, coeffs=spec.coeffs[-spec.nu_min :])

    monkeypatch.setattr(stationary, "compute_spectrum", from_zero)
    with pytest.raises(DomainError, match="outside the computed window"):
        stationary_comparison(build_sine(), 150.0)


def test_comparison_csv(tmp_path):
    table = stationary_comparison(build_sine(), 60.0)
    out = tmp_path / "table.csv"
    out.write_text(table.table().csv_text())
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# x=60.0 label=-(sine) calib_c=8.0 max_im=")
    assert lines[1] == "nu,exact,approx,abs_err,remainder_bound"
    assert len(lines) == len(table.rows) + 2
    first = lines[2].split(",")
    assert int(first[0]) == table.rows[0].nu
    assert float(first[1]) == table.rows[0].exact.real


# sine and [0.3,0.7] at x = 1000, and an empty central window
COLUMN_CASES = [(build_sine(), 1000.0), (build_blaschke([0.3, 0.7]), 1000.0), (build_blaschke([0.9]), 2.0)]


@pytest.mark.parametrize(("phase", "x"), COLUMN_CASES, ids=["sine", "pair", "empty"])
def test_columns_are_the_rows(phase, x):
    """Each column equals its ComparisonRow field, and the error columns
    equal the rows' abs_err and rel_err, value for value."""
    table = stationary_comparison(phase, x)
    rows = table.rows
    assert table.rows is rows  # built once
    assert len(rows) == table.nu.size
    assert (not rows) == (x == 2.0)
    for field in ("nu", "t_star", "rho", "approx", "exact", "remainder_bound"):
        assert getattr(table, field).tolist() == [getattr(r, field) for r in rows], field
    assert table.abs_err.tolist() == [r.abs_err for r in rows]
    assert table.rel_err.tolist() == [r.rel_err for r in rows]
    norm = require_valid(phase)
    assert table.g2.tolist() == norm.d2(table.t_star).tolist()


@pytest.mark.parametrize(("phase", "x"), COLUMN_CASES, ids=["sine", "pair", "empty"])
def test_column_statistics_match_row_loops(phase, x):
    """The column expressions give what a Python loop over the rows gives."""
    table = stationary_comparison(phase, x)
    rows = table.rows
    assert table.max_abs_err() == max((r.abs_err for r in rows), default=0.0)
    assert table.max_rel_err() == max((r.rel_err for r in rows), default=0.0)
    assert table.bound_violations() == sum(1 for r in rows if r.abs_err > r.remainder_bound)
    norm = require_valid(phase)
    frozen_piece = x * table.omega * table.delta**3
    c = 0.0
    for r in rows:
        g2 = float(norm.d2(np.asarray(r.t_star)))
        c = max(c, (r.abs_err - frozen_piece) * (x * g2 * table.delta))
    assert fitted_calibration(phase, table) == c


def test_error_columns_match_rows_for_complex_coefficients():
    """With complex exact values, where numpy's complex abs may round
    differently, abs_err and rel_err still equal the rows' Python abs;
    a zero coefficient has an infinite relative error, as in the rows."""
    rng = np.random.default_rng(5)
    n = 4000
    exact = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-8, 0, n)
    exact[7] = 0.0
    real = rng.standard_normal(n)
    table = ComparisonTable(
        x=1.0, label="synthetic", calib_c=8.0, delta=0.1, omega=0.0,
        nu=np.arange(n), t_star=real, rho=real, g2=real, approx=real * 1e-3,
        exact=exact, remainder_bound=np.abs(real) * 1e-3,
    )
    assert table.abs_err.tolist() == [r.abs_err for r in table.rows]
    assert table.rel_err.tolist() == [r.rel_err for r in table.rows]
    assert table.rel_err[7] == math.inf
    assert table.bound_violations() == sum(1 for r in table.rows if r.abs_err > r.remainder_bound)


@pytest.mark.parametrize("calib_c", [math.nan, -1.0, math.inf])
def test_calib_c_must_be_finite_and_non_negative(calib_c):
    """A nan C makes every bound nan and certifies every row; a negative C
    makes every row a violation.  Both are refused."""
    with pytest.raises(DomainError, match="calib_c"):
        stationary_comparison(build_sine(), 1000.0, calib_c=calib_c)


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


def test_stationary_columns_in_blocks_equal_one_call(monkeypatch):
    """g''(t*) and rho, computed in blocks that do not divide the central
    range, equal one call on the whole range bit for bit."""
    norm = require_valid(build_blaschke([0.3, 0.7]))
    part = partition_terms(norm, 4096.0)
    monkeypatch.setattr(stationary, "_BLOCK", 777)
    nus, t_star, g2, rho = stationary._stationary_points(norm, part)
    assert nus.size > 10 * 777 and nus.size % 777
    assert g2.tobytes() == norm.d2(t_star).tobytes()
    assert rho.tobytes() == (4096.0 * norm.h(t_star) - nus * t_star).tobytes()
