"""Fractional parts, exponential sums, and the decay studies built on them."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wnl.equidist import (
    WeylReport,
    fractional_array,
    van_der_corput_bound,
    weyl_study,
    weyl_sum,
)
from wnl.errors import DomainError


def test_fractional_array_small_case():
    # n * varphi(k/n) = k^2 / 4 for k = 0..4: fractional parts 0, .25, 0, .25, 0
    got = fractional_array(lambda u: u * u, 4)
    assert np.allclose(got, [0.0, 0.25, 0.0, 0.25, 0.0])


def test_fractional_array_window():
    got = fractional_array(lambda u: u * u, 10, j0=(0.3, 0.7))
    assert got.size == 5  # k = 3..7, window closed on both ends
    assert np.allclose(got, [(k * k / 10.0) % 1.0 for k in range(3, 8)])


@given(n=st.integers(1, 300))
@settings(max_examples=40)
def test_fractional_array_range(n):
    vals = fractional_array(lambda u: np.sin(3.0 * u) * 7.3, n)
    assert vals.size == n + 1
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)


def test_fractional_array_guards():
    with pytest.raises(DomainError):
        fractional_array(lambda u: u, 0)
    with pytest.raises(DomainError, match="n must be an integer"):
        fractional_array(lambda u: u, 10.5)
    with pytest.raises(DomainError):
        fractional_array(lambda u: u, 10, j0=(0.7, 0.3))


def test_weyl_sum_of_uniform_grid_vanishes():
    svals = np.arange(1000) / 1000.0
    assert weyl_sum(svals, 1) < 1e-12
    assert weyl_sum(svals, 7) < 1e-12


def test_weyl_sum_of_constant_is_one():
    svals = np.full(500, 0.37)
    assert weyl_sum(svals, 3) == pytest.approx(1.0)


def test_weyl_sum_rational_slope_does_not_decay():
    # varphi(x) = x/2: n varphi(k/n) = k/2, so e^{2 pi i 2 s} == 1 always
    for n in (100, 1000, 10000):
        svals = fractional_array(lambda u: 0.5 * u, n)
        assert weyl_sum(svals, 2) == pytest.approx(1.0, abs=1e-12)


def test_weyl_sum_guards_and_empty():
    with pytest.raises(DomainError):
        weyl_sum(np.array([0.1]), 0)
    with pytest.warns(UserWarning, match="empty"):
        assert weyl_sum(np.array([]), 1) == 0.0


def test_weyl_sum_refuses_inf_without_numpy_warnings():
    """An infinite sample is refused with DomainError alone: the exp it
    spoils runs with numpy's invalid and overflow warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            weyl_sum(np.array([0.1, np.inf]), 1)


def test_van_der_corput_bound_values():
    assert van_der_corput_bound(3.0, 3.0, 16.0) == pytest.approx(6.0)
    assert van_der_corput_bound(0.0, 4.0, 4.0) == pytest.approx(24.0)


def test_van_der_corput_bound_guards():
    with pytest.raises(DomainError):
        van_der_corput_bound(1.0, 2.0, 0.0)


def test_van_der_corput_dominates_parabola_sum():
    """The bound must cover |sum e^{2 pi i k^2/(2n)}| on k = 0..n."""
    for n in (512, 2048):
        ks = np.arange(n + 1)
        total = abs(np.sum(np.exp(2j * np.pi * ks * ks / (2.0 * n))))
        # f(x) = x^2/(2n): f' runs 0 to 1, f'' = 1/n
        bound = van_der_corput_bound(0.0, 1.0, 1.0 / n)
        assert total <= bound


# ---------------------------------------------------------------------------
# Decay studies
# ---------------------------------------------------------------------------


def test_weyl_study_quadratic_decay():
    """|U_{n,j}|/n ~ n^(-1/2) for the parabola curve; the fitted slope
    of the magnitudes should sit near -1/2."""
    report = weyl_study(lambda u: 0.5 * u * u, 1, (0.0, 1.0), [1000, 10_000, 100_000])
    assert report.j == 1
    assert -0.65 < report.fitted_decay < -0.35
    mags = [m for _, m in report.values]
    assert mags[0] > mags[-1]


def test_weyl_study_rational_slope_stalls():
    report = weyl_study(lambda u: 0.5 * u, 2, (0.0, 1.0), [100, 1000, 10_000])
    assert report.fitted_decay == pytest.approx(0.0, abs=1e-6)
    for _, mag in report.values:
        assert mag == pytest.approx(1.0, abs=1e-12)


def test_weyl_study_guards():
    with pytest.raises(DomainError):
        weyl_study(lambda u: u, 1, (0.0, 1.0), [])
    with pytest.raises(DomainError):
        weyl_study(lambda u: u, 1, (0.0, 1.0), [100, 100])


@pytest.mark.parametrize("n_values", [[10.5, 20.5], [2.2, 2.7], [100, 250.5]])
def test_weyl_study_refuses_a_fractional_n(n_values):
    """A fractional n is no grid size; it is refused, not truncated."""
    with pytest.raises(DomainError, match="n must be an integer"):
        weyl_study(lambda u: 0.5 * u * u, 1, (0.0, 1.0), n_values)


def test_integral_float_n_is_the_integer():
    varphi = lambda u: 0.5 * u * u
    assert fractional_array(varphi, 100.0).tobytes() == fractional_array(varphi, 100).tobytes()
    assert weyl_study(varphi, 1, (0.0, 1.0), [10.0, 20.0]) == weyl_study(
        varphi, 1, (0.0, 1.0), [10, 20]
    )


def test_weyl_report_shape_and_csv(tmp_path):
    report = weyl_study(lambda u: 0.5 * u * u, 2, (0.25, 0.75), [500, 5000])
    assert report.interval == (0.25, 0.75)
    assert [n for n, _ in report.values] == [500, 5000]
    out = tmp_path / "weyl.csv"
    out.write_text(report.table().csv_text())
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# j=2 interval=[0.25,0.75] fitted_decay=")
    assert lines[1] == "n,magnitude"
    assert len(lines) == 4


def test_weyl_report_rejects_unsorted_values():
    with pytest.raises(DomainError):
        WeylReport(j=1, interval=(0.0, 1.0), values=((100, 0.5), (50, 0.7)))


def test_weyl_report_fitted_decay_needs_positive_magnitudes():
    report = WeylReport(j=1, interval=(0.0, 1.0), values=((100, 0.0), (200, 0.0)))
    with pytest.raises(DomainError):
        _ = report.fitted_decay
