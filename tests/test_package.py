"""The package as a whole: its public names and its frozen reference constants."""

import argparse
import dataclasses
import inspect
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import wnl
from wnl.cli import build_parser

PUBLIC = [
    "CoefficientSpectrum",
    "ComparisonRow",
    "ComparisonTable",
    "ConvergenceError",
    "ConvergenceReport",
    "DomainError",
    "FinalStepReport",
    "GirardValue",
    "GridResolutionError",
    "MisalignedError",
    "PartitionSums",
    "PeriodicityError",
    "PhaseFunction",
    "QuadratureBudgetError",
    "StudyRow",
    "TermPartition",
    "ValidationReport",
    "WeylReport",
    "WnlError",
    "asymptotic_limit",
    "asymptotic_limit_slope_route",
    "bessel_j",
    "bessel_j_sequence",
    "build_blaschke",
    "build_blaschke_general",
    "build_from_callable",
    "build_linear",
    "build_piecewise_abs",
    "build_sine",
    "check_periodicity",
    "choose_phi",
    "coefficient_quadrature",
    "compute_spectrum",
    "convergence_study",
    "corollary2_integral",
    "final_step_report",
    "fitted_calibration",
    "fractional_array",
    "full_circle_reference",
    "gamma_fn",
    "girard_value",
    "hyp2f1",
    "legendre",
    "lemma1_monotone_bound",
    "lemma1_var_bound",
    "lngamma_fn",
    "modulus_of_continuity",
    "partition_sums",
    "partition_terms",
    "psi",
    "require_valid",
    "scaled_norm",
    "stationary_comparison",
    "truncated_riemann",
    "validate",
    "van_der_corput_bound",
    "weyl_study",
    "weyl_sum",
]


def test_public_surface_is_pinned():
    """Every exported name resolves, and nothing is exported beyond the list."""
    assert sorted(wnl.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(wnl, name)] == []


# Each public function's parameters that have defaults; functions absent here have none.
OPTIONS = {
    "asymptotic_limit": ("tol",),
    "build_from_callable": ("label",),
    "coefficient_quadrature": ("tol",),
    "compute_spectrum": ("grid_pow", "window"),
    "final_step_report": ("eps",),
    "fractional_array": ("j0",),
    "stationary_comparison": ("calib_c",),
}


def test_public_options_are_pinned():
    """A new defaulted parameter on a public function is a deliberate change."""
    found = {}
    for name in wnl.__all__:
        obj = getattr(wnl, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaults = tuple(p.name for p in params if p.default is not p.empty)
            if defaults:
                found[name] = defaults
    assert found == OPTIONS


def test_phase_fields_are_pinned():
    """A phase declares only what the code cannot read off h: winding_k,
    sign, odd and even are properties that read h and h'', not fields."""
    fields = [f.name for f in dataclasses.fields(wnl.PhaseFunction)]
    assert fields == ["h", "d1", "d2", "label"]


# Each wnl command's flags, 16 registrations in all.
CLI_FLAGS = {
    "validate": ("--phase",),
    "converge": ("--phase", "--params", "--out", "--format"),
    "stationary-compare": ("--phase", "--params", "--out", "--format"),
    "bessel": ("--params", "--out", "--format"),
    "explore-blaschke": ("--phase", "--params", "--out", "--format"),
}


def test_cli_flags_are_pinned():
    """A new flag on a wnl command is a deliberate change, as a new option is."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: tuple(flag for a in sub._actions if a.dest != "help" for flag in a.option_strings)
        for name, sub in commands.choices.items()
    }
    assert found == CLI_FLAGS


NAN = float("nan")


def _nan_at_pi(t):
    """sin t, except nan at -pi and pi, where the winding is read."""
    return np.where(np.abs(t) == np.pi, NAN, np.sin(t))


@pytest.mark.parametrize(
    "call",
    [
        lambda: wnl.psi(wnl.build_sine(), NAN),
        lambda: wnl.legendre(wnl.build_sine(), NAN),
        lambda: wnl.lemma1_var_bound(wnl.build_blaschke([0.5]), NAN, 3.0),
        lambda: wnl.lemma1_monotone_bound(NAN, 1.0),
        lambda: wnl.van_der_corput_bound(NAN, 1.0, 1.0),
        lambda: wnl.build_blaschke([NAN]),
        lambda: wnl.build_blaschke_general([NAN]),
        lambda: wnl.corollary2_integral([NAN]),
        lambda: wnl.weyl_sum(np.array([0.1, NAN]), 1),
        lambda: wnl.coefficient_quadrature(wnl.build_sine().normalized(), 100.0, 3, tol=NAN),
        lambda: wnl.asymptotic_limit(wnl.build_sine(), tol=NAN),
        lambda: wnl.truncated_riemann(np.sqrt, 0.0, 1.0, NAN),
        lambda: wnl.fractional_array(np.sqrt, NAN),
        lambda: wnl.fractional_array(np.sqrt, math.inf),
        lambda: wnl.weyl_study(np.sqrt, 1, (0.0, 1.0), [10, NAN]),
        lambda: wnl.weyl_sum(np.array([0.1, 0.2]), NAN),
        lambda: wnl.coefficient_quadrature(wnl.build_sine().normalized(), 10.0, NAN),
        lambda: wnl.bessel_j(NAN, 1.0),
        lambda: wnl.bessel_j_sequence(NAN, 3.0),
        lambda: wnl.build_linear(NAN),
        lambda: wnl.build_linear(math.inf),
        lambda: wnl.hyp2f1(NAN, 0.75, 1.5, 0.3),
        lambda: wnl.hyp2f1(0.5, 0.75, NAN, 0.3),
        lambda: wnl.hyp2f1(math.inf, 0.75, 1.5, 0.3),
        lambda: wnl.compute_spectrum(wnl.build_from_callable(_nan_at_pi), 10.0),
        lambda: wnl.check_periodicity(wnl.build_from_callable(_nan_at_pi), 10.0),
        lambda: wnl.compute_spectrum(wnl.build_sine(), 10.0, grid_pow=NAN),
        lambda: wnl.compute_spectrum(wnl.build_sine(), 10.0, grid_pow=NAN, window="full"),
    ],
    ids=[
        "psi", "legendre", "lemma1_var_bound", "lemma1_monotone_bound", "van_der_corput",
        "build_blaschke", "build_blaschke_general", "corollary2_integral", "weyl_sum",
        "coefficient_quadrature", "asymptotic_limit", "truncated_riemann", "fractional_array",
        "fractional_array_inf", "weyl_study", "weyl_sum_j", "coefficient_quadrature_nu",
        "bessel_j", "bessel_j_sequence", "build_linear", "build_linear_inf",
        "hyp2f1_a", "hyp2f1_c", "hyp2f1_a_inf", "build_from_callable_winding",
        "phase_winding",
        "compute_spectrum_grid_pow", "compute_spectrum_grid_pow_full",
    ],
)
def test_nan_argument_is_a_domain_error(call):
    """A nan argument raises DomainError rather than coming back as nan."""
    with pytest.raises(wnl.DomainError):
        call()


QUADRATURES = {
    "coefficient_quadrature": lambda tol: wnl.coefficient_quadrature(
        wnl.build_sine().normalized(), 100.0, 3, tol=tol
    ),
    "asymptotic_limit": lambda tol: wnl.asymptotic_limit(wnl.build_sine(), tol=tol),
}


@pytest.mark.parametrize("tol", [NAN, 0.0, -1e-12])
@pytest.mark.parametrize("name", sorted(QUADRATURES))
def test_unreachable_tolerance_is_refused_up_front(monkeypatch, name, tol):
    """A tol no refinement can meet raises before any panel is summed."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} integrated with tol={tol!r}")

    monkeypatch.setattr(wnl.asymptotics, "integrate_panels", refuse)
    monkeypatch.setattr(wnl.spectrum, "integrate_panels", refuse)
    with pytest.raises(wnl.DomainError, match="tol must be positive"):
        QUADRATURES[name](tol)


def test_frozen_constants_match_their_regeneration(monkeypatch, capsys):
    """scripts/gen_reference_values.py recomputes every frozen constant with
    mpmath; its self-check exits 0 only when all of them still match."""
    pytest.importorskip("mpmath")
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_reference_values.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    assert runpy.run_path(str(script))["main"]() == 0
    assert "DRIFT" not in capsys.readouterr().out


def test_guarded_library_tables_are_written(monkeypatch, tmp_path):
    """The library step of scripts/guarded_outputs.py writes its ten tables,
    so a renamed table writer fails here, not only in a byte-identity diff."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "guarded_outputs.py"
    write_library_tables = runpy.run_path(str(script))["write_library_tables"]
    monkeypatch.chdir(tmp_path)
    write_library_tables()
    files = [
        "spectrum_sine_300.csv",
        "spectrum_blaschke_256.csv",
        "spectrum_blaschke_complex_256.csv",
        "weyl_quadratic.csv",
        "weyl_rational.csv",
        "weyl_no_fit.csv",
        "study_sine.json",
        "quadrature.csv",
        "limits.csv",
        "partition_sums.csv",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert all((tmp_path / f).stat().st_size > 0 for f in files)


EXPERIMENTS = {
    "equidist_experiment.py": ([], [f"weyl_parabola_j{j}.csv" for j in (1, 2, 3)]),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_scripts_run(name, monkeypatch, tmp_path, capsys):
    """Each scripts/*_experiment.py exits 0 and writes its tables."""
    args, files = EXPERIMENTS[name]
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    monkeypatch.setattr(sys, "argv", [str(script), "--out-dir", str(tmp_path), *args])
    assert runpy.run_path(str(script))["main"]() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert all((tmp_path / f).stat().st_size > 0 for f in files)
