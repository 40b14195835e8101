"""The package as a whole: its public names and its frozen reference constants."""

import argparse
import ast
import dataclasses
import functools
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


# Each underscore name one wnl module imports from another, keyed by the importer.
PRIVATE_IMPORTS = {
    "asymptotics": (
        "phase._curvature_zeros",
        "phase._end_slopes",
        "phase._invert_increasing_slope",
        "stationary._stationary_points",
    ),
    "cli": ("phase._curvature_zeros",),
    "spectrum": ("phase._curvature_zeros",),
    "stationary": ("_quad._BLOCK", "phase._circle_table", "phase._invert_increasing_slope"),
}


def test_private_imports_are_pinned():
    """A private name shared between modules is a deliberate change, so a
    private fork of a public path shows here before it spreads."""
    found = {}
    for path in sorted(Path(wnl.__file__).parent.glob("*.py")):
        names = sorted(
            f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        )
        if names:
            found[path.stem] = tuple(names)
    assert found == PRIVATE_IMPORTS


NAN = float("nan")
INF = math.inf
NONFINITE = (NAN, INF, -INF)
SINE = wnl.build_sine()
BLASCHKE = wnl.build_blaschke([0.5])  # winding -1, h' in [-3, -1/3]


def _nan_at_pi(t):
    """sin t, except nan at -pi and pi, where the winding is read."""
    return np.where(np.abs(t) == np.pi, NAN, np.sin(t))


def _each(argument, call, values, ids=()):
    """{case id: call(v)} for each bad value v of one argument.  The first
    values take the names in ids, the rest are named argument=v."""
    names = [*ids, *(f"{argument}={v!r}" for v in values[len(ids) :])]
    return {name: functools.partial(call, v) for name, v in zip(names, values)}


# Each public function's bad arguments: case id -> a call that must raise
# DomainError.  Every float argument is tried at nan, +-inf and values outside
# its domain; {} marks a function that takes no float argument.
BAD_ARGUMENTS = {
    "asymptotic_limit": _each(
        "tol", lambda v: wnl.asymptotic_limit(SINE, tol=v), (*NONFINITE, 0.0), ["asymptotic_limit"]
    ),
    "asymptotic_limit_slope_route": {},
    "bessel_j": {
        **_each("bessel_j.nu", lambda v: wnl.bessel_j(v, 1.0), (*NONFINITE, 1.5), ["bessel_j"]),
        **_each("bessel_j.x", lambda v: wnl.bessel_j(3, v), (*NONFINITE, -1.0)),
    },
    "bessel_j_sequence": {
        **_each(
            "bessel_j_sequence.nmax",
            lambda v: wnl.bessel_j_sequence(v, 3.0),
            (*NONFINITE, -1, 2.5),
            ["bessel_j_sequence"],
        ),
        **_each("bessel_j_sequence.x", lambda v: wnl.bessel_j_sequence(3, v), (*NONFINITE, -1.0)),
    },
    "build_blaschke": _each(
        "build_blaschke.alphas",
        lambda v: wnl.build_blaschke([v]),
        (*NONFINITE, 0.0, 1.0),
        ["build_blaschke"],
    ),
    "build_blaschke_general": _each(
        "build_blaschke_general.zeros",
        lambda v: wnl.build_blaschke_general([v]),
        (*NONFINITE, complex(0.3, NAN), 0.0, 1j),
        ["build_blaschke_general"],
    ),
    "build_from_callable": {},
    "build_linear": _each(
        "build_linear.k",
        wnl.build_linear,
        (NAN, INF, -INF, 1.5),
        ["build_linear", "build_linear_inf"],
    ),
    "build_piecewise_abs": {},
    "build_sine": {},
    "check_periodicity": {
        "phase_winding": lambda: wnl.check_periodicity(wnl.build_from_callable(_nan_at_pi), 10.0),
        **_each(
            "check_periodicity.x",
            lambda v: wnl.check_periodicity(BLASCHKE, v),
            (*NONFINITE, 0.5),
        ),
    },
    "choose_phi": _each("choose_phi.n", lambda v: wnl.choose_phi(SINE, v), (*NONFINITE, 1.5)),
    "coefficient_quadrature": {
        **_each(
            "coefficient_quadrature.x", lambda v: wnl.coefficient_quadrature(SINE, v, 3), NONFINITE
        ),
        **_each(
            "coefficient_quadrature.nu",
            lambda v: wnl.coefficient_quadrature(SINE, 10.0, v),
            (*NONFINITE, 1.5),
            ["coefficient_quadrature_nu"],
        ),
        **_each(
            "coefficient_quadrature.tol",
            lambda v: wnl.coefficient_quadrature(SINE, 100.0, 3, tol=v),
            (*NONFINITE, 0.0),
            ["coefficient_quadrature"],
        ),
    },
    "compute_spectrum": {
        "build_from_callable_winding": lambda: wnl.compute_spectrum(
            wnl.build_from_callable(_nan_at_pi), 10.0
        ),
        "compute_spectrum_grid_pow": lambda: wnl.compute_spectrum(SINE, 10.0, grid_pow=NAN),
        **_each("compute_spectrum.x", lambda v: wnl.compute_spectrum(SINE, v), (*NONFINITE, 0.0)),
        **_each(
            "compute_spectrum.grid_pow",
            lambda v: wnl.compute_spectrum(SINE, 10.0, grid_pow=v, window="full"),
            (*NONFINITE, -1, 2.5),
            ["compute_spectrum_grid_pow_full"],
        ),
    },
    "convergence_study": _each(
        "convergence_study.params",
        lambda v: wnl.convergence_study(SINE, [10.0, v]),
        (*NONFINITE, 1.0),
    ),
    "corollary2_integral": _each(
        "corollary2_integral.alphas",
        lambda v: wnl.corollary2_integral([v]),
        (*NONFINITE, 0.0, 1.0),
        ["corollary2_integral"],
    ),
    "final_step_report": {
        **_each("final_step_report.n", lambda v: wnl.final_step_report(SINE, v), (*NONFINITE, 1)),
        **_each(
            "final_step_report.eps",
            lambda v: wnl.final_step_report(SINE, 1000, eps=v),
            (*NONFINITE, 0.0, math.pi / 2.0),
        ),
        # e^{i n h} is not periodic there, so the coefficients the split sums do not exist
        "final_step_report.n=1000.5": lambda: wnl.final_step_report(BLASCHKE, 1000.5, eps=0.2),
    },
    "fitted_calibration": {},
    "fractional_array": {
        **_each(
            "fractional_array.n",
            lambda v: wnl.fractional_array(np.sqrt, v),
            (NAN, INF, -INF, 0, 2.5),
            ["fractional_array", "fractional_array_inf"],
        ),
        **_each(
            "fractional_array.j0",
            lambda v: wnl.fractional_array(np.sqrt, 10, j0=(0.0, v)),
            (*NONFINITE, 0.0, 2.0),
        ),
    },
    "full_circle_reference": {},
    "gamma_fn": _each("gamma_fn.x", wnl.gamma_fn, (*NONFINITE, 0.0, -1.0, 200.0)),
    "girard_value": _each("girard_value.alpha", wnl.girard_value, (*NONFINITE, 0.0, 1.0)),
    "hyp2f1": {
        **_each(
            "hyp2f1.a",
            lambda v: wnl.hyp2f1(v, 0.75, 1.5, 0.3),
            (NAN, INF, -INF),
            ["hyp2f1_a", "hyp2f1_a_inf"],
        ),
        **_each("hyp2f1.b", lambda v: wnl.hyp2f1(0.5, v, 1.5, 0.3), NONFINITE),
        **_each(
            "hyp2f1.c",
            lambda v: wnl.hyp2f1(0.5, 0.75, v, 0.3),
            (*NONFINITE, 0.0, -2.0),
            ["hyp2f1_c"],
        ),
        **_each("hyp2f1.z", lambda v: wnl.hyp2f1(0.5, 0.75, 1.5, v), (*NONFINITE, 1.0, -0.5)),
    },
    "legendre": _each(
        "legendre.x", lambda v: wnl.legendre(SINE, v), (*NONFINITE, 1.0, 2.0), ["legendre"]
    ),
    "lemma1_monotone_bound": {
        **_each(
            "lemma1_monotone_bound.phimin_a",
            lambda v: wnl.lemma1_monotone_bound(v, 1.0),
            (*NONFINITE, 0.0),
            ["lemma1_monotone_bound"],
        ),
        **_each(
            "lemma1_monotone_bound.phimin_b",
            lambda v: wnl.lemma1_monotone_bound(1.0, v),
            (*NONFINITE, 0.0),
        ),
    },
    "lemma1_var_bound": {
        **_each(
            "lemma1_var_bound.x",
            lambda v: wnl.lemma1_var_bound(BLASCHKE, v, 3.0),
            NONFINITE,
            ["lemma1_var_bound"],
        ),
        # nu = -10 puts a stationary point at x = 10
        **_each(
            "lemma1_var_bound.nu",
            lambda v: wnl.lemma1_var_bound(BLASCHKE, 10.0, v),
            (*NONFINITE, -10.0),
        ),
    },
    "lngamma_fn": _each("lngamma_fn.x", wnl.lngamma_fn, (*NONFINITE, 0.0, -1.0)),
    "modulus_of_continuity": _each(
        "modulus_of_continuity.delta",
        lambda v: wnl.modulus_of_continuity(SINE, v),
        (*NONFINITE, 0.0, 1e-6, 4.0),
    ),
    "partition_sums": {},
    "partition_terms": _each(
        "partition_terms.n", lambda v: wnl.partition_terms(SINE, v), (*NONFINITE, 1.5)
    ),
    "psi": _each("psi.x", lambda v: wnl.psi(SINE, v), (*NONFINITE, 1.0, 2.0), ["psi"]),
    "require_valid": {},
    "scaled_norm": {},
    "stationary_comparison": {
        **_each(
            "stationary_comparison.x",
            lambda v: wnl.stationary_comparison(SINE, v),
            (*NONFINITE, 1.5),
        ),
        **_each(
            "stationary_comparison.calib_c",
            lambda v: wnl.stationary_comparison(SINE, 100.0, calib_c=v),
            (*NONFINITE, -1.0),
        ),
    },
    "truncated_riemann": {
        **_each(
            "truncated_riemann.a",
            lambda v: wnl.truncated_riemann(np.sqrt, v, 1.0, 10),
            (*NONFINITE, 2.0),
        ),
        **_each(
            "truncated_riemann.b",
            lambda v: wnl.truncated_riemann(np.sqrt, 0.0, v, 10),
            (*NONFINITE, 0.0),
        ),
        **_each(
            "truncated_riemann.n",
            lambda v: wnl.truncated_riemann(np.sqrt, 0.0, 1.0, v),
            (*NONFINITE, 1, 2.5),
            ["truncated_riemann"],
        ),
    },
    "validate": {},
    "van_der_corput_bound": {
        **_each(
            "van_der_corput_bound.df_a",
            lambda v: wnl.van_der_corput_bound(v, 1.0, 1.0),
            NONFINITE,
            ["van_der_corput"],
        ),
        **_each(
            "van_der_corput_bound.df_b", lambda v: wnl.van_der_corput_bound(1.0, v, 1.0), NONFINITE
        ),
        **_each(
            "van_der_corput_bound.mu",
            lambda v: wnl.van_der_corput_bound(1.0, 2.0, v),
            (*NONFINITE, 0.0),
        ),
    },
    "weyl_study": {
        **_each(
            "weyl_study.j",
            lambda v: wnl.weyl_study(np.sqrt, v, (0.0, 1.0), [10, 20]),
            (*NONFINITE, 0, 1.5),
        ),
        **_each(
            "weyl_study.interval",
            lambda v: wnl.weyl_study(np.sqrt, 1, v, [10, 20]),
            ((NAN, 1.0), (0.0, INF), (-INF, 1.0), (1.0, 0.0)),
        ),
        **_each(
            "weyl_study.n_values",
            lambda v: wnl.weyl_study(np.sqrt, 1, (0.0, 1.0), [10, v]),
            (*NONFINITE, 0, 2.5),
            ["weyl_study"],
        ),
    },
    "weyl_sum": {
        **_each(
            "weyl_sum.svals", lambda v: wnl.weyl_sum(np.array([0.1, v]), 1), NONFINITE, ["weyl_sum"]
        ),
        **_each(
            "weyl_sum.j",
            lambda v: wnl.weyl_sum(np.array([0.1, 0.2]), v),
            (*NONFINITE, 0, 1.5),
            ["weyl_sum_j"],
        ),
    },
}
BAD_CALLS = {case: call for cases in BAD_ARGUMENTS.values() for case, call in cases.items()}


def test_every_public_function_declares_its_bad_arguments():
    """A new public function must say how it meets nan, inf and
    out-of-domain arguments, as it must declare its options."""
    functions = [name for name in wnl.__all__ if inspect.isfunction(getattr(wnl, name))]
    assert sorted(BAD_ARGUMENTS) == sorted(functions)


@pytest.mark.parametrize("call", list(BAD_CALLS.values()), ids=list(BAD_CALLS))
def test_nan_argument_is_a_domain_error(call):
    """A nan, infinite or out-of-domain argument raises DomainError rather
    than coming back as nan or as an answer to another question."""
    with pytest.raises(wnl.DomainError):
        call()



SPECTRUM_REFUSALS = {
    **{case: (wnl.DomainError, call) for case, call in BAD_ARGUMENTS["compute_spectrum"].items()},
    "over_budget_auto": (wnl.DomainError, lambda: wnl.compute_spectrum(SINE, 2.0**23)),
    "over_budget_full": (
        wnl.DomainError,
        lambda: wnl.compute_spectrum(SINE, 2.0**21, window="full"),
    ),
    "pinned_below_floor": (
        wnl.GridResolutionError,
        lambda: wnl.compute_spectrum(SINE, 1000.0, grid_pow=12, window="full"),
    ),
}


@pytest.mark.parametrize("error, call", list(SPECTRUM_REFUSALS.values()), ids=list(SPECTRUM_REFUSALS))
def test_spectrum_refusals_cost_no_sampling(monkeypatch, error, call):
    """compute_spectrum refuses a bad argument, an over-budget grid and a
    pinned grid below the 8x floor before it samples e^{i x h} at all."""
    grid_coefficients = wnl.spectrum._grid_coefficients
    calls = []

    def counted(*args):
        calls.append(args[2])
        return grid_coefficients(*args)

    monkeypatch.setattr(wnl.spectrum, "_grid_coefficients", counted)
    with pytest.raises(error):
        call()
    assert calls == []

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
    """The library step of scripts/guarded_outputs.py writes its twelve tables,
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
        "psi.csv",
        "partition_sums.csv",
        "phase_facts.csv",
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
