#!/usr/bin/env python3
"""Write every guarded output of the package into one directory.

A change that must leave the written tables byte-identical is checked by
running this script against each checkout and comparing the directories:

    PYTHONPATH=<old>/src python3 scripts/guarded_outputs.py /tmp/old
    PYTHONPATH=<new>/src python3 scripts/guarded_outputs.py /tmp/new
    diff -r /tmp/old /tmp/new

Each CLI run writes its CSV and JSON files and the stdout of the run
(``<name>.<format>.stdout``). Each ``wnl validate`` run writes its stdout
and exit status (``validate_<name>.stdout``). The script works inside
OUTDIR with relative paths, so the ``wrote <path>`` lines match across
checkouts.
The library writers follow: coefficient spectra, Weyl-sum reports,
a convergence report in JSON, coefficients from the quadrature
route on its odd half-circle and its full-circle branch, the limit
L(h) on each of its quadrature routes and the Gauss-Jacobi twin, and
the partition sums of four partitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import warnings
from pathlib import Path

import wnl
from wnl._table import Table
from wnl.cli import main as wnl_main

# (output name, wnl arguments without --out and --format)
CLI_RUNS = [
    ("converge_sine", ["converge", "--phase", "sine", "--params", "100,400,1600,6400"]),
    # a fractional top scale: no final-step split is printed
    ("converge_sine_fractional", ["converge", "--phase", "sine", "--params", "350.5,351.5"]),
    (
        "converge_blaschke",
        ["converge", "--phase", "blaschke:0.3,0.7", "--params", "128,512,2048,4096"],
    ),
    # one top scale: the final-step split over 445,952 central indices
    (
        "converge_blaschke_65536",
        ["converge", "--phase", "blaschke:0.3,0.7", "--params", "65536"],
    ),
    # the single-zero ladder, whose limit has the closed form girard_value(0.5)
    (
        "converge_blaschke_05",
        ["converge", "--phase", "blaschke:0.5", "--params", "128,256,512,1024"],
    ),
    # a zero near the circle: every scale widens its auto window
    (
        "converge_blaschke_09",
        ["converge", "--phase", "blaschke:0.9", "--params", "128,256,512,1024,2048,4096"],
    ),
    ("converge_abs", ["converge", "--phase", "abs", "--params", "64,256,1024"]),
    # the 2^20- and 2^22-point full-window grids
    ("converge_abs_large", ["converge", "--phase", "abs", "--params", "65536,262144"]),
    ("stationary_sine", ["stationary-compare", "--phase", "sine", "--params", "1000"]),
    (
        "stationary_blaschke",
        ["stationary-compare", "--phase", "blaschke:0.3,0.7", "--params", "1000"],
    ),
    ("stationary_empty", ["stationary-compare", "--phase", "blaschke:0.9", "--params", "2"]),
    ("bessel", ["bessel", "--params", "10.5,100,400"]),
    ("explore_real", ["explore-blaschke", "--phase", "blaschke:0.5", "--params", "100,200"]),
    (
        "explore_complex",
        ["explore-blaschke", "--phase", "blaschke:0.4+0.3j", "--params", "100,200"],
    ),
    (
        "explore_mixed",
        [
            "explore-blaschke",
            "--phase",
            "blaschke:0.4+0.3j,-0.6,0.2-0.5j",
            "--params",
            "100,200",
        ],
    ),
]

# (output name, phase spec); abs fails validation and prints the doubling limits
VALIDATE_RUNS = [("sine", "sine"), ("abs", "abs"), ("blaschke", "blaschke:0.3,0.7")]


def run_cli(name: str, argv: list[str]) -> None:
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = wnl_main(argv + ["--format", fmt, "--out", f"{name}.{fmt}"])
        if code != 0:
            raise SystemExit(f"wnl {' '.join(argv)} exited with {code}")
        Path(f"{name}.{fmt}.stdout").write_text(buf.getvalue())


def run_validate(name: str, spec: str) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wnl_main(["validate", "--phase", spec])
    Path(f"validate_{name}.stdout").write_text(f"{buf.getvalue()}exit status {code}\n")


def quadrature_table() -> Table:
    """coefficient_quadrature for sine (odd route) and a complex zero (full circle)."""
    rows = []
    for phase, x in [(wnl.build_sine(), 300.0), (wnl.build_blaschke_general([0.4 + 0.3j]), 256.0)]:
        for nu in (-200, 0, 7, 150):
            a = wnl.coefficient_quadrature(phase, x, nu)
            rows.append((phase.label, x, nu, a.real, a.imag))
    return Table("coefficient_quadrature", {}, ("phase", "x", "nu", "re", "im"), rows)


def limits_table() -> Table:
    """L(h) on each route: [0, pi] at the default tol and at 1e-11, the slope
    variable, the full circle, and the Gauss-Jacobi twin of Girard's closed
    form.  The slope route refuses a phase that is not odd, and the
    Gauss-Jacobi twin takes real zeros up to about 0.865 only; their cells
    then hold None."""
    phases = [  # (phase, its zeros for the Gauss-Jacobi twin)
        (wnl.build_sine(), None),
        (wnl.build_blaschke([0.5]), [0.5]),
        (wnl.build_blaschke([0.3, 0.7]), [0.3, 0.7]),
        (wnl.build_blaschke([0.9]), None),
        (wnl.build_blaschke_general([0.4 + 0.3j]), None),
        (wnl.build_blaschke_general([0.4 + 0.3j, -0.6, 0.2 - 0.5j]), None),
    ]
    rows = []
    for phase, zeros in phases:
        slope = wnl.asymptotic_limit_slope_route(phase) if phase.odd else None
        rows.append((
            phase.label,
            wnl.asymptotic_limit(phase),
            wnl.asymptotic_limit(phase, tol=1e-11),
            slope,
            wnl.full_circle_reference(phase),
            wnl.corollary2_integral(zeros) if zeros else None,
        ))
    columns = ("phase", "limit", "limit_1e-11", "slope_route", "full_circle", "jacobi")
    return Table("limit routes", {}, columns, rows)


def partition_table() -> Table:
    """partition_sums at four partitions: an empty central window with a split
    periphery, crossed external seams (every index external), a tiny integer
    scale and a fractional one."""
    cases = [
        (wnl.build_blaschke([0.9]), 2.0),
        (wnl.build_blaschke_general([-0.05]), 2.0),
        (wnl.build_blaschke([0.3, 0.7]), 3.0),
        (wnl.build_sine(), 350.5),
    ]
    rows = []
    for phase, n in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Phi clamps at n = 2
            part = wnl.partition_terms(phase, n)
        sums = wnl.partition_sums(wnl.compute_spectrum(phase.normalized(), n), part)
        rows.append((part.label, n, *part.cuts, *sums))
    columns = ("phase", "n", "first", "lo", "hi", "last", "external", "periphery", "central")
    return Table("partition_sums", {}, columns, rows)


def write_library_tables() -> None:
    reports = {
        "spectrum_sine_300.csv": wnl.compute_spectrum(wnl.build_sine(), 300.0),
        "spectrum_blaschke_256.csv": wnl.compute_spectrum(wnl.build_blaschke([0.3, 0.7]), 256.0),
        "spectrum_blaschke_complex_256.csv": wnl.compute_spectrum(
            wnl.build_blaschke_general([0.4 + 0.3j]), 256.0
        ),
        "weyl_quadratic.csv": wnl.weyl_study(lambda u: 0.5 * u * u, 1, (0.0, 1.0), [1000, 10_000]),
        "weyl_rational.csv": wnl.weyl_study(lambda u: 0.5 * u, 2, (0.0, 1.0), [100, 1000]),
        "weyl_no_fit.csv": wnl.weyl_study(lambda u: 0.5 * u * u, 1, (0.0, 1.0), [1000]),
        "study_sine.json": wnl.convergence_study(wnl.build_sine(), [100, 400]),
    }
    tables = {name: report.table() for name, report in reports.items()}
    tables["quadrature.csv"] = quadrature_table()
    tables["limits.csv"] = limits_table()
    tables["partition_sums.csv"] = partition_table()
    for name, table in tables.items():
        Path(name).write_text(table.json_text() if name.endswith(".json") else table.csv_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.outdir)
    for name, argv in CLI_RUNS:
        run_cli(name, argv)
    for name, spec in VALIDATE_RUNS:
        run_validate(name, spec)
    write_library_tables()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
