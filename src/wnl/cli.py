"""Command-line surface: reproducible experiments with CSV/JSON output.

Five subcommands cover the package's experiment surface:

* ``validate``: structural checks on a phase, exit status mirrors them.
* ``converge``: scaled-norm ladder against the limit L(h); routes the
  curvature-degenerate sawtooth phase to a log-growth mode instead.
* ``stationary-compare``: central coefficients, exact vs approximation.
* ``bessel``: the sine-phase norm ladder computed purely from Bessel
  values, cross-checked once against the spectrum path.
* ``explore-blaschke``: norm trajectories for Blaschke phases,
  including complex zeros where no convergence theorem applies.

Every table goes through the one format of :mod:`wnl._table`.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._table import csv_text, json_text, payload
from .asymptotics import (
    convergence_study,
    final_step_report,
    full_circle_reference,
)
from .errors import DomainError, WnlError
from .phase import (
    PhaseFunction,
    build_blaschke,
    build_blaschke_general,
    build_linear,
    build_piecewise_abs,
    build_sine,
    validate,
)
from .specfun import bessel_j_sequence, gamma_fn, girard_value
from .spectrum import compute_spectrum, scaled_norm
from .stationary import fitted_calibration, stationary_comparison

_TOL_FLOOR = 1e-14
_TOL_CEIL = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """One experiment's worth of settings, parsed from the command line."""

    phase_spec: str = "sine"
    param_list: tuple[float, ...] = ()
    quad_tol: float = 1e-10
    grid_pow: int | None = None
    epsilon: float = 0.1
    out: Path | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        if not (_TOL_FLOOR <= self.quad_tol <= _TOL_CEIL):
            raise DomainError(
                f"--tol must lie in [{_TOL_FLOOR:g}, {_TOL_CEIL:g}], got {self.quad_tol!r}"
            )
        if any(p <= 0.0 for p in self.param_list):
            raise DomainError(f"params must be positive, got {list(self.param_list)!r}")
        if self.fmt not in ("csv", "json"):
            raise DomainError(f"--format must be csv or json, got {self.fmt!r}")


def parse_phase(spec_text: str, allow_complex: bool = False) -> PhaseFunction:
    """Builder dispatch: sine | abs | linear:k | blaschke:a1,a2,...

    Zeros with an imaginary part are accepted only when allow_complex
    is set (the exploration path), with a warning that the convergence
    hypotheses fail for them.
    """
    text = spec_text.strip()
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    if name == "sine":
        return build_sine()
    if name == "abs":
        return build_piecewise_abs()
    if name == "linear":
        try:
            k = int(argstr)
        except ValueError:
            raise DomainError(f"linear needs an integer slope, got {argstr!r}") from None
        return build_linear(k)
    if name == "blaschke":
        parts = [p.strip() for p in argstr.split(",") if p.strip()]
        if not parts:
            raise DomainError("blaschke needs at least one zero, e.g. blaschke:0.5")
        try:
            zeros = [complex(p) for p in parts]
        except ValueError:
            raise DomainError(f"unparseable blaschke zeros {argstr!r}") from None
        if any(z.imag != 0.0 for z in zeros):
            if not allow_complex:
                raise DomainError(
                    "complex zeros are exploration-only; use explore-blaschke"
                )
            warnings.warn(
                "complex Blaschke zeros break the oddness hypothesis; no "
                "convergence theorem applies to this run",
                stacklevel=2,
            )
            return build_blaschke_general(zeros)
        return build_blaschke([z.real for z in zeros])
    raise DomainError(
        f"unknown phase {spec_text!r}; expected sine | abs | linear:k | "
        "blaschke:a1,a2,..."
    )


def _parse_params(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise DomainError("--params needs a non-empty comma-separated ladder")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"unparseable --params {text!r}") from None


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(cfg: RunConfig, table_csv: str, table_payload: dict) -> None:
    """Write the table to --out, or to stdout when no path is given;
    --format picks csv or json either way."""
    text = json_text(table_payload) if cfg.fmt == "json" else table_csv
    if cfg.out is None:
        sys.stdout.write(text)
        return
    _write_text(cfg.out, text)
    print(f"wrote {cfg.out}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(cfg: RunConfig) -> int:
    phase = parse_phase(cfg.phase_spec)
    report = validate(phase)
    print(report)
    for msg in report.messages:
        print(f"  note: {msg}")
    return 0 if report.passed else 1


def _converge_log_growth(cfg: RunConfig, phase: PhaseFunction) -> int:
    """Norm growth is logarithmic here, not convergent; report norm/log n.

    The sawtooth coefficients decay like 1/nu^2, too slowly for a
    certified window, so the full grid is summed; the part of the norm
    beyond the grid Nyquist is missing, making each value a slowly
    converging lower bound (about one percent low on the default grid).
    """
    limit_per_log = 2.0 / math.pi
    if any(p < 3.0 for p in cfg.param_list):
        raise DomainError("log-growth mode needs params >= 3 so that log n > 1")
    rows = []
    for p in cfg.param_list:
        spec = compute_spectrum(phase, p, grid_pow=cfg.grid_pow, window="full")
        norm = spec.abs_sum()
        ratio = norm / math.log(p)
        rows.append((p, norm, ratio, abs(ratio - limit_per_log)))
    header = (
        f"phase_label={phase.label} limit_per_log={limit_per_log!r} "
        "mode=log-growth (norms are Nyquist-truncated lower bounds)"
    )
    fields = {"phase_label": phase.label, "mode": "log-growth", "limit_per_log": limit_per_log}
    columns = ("param", "norm", "norm_over_log", "abs_err")
    _emit(cfg, csv_text(header, columns, rows), payload(fields, columns, rows))
    print(f"norm/log n -> 2/pi = {limit_per_log!r}")
    print(f"final ratio {rows[-1][2]!r} (abs err {rows[-1][3]!r})")
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    phase = parse_phase(cfg.phase_spec)
    if phase.label == "abs":
        return _converge_log_growth(cfg, phase)
    report = convergence_study(
        phase, list(cfg.param_list), grid_pow=cfg.grid_pow, limit_tol=cfg.quad_tol
    )
    _emit(cfg, report.csv_text(), report.payload())
    print(f"limit L = {report.limit!r}")
    print(f"final error |S - L| = {report.errors()[-1]!r} at param {report.rows[-1].param!r}")
    largest = cfg.param_list[-1]
    if abs(largest - round(largest)) < 1e-9:
        try:
            split = final_step_report(phase, int(round(largest)), eps=cfg.epsilon)
            print(
                f"final-step split at eps={cfg.epsilon!r}: edges "
                f"{split.edge_left!r} + {split.edge_right!r}, middle {split.middle!r}, "
                f"limit piece {split.limit_piece!r}"
            )
        except WnlError as exc:
            print(f"final-step split unavailable: {exc}")
    return 0


def cmd_stationary_compare(cfg: RunConfig) -> int:
    phase = parse_phase(cfg.phase_spec)
    if len(cfg.param_list) != 1:
        raise DomainError(
            f"stationary-compare takes exactly one param, got {list(cfg.param_list)!r}"
        )
    n = cfg.param_list[0]
    table = stationary_comparison(phase, n, grid_pow=cfg.grid_pow)
    fitted = fitted_calibration(phase, table)
    _emit(cfg, table.csv_text(), {**table.payload(), "fitted_c": fitted})
    if not table.rows:
        print(f"central window holds no integer index at param {n!r}; empty table")
        return 0
    print(
        f"{len(table.rows)} central indices; max abs err {table.max_abs_err()!r}, "
        f"max rel err {table.max_rel_err()!r}"
    )
    print(
        f"remainder bound violations at C={table.calib_c!r}: "
        f"{table.bound_violations()}; fitted minimal C = {fitted!r}"
    )
    return 0


def cmd_bessel(cfg: RunConfig) -> int:
    limit = 16.0 / gamma_fn(0.25) ** 2

    def bessel_path_norm(x: float) -> float:
        nmax = math.ceil(x + max(64.0, 4.0 * math.sqrt(x)))
        seq = np.abs(bessel_j_sequence(nmax, x))
        return float((seq[0] + 2.0 * np.sum(seq[1:])) / math.sqrt(x))

    rows = []
    for x in cfg.param_list:
        s = bessel_path_norm(x)
        rows.append((x, s, abs(s - limit)))
    columns = ("x", "scaled_sum", "abs_err")
    header = f"limit={limit!r} source=specfun"
    _emit(cfg, csv_text(header, columns, rows), payload({"limit": limit}, columns, rows))
    print(f"limit 16/Gamma(1/4)^2 = {limit!r}")
    print(f"final scaled sum {rows[-1][1]!r} (err {rows[-1][2]!r})")
    spectrum_path = scaled_norm(compute_spectrum(build_sine(), 100.0))
    bessel_path = bessel_path_norm(100.0)
    print(
        f"cross-check at x=100: spectrum path {spectrum_path!r} vs bessel path "
        f"{bessel_path!r} (|diff| = {abs(spectrum_path - bessel_path)!r})"
    )
    return 0


def cmd_explore_blaschke(cfg: RunConfig) -> int:
    if not cfg.phase_spec.strip().lower().startswith("blaschke"):
        raise DomainError("explore-blaschke needs a blaschke:... phase spec")
    phase = parse_phase(cfg.phase_spec, allow_complex=True)
    exploratory = not phase.odd
    reference = full_circle_reference(phase, tol=cfg.quad_tol)
    rows = []
    for p in cfg.param_list:
        s = scaled_norm(compute_spectrum(phase, p, grid_pow=cfg.grid_pow))
        rows.append((p, s, abs(s - reference)))
    header = f"phase_label={phase.label} reference={reference!r}"
    if exploratory:
        header += " exploratory: no theorem applies"
    fields = {"phase_label": phase.label, "reference": reference, "exploratory": exploratory}
    columns = ("param", "scaled_norm", "abs_gap_to_reference")
    _emit(cfg, csv_text(header, columns, rows), payload(fields, columns, rows))
    kind = "conjectured reference" if exploratory else "reference limit"
    print(f"{kind} (2/pi)^(3/2) integral of sqrt(|h''|) = {reference!r}")
    if phase.label.startswith("blaschke[") and "," not in phase.label:
        alpha = float(phase.label[len("blaschke[") : -1])
        print(f"girard closed form at alpha={alpha!r}: {girard_value(alpha).value!r}")
    print(f"final scaled norm {rows[-1][1]!r} at param {rows[-1][0]!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# A subcommand registers only the flags its cmd_* reads, so argparse rejects
# the rest; a flag left out takes its default from RunConfig.
_FLAGS = {
    "--phase": dict(
        dest="phase_spec",
        metavar="PHASE",
        required=True,
        help="sine | abs | linear:k | blaschke:a1,a2,...",
    ),
    "--params": dict(required=True, help="comma-separated ladder of n or x values"),
    "--tol": dict(dest="quad_tol", metavar="TOL", type=float, help="quadrature tolerance"),
    "--grid-pow": dict(
        type=int, help="fix the transform size at 2**grid_pow (default: auto)"
    ),
    "--epsilon": dict(
        type=float, help="edge width for the final-step split printed by converge"
    ),
    "--out": dict(type=Path, help="output file path"),
    "--format": dict(
        dest="fmt", choices=("csv", "json"), help="output format, for --out or stdout"
    ),
}

_COMMANDS = {
    "validate": (cmd_validate, ("--phase",)),
    "converge": (cmd_converge, tuple(_FLAGS)),
    "stationary-compare": (
        cmd_stationary_compare,
        ("--phase", "--params", "--grid-pow", "--out", "--format"),
    ),
    "bessel": (cmd_bessel, ("--params", "--out", "--format")),
    "explore-blaschke": (
        cmd_explore_blaschke,
        ("--phase", "--params", "--tol", "--grid-pow", "--out", "--format"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnl",
        description="Scaled Wiener-norm experiments for unimodular exponentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    given = vars(build_parser().parse_args(argv))
    command = given.pop("command")
    try:
        if "params" in given:
            given["param_list"] = _parse_params(given.pop("params"))
        return _COMMANDS[command][0](RunConfig(**given))
    except WnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
