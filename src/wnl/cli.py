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

Each ``cmd_*`` reads the parsed ``argparse.Namespace``; every setting is
declared once, with its default, in ``_FLAGS``.  Every command that writes
a table hands one :class:`wnl._table.Table` to ``_emit``.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._table import Table
from .asymptotics import (
    convergence_study,
    final_step_report,
    full_circle_reference,
)
from .errors import DomainError, WnlError
from .phase import (
    PhaseFunction,
    _curvature_zeros,
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
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"unparseable --params {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise DomainError(f"--params must be finite, got {text!r}")
    if any(p <= 0.0 for p in values):
        raise DomainError(f"params must be positive, got {list(values)!r}")
    return values


def _emit(args: argparse.Namespace, table: Table) -> None:
    """Write the table to --out, or to stdout when no path is given;
    --format picks csv or json either way, and only that form is built."""
    text = table.json_text() if args.fmt == "json" else table.csv_text()
    if args.out is None:
        sys.stdout.write(text)
        return
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(f"wrote {args.out}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    phase = parse_phase(args.phase_spec)
    report = validate(phase)
    print(report)
    for msg in report.messages:
        print(f"  note: {msg}")
    return 0 if report.passed else 1


def _converge_log_growth(args: argparse.Namespace, phase: PhaseFunction) -> int:
    """Norm growth is logarithmic here, not convergent; report norm/log n.

    The sawtooth coefficients decay like 1/nu^2, too slowly for a
    certified window, so the full grid is summed; the part of the norm
    beyond the grid Nyquist is missing, making each value a slowly
    converging lower bound.  On the auto grid every value lies a constant
    0.01645 below the exact norm 1 + (4/pi)(H_2n - H_n / 2): 0.34% low at
    n = 64 and 0.16% low at n = 262144.
    """
    limit_per_log = 2.0 / math.pi
    if any(p < 3.0 for p in args.params):
        raise DomainError("log-growth mode needs params >= 3 so that log n > 1")
    rows = []
    for p in args.params:
        norm = compute_spectrum(phase, p, window="full").abs_sum()  # one spectrum alive at a time
        ratio = norm / math.log(p)
        rows.append((p, norm, ratio, abs(ratio - limit_per_log)))
    header = (
        f"phase_label={phase.label} limit_per_log={limit_per_log!r} "
        "mode=log-growth (norms are Nyquist-truncated lower bounds)"
    )
    fields = {"phase_label": phase.label, "mode": "log-growth", "limit_per_log": limit_per_log}
    _emit(args, Table(header, fields, ("param", "norm", "norm_over_log", "abs_err"), rows))
    print(f"norm/log n -> 2/pi = {limit_per_log!r}")
    print(f"final ratio {rows[-1][2]!r} (abs err {rows[-1][3]!r})")
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    phase = parse_phase(args.phase_spec)
    if phase.label == "abs":
        return _converge_log_growth(args, phase)
    report = convergence_study(phase, list(args.params))
    _emit(args, report.table())
    print(f"limit L = {report.limit!r}")
    print(f"final error |S - L| = {report.errors()[-1]!r} at param {report.rows[-1].param!r}")
    largest = args.params[-1]
    if abs(largest - round(largest)) < 1e-9:
        try:
            split = final_step_report(phase, int(round(largest)))
            print(
                f"final-step split at eps={split.eps!r}: edges "
                f"{split.edge_left!r} + {split.edge_right!r}, middle {split.middle!r}, "
                f"limit piece {split.limit_piece!r}"
            )
        except WnlError as exc:
            print(f"final-step split unavailable: {exc}")
    return 0


def cmd_stationary_compare(args: argparse.Namespace) -> int:
    phase = parse_phase(args.phase_spec)
    if len(args.params) != 1:
        raise DomainError(
            f"stationary-compare takes exactly one param, got {list(args.params)!r}"
        )
    n = args.params[0]
    table = stationary_comparison(phase, n)
    fitted = fitted_calibration(phase, table)
    written = table.table()
    _emit(args, replace(written, fields={**written.fields, "fitted_c": fitted}))
    if not table.nu.size:
        print(f"central window holds no integer index at param {n!r}; empty table")
        return 0
    print(
        f"{table.nu.size} central indices; max abs err {table.max_abs_err()!r}, "
        f"max rel err {table.max_rel_err()!r}"
    )
    print(
        f"remainder bound violations at C={table.calib_c!r}: "
        f"{table.bound_violations()}; fitted minimal C = {fitted!r}"
    )
    return 0


def cmd_bessel(args: argparse.Namespace) -> int:
    limit = 16.0 / gamma_fn(0.25) ** 2

    def bessel_path_norm(x: float) -> float:
        nmax = math.ceil(x + max(64.0, 4.0 * math.sqrt(x)))
        seq = np.abs(bessel_j_sequence(nmax, x))
        return float((seq[0] + 2.0 * np.sum(seq[1:])) / math.sqrt(x))

    rows = []
    for x in args.params:
        s = bessel_path_norm(x)
        rows.append((x, s, abs(s - limit)))
    header = f"limit={limit!r} source=specfun"
    _emit(args, Table(header, {"limit": limit}, ("x", "scaled_sum", "abs_err"), rows))
    print(f"limit 16/Gamma(1/4)^2 = {limit!r}")
    print(f"final scaled sum {rows[-1][1]!r} (err {rows[-1][2]!r})")
    spectrum_path = scaled_norm(compute_spectrum(build_sine(), 100.0))
    bessel_path = bessel_path_norm(100.0)
    print(
        f"cross-check at x=100: spectrum path {spectrum_path!r} vs bessel path "
        f"{bessel_path!r} (|diff| = {abs(spectrum_path - bessel_path)!r})"
    )
    return 0


def cmd_explore_blaschke(args: argparse.Namespace) -> int:
    if not args.phase_spec.strip().lower().startswith("blaschke"):
        raise DomainError("explore-blaschke needs a blaschke:... phase spec")
    phase = parse_phase(args.phase_spec, allow_complex=True)
    exploratory = not validate(phase).passed
    reference = full_circle_reference(phase)
    zeros = _curvature_zeros(phase)
    changes = 0 if zeros is None else zeros.size
    kind = "conjectured reference" if exploratory else "reference limit"
    caveat = ""
    if changes > 2:  # some slopes then have over two stationary points, whose terms partly cancel
        kind = "full-circle value"
        caveat = f" is not a limit: h'' changes sign {changes} times on the circle"
    rows = []
    for p in args.params:
        s = scaled_norm(compute_spectrum(phase, p))
        rows.append((p, s, abs(s - reference)))
    header = f"phase_label={phase.label} reference={reference!r}"
    if exploratory:
        header += " exploratory: no theorem applies"
    if caveat:
        header += f"; the {kind}{caveat}"
    fields = {"phase_label": phase.label, "reference": reference, "exploratory": exploratory}
    _emit(args, Table(header, fields, ("param", "scaled_norm", "abs_gap_to_reference"), rows))
    print(f"{kind} (2/pi)^(3/2) integral of sqrt(|h''|) = {reference!r}{caveat}")
    if phase.label.startswith("blaschke[") and "," not in phase.label:
        alpha = float(phase.label[len("blaschke[") : -1])
        print(f"girard closed form at alpha={alpha!r}: {girard_value(alpha).value!r}")
    print(f"final scaled norm {rows[-1][1]!r} at param {rows[-1][0]!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# A subcommand registers only the flags its cmd_* reads, so argparse rejects
# the rest; each flag's default is the value its cmd_* reads when it is left out.
_FLAGS = {
    "--phase": dict(
        dest="phase_spec",
        metavar="PHASE",
        required=True,
        help="sine | abs | linear:k | blaschke:a1,a2,...",
    ),
    "--params": dict(required=True, help="comma-separated ladder of n or x values"),
    "--out": dict(type=Path, default=None, help="output file path"),
    "--format": dict(
        dest="fmt",
        choices=("csv", "json"),
        default="csv",
        help="output format, for --out or stdout",
    ),
}

_COMMANDS = {
    "validate": (cmd_validate, ("--phase",)),
    "converge": (cmd_converge, tuple(_FLAGS)),
    "stationary-compare": (cmd_stationary_compare, ("--phase", "--params", "--out", "--format")),
    "bessel": (cmd_bessel, ("--params", "--out", "--format")),
    "explore-blaschke": (cmd_explore_blaschke, ("--phase", "--params", "--out", "--format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnl",
        description="Scaled Wiener-norm experiments for unimodular exponentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "params" in args:
            args.params = _parse_params(args.params)
        return _COMMANDS[args.command][0](args)
    except WnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
