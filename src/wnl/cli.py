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

Output files are deterministic: floats are written with repr, whose
shortest-round-trip form is locale-independent and stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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

    phase_spec: str
    param_list: tuple[float, ...]
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
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"unparseable --params {text!r}") from None


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(cfg: RunConfig, csv_text: str, json_payload: dict) -> None:
    """Write the table to --out, or to stdout when no path is given;
    --format picks csv or json either way."""
    if cfg.fmt == "json":
        text = json.dumps(json_payload, indent=2, sort_keys=True) + "\n"
    else:
        text = csv_text
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
    lines = [
        f"# phase_label={phase.label} limit_per_log={limit_per_log!r} "
        "mode=log-growth (norms are Nyquist-truncated lower bounds)",
        "param,norm,norm_over_log,abs_err",
    ]
    for p, norm, ratio, err in rows:
        lines.append(f"{p!r},{norm!r},{ratio!r},{err!r}")
    payload = {
        "phase_label": phase.label,
        "mode": "log-growth",
        "limit_per_log": limit_per_log,
        "rows": [
            {"param": p, "norm": s, "norm_over_log": r, "abs_err": e}
            for p, s, r, e in rows
        ],
    }
    _emit(cfg, "\n".join(lines) + "\n", payload)
    print(f"norm/log n -> 2/pi = {limit_per_log!r}")
    print(f"final ratio {rows[-1][2]!r} (abs err {rows[-1][3]!r})")
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    phase = parse_phase(cfg.phase_spec)
    if phase.label == "abs":
        return _converge_log_growth(cfg, phase)
    if not cfg.param_list:
        raise DomainError("converge needs a non-empty --params ladder")
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
    if not table.rows:
        print(f"central window holds no integer index at param {n!r}; empty table")
        _emit(
            cfg,
            f"# x={n!r} label={table.label} empty=true\n"
            "nu,exact,approx,abs_err,remainder_bound\n",
            {"x": n, "label": table.label, "rows": []},
        )
        return 0
    fitted = fitted_calibration(phase, table)
    _emit(cfg, table.csv_text(), {**table.payload(), "fitted_c": fitted})
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
    if not cfg.param_list:
        raise DomainError("bessel needs a non-empty --params ladder of x values")
    limit = 16.0 / gamma_fn(0.25) ** 2

    def bessel_path_norm(x: float) -> float:
        nmax = math.ceil(x + max(64.0, 4.0 * math.sqrt(x)))
        seq = np.abs(bessel_j_sequence(nmax, x))
        return float((seq[0] + 2.0 * np.sum(seq[1:])) / math.sqrt(x))

    rows = [(x, bessel_path_norm(x)) for x in cfg.param_list]
    lines = [f"# limit={limit!r} source=specfun", "x,scaled_sum,abs_err"]
    for x, s in rows:
        lines.append(f"{x!r},{s!r},{abs(s - limit)!r}")
    payload = {
        "limit": limit,
        "rows": [
            {"x": x, "scaled_sum": s, "abs_err": abs(s - limit)} for x, s in rows
        ],
    }
    _emit(cfg, "\n".join(lines) + "\n", payload)
    print(f"limit 16/Gamma(1/4)^2 = {limit!r}")
    print(f"final scaled sum {rows[-1][1]!r} (err {abs(rows[-1][1] - limit)!r})")
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
    if not cfg.param_list:
        raise DomainError("explore-blaschke needs a non-empty --params ladder")
    exploratory = not phase.odd
    reference = full_circle_reference(phase, tol=cfg.quad_tol)
    rows = []
    for p in cfg.param_list:
        spec = compute_spectrum(phase, p, grid_pow=cfg.grid_pow)
        rows.append((p, scaled_norm(spec)))
    header = f"# phase_label={phase.label} reference={reference!r}"
    if exploratory:
        header += " exploratory: no theorem applies"
    lines = [header, "param,scaled_norm,abs_gap_to_reference"]
    for p, s in rows:
        lines.append(f"{p!r},{s!r},{abs(s - reference)!r}")
    payload = {
        "phase_label": phase.label,
        "reference": reference,
        "exploratory": exploratory,
        "rows": [
            {"param": p, "scaled_norm": s, "abs_gap_to_reference": abs(s - reference)}
            for p, s in rows
        ],
    }
    _emit(cfg, "\n".join(lines) + "\n", payload)
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

_COMMANDS = {
    "validate": cmd_validate,
    "converge": cmd_converge,
    "stationary-compare": cmd_stationary_compare,
    "bessel": cmd_bessel,
    "explore-blaschke": cmd_explore_blaschke,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnl",
        description="Scaled Wiener-norm experiments for unimodular exponentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument(
            "--phase",
            required=(name != "bessel"),
            default="sine",
            help="sine | abs | linear:k | blaschke:a1,a2,...",
        )
        p.add_argument(
            "--params",
            default="",
            help="comma-separated ladder of n or x values",
        )
        p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
        p.add_argument(
            "--grid-pow",
            type=int,
            default=None,
            help="fix the transform size at 2**grid_pow (default: auto)",
        )
        p.add_argument(
            "--epsilon",
            type=float,
            default=0.1,
            help="edge width for the final-step split printed by converge",
        )
        p.add_argument("--out", type=Path, default=None, help="output file path")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("csv", "json"),
            default="csv",
            help="output format, for --out or stdout",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            phase_spec=args.phase,
            param_list=_parse_params(args.params),
            quad_tol=args.tol,
            grid_pow=args.grid_pow,
            epsilon=args.epsilon,
            out=args.out,
            fmt=args.fmt,
        )
        return _COMMANDS[args.command](cfg)
    except WnlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
