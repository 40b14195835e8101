"""The four benchmark workloads, their correctness checks and their twins.

A workload builds and validates its phases when constructed (that is
the set-up ``setup_s`` times) and then runs passes.  A pass returns one
output per operation: a ladder scale, a comparison or a CLI command.
The harness checks the first pass with ``check`` and every later pass
for bit-identical outputs.  After the timed passes ``twins`` compares
the first pass's outputs with independent routes to the same numbers
and returns (name, gap, tolerance) triples.

Tolerances come from the acceptance gate in tests/test_acceptance.py
wherever it states one for the same comparison (1e-9 per coefficient,
parts 1 and 3; 1e-8 for the limit constant, part 6), or from a bound
derived below; none was chosen to fit the measured gaps.

The seed draws only the indices at which coefficient quadrature samples
a spectrum (``central_check`` in its passes, ``blaschke_cli`` in its
twins).  The indices are stratified over the window, one per stratum,
so every seed does the same amount of work of the same kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import wnl

COEFF_TOL = 1e-9  # gate parts 1 and 3: FFT against quadrature and Bessel
LIMIT_TOL = 1e-8  # gate part 6: limit constant against an independent route


def attempt(fn):
    """fn()'s result, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # any raise fails the operation; keep going
        traceback.print_exc(file=sys.stderr)
        return exc


def need(value):
    """An earlier operation's output, or a failure if that operation failed."""
    if isinstance(value, Exception):
        raise RuntimeError(f"depends on a failed operation: {value!r}")
    return value


def stratified(u: np.ndarray, count: int) -> list[int]:
    """Map uniforms u in [0, 1) to one index per equal stratum of range(count)."""
    k = len(u)
    return [min(count - 1, int((i + ui) * count / k)) for i, ui in enumerate(u)]


def all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=complex))))


def sine_coeff_twin(j: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Coefficients of e^{-ix sin t} from J_0..J_nmax(x): a_nu = J_{-nu}(x)."""
    vals = j[np.abs(nus)]
    flip = (nus > 0) & (nus % 2 == 1)
    return np.where(flip, -vals, vals)


class CliWorkload:
    """One pass is one ``wnl`` command, run in-process with stdout captured.

    Its output is (exit code, stdout, bytes of the --out file).
    """

    argv: list[str]
    out: Path

    def run_pass(self, phases: dict, count=None) -> dict:
        return {"converge": attempt(lambda: self._run(count))}

    def _run(self, count) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = wnl.cli.main(self.argv)
        text = buf.getvalue()
        body = self.out.read_bytes() if self.out.exists() else b""
        if count is not None:
            count("cli.output_bytes", len(text.encode()) + len(body))
        return rc, text, body


class SineLadder:
    """convergence_study(build_sine(), [2^7 .. 2^16, 2^18])."""

    name = "sine_ladder"
    params = [float(2**k) for k in range(7, 17)] + [float(2**18)]

    def __init__(self, seed: int, workdir: Path | None) -> None:
        self.phase = wnl.build_sine()
        wnl.require_valid(self.phase)
        self.phases = {"sine": self.phase}

    def run_pass(self, phases: dict, count=None) -> dict:
        report = attempt(lambda: wnl.convergence_study(phases["sine"], self.params))
        outputs = {}
        for i, x in enumerate(self.params):
            if isinstance(report, Exception):
                outputs[f"scale {x:g}"] = report
            else:
                r = report.rows[i]
                outputs[f"scale {x:g}"] = (
                    report.limit, r.param, r.scaled_norm, r.external_sum,
                    r.periphery_sum, r.central_sum, r.parseval_defect, r.tail_bound,
                )
        return outputs

    def check(self, op: str, out) -> bool:
        return all_finite(out) and out[1] == float(op.split()[1])

    def twins(self, ref: dict) -> list[tuple[str, float, float]]:
        """L against 16/Gamma(1/4)^2; S(x) against the Bessel sum over the window.

        The window is the one the paper's S(x) sums over, |nu| <= x + W
        with W = max(64, 4 sqrt(x)).  Allowing the gate's 1e-9 per
        coefficient gives a tolerance of 1e-9 (2 hi + 1) / sqrt(x) on S.
        """
        from scipy.special import jv

        limit = 16.0 / math.gamma(0.25) ** 2
        first = need(ref[f"scale {self.params[0]:g}"])
        out = [("limit", abs(first[0] - limit), LIMIT_TOL)]
        for x in self.params:
            row = need(ref[f"scale {x:g}"])
            hi = math.floor(x + max(64.0, 4.0 * math.sqrt(x)))
            a = np.abs(jv(np.arange(hi + 1, dtype=float), x))
            twin = (a[0] + 2.0 * np.sum(a[1:])) / math.sqrt(x)
            out.append((f"S({x:g})", abs(row[2] - twin), COEFF_TOL * (2 * hi + 1) / math.sqrt(x)))
        return out


class BlaschkeCli(CliWorkload):
    """wnl converge --phase blaschke:0.3,0.7 --params 128,...,65536 --out <csv>."""

    name = "blaschke_cli"
    spec = "blaschke:0.3,0.7"
    params = [2**k for k in range(7, 17)]
    quad_scales = [128, 256, 512, 1024]
    quad_samples = 6

    def __init__(self, seed: int, workdir: Path | None) -> None:
        import wnl.cli

        self.phase = wnl.cli.parse_phase(self.spec)
        wnl.require_valid(self.phase)
        self.phases = {}
        self.quad_u = np.random.default_rng(seed).random((len(self.quad_scales), self.quad_samples))
        self.out = (workdir or Path(".")) / "blaschke.csv"
        self.argv = [
            "converge", "--phase", self.spec,
            "--params", ",".join(str(p) for p in self.params),
            "--out", str(self.out),
        ]

    def _table(self, body: bytes) -> tuple[float, list[list[float]]]:
        lines = body.decode().splitlines()
        limit = float(lines[0].rsplit("limit=", 1)[1])
        return limit, [[float(v) for v in line.split(",")] for line in lines[2:]]

    def check(self, op: str, out) -> bool:
        rc, _, body = out
        if rc != 0:
            return False
        limit, rows = self._table(body)
        return (
            [r[0] for r in rows] == [float(p) for p in self.params]
            and all_finite([limit] + [v for r in rows for v in r])
        )

    def twins(self, ref: dict) -> list[tuple[str, float, float]]:
        """L against the Gauss-Jacobi route; coefficients against quadrature.

        The spectra at x <= 1024 are recomputed here; each must reproduce
        the S(x) the command wrote, so they are the command's own spectra.
        """
        limit, rows = self._table(need(ref["converge"])[2])
        out = [("limit", abs(limit - wnl.corollary2_integral([0.3, 0.7])), LIMIT_TOL)]
        norm = wnl.require_valid(self.phase)
        s_written = {int(r[0]): r[1] for r in rows}
        for x, u in zip(self.quad_scales, self.quad_u):
            spec = wnl.compute_spectrum(norm, float(x))
            out.append((f"S({x}) recomputed", abs(wnl.scaled_norm(spec) - s_written[x]), 0.0))
            nus = spec.nu_values()
            for i in stratified(u, nus.size):
                nu = int(nus[i])
                quad = wnl.coefficient_quadrature(norm, float(x), nu)
                out.append((f"a_{nu}({x})", abs(quad - spec.coeff(nu)), COEFF_TOL))
        return out


class AbsFullgrid(CliWorkload):
    """wnl converge --phase abs --params 128,...,262144 --format json --out <json>."""

    name = "abs_fullgrid"
    spec = "abs"
    params = [2**k for k in range(7, 19)]

    def __init__(self, seed: int, workdir: Path | None) -> None:
        import wnl.cli

        self.phase = wnl.cli.parse_phase(self.spec)
        wnl.validate(self.phase)  # degenerate curvature: fails, hence log-growth mode
        self.phases = {}
        self.out = (workdir or Path(".")) / "abs.json"
        self.argv = [
            "converge", "--phase", self.spec,
            "--params", ",".join(str(p) for p in self.params),
            "--format", "json", "--out", str(self.out),
        ]

    def check(self, op: str, out) -> bool:
        rc, _, body = out
        if rc != 0:
            return False
        rows = json.loads(body)["rows"]
        return (
            [r["param"] for r in rows] == [float(p) for p in self.params]
            and all_finite([v for r in rows for v in r.values()])
        )

    def twins(self, ref: dict) -> list[tuple[str, float, float]]:
        """Full-grid coefficients against the closed form 2in/(pi(n^2 - nu^2)).

        On an N-point grid the FFT returns the aliased sum over nu + kN.
        With |nu| <= N/2 every alias sits at |nu + kN| >= (|k| - 1/2) N,
        so the gap is at most (4n/pi) sum_k 1/(((k - 1/2) N)^2 - n^2)
        = 2 tan(pi n / N) / N, which is the tolerance.  The recomputed
        spectrum must reproduce the norm the command wrote.
        """
        rows = json.loads(need(ref["converge"])[2])["rows"]
        out = []
        for row in rows:
            n = int(row["param"])
            spec = wnl.compute_spectrum(self.phase, float(n), window="full")
            out.append((f"norm({n}) recomputed", abs(spec.abs_sum() - row["norm"]), 0.0))
            nu = spec.nu_values()
            want = np.zeros(nu.size, dtype=complex)
            odd = (n + nu) % 2 == 1
            want[odd] = 2j * n / (math.pi * (n * n - nu[odd].astype(float) ** 2))
            want[np.abs(nu) == n] = 0.5
            grid = nu.size
            gap = float(np.max(np.abs(spec.coeffs - want)))
            out.append((f"coeffs({n})", gap, 2.0 * math.tan(math.pi * n / grid) / grid))
        return out


class CentralCheck:
    """Stationary phase, calibration, final step, Bessel, quadrature, Weyl sums."""

    name = "central_check"
    scales = [1000.0, 3000.0, 9000.0]
    quad_samples = 4
    weyl_n = [1000, 10_000, 100_000]

    def __init__(self, seed: int, workdir: Path | None) -> None:
        self.phase = wnl.build_sine()
        wnl.require_valid(self.phase)
        self.phases = {"sine": self.phase}
        self.quad_u = np.random.default_rng(seed).random((len(self.scales), self.quad_samples))

    @staticmethod
    def parabola(u: np.ndarray) -> np.ndarray:
        return 0.5 * u * u

    def run_pass(self, phases: dict, count=None) -> dict:
        phase = phases["sine"]
        norm = phase.normalized()
        o: dict = {}
        tables: dict = {}
        for x, u in zip(self.scales, self.quad_u):
            k = f"{x:g}"

            def compare(x=x, k=k):
                tables[k] = t = wnl.stationary_comparison(phase, x)
                return (
                    np.array([r.nu for r in t.rows]),
                    np.array([r.exact for r in t.rows]),
                    np.array([r.approx for r in t.rows]),
                    np.array([r.remainder_bound for r in t.rows]),
                )

            def calibrate(x=x, k=k):
                c = wnl.fitted_calibration(phase, tables[k])
                refit = wnl.stationary_comparison(phase, x, calib_c=c)
                bounds = np.array([r.remainder_bound for r in refit.rows])
                return c, refit.bound_violations(), bounds

            def final_step(x=x):
                f = wnl.final_step_report(phase, int(x), eps=0.2)
                return f.edge_left, f.middle, f.edge_right, f.limit_piece

            def bessel(x=x, k=k):
                nus = need(o[f"compare {k}"])[0]
                return wnl.bessel_j_sequence(int(np.max(np.abs(nus))), x)

            def quadrature(x=x, k=k, u=u):
                nus = need(o[f"compare {k}"])[0]
                picked = nus[stratified(u, nus.size)]
                return picked, np.array([wnl.coefficient_quadrature(norm, x, int(v)) for v in picked])

            o[f"compare {k}"] = attempt(compare)
            o[f"calibrate {k}"] = attempt(calibrate)
            o[f"final_step {k}"] = attempt(final_step)
            o[f"bessel {k}"] = attempt(bessel)
            o[f"quadrature {k}"] = attempt(quadrature)
        for j in (1, 2, 3):
            o[f"weyl {j}"] = attempt(lambda j=j: wnl.weyl_study(self.parabola, j, (0.0, 1.0), self.weyl_n).values)
        return o

    def check(self, op: str, out) -> bool:
        kind = op.split()[0]
        if kind == "compare":
            return out[0].size > 0 and all(all_finite(a) for a in out)
        if kind == "calibrate":  # gate part 7b: the fitted C covers every row
            c, violations, bounds = out
            return c >= 0.0 and violations == 0 and all_finite(bounds)
        if kind == "final_step":
            return all_finite(out) and min(out) > 0.0
        if kind == "quadrature":
            return all_finite(out[1])
        if kind == "weyl":  # gate part 9: |U_nj| sqrt(n) / n stable within 1.5x
            cs = [mag * math.sqrt(n) for n, mag in out]
            return all_finite(cs) and max(cs) <= 1.5 * min(cs)
        return all_finite(out)

    def twins(self, ref: dict) -> list[tuple[str, float, float]]:
        """FFT exact column against Bessel J and against quadrature."""
        out = []
        for x in self.scales:
            k = f"{x:g}"
            nus, exact = need(ref[f"compare {k}"])[:2]
            twin = sine_coeff_twin(need(ref[f"bessel {k}"]), nus)
            out.append((f"bessel {k}", float(np.max(np.abs(exact - twin))), COEFF_TOL))
            picked, quad = need(ref[f"quadrature {k}"])
            fft = exact[np.searchsorted(nus, picked)]
            out.append((f"quadrature {k}", float(np.max(np.abs(quad - fft))), COEFF_TOL))
        return out


WORKLOADS = {w.name: w for w in (SineLadder, BlaschkeCli, AbsFullgrid, CentralCheck)}
