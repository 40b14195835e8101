"""Benchmark of the wnl package: one workload per run, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sine_ladder --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process.  With ``--trace 0`` the run reports the end-to-end
metrics: set-up time, pass time, peak memory and the largest gap to an
independent twin.  With ``--trace 1`` it alternates untraced passes
with passes under the outside tracer and reports per-layer self times
and counts.  Every run checks every operation and prints a
human-readable summary; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and the metric names with units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def same(a, b) -> bool:
    """Bit-for-bit equality of two operation outputs."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


class Tally:
    """Attempted and failed operations, checked against the first pass."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict | None = None
        self.ref_ok: dict[str, bool] = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def check_pass(self, outputs: dict) -> None:
        if self.reference is None:
            self.reference = outputs
            for op, out in outputs.items():
                try:
                    ok = not isinstance(out, Exception) and self.workload.check(op, out)
                except Exception as exc:  # a malformed output fails its check
                    print(f"check of {op} raised {exc!r}", file=sys.stderr)
                    ok = False
                self.ref_ok[op] = ok
                self.record(ok, op)
            return
        for op, out in outputs.items():
            ok = self.ref_ok.get(op, False) and same(out, self.reference.get(op))
            self.record(ok, f"{op} (differs from the first pass)")

    def check_twins(self) -> float:
        """Run the twin comparisons; return the largest gap (nan if none ran)."""
        try:
            gaps = self.workload.twins(self.reference)
        except Exception as exc:  # a twin that cannot run is one failed comparison
            print(f"twin comparisons raised {exc!r}", file=sys.stderr)
            self.record(False, "twins")
            return float("nan")
        gaps = [(name, float(gap), tol) for name, gap, tol in gaps]
        for name, gap, tol in gaps:
            self.record(gap <= tol, f"twin {name}: gap {gap!r} > {tol!r}")
        name, gap, tol = max(gaps, key=lambda g: g[1])
        print(f"largest twin gap: {name} {gap!r} (tolerance {tol!r})")
        return gap


def measure_setup(name: str, seed: int) -> float:
    """Median seconds until a fresh process has imported wnl and built the phases.

    One untimed probe runs first and may write byte code, which installed
    packages ship, so that no timed probe compiles the sources.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def timed_pass(workload, phases) -> tuple[float, dict]:
    t0 = time.perf_counter()
    outputs = workload.run_pass(phases)
    return time.perf_counter() - t0, outputs


def run_untraced(workload, tally: Tally, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload.name, seed)
    tally.check_pass(timed_pass(workload, workload.phases)[1])  # warm-up
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        dt, outputs = timed_pass(workload, workload.phases)
        times.append(dt)
        tally.check_pass(outputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    twin = tally.check_twins()
    print(f"passes: {len(times)} timed after one warm-up; quartiles {statistics.quantiles(times, n=4) if len(times) > 1 else times}")
    return {"setup_s": setup_s, "pass_s": statistics.median(times), "peak_rss_mb": rss_mb, "twin_max_abs_err": twin}


def run_traced(workload, tally: Tally, seed: int, seconds: float, per_layer: dict) -> dict:
    """Per-layer metrics; function spans are <module>.<function>.{calls,self_s}."""
    from tracer import TRACED_MODULES, Tracer, self_times

    tracer = Tracer()
    tally.check_pass(timed_pass(workload, workload.phases)[1])  # warm-up
    plain, traced, selfs, calls, counts = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        dt, outputs = timed_pass(workload, workload.phases)
        plain.append(dt)
        tally.check_pass(outputs)
        tracer.install()
        try:
            phases = {k: tracer.wrap_phase(v) for k, v in workload.phases.items()}
            outputs, spans = tracer.run_pass(lambda: workload.run_pass(phases, tracer.count))
        finally:
            tracer.uninstall()
        tally.check_pass(outputs)
        traced.append(spans[0].end - spans[0].start)
        s, c = self_times(spans)
        selfs.append(s)
        calls.append(c)
        counts.append(tracer.take_counts())
    for c, n in zip(calls[1:], counts[1:]):
        tally.record(c == calls[0] and n == counts[0], "traced passes differ in calls or counts")
    tally.check_twins()
    tracer.write(OUT / f"{workload.name}-seed{seed}.spans.csv")

    def mean_self(name: str) -> float:
        return sum(s.get(name, 0.0) for s in selfs) / len(selfs)

    m: dict[str, float] = {}
    for name in per_layer:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls[0].get(stem, 0)
        elif kind == "self_s" and "." in stem:
            m[name] = mean_self(stem)
        else:
            m[name] = counts[0].get(name, 0)
    spanned = set().union(*selfs)
    for layer in TRACED_MODULES:
        m[f"{layer}.self_s"] = sum(
            mean_self(n) for n in spanned if n.startswith(layer + ".") and n != "phase.eval"
        )
    m["bench.self_s"] = mean_self("bench.pass")
    grid = m["spectrum.grid_points"]
    m["spectrum.window_fraction"] = m["spectrum.window_coeffs"] / grid if grid else 0.0
    m["spectrum.sample_bytes"] = 16 * grid
    m["trace.pass_s"] = sum(traced) / len(traced)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers = sum(m[f"{layer}.self_s"] for layer in TRACED_MODULES) + m["phase.eval.self_s"] + m["bench.self_s"]
    print(f"passes: {len(plain)} untraced and {len(traced)} traced after one warm-up")
    print(f"self times sum to {layers!r} s against a traced pass of {m['trace.pass_s']!r} s")
    tally.record(abs(layers - m["trace.pass_s"]) <= 1e-9 * max(1.0, m["trace.pass_s"]), "self times do not sum to the pass")
    return {k: (int(v) if per_layer[k] in ("count", "B-computed") else float(v)) for k, v in m.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    # Relative to the checkout root, so the paths the CLI prints have the
    # same length in every checkout and cli.output_bytes repeats.
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT.relative_to(ROOT)))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        tally = Tally(workload)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        if trace:
            metrics = run_traced(workload, tally, seed, seconds, units)
        else:
            metrics = run_untraced(workload, tally, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for key, unit in units.items():
        print(f"  {key:45s} {metrics[key]!r} {unit}")
    print(f"  {'fail_ratio':45s} {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted!r}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        one = json.loads(last)
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for key, val in one["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "wnl" / "__init__.py").is_file():
        print(f"error: no wnl sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.pop("WNL_THREADS", None)  # the workloads are defined with one worker
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
