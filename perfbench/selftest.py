"""Self-test: two traced runs with the same seed give identical counts.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed 7] [--seconds 1] [workload ...]

For each workload (all four by default) it runs ``run.py --trace 1``
twice and compares every count metric (calls per function, evaluated
phase points, grid points, window coefficients, Bessel orders, rows,
samples and computed bytes).  Each run must also pass its own
correctness checks.  Exits 1 on any difference or failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from pathlib import Path

HERE = Path(__file__).resolve().parent

COUNT_UNITS = ("count", "B-computed")


def traced_counts(workload: str, seed: int, seconds: float) -> tuple[bool, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    return result["correct"], counts


def main() -> int:
    parser = argparse.ArgumentParser(description="traced count determinism")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        ok1, first = traced_counts(name, args.seed, args.seconds)
        ok2, second = traced_counts(name, args.seed, args.seconds)
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        good = ok1 and ok2 and not differ
        ok &= good
        print(f"{name}: {len(first)} counts, {'identical' if not differ else 'differ: ' + ', '.join(differ)}"
              f"; correct {ok1} and {ok2} -> {'PASS' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
