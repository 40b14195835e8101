#!/usr/bin/env python3
"""Central-window coefficients against their stationary approximations.

Builds the side-by-side table at a chosen scale, fits the smallest
remainder calibration that covers every row, and writes the table CSV.
The printed summary separates absolute accuracy (uniformly small) from
relative accuracy (spiky near the zero crossings of the cosine factor).
"""

import argparse
from pathlib import Path

import numpy as np

from wnl import build_sine, fitted_calibration, stationary_comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--scale", type=float, default=1000.0)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    phase = build_sine()
    table = stationary_comparison(phase, args.scale)
    path = args.out_dir / f"stationary_n{args.scale:g}.csv"
    table.to_csv(path)

    rels = table.rel_err
    print(f"scale {args.scale:g}: {table.nu.size} central indices")
    print(f"  max absolute error  = {table.max_abs_err():.3e}")
    print(f"  median relative err = {float(np.median(rels)):.4%}")
    print(f"  rows over 1% rel    = {int(np.sum(rels > 0.01))} "
          "(cosine zero crossings)")

    fitted = fitted_calibration(phase, table)
    refit = stationary_comparison(phase, args.scale, calib_c=fitted + 1e-9)
    print(f"  fitted minimal C    = {fitted!r} "
          f"({refit.bound_violations()} violations at that C)")
    print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
