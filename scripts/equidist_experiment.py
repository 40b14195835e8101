#!/usr/bin/env python3
"""Equidistribution decay ladders and the singular Riemann-sum demos.

Three parts: Weyl-sum decay for the parabola slope against a rational
slope that never decays, the truncated Riemann sum of 1/sqrt(x)
approaching 2 like 2.46/sqrt(n), and the first retained node of
1/sqrt(x - a) for a = sqrt(2) - 1, which stays near (2 sqrt 2)^(1/2)
along the convergent denominators of sqrt(2) instead of vanishing.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from wnl import fractional_array, truncated_riemann, weyl_study, weyl_sum


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    ladder = [1000, 10_000, 100_000]
    for j in (1, 2, 3):
        report = weyl_study(lambda u: 0.5 * u * u, j, (0.0, 1.0), ladder)
        path = args.out_dir / f"weyl_parabola_j{j}.csv"
        path.write_text(report.table().csv_text())
        cs = [m * math.sqrt(n) for n, m in report.values]
        print(f"parabola j={j}: fitted decay {report.fitted_decay:+.3f}, "
              f"C_j range [{min(cs):.4f}, {max(cs):.4f}], wrote {path}")

    stalled = [weyl_sum(fractional_array(lambda u: 0.5 * u, n), 2)
               for n in (100, 1000, 10_000)]
    print(f"rational slope x/2, j=2: magnitudes {stalled} (no decay)")

    print()
    for n in (10_000, 100_000, 1_000_000):
        val = truncated_riemann(lambda u: 1.0 / np.sqrt(u), 0.0, 1.0, n)
        print(f"truncated Riemann sum of 1/sqrt(x), n={n:>9,}: "
              f"{val:.6f} (gap {abs(val - 2.0):.2e}, "
              f"model {2.4604 / math.sqrt(n):.2e})")

    print()
    a = math.sqrt(2.0) - 1.0
    print("first retained node of 1/sqrt(x - a), a = sqrt(2) - 1:")
    for n in (12, 70, 408, 2378, 13860):
        k_star = math.floor(n * a) + 1
        term = 1.0 / math.sqrt(n * (k_star - n * a))
        print(f"  n={n:>6}: term {term:.6f}")
    print(f"  model value (2 sqrt 2)^(1/2) = {math.sqrt(2 * math.sqrt(2)):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
