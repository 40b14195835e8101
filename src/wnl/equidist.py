"""Equidistribution diagnostics for fractional parts of n*varphi(k/n).

The cosine factors in the stationary expansion average out to 2/pi
exactly when the normalized exponents rho_nu / pi equidistribute mod 1.
This module holds the measurement side of that story: fractional-part
arrays and Weyl sums with their decay fits along an n ladder, and the
van der Corput-type bound that certifies the decay for curved varphi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _table
from .errors import DomainError

_EDGE_FUZZ = 1e-9  # absorbs float noise at closed interval endpoints


def fractional_array(
    varphi: Callable[[np.ndarray], np.ndarray],
    n: int,
    j0: tuple[float, float] = (0.0, 1.0),
) -> np.ndarray:
    """Fractional parts of n*varphi(k/n) for integers k with k/n in j0.

    The window j0 is closed on both ends; results lie in [0, 1).
    """
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    lo, hi = j0
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"j0 must be a subinterval of [0, 1], got {j0!r}")
    ks = np.arange(math.ceil(n * lo - _EDGE_FUZZ), math.floor(n * hi + _EDGE_FUZZ) + 1)
    vals = n * np.asarray(varphi(ks / n), dtype=float)
    return vals - np.floor(vals)


def weyl_sum(svals: np.ndarray, j: int) -> float:
    """|average of e^{2 pi i j s}| over the sample; 0 for an empty sample.

    An empty sample is answered with 0.0 plus a warning rather than an
    error, so parameter sweeps survive windows that miss every integer.
    """
    if j == 0 or j != int(j):
        raise DomainError(f"frequency j must be a nonzero integer, got {j!r}")
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0:
        warnings.warn("weyl_sum of an empty sample is 0 by convention", stacklevel=2)
        return 0.0
    return float(np.abs(np.mean(np.exp(2j * np.pi * int(j) * svals))))


def van_der_corput_bound(df_a: float, df_b: float, mu: float, big_a: float = 2.0) -> float:
    """(|f'(b) - f'(a)| + 2) * (4 / sqrt(mu) + A).

    Bound on |sum over [a, b] of e^{2 pi i f(k)}| for f with monotone f'
    and f'' >= mu > 0; df_a and df_b are the endpoint slopes.  A is the
    additive constant of the estimate; zero is a legal (if optimistic)
    choice, and the calibrated default is 2.
    """
    if not (mu > 0.0):
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not (big_a >= 0.0):
        raise DomainError(f"A must be non-negative, got {big_a!r}")
    return (abs(df_b - df_a) + 2.0) * (4.0 / math.sqrt(mu) + big_a)


@dataclass(frozen=True)
class WeylReport:
    """Weyl-sum magnitudes along an n ladder, with a decay fit.

    values holds (n, magnitude) pairs with strictly increasing n;
    magnitudes are averages of unit vectors, hence in [0, 1].
    """

    j: int
    interval: tuple[float, float]
    values: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.values]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise DomainError(f"values must be keyed by strictly increasing n, got {ns!r}")

    @property
    def fitted_decay(self) -> float:
        """Least-squares slope of log |W| against log n (zero rows dropped)."""
        pts = [(n, w) for n, w in self.values if w > 0.0]
        if len(pts) < 2:
            raise DomainError("need at least two positive magnitudes to fit decay")
        ln = np.log([n for n, _ in pts])
        lw = np.log([w for _, w in pts])
        slope = np.polyfit(ln, lw, 1)[0]
        return float(slope)

    def to_csv(self, path: str | Path) -> None:
        try:
            decay = repr(self.fitted_decay)
        except DomainError:
            decay = "nan"
        lo, hi = self.interval
        header = f"j={self.j} interval=[{lo!r},{hi!r}] fitted_decay={decay}"
        Path(path).write_text(_table.csv_text(header, ("n", "magnitude"), self.values))


def weyl_study(
    varphi: Callable[[np.ndarray], np.ndarray],
    j: int,
    interval: tuple[float, float],
    n_values: Sequence[int],
) -> WeylReport:
    """Weyl sums of the fractional arrays of varphi over an n ladder."""
    if len(n_values) == 0:
        raise DomainError("n_values must be non-empty")
    if any(b <= a for a, b in zip(n_values, list(n_values)[1:])):
        raise DomainError(f"n_values must be strictly increasing, got {list(n_values)!r}")
    vals = []
    for n in n_values:
        svals = fractional_array(varphi, int(n), interval)
        vals.append((int(n), weyl_sum(svals, j)))
    return WeylReport(
        j=int(j), interval=(float(interval[0]), float(interval[1])), values=tuple(vals)
    )
