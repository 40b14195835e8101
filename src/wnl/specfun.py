"""Special functions needed by the asymptotic formulas, built in-house.

The limit constants live on a thin slice of special-function theory:
Gamma at a handful of points, the Gauss hypergeometric series on
0 <= z < 1, and integer-order Bessel J.  Each is implemented directly
(Stirling with Bernoulli correction, the raw series plus an Euler
transform, Miller's backward recurrence) so the numeric claims made
elsewhere in the package do not silently rest on an external library's
choices.  Tests cross-check against scipy, which is the only place that
dependency direction appears.

Gauss-Jacobi nodes for the endpoint-singular limit integral are the one
piece of infrastructure borrowed from scipy here, since generating
orthogonal-polynomial rules is classical machinery, not substance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._quad import refine
from .errors import ConvergenceError, DomainError

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# B_{2k} / (2k * (2k - 1)) for the Stirling correction series
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

_SHIFT_THRESHOLD = 12.0  # Stirling is ~1e-16 accurate from here up


def _lngamma_stirling(z: float) -> float:
    """log Gamma(z) for z >= _SHIFT_THRESHOLD via the asymptotic series."""
    s = 0.0
    zpow = z
    z2 = z * z
    for c in _STIRLING_COEFFS:
        s += c / zpow
        zpow *= z2
    return (z - 0.5) * math.log(z) - z + _LN_SQRT_2PI + s


def lngamma_fn(x: float) -> float:
    """log Gamma(x) for x > 0, by recurrence shift into Stirling range."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"lngamma_fn needs x > 0, got {x!r}")
    shift = 0.0
    z = x
    while z < _SHIFT_THRESHOLD:
        shift += math.log(z)
        z += 1.0
    return _lngamma_stirling(z) - shift


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0; DomainError where Gamma(x) overflows a double,
    past x ~ 171.62 and below x ~ 5.6e-309."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"gamma_fn needs x > 0, got {x!r}")
    # Gamma(x) = Gamma(x + m) / (x (x+1) ... (x+m-1)); the product is
    # exact to a few ulp, so small x (where Gamma is huge) stays accurate.
    prod = 1.0
    z = x
    while z < _SHIFT_THRESHOLD:
        prod *= z
        z += 1.0
    try:
        value = math.exp(_lngamma_stirling(z)) / prod
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"Gamma({x!r}) overflows a double")
    return value


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on [0, 1)
# ---------------------------------------------------------------------------

_SERIES_CAP = 200_000


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    total = 1.0
    term = 1.0
    for k in range(_SERIES_CAP):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise ConvergenceError(
        f"hypergeometric series did not converge: a={a}, b={b}, c={c}, z={z}"
    )


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss 2F1(a, b; c; z) for real parameters and 0 <= z < 1.

    The raw series is used up to z = 1/2; beyond that the Euler
    transform (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) keeps the term count
    bounded (the raw series needs ~1/(1-z) terms and loses accuracy
    as z -> 1, the transformed one converges like the series of a
    completed object).
    """
    if not all(map(math.isfinite, (a, b, c))):
        raise DomainError(f"a, b and c must be finite, got ({a!r}, {b!r}, {c!r})")
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"c must not be a non-positive integer, got {c!r}")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"z must lie in [0, 1), got {z!r}")
    if z <= 0.5:
        return _gauss_series(a, b, c, z)
    return (1.0 - z) ** (c - a - b) * _gauss_series(c - a, c - b, c, z)


# ---------------------------------------------------------------------------
# Integer-order Bessel J
# ---------------------------------------------------------------------------


def _miller_pass(nmax: int, x: float, start: int) -> np.ndarray:
    """One backward-recurrence sweep from index ``start`` > ``nmax`` down to 0.

    Returns the unnormalized trial values scaled by the Bessel sum rule
    f_0 + 2 f_2 + 2 f_4 + ... = 1.  Rescales mid-flight to dodge
    overflow, so ``start`` can be generous.
    """
    out = np.zeros(nmax + 1)
    fkp1 = 0.0
    fk = 1e-30
    norm = 2.0 * fk if start % 2 == 0 else 0.0
    for k in range(start, 0, -1):
        fkm1 = (2.0 * k / x) * fk - fkp1
        fkp1 = fk
        fk = fkm1
        if k - 1 <= nmax:
            out[k - 1] = fk
        if (k - 1) % 2 == 0:
            norm += fk if k - 1 == 0 else 2.0 * fk
        if abs(fk) > 1e250:
            fk *= 1e-250
            fkp1 *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    return out / norm


_ORDER_CAP = 10_000
_ARGUMENT_CAP = 1e6  # recurrence work grows linearly in x past the band edge
_SERIES_CUT = 2.0  # ascending series wins below; recurrence above


def _ascending_series(n: int, x: float) -> float:
    """J_n(x) by the ascending power series, for small x.

    Terms fall like (x/2)^2 / (m (n+m)), so a handful suffice at
    x <= 2 and there is no cancellation worth worrying about there.
    """
    half = 0.5 * x
    # leading (x/2)^n / n! computed in log space to survive large n
    if half == 0.0:
        return 1.0 if n == 0 else 0.0
    lead = n * math.log(half) - lngamma_fn(n + 1.0)
    if lead < -745.0:  # below exp underflow; the series cannot lift it back
        return 0.0
    term = math.exp(lead)
    total = term
    m = 1
    while True:
        term *= -(half * half) / (m * (n + m))
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-280):
            return total
        m += 1


def bessel_j_sequence(nmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_nmax(x) for x >= 0.

    Small arguments (x <= 2) go through the ascending series entry by
    entry; larger ones use Miller's backward recurrence, started at
    nmax + margin.  :func:`wnl._quad.refine` doubles the margin from
    20 + ceil(x) up to 2^24 until two consecutive sweeps agree to 1e-14
    on every entry; if none do, QuadratureBudgetError carries the last
    sweep.  A fixed offset is not enough once x grows, because the
    entries near nu ~ x are suppressed only polynomially while the
    recurrence needs room for the solution to decay into dominance.
    """
    if not (0 <= nmax <= _ORDER_CAP and nmax == int(nmax)):
        raise DomainError(f"nmax must be an integer in [0, {_ORDER_CAP}], got {nmax!r}")
    nmax = int(nmax)
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"x must be finite and non-negative, got {x!r}")
    if x > _ARGUMENT_CAP:
        raise DomainError(
            f"x = {x!r} is beyond the supported recurrence range ({_ARGUMENT_CAP:g})"
        )
    if x <= _SERIES_CUT:
        # (x/2)^n / n! falls with n, so past the first 0 every entry is 0 too
        vals = np.zeros(nmax + 1)
        for n in range(nmax + 1):
            vals[n] = _ascending_series(n, x)
            if vals[n] == 0.0:
                break
        return vals
    first = 20 + math.ceil(x)
    margins = (first << k for k in range((2**24 // first).bit_length()))
    what = f"J_0..J_{nmax}({x!r})"
    failure = f"backward recurrence failed to stabilize for nmax={nmax}, x={x}"
    return refine(lambda m: _miller_pass(nmax, x, nmax + m), margins, 1e-14, what, failure)


def bessel_j(nu: int, x: float) -> float:
    """J_nu(x) for integer nu with |nu| <= 10000 and x >= 0.

    The last entry of :func:`bessel_j_sequence` up to |nu|, which checks
    the order and the argument.  Negative orders use J_{-nu} = (-1)^nu J_nu.
    """
    val = float(bessel_j_sequence(abs(nu), x)[-1])
    if nu < 0 and nu % 2 == 1:
        return -val
    return val


# ---------------------------------------------------------------------------
# Closed forms for the one-zero Blaschke limit constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GirardValue:
    """The limit constant for a single-zero Blaschke phase, both dressings.

    ``intro_form`` is 16*sqrt(2)/Gamma(1/4)^2 * sqrt(alpha)/(1+alpha)
    * 2F1(1/2, 3/4; 3/2; 4 alpha/(1+alpha)^2); ``abstract_form`` states
    the same value through beta_param = (1-alpha)/(1+alpha) as
    8*sqrt(2)/Gamma(1/4)^2 * sqrt(1-beta^2) * 2F1(..., 1-beta^2).
    They agree identically since 1 - beta^2 = 4 alpha/(1+alpha)^2.
    """

    alpha: float
    intro_form: float
    abstract_form: float
    beta_param: float

    @property
    def value(self) -> float:
        return self.intro_form


def girard_value(alpha: float) -> GirardValue:
    """Closed-form limit constant for the Blaschke phase with one zero alpha."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    g14 = gamma_fn(0.25)
    beta = (1.0 - alpha) / (1.0 + alpha)
    z_intro = 4.0 * alpha / (1.0 + alpha) ** 2
    intro = (
        16.0 * math.sqrt(2.0) / g14**2 * (math.sqrt(alpha) / (1.0 + alpha))
        * hyp2f1(0.5, 0.75, 1.5, z_intro)
    )
    z_abs = 1.0 - beta * beta
    abstract = (
        8.0 * math.sqrt(2.0) / g14**2 * math.sqrt(z_abs) * hyp2f1(0.5, 0.75, 1.5, z_abs)
    )
    return GirardValue(
        alpha=alpha, intro_form=intro, abstract_form=abstract, beta_param=beta
    )


_JACOBI_NODES = 96  # Gauss-Jacobi nodes of corollary2_integral's first rule


def corollary2_integral(alphas: Sequence[float]) -> float:
    """Limit constant for a multi-zero Blaschke phase, by direct integral.

    Substituting u = cos t in (2/pi)^(3/2) * integral of sqrt(h'') over
    [0, pi] gives the weight (1-u)^(-1/4) (1+u)^(-1/4) times the smooth
    factor sqrt(sum_j 2 a_j (1-a_j^2) / (1+a_j^2-2 a_j u)^2), which a
    Gauss-Jacobi rule with exponents (-1/4, -1/4) integrates without
    seeing the endpoint singularity.  :func:`wnl._quad.refine` takes the
    rules of _JACOBI_NODES and _JACOBI_NODES + 32 nodes as its two
    levels: their sums (before the prefactor) must agree to 1e-11
    absolute, or QuadratureBudgetError carries the larger rule's value.

    This route never touches the hypergeometric series, so it serves as
    an independent check of :func:`girard_value`.
    """
    from scipy.special import roots_jacobi  # node generation only

    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("need a non-empty 1-d sequence of zero moduli")
    if np.any(~((a > 0.0) & (a < 1.0))):  # nan fails too
        raise DomainError(f"zero moduli must lie in (0, 1), got {alphas!r}")

    def smooth(u: np.ndarray) -> np.ndarray:
        den = 1.0 + a[None, :] ** 2 - 2.0 * a[None, :] * u[:, None]
        return np.sqrt(np.sum(2.0 * a * (1.0 - a * a) / den**2, axis=1))

    def rule(n: int) -> float:
        nodes, weights = roots_jacobi(n, -0.25, -0.25)
        return float(np.sum(weights * smooth(nodes)))

    levels = (_JACOBI_NODES, _JACOBI_NODES + 32)
    what = f"the Gauss-Jacobi sum for {alphas!r}"
    failure = "Gauss-Jacobi rules of %d and %d nodes disagree" % levels
    pref = (2.0 / math.pi) ** 1.5
    return refine(rule, levels, 1e-11, what, failure, lambda v: pref * v)
