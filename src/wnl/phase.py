"""Phase functions h and the analytic machinery built on them.

A phase is a real odd function h with h(t + 2*pi) = h(t) + 2*pi*k for
an integer winding number k, smooth on (0, pi) with h'' of one sign
there; ``validate`` checks each of these.  The quantities everything
downstream needs are

* the inverse ``psi`` of h' on [0, pi],
* the Legendre-type transform x*psi(x) - h(psi(x)),
* the modulus of continuity of h'' on [0, pi],
* the cutoff scale Phi_n solving omega(Phi/sqrt(n)) * Phi^4 = 1,
* the four-way index partition at a given scale n.

Convexity convention: the partition and the stationary-phase expansion
are stated for h'' > 0.  ``PhaseFunction.normalized()`` returns sign*h,
which has positive second derivative; ``psi`` and ``legendre`` accept
either orientation and invert the raw slope.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import DomainError

Array = np.ndarray
PhaseCallable = Callable[[Array], Array]
_T = TypeVar("_T")

_INTERIOR_MARGIN = 1e-9  # keep evaluation strictly inside (0, pi)
_FD_STEP = 1e-5  # central-difference step of build_from_callable
_VALIDATE_GRID = 256  # samples per structural check in validate
_SYMMETRY_TOL = 1e-8  # largest |h(-t) -+ h(t)| of a phase taken as odd or even
_DOUBLING_LIMIT = 64.0  # largest accepted |h''(2s)| / |h''(s)| near an endpoint
_DOUBLING_CORNER = math.pi / 8.0  # the largest s of the dyadic ladder
_CIRCLE_GRID = 32769  # uniform samples of h' and h'' on [0, 2 pi], ends included
_DELTA_FLOOR = 4.0 * math.pi / (_CIRCLE_GRID // 2)  # least delta omega reads: 4 grid spacings


def _once(f: Callable[[PhaseFunction], _T]) -> Callable[[PhaseFunction], _T]:
    """f(phase), computed on the first call and kept in the phase's ``__dict__``.

    Every fact f derives from a phase's callables alone is fixed for the
    life of the frozen object, so each is derived once per phase object;
    ``dataclasses.replace(phase)`` starts afresh.  A raise is not kept.
    The value must not hold the phase itself: a phase that kept itself
    would live until the garbage collector found the cycle.
    """
    key = f.__qualname__

    @functools.wraps(f)
    def once(phase: PhaseFunction) -> _T:
        memo = phase.__dict__
        if key not in memo:
            memo[key] = f(phase)
        return memo[key]

    return once


@dataclass(frozen=True)
class PhaseFunction:
    """A phase h bundled with its first two derivatives and a label.

    All three callables must accept and return numpy arrays (scalars are
    promoted), and must be pure: the same t always gives the same values.
    Everything else is a fact of h, read off it rather than declared: the
    winding number and orientation (``winding_k``, ``sign``) and the
    parities ``odd`` and ``even``, on either of which the spectrum takes
    a half route.  These, the slope range, the normalization, its
    validation, the circle table of h' and h'', the zeros of h'' and the
    inverse-slope table are each derived once per phase object.
    """

    h: PhaseCallable
    d1: PhaseCallable
    d2: PhaseCallable
    label: str

    @property
    @_once
    def odd(self) -> bool:
        """h(-t) = -h(t): |h(-t) + h(t)| < 1e-8 on the validation grid."""
        return _symmetry_defect(self.h, -1) < _SYMMETRY_TOL

    @property
    @_once
    def even(self) -> bool:
        """h(-t) = h(t): |h(-t) - h(t)| < 1e-8 on the validation grid."""
        return _symmetry_defect(self.h, 1) < _SYMMETRY_TOL

    @property
    @_once
    def winding_k(self) -> int:
        """k of h(t + 2 pi) = h(t) + 2 pi k: the nearest integer to
        (h(pi) - h(-pi)) / 2 pi.  A non-finite read raises DomainError; a
        shift that is no multiple of 2 pi is left to ``validate``."""
        shift = float(self.h(np.asarray(np.pi))) - float(self.h(np.asarray(-np.pi)))
        if not math.isfinite(shift):
            raise DomainError(f"h(pi) - h(-pi) of {self.label!r} is not finite")
        return round(shift / (2.0 * np.pi))

    @property
    @_once
    def sign(self) -> int:
        """+1 when h''(pi/2) >= 0, else -1: the sign of h'' on (0, pi) for
        an admissible phase, which ``validate`` checks."""
        return 1 if float(self.d2(np.asarray(np.pi / 2.0))) >= 0.0 else -1

    def normalized(self) -> "PhaseFunction":
        """The phase sign*h, which has positive h'' on (0, pi): this object
        when sign is +1, else its negation, built once."""
        return self if self.sign == 1 else self._negated()

    @_once
    def _negated(self) -> PhaseFunction:
        """The phase -h, closing over the callables and not over this object."""
        h, d1, d2 = self.h, self.d1, self.d2
        return PhaseFunction(
            h=lambda t: -h(t),
            d1=lambda t: -d1(t),
            d2=lambda t: -d2(t),
            label=f"-({self.label})",
        )

    @_once
    def slope_range(self) -> tuple[float, float]:
        """(min, max) of h' around the circle: at the zeros of h'', where
        its extremes are, and on the circle table that brackets them.

        Exact wherever :func:`_curvature_zeros` finds the zeros, rotated
        phases included; with none (h'' mostly zero) the table alone.  A
        phase whose table, or h' at a zero, is not finite raises DomainError.
        """
        slope = _circle_table(self)[1]
        zeros = _curvature_zeros(self)
        v = slope if zeros is None else np.concatenate([slope, self.d1(zeros)])
        lo, hi = float(np.min(v)), float(np.max(v))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"h' of {self.label!r} is not finite at the zeros of h''")
        return lo, hi


@dataclass
class ValidationReport:
    """Outcome of the structural checks on a phase."""

    label: str
    periodicity_ok: bool
    symmetry_ok: bool
    sign_ok: bool
    regularity_0_ok: bool
    regularity_pi_ok: bool
    doubling_ratio_0: float
    doubling_ratio_pi: float
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.periodicity_ok
            and self.symmetry_ok
            and self.sign_ok
            and self.regularity_0_ok
            and self.regularity_pi_ok
        )

    def __repr__(self) -> str:  # compact, log-friendly
        status = "ok" if self.passed else "FAILED"
        flags = (
            f"periodicity={self.periodicity_ok} symmetry={self.symmetry_ok} "
            f"sign={self.sign_ok} reg0={self.regularity_0_ok} "
            f"regpi={self.regularity_pi_ok}"
        )
        return f"<ValidationReport {self.label}: {status} ({flags})>"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_sine() -> PhaseFunction:
    """h(t) = sin t, odd.  Coefficients of e^{ix sin t} are Bessel J_nu(x)."""
    return PhaseFunction(
        h=np.sin,
        d1=np.cos,
        d2=lambda t: -np.sin(t),
        label="sine",
    )


def build_linear(k: int) -> PhaseFunction:
    """h(t) = k*t for integer k, odd, of winding k.  Degenerate: h'' = 0."""
    if not math.isfinite(k) or k != int(k):
        raise DomainError(f"linear phase needs an integer slope, got {k!r}")
    k = int(k)
    return PhaseFunction(
        h=lambda t: k * np.asarray(t, dtype=float),
        d1=lambda t: np.full_like(np.asarray(t, dtype=float), float(k)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label=f"linear[{k}]",
    )


def build_piecewise_abs() -> PhaseFunction:
    """h(t) = |t| on [-pi, pi], extended periodically.

    Even.  Not smooth at 0 and pi, second derivative vanishes in
    between; this phase exists to exercise the failure modes, and its
    Fourier side is known in closed form.
    """

    def wrap(t: Array) -> Array:
        """t - 2 pi round(t / 2 pi), computed in one new array."""
        t = np.asarray(t, dtype=float)
        w = np.divide(t, 2.0 * np.pi, out=np.empty_like(t))
        np.round(w, out=w)
        w *= 2.0 * np.pi
        return np.subtract(t, w, out=w)

    def h(t: Array) -> Array:
        w = wrap(t)
        return np.abs(w, out=w)

    return PhaseFunction(
        h=h,
        d1=lambda t: np.sign(wrap(t)),
        d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        label="abs",
    )


def build_blaschke(alphas: Sequence[float]) -> PhaseFunction:
    """Phase of a finite Blaschke product with real zeros alpha_j in (0, 1).

    One factor (e^{it} - alpha) / (1 - alpha e^{it}) contributes
    t + 2*atan(alpha sin t / (1 - alpha cos t)) to the argument.  The
    convention here takes h = -(sum of factor arguments), which makes
    h'' > 0 on (0, pi); a product of J factors then has winding -J.  The
    phase is odd; its parity, winding and sign are read off h.
    Since Re(1 - alpha e^{it}) > 0, the atan never crosses a branch cut
    and h is smooth.  The formulas are those of
    :func:`build_blaschke_general` at argument zero.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("need a non-empty 1-d sequence of zero moduli")
    if np.any(~((a > 0.0) & (a < 1.0))):  # nan fails too
        raise DomainError(f"zero moduli must lie in (0, 1), got {alphas!r}")
    levels = ",".join(map(_digits, a))
    return _blaschke_phase(a, label=f"blaschke[{levels}]")


def build_blaschke_general(zeros: Sequence[complex]) -> PhaseFunction:
    """Blaschke phase for complex zeros a_j with 0 < |a_j| < 1.

    Same convention as :func:`build_blaschke`.  Real zeros of either
    sign keep the phase odd, and so does a set closed under conjugation;
    a negative zero turns h'' negative on (0, pi).  Other zeros off the
    real axis break the odd symmetry and can make h'' change sign, both
    of which ``validate`` will report.  Derivatives are sums of shifted
    Poisson kernels.
    """
    z = np.asarray(zeros, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise DomainError("need a non-empty 1-d sequence of zeros")
    mod = np.abs(z)
    if np.any(~((mod > 0.0) & (mod < 1.0))):  # nan fails too
        raise DomainError("zeros must satisfy 0 < |a| < 1")
    levels = ",".join(
        f"{_digits(v.real)}{'' if np.signbit(v.imag) else '+'}{_digits(v.imag)}j" for v in z
    )
    return _blaschke_phase(z, label=f"blaschke*[{levels}]")


def _digits(v: float) -> str:
    """The shortest digits that read back as v, spelled as f"{v:g}" spells
    them whenever six significant digits suffice: 0.3, 0, -0, 1e-05."""
    return repr(float(v)).removesuffix(".0")


def _blaschke_phase(zeros: np.ndarray, label: str) -> PhaseFunction:
    """The Blaschke phase for checked zeros: sums of shifted Poisson kernels."""
    r = np.abs(zeros)
    real = not np.any(np.imag(zeros))

    def rotate(a: complex, c: Array, s: Array | None) -> tuple[Array, Array | None]:
        """|a| cos(t - arg a) and |a| sin(t - arg a) from c = cos t and
        s = sin t.  A real zero needs no Im a terms.  s is None only for
        real zeros and a term that never reads the sine; then so is the
        second result."""
        if real:
            return a.real * c, None if s is None else a.real * s
        return a.real * c + a.imag * s, a.real * s - a.imag * c

    def summed(term: Callable[..., Array], reads_sin: bool = True) -> PhaseCallable:
        """t -> the sum over zeros a of term(t, |a|, |a| cos(t - arg a),
        |a| sin(t - arg a)), accumulated one zero at a time in N-arrays."""

        def f(t: Array) -> Array:
            t = np.asarray(t, dtype=float)
            c = np.cos(t)
            s = np.sin(t) if reads_sin or not real else None
            return functools.reduce(
                np.add, (term(t, m, *rotate(a, c, s)) for a, m in zip(zeros, r))
            )

        return f

    def den(m: float, rc: Array) -> Array:
        return 1.0 + m * m - 2.0 * rc

    h = summed(lambda t, m, rc, rs: -(t + 2.0 * np.arctan2(rs, 1.0 - rc)))
    d1 = summed(lambda t, m, rc, rs: -(1.0 - m * m) / den(m, rc), reads_sin=False)
    d2 = summed(lambda t, m, rc, rs: 2.0 * (1.0 - m * m) * rs / den(m, rc) ** 2)

    return PhaseFunction(h=h, d1=d1, d2=d2, label=label)


def build_from_callable(h: Callable[[Array], Array], label: str = "custom") -> PhaseFunction:
    """Wrap a plain callable, supplying derivatives by central differences.

    Good enough for exploration; the finite-difference noise floor
    (~1e-10 on d1, far worse on d2) makes this unsuitable for tight
    tolerance work, so prefer an analytic builder when one exists.
    Parity, winding and sign are read off h as for any phase.
    """

    def hv(t: Array) -> Array:
        return np.asarray(h(np.asarray(t, dtype=float)), dtype=float)

    def d1(t: Array) -> Array:
        return (hv(t + _FD_STEP) - hv(t - _FD_STEP)) / (2.0 * _FD_STEP)

    def d2(t: Array) -> Array:
        return (hv(t + _FD_STEP) - 2.0 * hv(t) + hv(t - _FD_STEP)) / _FD_STEP**2

    return PhaseFunction(h=hv, d1=d1, d2=d2, label=label)


def _symmetry_defect(h: PhaseCallable, parity: int) -> float:
    """max |h(-t) - parity h(t)| over the validation grid; zero to rounding
    iff h is odd (parity -1) or even (parity +1)."""
    t = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, _VALIDATE_GRID)
    return float(np.max(np.abs(h(-t) - parity * h(t))))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(phase: PhaseFunction) -> ValidationReport:
    """Structural checks: periodicity, oddness (the theorem's, so even abs
    fails it), convexity, endpoint growth.

    Regularity near the endpoints is probed through the doubling ratio
    |h''(2s)| / |h''(s)| on a dyadic ladder descending from s = pi/8; a
    ratio staying below 64 certifies the controlled growth the partition
    machinery relies on.  This is a sampled proxy for the true supremum,
    as any finite check must be.
    """
    msgs: list[str] = []
    t = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, _VALIDATE_GRID)

    hv = phase.h(t)
    per = phase.h(t + 2.0 * np.pi) - hv - 2.0 * np.pi * phase.winding_k
    periodicity_ok = bool(np.max(np.abs(per)) < 1e-8)
    if not periodicity_ok:
        msgs.append(
            f"h(t+2pi) - h(t) deviates from 2pi*{phase.winding_k} by up to "
            f"{np.max(np.abs(per)):.3e}"
        )

    sym = _symmetry_defect(phase.h, -1)
    symmetry_ok = sym < _SYMMETRY_TOL  # a nan defect fails too
    if not symmetry_ok:
        msgs.append(f"h is not odd: h(-t)+h(t) reaches {sym:.3e}")

    ti = np.linspace(_INTERIOR_MARGIN, np.pi - _INTERIOR_MARGIN, _VALIDATE_GRID)[1:-1]
    curv = phase.sign * phase.d2(ti)
    sign_ok = bool(np.all(curv > 0.0))
    if not sign_ok:
        bad = int(np.sum(~(curv > 0.0)))
        msgs.append(
            f"sign*h'' fails to stay positive on (0, pi) at {bad}/{curv.size} samples"
        )

    def endpoint_ratio(at_zero: bool) -> float:
        scales = _DOUBLING_CORNER / 2.0 ** np.arange(0, 24)
        pts = scales if at_zero else np.pi - scales
        vals = np.abs(phase.d2(pts))
        if np.any(vals < 1e-300):
            return math.inf
        ratios = vals[:-1] / vals[1:]  # |h''(2s)| / |h''(s)|
        return float(np.max(ratios))

    ratio0 = endpoint_ratio(True)
    ratiopi = endpoint_ratio(False)
    regularity_0_ok = ratio0 < _DOUBLING_LIMIT
    regularity_pi_ok = ratiopi < _DOUBLING_LIMIT
    if not regularity_0_ok:
        msgs.append(
            f"doubling ratio of h'' near 0 is {ratio0:.3g} (limit {_DOUBLING_LIMIT:g})"
        )
    if not regularity_pi_ok:
        msgs.append(
            f"doubling ratio of h'' near pi is {ratiopi:.3g} (limit {_DOUBLING_LIMIT:g})"
        )

    return ValidationReport(
        label=phase.label,
        periodicity_ok=periodicity_ok,
        symmetry_ok=symmetry_ok,
        sign_ok=sign_ok,
        regularity_0_ok=regularity_0_ok,
        regularity_pi_ok=regularity_pi_ok,
        doubling_ratio_0=ratio0,
        doubling_ratio_pi=ratiopi,
        messages=msgs,
    )


def require_valid(phase: PhaseFunction) -> PhaseFunction:
    """Normalize and validate, raising DomainError with the report on failure.

    The normalization and its validation are each made once per phase
    object, so a repeated call on one phase costs a few dictionary reads.
    """
    norm = phase.normalized()
    report = _validation(norm)
    if not report.passed:
        raise DomainError(
            f"phase {phase.label!r} fails validation: " + "; ".join(report.messages)
        )
    return norm


@_once
def _validation(norm: PhaseFunction) -> ValidationReport:
    """:func:`validate` of a normalized phase, for :func:`require_valid`."""
    return validate(norm)


@_once
def _circle_table(phase: PhaseFunction) -> tuple[Array, Array, Array]:
    """(t, h'(t), h''(t)) on ``_CIRCLE_GRID`` uniform points t of [0, 2 pi],
    ends included: the one sampling of h' and h'' that Phi, omega, the
    slope inverse, the zeros of h'', the slope range and Lemma 1's bound
    all read.

    t[t.size // 2] is pi, so the points up to it are the [0, pi] half of
    :func:`_half_circle`.  Each derivative is evaluated on that half and
    on (pi, 2 pi] in two calls, into arrays allocated once and kept: one
    call over the circle, or a circle-length temporary freed after use,
    raised the peak RSS of the ``blaschke_cli`` benchmark by 3 to 4 MB.
    The second half is evaluated, not mirrored from the first, for odd
    phases too: only its own values show an h'' that is not finite past
    pi.  A value that is not finite raises DomainError, so every reader
    refuses such a phase.
    """
    t = np.linspace(0.0, 2.0 * np.pi, _CIRCLE_GRID)
    slope, curv = np.empty_like(t), np.empty_like(t)
    for part in (slice(0, t.size // 2 + 1), slice(t.size // 2 + 1, None)):
        slope[part], curv[part] = phase.d1(t[part]), phase.d2(t[part])
    if not (np.all(np.isfinite(slope)) and np.all(np.isfinite(curv))):
        raise DomainError(f"h' or h'' of {phase.label!r} is not finite on the circle")
    return t, slope, curv


def _half_circle(phase: PhaseFunction) -> tuple[Array, Array, Array]:
    """(t, h'(t), h''(t)) of :func:`_circle_table` on its [0, pi] half,
    16385 points by default, as views."""
    return tuple(v[: v.size // 2 + 1] for v in _circle_table(phase))


def _end_slopes(phase: PhaseFunction) -> tuple[float, float]:
    """(h'(0), h'(pi)), read off the circle table."""
    slope = _half_circle(phase)[1]
    return float(slope[0]), float(slope[-1])


@_once
def _curvature_zeros(phase: PhaseFunction) -> Array | None:
    """The zeros of h'' around the circle, ascending in [0, 2 pi), or None.

    Neighbouring points of :func:`_circle_table` whose h'' sign bits
    differ are bisected, all at once, to neighbouring floats; a flip
    between the two ends (one point of the circle) is a zero at 0.  Two
    zeros inside one table interval, 2 pi / 32768 wide, go unseen.  None
    when fewer than half the samples are nonzero: h'' then mostly
    vanishes and its signs say nothing.  A table that is not finite
    raises DomainError, so every reader of the zeros refuses such a phase.
    """
    t, _, vals = _circle_table(phase)
    if 2 * np.count_nonzero(vals) < vals.size:
        return None
    neg = np.signbit(vals)
    flips = np.flatnonzero(neg[:-1] != neg[1:])
    a, b = t[flips], t[flips + 1]
    while np.any(((m := 0.5 * (a + b)) != a) & (m != b)):
        stays = np.signbit(phase.d2(m)) == neg[flips]
        a, b = np.where(stays, m, a), np.where(stays, b, m)
    return np.concatenate([[0.0], m] if neg[0] != neg[-1] else [m])


# ---------------------------------------------------------------------------
# Inverse slope and Legendre transform
# ---------------------------------------------------------------------------


_SLOPE_MAX_STEPS = 64  # cap on the safeguarded Newton steps per target


def _invert_increasing_slope(norm: PhaseFunction, targets: np.ndarray) -> np.ndarray:
    """Solve g'(t) = target on [0, pi] for a normalized phase (g'' > 0).

    Safeguarded Newton, as in Numerical Recipes' ``rtsafe``.  g' and g''
    are read off the [0, pi] half of the circle table, whatever the
    targets (g' made monotone by a running maximum).  The table interval
    holding a target is its bracket, and the seed is the inverse cubic
    Hermite interpolant over that interval (see ``_slope_seed``).  Each
    step evaluates g' and g'' at the current point, tightens the bracket
    by the sign of g'(t) - target, and takes the Newton step, or the
    bracket midpoint when that step leaves the bracket or g'' <= 0.

    A target is done when its Newton step falls below the rounding floor
    2 spacing(t) + noise / g''(t), what rounding in g' can move t by, or
    its bracket has collapsed; only unfinished targets are evaluated
    again.  noise is the larger of 8 spacing(max|g'|) and the error in
    g' measured on the table (see ``_slope_table``).  All targets go
    through each step at once, so callers do the blocking: no library
    call hands in more than one ``_quad._BLOCK`` of targets.  Each result
    depends on its own target only.  Targets must lie in [g'(0), g'(pi)], up to a
    relative fuzz absorbed by clipping.
    """
    lo_val, hi_val = _end_slopes(norm)
    fuzz = 1e-12 * max(1.0, abs(lo_val), abs(hi_val))
    if np.any(targets < lo_val - fuzz) or np.any(targets > hi_val + fuzz):
        raise DomainError(
            f"slope target outside [h'(0), h'(pi)] = [{lo_val!r}, {hi_val!r}]"
        )
    targets = np.clip(targets, lo_val, hi_val)

    grid, table, cubic, noise = _slope_table(norm)
    t, lo, hi = _slope_seed(grid, table, cubic, targets)
    out = np.empty_like(targets)
    todo = np.arange(targets.size)
    u = targets
    for _ in range(_SLOPE_MAX_STEPS):
        t, lo, hi, done = _newton_step(norm, noise, u, t, lo, hi)
        out[todo] = t  # targets still open at the step cap keep their last iterate
        keep = ~done
        todo, u, t, lo, hi = todo[keep], u[keep], t[keep], lo[keep], hi[keep]
        if todo.size == 0:
            break
    return out


@_once
def _slope_table(norm: PhaseFunction) -> tuple[Array, Array, Array, float]:
    """(grid, table, cubic, noise): what every inverse-slope target reads,
    built once per phase object.

    grid is the [0, pi] half of :func:`_circle_table`, 16385 uniform
    points, and table the running maximum of g' on it.  cubic holds one
    row per table interval, 1/(u_hi - u_lo) and the coefficients c1, c2,
    c3 of ``_slope_seed``, so each target gathers four adjacent values.
    noise is the larger of 8 spacing(max|g'|) and max|D^6 g'| / 2^6 over the
    table, D^6 the sixth difference.  The smooth part of D^6 g' is
    d^6 g^(7), negligible at this spacing d, while errors of at most E in
    each tabulated g' give |D^6| <= 2^6 E; so the second term is a lower
    estimate of the rounding, or finite differencing, error E in g'.
    A circle table that is not finite raises DomainError, since no root
    read off it could be trusted.
    """
    grid, slope, curv = _half_circle(norm)
    d = grid[1]
    table = np.maximum.accumulate(slope)
    rounding = 8.0 * np.spacing(np.max(np.abs(table)))
    noise = max(rounding, np.max(np.abs(np.diff(slope, 6))) / 64.0)

    rise = np.diff(table)
    curved = (rise > 0.0) & (curv[:-1] > 0.0) & (curv[1:] > 0.0)
    inv_rise = np.divide(1.0, rise, out=np.zeros_like(rise), where=rise > 0.0)
    a = np.divide(rise, d * curv[:-1], out=np.ones_like(rise), where=curved)
    b = np.divide(rise, d * curv[1:], out=np.ones_like(rise), where=curved)
    cubic = np.stack([inv_rise, a, 3.0 - 2.0 * a - b, a + b - 2.0], axis=1)
    return grid, table, cubic, float(noise)


def _slope_seed(
    grid: Array, table: Array, cubic: Array, targets: Array
) -> tuple[Array, Array, Array]:
    """(seed, lo, hi) for each target from the tables of ``_slope_table``.

    [lo, hi] is the table interval holding the target, and q its linear
    position between the interval's ends u_lo and u_hi.  The seed is
    lo + (hi - lo) p(q), where p(q) = q (c1 + q (c2 + q c3)) is the
    cubic Hermite interpolant of t(u) over the interval: with end slopes
    a = (u_hi - u_lo) / ((hi - lo) g''(lo)) and b likewise at hi,
    relative to the secant, c1 = a, c2 = 3 - 2a - b and c3 = a + b - 2.
    Where g'' <= 0 at either end, a = b = 1 makes p(q) = q, the linear
    seed.  Where the cubic leaves [0, 1], the seed is linear too.
    """
    i = np.clip(np.searchsorted(table, targets) - 1, 0, table.size - 2)
    lo, hi = grid[i], grid[i + 1]
    inv_rise, c1, c2, c3 = cubic[i].T
    q = np.clip((targets - table[i]) * inv_rise, 0.0, 1.0)
    p = q * (c1 + q * (c2 + q * c3))
    p = np.where((0.0 <= p) & (p <= 1.0), p, q)
    return lo + p * (hi - lo), lo, hi


def _newton_step(
    norm: PhaseFunction, noise: float, u: Array, t: Array, lo: Array, hi: Array
) -> tuple[Array, Array, Array, Array]:
    """One safeguarded Newton step of ``_invert_increasing_slope``.

    Returns the next iterate, the tightened bracket and whether each
    target is done.  A target is also done when its Newton step lands
    exactly on an end of its bracket: that end is an earlier iterate,
    and where the noise in g' exceeds its estimate the two ends then
    map onto each other, a 2-cycle that no further step breaks.
    """
    f = norm.d1(t) - u
    df = norm.d2(t)
    lo = np.where(f < 0.0, t, lo)
    hi = np.where(f < 0.0, hi, t)
    curved = df > 0.0
    df = np.where(curved, df, 1.0)
    step = f / df
    newton = t - step
    inside = curved & (lo <= newton) & (newton <= hi)
    t_next = np.where(inside, newton, 0.5 * (lo + hi))
    small = np.abs(step) <= 2.0 * np.spacing(t) + noise / df
    settled = inside & (small | (newton == lo) | (newton == hi))
    done = settled | (hi - lo <= 2.0 * np.spacing(hi))
    return t_next, lo, hi, done


def psi(phase: PhaseFunction, x: float) -> float:
    """Inverse of the raw slope h' on [0, pi], at one slope x.

    h' is strictly monotone there (h'' has one sign), increasing when
    sign = +1 and decreasing when sign = -1; both orientations are
    handled.  For h = sin this is arccos.  The slope is attained on the
    open interval only, so x must lie strictly between h'(0) and h'(pi);
    anything else, nan included, raises DomainError, as does an invalid phase.
    """
    norm = require_valid(phase)
    u = float(x) * phase.sign
    lo_val, hi_val = _end_slopes(norm)
    if not lo_val < u < hi_val:  # the raw phase's h' is sign times the normalized one's
        raise DomainError(
            f"slope target {x!r} not strictly between h'(0) = {phase.sign * lo_val!r} and "
            f"h'(pi) = {phase.sign * hi_val!r} for {phase.label!r}"
        )
    return float(_invert_increasing_slope(norm, np.array([u]))[0])


def legendre(phase: PhaseFunction, x: float) -> float:
    """The Legendre-type transform x * psi(x) - h(psi(x)) of the raw phase.

    For h = sin this is x*arccos(x) - sqrt(1 - x^2); the stationary
    exponent at index nu is n times this transform of the normalized
    phase at nu/n, negated (see :mod:`wnl.stationary`).  It raises where psi does.
    """
    t = psi(phase, x)
    return float(x * t - float(phase.h(np.asarray(t))))


# ---------------------------------------------------------------------------
# Modulus of continuity and the cutoff scale
# ---------------------------------------------------------------------------


def modulus_of_continuity(phase: PhaseFunction, delta: float) -> float:
    """omega(delta) = sup |h''(u) - h''(v)| over |u - v| <= delta in [0, pi].

    Sliding-window extrema over a uniform grid, with linear
    interpolation between the two bracketing integer window widths so
    the result is continuous in delta (a plain floor produces staircase
    artifacts that poison root finding in :func:`choose_phi`).  The
    grid is the [0, pi] half of the circle table, 16385 points, which
    :func:`choose_phi` reads too, and delta must be at least
    ``_DELTA_FLOOR``, four spacings of it.
    """
    if not (0.0 < delta <= np.pi):
        raise DomainError(f"delta must lie in (0, pi], got {delta!r}")
    if delta < _DELTA_FLOOR:
        raise DomainError(
            f"delta {delta:.3e} is below 4 spacings ({_DELTA_FLOOR:.3e}) of the "
            f"{_CIRCLE_GRID}-point circle grid"
        )
    return _curvature(phase).omega(delta)


@_once
def _curvature_profile(phase: PhaseFunction) -> tuple[Array, dict[int, float]]:
    """h'' on the [0, pi] half of the circle table, 16385 points, and the
    window ranges :class:`_Curvature` has read from those samples so far."""
    return _half_circle(phase)[2], {}


def _curvature(phase: PhaseFunction) -> _Curvature:
    """The curvature profile of a phase, sampled and read once per phase object."""
    return _Curvature(*_curvature_profile(phase))


class _Curvature:
    """h'' sampled on uniform points of [0, pi], ends included, and omega read from it.

    ``widths`` holds the window range of each integer width read so far;
    :func:`_curvature` passes the one dict of a phase, so every
    :func:`choose_phi` and :func:`modulus_of_continuity` call on it
    shares the dict.  Level k of ``peaks`` (``troughs``) holds the max
    (min) of h'' over every run of 2^k consecutive samples; the levels
    are built on the first range not yet read and live only as long as
    this object, one call.  A window of any length is two overlapping
    reads of one level, so each integer window width costs one pass.
    """

    def __init__(self, samples: Array, widths: dict[int, float]) -> None:
        self.samples, self.widths = samples, widths
        self.size = samples.size
        self.spacing = np.pi / (self.size - 1)

    @functools.cached_property
    def levels(self) -> tuple[list[Array], list[Array]]:
        """(peaks, troughs): the doubling tables of window maxima and minima."""
        peaks, troughs = [self.samples], [self.samples]
        run = 1
        while 2 * run <= self.size:
            hi, lo = peaks[-1], troughs[-1]
            peaks.append(np.maximum(hi[:-run], hi[run:]))
            troughs.append(np.minimum(lo[:-run], lo[run:]))
            run *= 2
        return peaks, troughs

    def window_range(self, width: int) -> float:
        """max over i of (max - min) of the samples i .. i + width."""
        if width not in self.widths:
            length = min(width, self.size - 1) + 1
            level = length.bit_length() - 1
            shift = length - (1 << level)
            peaks, troughs = (table[level] for table in self.levels)
            stop = peaks.size - shift
            top = np.maximum(peaks[:stop], peaks[shift:])
            bottom = np.minimum(troughs[:stop], troughs[shift:])
            self.widths[width] = float(np.max(top - bottom))
        return self.widths[width]

    def omega(self, delta: float) -> float:
        """The window range at the two integer widths around delta / spacing,
        linearly interpolated."""
        w = delta / self.spacing
        w0 = int(math.floor(w))
        frac = w - w0
        lo = self.window_range(max(w0, 1))
        if frac == 0.0 or w0 + 1 >= self.size:
            return lo
        hi = self.window_range(w0 + 1)
        return lo + frac * (hi - lo)


def choose_phi(phase: PhaseFunction, n: float) -> float:
    """The cutoff scale Phi solving omega(Phi / sqrt(n)) * Phi^4 = 1.

    omega is the modulus of continuity of h'' on [0, pi]; the product is
    nondecreasing in Phi, so bisection on [Phi_floor, n^(1/4)] finds the
    root.  Phi_floor = max(1, ``_DELTA_FLOOR`` sqrt(n)) keeps delta =
    Phi / sqrt(n) at four or more spacings of the curvature grid, the
    [0, pi] half of the circle table; it is 1 for n <= 1.70e6 on the
    16385 points of that half.
    The scale n may be any real >= 2 (the construction is continuous in
    n, and real scales are first-class downstream).  Degenerate cases
    clamp: if omega never lifts the product to 1 the upper end is
    returned with a warning (h'' constant, e.g. a linear phase), and if
    the product already exceeds 1 at Phi = 1 the lower end is returned.
    A product that reaches 1 at a Phi_floor above 1 means the root lies
    below the grid's resolution, which raises DomainError.
    Bisection runs until its bracket ends are neighbouring floats, 49 to
    58 midpoints.  h'' is read off the circle table, and each integer
    window width is read once per phase object, from a doubling table of
    window extremes, so those steps cost about 20 passes rather than two
    per midpoint, and fewer on every later call or scale.
    """
    if not (n >= 2):
        raise DomainError(f"n must be at least 2, got {n!r}")
    if not math.isfinite(n):
        raise DomainError(f"n must be finite, got {n!r}")
    curvature = _curvature(phase)
    sqrt_n = math.sqrt(n)
    upper = n**0.25
    floor = max(1.0, _DELTA_FLOOR * sqrt_n)

    def product(p: float) -> float:
        return curvature.omega(p / sqrt_n) * p**4

    if product(upper) <= 1.0:
        warnings.warn(
            "omega(h'') too small to reach the cutoff equation for "
            f"{phase.label!r}; clamping Phi to n^(1/4) = {upper:.6g}",
            stacklevel=2,
        )
        return upper
    if product(floor) >= 1.0:
        if floor > 1.0:
            raise DomainError(
                f"n = {n} puts the cutoff root for {phase.label!r} below the delta "
                f"resolution {_DELTA_FLOOR:.3e}; the {_CIRCLE_GRID}-point "
                f"circle grid resolves n <= {_DELTA_FLOOR**-2:.2e} for every phase"
            )
        return 1.0
    lo, hi = floor, upper
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):  # until lo and hi are neighbouring floats
        if product(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return mid


# ---------------------------------------------------------------------------
# Index partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermPartition:
    """Four-way split of integer indices at scale n.

    With g the normalized phase (g'' > 0), alpha = g'(0), beta = g'(pi),
    delta = min(Phi_n / sqrt(n), pi/8) and

        alpha_n = max(g'(2 delta), alpha + 1/n),
        beta_n  = min(g'(pi - 2 delta), beta - 1/n),

    the index line splits into external (nu <= alpha*n + 1 or
    nu >= beta*n - 1), left periphery (alpha*n + 1 < nu < alpha_n * n),
    central (alpha_n * n <= nu <= beta_n * n) and right periphery
    (beta_n * n < nu < beta*n - 1).  Every integer lands in exactly one
    class, the runs between the integer ``cuts``; when the central
    window holds none (tiny n) the periphery is split at its midpoint.

    n is usually an integer but any real scale >= 2 is accepted; the
    seams are derived from real arithmetic either way.  omega is the
    modulus of continuity of g'' at delta (at no less than four grid
    spacings), the curvature variation that the stationary-phase
    remainder budget charges against.
    """

    n: float
    phi: float
    delta: float
    omega: float
    alpha: float
    beta: float
    alpha_n: float
    beta_n: float
    label: str

    # real-valued seams
    @property
    def a1(self) -> float:
        return self.alpha * self.n + 1.0

    @property
    def a2(self) -> float:
        return self.alpha_n * self.n

    @property
    def b2(self) -> float:
        return self.beta_n * self.n

    @property
    def b1(self) -> float:
        return self.beta * self.n - 1.0

    # integer seams, mutually consistent by construction
    @property
    def ext_left_max(self) -> int:
        """Largest external index on the left (nu <= alpha*n + 1)."""
        return math.floor(self.a1)

    @property
    def ext_right_min(self) -> int:
        """Smallest external index on the right (nu >= beta*n - 1)."""
        return math.ceil(self.b1)

    @property
    def cuts(self) -> tuple[int, int, int, int]:
        """(first, lo, hi, last): the classes are nu < first (external),
        [first, lo) left periphery, [lo, hi) central, [hi, last) right
        periphery and nu >= last (external).

        With no central integer, lo == hi sits at the midpoint split.
        When the external seams cross (a narrow slope range at tiny n),
        last is raised to first, so the cuts stay sorted and every index
        is external.
        """
        first = self.ext_left_max + 1
        last = max(self.ext_right_min, first)
        lo = max(math.ceil(self.a2), first)
        hi = min(math.floor(self.b2) + 1, last)
        if lo >= hi:
            lo = hi = min(max(math.floor(0.5 * (self.a2 + self.b2)) + 1, first), last)
        return first, lo, hi, last

    def central_range(self) -> range:
        _, lo, hi, _ = self.cuts
        return range(lo, hi)


def partition_terms(phase: PhaseFunction, n: float) -> TermPartition:
    """Build the four-way index partition at scale n (real n >= 2).

    Works on the normalized phase; validation must pass.  Phi and omega
    are :func:`choose_phi` and :func:`modulus_of_continuity` of it; delta
    is clamped to pi/8 so the slope probes at 2*delta stay inside (0, pi/2).
    """
    norm = require_valid(phase)
    phi = choose_phi(norm, n)
    delta = min(phi / math.sqrt(n), math.pi / 8.0)
    omega = modulus_of_continuity(norm, max(delta, _DELTA_FLOOR))
    alpha, beta = _end_slopes(norm)
    alpha_n = max(float(norm.d1(np.asarray(2.0 * delta))), alpha + 1.0 / n)
    beta_n = min(float(norm.d1(np.asarray(np.pi - 2.0 * delta))), beta - 1.0 / n)
    return TermPartition(
        n=n,
        phi=phi,
        delta=delta,
        omega=omega,
        alpha=alpha,
        beta=beta,
        alpha_n=alpha_n,
        beta_n=beta_n,
        label=norm.label,
    )
