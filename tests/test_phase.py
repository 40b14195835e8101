"""Phase builders, validation, slope inversion, and the index partition."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wnl.asymptotics
import wnl.phase
import wnl.stationary
from wnl._quad import _BLOCK
from wnl.asymptotics import (
    asymptotic_limit,
    asymptotic_limit_slope_route,
    convergence_study,
    final_step_report,
)
from wnl.errors import DomainError, WnlError
from wnl.phase import (
    _CIRCLE_GRID,
    PhaseFunction,
    TermPartition,
    _Curvature,
    _curvature,
    _curvature_zeros,
    _invert_increasing_slope,
    _slope_table,
    build_blaschke,
    build_blaschke_general,
    build_from_callable,
    build_linear,
    build_piecewise_abs,
    build_sine,
    choose_phi,
    legendre,
    modulus_of_continuity,
    partition_terms,
    psi,
    require_valid,
    validate,
)
from wnl.spectrum import compute_spectrum, scaled_norm
from wnl.stationary import stationary_comparison

# Cutoff scale for the sine phase at n = 1e6, against the n^(1/10)
# model it should track (same machinery, frozen output).
PHI_SINE_1E6 = 3.98107380873

# Roots of h'(t) = u for the Blaschke [0.3, 0.7] phase, at 40 digits from
# the closed-form slope (scripts/gen_reference_values.py, "psi" rows).
BLASCHKE_37_SLOPE_ROOTS = {
    -7.0: 0.11276101886648128342,
    -5.0: 0.31091441441548036914,
    -3.0: 0.61236534914273593641,
    -1.5: 1.2472900660893048554,
    -1.0: 1.8439195639281074615,
    -0.75: 2.6451763722487448829,
}


def _builders():
    return [
        build_sine(),
        build_blaschke([0.5]),
        build_blaschke([0.3, 0.7]),
        build_blaschke_general([0.4 + 0.3j]),
        build_blaschke_general([0.4 + 0.3j, -0.6, 0.2 - 0.5j]),
        build_linear(3),
    ]


@pytest.mark.parametrize("phase", _builders(), ids=lambda p: p.label)
def test_derivatives_match_finite_differences(phase):
    """d1 and d2 must be the actual derivatives of h."""
    t = np.linspace(0.3, 2.8, 17)
    step = 1e-5
    d1_fd = (phase.h(t + step) - phase.h(t - step)) / (2 * step)
    d2_fd = (phase.d1(t + step) - phase.d1(t - step)) / (2 * step)
    assert np.max(np.abs(phase.d1(t) - d1_fd)) < 1e-8
    assert np.max(np.abs(phase.d2(t) - d2_fd)) < 1e-7


@pytest.mark.parametrize("phase", _builders(), ids=lambda p: p.label)
def test_winding(phase):
    t = np.array([-2.0, 0.1, 1.3])
    jump = phase.h(t + 2 * math.pi) - phase.h(t)
    assert np.allclose(jump, 2 * math.pi * phase.winding_k, atol=1e-10)


@pytest.mark.parametrize("which", ["h", "d1", "d2"])
@pytest.mark.parametrize("size", [1 << 14, 1 << 16])
def test_many_zero_blaschke_memory_grows_with_n_only(which, size):
    """64 zeros on N points: the evaluation holds a few N-arrays, never
    an (N, J) block, so the peak stays under 16 float arrays of length N."""
    f = getattr(build_blaschke(np.linspace(0.05, 0.95, 64)), which)
    t = np.linspace(-np.pi, np.pi, size)
    tracemalloc.start()
    try:
        f(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * size


def test_abs_phase_wraps_in_one_array():
    """abs's h is |t - 2 pi round(t / 2 pi)| bit for bit, 0-d reads and the
    seams at odd multiples of pi included, computed in one new array: the
    peak besides its argument is one N-array, where the plain expression's
    temporaries reach two."""
    phase = build_piecewise_abs()
    seams = [np.pi, -np.pi, 3.0 * np.pi, 0.0, -0.0, 2.0 * np.pi]
    t = np.concatenate([np.linspace(-7.0 * np.pi, 7.0 * np.pi, 1 << 16), seams])
    plain = np.abs(t - 2.0 * np.pi * np.round(t / (2.0 * np.pi)))
    assert phase.h(t).tobytes() == plain.tobytes()
    assert [float(phase.h(np.asarray(v))) for v in seams] == plain[-len(seams):].tolist()
    tracemalloc.start()
    try:
        phase.h(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.nbytes


def test_sine_values():
    phase = build_sine()
    assert float(phase.h(np.asarray(math.pi / 2))) == pytest.approx(1.0, abs=1e-15)
    assert phase.sign == -1
    assert phase.odd
    assert phase.winding_k == 0


def test_blaschke_real_zeros_match_general_builder():
    real, general = build_blaschke([0.3, 0.7]), build_blaschke_general([0.3, 0.7])
    t = np.linspace(-7.0, 7.0, 2001)
    for name in ("h", "d1", "d2"):
        assert np.array_equal(getattr(real, name)(t), getattr(general, name)(t))
    assert real.odd and general.odd
    assert real.label == "blaschke[0.3,0.7]"


def test_blaschke_negative_real_zero_is_odd_and_normalizes():
    """A negative real zero is the positive one rotated by pi: odd, with h'' < 0."""
    neg, pos = build_blaschke_general([-0.5]), build_blaschke([0.5])
    assert neg.odd and neg.sign == -1
    assert validate(neg).passed
    assert asymptotic_limit(neg) == pytest.approx(asymptotic_limit(pos), abs=1e-12)
    s_neg = scaled_norm(compute_spectrum(neg, 400.0))
    assert s_neg == pytest.approx(scaled_norm(compute_spectrum(pos, 400.0)), abs=1e-12)
    complex_zero = build_blaschke_general([0.4 + 0.3j])
    assert not complex_zero.odd and complex_zero.sign == 1


# (phase, winding_k, sign, odd, even) of every builder: the winding is
# read from h(pi) - h(-pi), the sign from h''(pi/2), and the parity from
# h(-t) -+ h(t) on the validation grid.  The parities are the values the
# builders once declared, but for linear[0]: h = 0 is even as well as odd.
DECLARED = [
    (build_sine(), 0, -1, True, False),
    (build_piecewise_abs(), 0, 1, False, True),
    (build_linear(0), 0, 1, True, True),
    (build_linear(3), 3, 1, True, False),
    (build_linear(-2), -2, 1, True, False),
    (build_blaschke([0.5]), -1, 1, True, False),
    (build_blaschke([0.3, 0.7]), -2, 1, True, False),
    (build_blaschke([0.9]), -1, 1, True, False),
    (build_blaschke([0.999]), -1, 1, True, False),
    (build_blaschke([0.1, 0.2, 0.9]), -3, 1, True, False),
    (build_blaschke_general([0.4 + 0.3j]), -1, 1, False, False),
    (build_blaschke_general([0.4 + 0.3j, -0.6, 0.2 - 0.5j]), -3, 1, False, False),
    (build_blaschke_general([-0.05]), -1, -1, True, False),
    (build_blaschke_general([0.5, 0.5j]), -2, 1, False, False),
    (build_blaschke_general([-0.999]), -1, -1, True, False),
    (build_blaschke_general([0.999j]), -1, -1, False, False),
    (build_from_callable(np.sin, label="sin"), 0, -1, True, False),
    (build_from_callable(lambda t: t, label="identity"), 1, 1, True, False),
    (build_from_callable(build_blaschke([0.9]).h, label="callable[0.9]"), -1, 1, True, False),
]
DECLARED_IDS = [p.label for p, *_ in DECLARED]


@pytest.mark.parametrize("phase, winding_k, sign, odd, even", DECLARED, ids=DECLARED_IDS)
def test_winding_and_sign_are_read_off_the_phase(phase, winding_k, sign, odd, even):
    """Each builder's phase, and its normalization, reads the winding and
    sign of the table; normalizing negates the winding of a phase with
    h'' < 0 and leaves any other alone."""
    assert (phase.winding_k, phase.sign) == (winding_k, sign)
    norm = phase.normalized()
    assert (norm.winding_k, norm.sign) == (sign * winding_k, 1)
    assert type(phase.winding_k) is int


@pytest.mark.parametrize("phase, winding_k, sign, odd, even", DECLARED, ids=DECLARED_IDS)
def test_parity_is_read_off_the_phase(phase, winding_k, sign, odd, even):
    """Each builder's phase, and its normalization, reads the parity of
    the table: negating h keeps it."""
    assert (phase.odd, phase.even) == (odd, even)
    norm = phase.normalized()
    assert (norm.odd, norm.even) == (odd, even)


def test_conjugate_zeros_make_an_odd_phase():
    """A zero set closed under conjugation gives h(-t) = -h(t), so its
    phase reads odd and takes the half routes."""
    phase = build_blaschke_general([0.4 + 0.3j, 0.4 - 0.3j])
    assert phase.odd and not phase.even


def test_winding_read_that_is_not_finite_names_the_phase():
    phase = build_from_callable(lambda t: np.where(np.abs(t) == np.pi, np.nan, np.sin(t)))
    with pytest.raises(DomainError, match=r"h\(pi\) - h\(-pi\) of 'custom' is not finite"):
        phase.winding_k


def test_blaschke_winding_matches_zero_count():
    assert build_blaschke([0.5]).winding_k == -1
    assert build_blaschke([0.3, 0.7]).winding_k == -2


def test_normalized_flips_sign():
    norm = build_sine().normalized()
    assert norm.sign == 1
    t = np.linspace(0.2, 2.9, 9)
    assert np.all(norm.d2(t) > 0.0)
    lo, hi = norm.d1(np.asarray(0.0)), norm.d1(np.asarray(math.pi))
    assert float(lo) == pytest.approx(-1.0, abs=1e-15)
    assert float(hi) == pytest.approx(1.0, abs=1e-15)


def test_slope_range():
    m1, m2 = build_sine().slope_range()
    assert (m1, m2) == pytest.approx((-1.0, 1.0), abs=1e-12)
    b1, b2 = build_blaschke([0.5]).slope_range()
    # h' = -(1 - a^2) / (1 + a^2 - 2 a cos t): extremes at t = 0, pi
    assert b1 == pytest.approx(-3.0, abs=1e-12)
    assert b2 == pytest.approx(-1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize(
    "phase,ok",
    [
        (build_sine(), True),
        (build_blaschke([0.5]), True),
        (build_blaschke([0.3, 0.7]), True),
        (build_linear(2), False),
        (build_piecewise_abs(), False),
        (build_blaschke_general([0.4 + 0.3j]), False),
    ],
    ids=lambda v: v.label if isinstance(v, PhaseFunction) else str(v),
)
def test_validate(phase, ok):
    assert validate(phase).passed is ok


def test_validate_checks_oddness():
    """The theorem assumes an odd h, so validate checks oddness on every
    phase: the even abs fails it, with the defect in the note, while sine
    and [0.3,0.7] pass it without a note."""
    report = validate(build_piecewise_abs())
    assert not report.symmetry_ok and not report.passed
    assert "h is not odd: h(-t)+h(t) reaches 6.283e+00" in report.messages
    for phase in (build_sine(), build_blaschke([0.3, 0.7])):
        report = validate(phase)
        assert report.symmetry_ok and report.passed
        assert not any("odd" in m for m in report.messages)


def test_require_valid_refuses_a_phase_that_is_not_odd():
    """-sin t - 0.025 cos 2t has winding 0 and h'' = sin t + 0.1 cos 2t > 0
    on (0, pi), so oddness is the only check it fails."""
    phase = build_from_callable(lambda t: -np.sin(t) - 0.025 * np.cos(2.0 * t))
    report = validate(phase)
    assert not report.symmetry_ok
    assert report.periodicity_ok and report.sign_ok
    assert report.regularity_0_ok and report.regularity_pi_ok
    with pytest.raises(DomainError, match="h is not odd"):
        require_valid(phase)


def test_validate_checks_the_winding():
    """h(pi) - h(-pi) = pi rounds to winding 0, which h(t + 2 pi) - h(t) =
    pi then misses: the read rounds, validate reports."""
    phase = build_from_callable(lambda t: 0.5 * t)
    assert phase.winding_k == 0
    report = validate(phase)
    assert not report.periodicity_ok and not report.passed
    assert any(m.startswith("h(t+2pi) - h(t) deviates from 2pi*0") for m in report.messages)


def test_require_valid_raises_with_reasons():
    with pytest.raises(WnlError, match="fails validation"):
        require_valid(build_linear(1))


@pytest.mark.parametrize(
    "phase, changes",
    [
        (build_blaschke_general([0.4 + 0.3j, -0.6, 0.2 - 0.5j]), 6),
        (build_blaschke_general([0.5, 0.5j]), 4),
        (build_blaschke_general([0.9, -0.9]), 4),
        (build_sine(), 2),
        (build_blaschke([0.3, 0.7]), 2),
        (build_blaschke_general([0.4 + 0.3j]), 2),
    ],
    ids=lambda v: getattr(v, "label", v),
)
def test_curvature_sign_changes_are_counted(phase, changes):
    """h'' vanishes zeros.size times around the circle, at zeros ascending
    in [0, 2 pi), and its sign bit flips across each zero's neighbouring
    floats; on the circle the float below 0 is the one below 2 pi."""
    zeros = _curvature_zeros(phase)
    assert zeros.size == changes
    assert np.all(np.diff(zeros) > 0.0)
    assert zeros[0] >= 0.0 and zeros[-1] < 2.0 * np.pi
    below = np.signbit(phase.d2(np.nextafter(np.where(zeros == 0.0, 2.0 * np.pi, zeros), 0.0)))
    at = np.signbit(phase.d2(zeros))
    above = np.signbit(phase.d2(np.nextafter(zeros, np.inf)))
    assert np.all((below != at) | (at != above))


@pytest.mark.parametrize("a, b", [(0.9990, 0.9995), (2.5, 2.5003)])
def test_curvature_zeros_apart_by_less_than_the_old_scan_spacing(a, b):
    """h'' = (t - a)(t - b) vanishes twice within 1.5e-3 rad, the spacing of
    the 4097-point scan that once found neither zero; the circle table,
    2 pi / 32768 apart, brackets each zero, and bisection pins it to its
    neighbouring floats."""
    phase = PhaseFunction(np.sin, np.cos, lambda t: (t - a) * (t - b), "two-close-zeros")
    zeros = _curvature_zeros(phase)
    assert zeros.size == 2
    assert np.all(np.abs(zeros - [a, b]) <= np.spacing([a, b]))


def test_slope_range_refuses_a_slope_that_is_not_finite_at_a_zero():
    """h' is finite on every table point but nan at t = 1, a zero of h''
    between two of them: the slope range reads h' there and refuses."""
    phase = PhaseFunction(
        np.sin,
        lambda t: np.where(np.abs(t - 1.0) < 1e-9, np.nan, np.cos(t)),
        lambda t: (t - 1.0) * (t - 2.0),
        "nan-slope-at-a-zero",
    )
    with pytest.raises(DomainError, match="not finite at the zeros"):
        phase.slope_range()


@pytest.mark.parametrize("phase", [build_piecewise_abs(), build_linear(2)], ids=lambda p: p.label)
def test_curvature_sign_changes_need_curvature(phase):
    """h'' vanishes on the whole circle: its signs say nothing."""
    assert _curvature_zeros(phase) is None


@pytest.mark.parametrize(
    "phase",
    [build_sine()]
    + [build_blaschke(a) for a in ([0.3, 0.7], [0.5], [0.9], [0.99], [0.3, 0.5, 0.7])],
    ids=lambda p: p.label,
)
def test_odd_slope_range_is_the_slope_at_zero_and_pi(phase):
    """h'' > 0 on (0, pi) and odd puts the extremes of h' at 0 and pi,
    where h'' vanishes; the slope range is h' there, to the bit."""
    norm = phase.normalized()
    assert norm.slope_range() == tuple(float(norm.d1(np.asarray(t))) for t in (0.0, np.pi))


def test_psi_is_arccos_for_sine():
    phase = build_sine()
    for u in (-0.9, -0.25, 0.0, 0.6):
        assert psi(phase, u) == pytest.approx(math.acos(u), abs=1e-11)


@pytest.mark.parametrize("bad", [-1.0, 1.0, -1.5, 37.0])
def test_psi_rejects_unattained_slopes(bad):
    with pytest.raises(DomainError):
        psi(build_sine(), bad)


def _sine_with_a_nan(derivative: str) -> PhaseFunction:
    """sine, with its h' or its h'' (``derivative`` "d1" or "d2") nan on 1 < |t| < 1.2."""
    sine = build_sine()
    clean = getattr(sine, derivative)

    def holed(t):
        return np.where((1.0 < np.abs(t)) & (np.abs(t) < 1.2), np.nan, clean(t))

    return dataclasses.replace(sine, label=f"sine-nan-{derivative}", **{derivative: holed})


def test_slope_inverse_refuses_a_slope_that_is_not_finite():
    """validate reads no h', so a sine whose h' is nan on 1 < |t| < 1.2
    passes it.  The inverse slope table then refuses it, so psi no longer
    gives 1.0 where arccos(0.3) is 1.2661 and the final step no longer a
    middle of 1.14003 where sine's is 1.15903; the slope route no longer
    runs its quadrature into QuadratureBudgetError.  A raise is not kept,
    so the second call raises too."""
    bad = _sine_with_a_nan("d1")
    assert validate(bad).passed
    match = r"h' or h'' of '-\(sine-nan-d1\)' is not finite on the circle"
    for call in (
        lambda: psi(bad, 0.3),
        lambda: psi(bad, 0.1),
        lambda: final_step_report(bad, 1000, eps=0.2),
        lambda: asymptotic_limit_slope_route(bad),
    ):
        with pytest.raises(DomainError, match=match):
            call()
    with pytest.raises(DomainError, match="not finite"):
        stationary_comparison(bad, 1000.0)


def test_validate_counts_curvature_that_is_not_finite():
    """A nan h'' is not positive: a sine whose h'' is nan on 1 < |t| < 1.2
    fails the sign check at the 16 samples there, where the count read
    0/254."""
    report = validate(_sine_with_a_nan("d2"))
    assert not report.sign_ok and not report.passed
    assert "sign*h'' fails to stay positive on (0, pi) at 16/254 samples" in report.messages
    abs_report = validate(build_piecewise_abs())
    assert "sign*h'' fails to stay positive on (0, pi) at 254/254 samples" in abs_report.messages


@given(u=st.floats(-0.999, 0.999))
@settings(max_examples=60)
def test_psi_round_trip(u):
    phase = build_sine()
    t = psi(phase, u)
    assert abs(float(phase.d1(np.asarray(t))) - u) < 1e-10


@given(u=st.floats(-2.95, -0.35))
@settings(max_examples=40)
def test_psi_round_trip_blaschke(u):
    phase = build_blaschke([0.5])
    assume(-3.0 + 1e-3 < u < -1.0 / 3.0 - 1e-3)
    t = psi(phase, u)
    assert abs(float(phase.d1(np.asarray(t))) - u) < 1e-10


@pytest.mark.parametrize("route", [psi, legendre])
@pytest.mark.parametrize(
    "phase",
    [build_piecewise_abs(), build_blaschke_general([0.4 + 0.3j])],
    ids=lambda p: p.label,
)
def test_slope_inverse_refuses_curvature_of_both_signs(phase, route):
    """The sawtooth's h' is +-1 and never takes the slope 0.5; a complex
    zero makes h'' change sign inside (0, pi), so h' takes some slopes
    twice.  Neither phase has an inverse slope to read."""
    with pytest.raises(DomainError, match="fails validation"):
        route(phase, 0.5)


def test_legendre_sine_closed_form():
    """For h = sin: x psi - h(psi) = x arccos(x) - sqrt(1 - x^2)."""
    phase = build_sine()
    for u in (-0.8, -0.1, 0.45):
        expect = u * math.acos(u) - math.sqrt(1.0 - u * u)
        assert legendre(phase, u) == pytest.approx(expect, abs=1e-11)


def _bisect_slope(norm, targets):
    """The former inverse: 60 bisection sweeps of [0, pi], then 2 Newton steps."""
    lo_val = float(norm.d1(np.asarray(0.0)))
    hi_val = float(norm.d1(np.asarray(np.pi)))
    targets = np.clip(targets, lo_val, hi_val)
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = norm.d1(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(2):
        df = norm.d2(t)
        safe = df > 0.0
        stepv = np.where(safe, (norm.d1(t) - targets) / np.where(safe, df, 1.0), 0.0)
        t = np.clip(t - stepv, lo, hi)
    return t


def _slope_ends(norm):
    return float(norm.d1(np.asarray(0.0))), float(norm.d1(np.asarray(np.pi)))


_INVERSE_PHASES = [
    build_sine(),
    build_blaschke([0.3, 0.7]),
    build_blaschke([0.5]),
    build_blaschke([0.1, 0.2, 0.95]),
    build_from_callable(np.sin),
]


@pytest.mark.parametrize("phase", _INVERSE_PHASES, ids=lambda p: p.label)
def test_inverse_slope_matches_bisection(phase):
    """Residual at most twice the bisection's; monotone; inside [0, pi]."""
    norm = require_valid(phase)
    lo_val, hi_val = _slope_ends(norm)
    u = np.linspace(lo_val, hi_val, 50_002)[1:-1]
    t = _invert_increasing_slope(norm, u)
    ref = _bisect_slope(norm, u)
    residual = np.max(np.abs(norm.d1(t) - u))
    assert residual <= 2.0 * np.max(np.abs(norm.d1(ref) - u))
    assert np.all(np.diff(t) >= 0.0)
    assert 0.0 <= t[0] and t[-1] <= np.pi


@pytest.mark.parametrize("phase", _INVERSE_PHASES, ids=lambda p: p.label)
def test_inverse_slope_rejects_unattained_targets(phase):
    norm = require_valid(phase)
    lo_val, hi_val = _slope_ends(norm)
    width = hi_val - lo_val
    for bad in (lo_val - 1e-6 * width, hi_val + 1e-6 * width):
        with pytest.raises(DomainError):
            _invert_increasing_slope(norm, np.array([0.5 * (lo_val + hi_val), bad]))


def test_inverse_slope_is_pure_per_target():
    """Splitting or reversing the target array changes no bit of any root."""
    norm = require_valid(build_blaschke([0.3, 0.7]))
    lo_val, hi_val = _slope_ends(norm)
    u = np.linspace(lo_val, hi_val, 2001)
    whole = _invert_increasing_slope(norm, u)
    pieces = [_invert_increasing_slope(norm, u[i : i + 7]) for i in range(0, u.size, 7)]
    assert np.array_equal(whole, np.concatenate(pieces))
    assert np.array_equal(whole, _invert_increasing_slope(norm, u[::-1])[::-1])


def test_inverse_slope_matches_mpmath_roots():
    norm = require_valid(build_blaschke([0.3, 0.7]))
    u = np.array(list(BLASCHKE_37_SLOPE_ROOTS))
    t = _invert_increasing_slope(norm, u)
    expect = np.array(list(BLASCHKE_37_SLOPE_ROOTS.values()))
    assert np.max(np.abs(t - expect)) <= 1e-14


def test_inverse_slope_evaluation_count():
    """At most 10 points of d1 and d2 per final-step target, plus the table.

    The targets are every k/n over the central window of the Blaschke
    [0.3, 0.7] partition at n = 65536, which the final-step strips cover.
    A one-target call costs the table and the range check, so the points
    beyond it are the per-target work.
    """
    norm = require_valid(build_blaschke([0.3, 0.7]))
    n = 65536
    part = partition_terms(norm, float(n))
    ks = np.arange(math.ceil(part.alpha_n * n), math.floor(part.beta_n * n) + 1)
    points = []

    def counted(f):
        def g(t):
            points.append(np.size(t))
            return f(t)

        return g

    counting = dataclasses.replace(norm, d1=counted(norm.d1), d2=counted(norm.d2))
    _invert_increasing_slope(counting, ks[:1] / n)
    fixed = sum(points)
    points.clear()
    t = _invert_increasing_slope(counting, ks / n)
    assert np.array_equal(t, _invert_increasing_slope(norm, ks / n))
    assert sum(points) - fixed <= 10 * (ks.size - 1)



def _points_beyond_table(norm, targets):
    """Points of d1 and d2 per target beyond a one-target call's cost."""
    points = []

    def counted(f):
        def g(t):
            points.append(np.size(t))
            return f(t)

        return g

    counting = dataclasses.replace(norm, d1=counted(norm.d1), d2=counted(norm.d2))
    _invert_increasing_slope(counting, targets[:1])
    fixed = sum(points)
    points.clear()
    _invert_increasing_slope(counting, targets)
    return (sum(points) - fixed) / (targets.size - 1)


@pytest.mark.parametrize(
    "phase,bound",
    [
        (build_sine(), 3.5),
        (build_blaschke([0.3, 0.7]), 3.5),
        (build_blaschke([0.1, 0.2, 0.95]), 6.0),
        (build_from_callable(np.sin), 6.0),
    ],
    ids=lambda v: getattr(v, "label", str(v)),
)
def test_inverse_slope_settles_early(phase, bound):
    """The Hermite seed leaves most targets one Newton step from done.

    Over 50,000 targets across the slope range.  The two noisy phases
    (a zero at 0.95; finite-difference derivatives) need the floor taken
    from the table's measured noise, or they bisect to a collapsed
    bracket.
    """
    norm = require_valid(phase)
    lo_val, hi_val = _slope_ends(norm)
    u = np.linspace(lo_val, hi_val, 50_002)[1:-1]
    assert _points_beyond_table(norm, u) <= bound


@pytest.mark.parametrize(
    "phase", [build_sine(), build_blaschke([0.3, 0.7])], ids=lambda p: p.label
)
def test_inverse_slope_settles_early_on_final_step_targets(phase):
    """Every k/n of the central range at n = 65536, as final_step_report
    inverts them, costs at most 3.5 points of d1 and d2 each."""
    norm = require_valid(phase)
    n = 65536
    central = partition_terms(norm, float(n)).central_range()
    ks = np.arange(central.start, central.stop)
    assert _points_beyond_table(norm, ks / n) <= 3.5


@pytest.mark.parametrize(
    "phase, n, calls",
    [
        (build_blaschke([0.3, 0.7]), 65536, 7),
        (build_blaschke([0.3, 0.7]), 1000, 5),
        (build_sine(), 9000, 2),
    ],
    ids=["blaschke[0.3,0.7]-65536", "blaschke[0.3,0.7]-1000", "sine-9000"],
)
def test_inverse_slope_ends_a_newton_2_cycle(monkeypatch, phase, n, calls):
    """Some [0.3, 0.7] targets carry g' noise of twice the table's estimate;
    from either end of their last bracket (1.5e-14 wide, f = +-1.4e-14)
    the Newton step lands exactly on the other end.  Such a target is done
    at the first landing instead of cycling to the 64-step cap: the
    central targets take 7 Newton steps at n = 65536 and 5 at n = 1000,
    where cycling ran to the cap.  Every root stays within 4 noise of its
    target in g'."""
    norm = require_valid(phase)
    central = partition_terms(norm, float(n)).central_range()
    u = np.arange(central.start, central.stop) / n
    steps = []
    newton_step = wnl.phase._newton_step

    def counted(*args):
        steps.append(args[2].size)
        return newton_step(*args)

    monkeypatch.setattr(wnl.phase, "_newton_step", counted)
    t = _invert_increasing_slope(norm, u)
    assert len(steps) == calls
    noise = _slope_table(norm)[3]
    assert np.max(np.abs(norm.d1(t) - u)) <= 4.0 * noise


def test_every_slope_inversion_gets_one_block(monkeypatch):
    """The inverse runs all its targets through each step at once, so its
    callers block: no library call hands it more than one _quad._BLOCK of
    targets, so the final step's 892,137 central indices at 2^17 take
    several calls."""
    sizes = []
    invert = wnl.phase._invert_increasing_slope

    def recorded(norm, targets):
        sizes.append(targets.size)
        return invert(norm, targets)

    for module in (wnl.phase, wnl.stationary, wnl.asymptotics):
        monkeypatch.setattr(module, "_invert_increasing_slope", recorded)
    blaschke = build_blaschke([0.3, 0.7])
    runs = {
        "final step": lambda: final_step_report(blaschke, 2**17),
        "comparison": lambda: stationary_comparison(build_sine(), 9000.0),
        "slope route": lambda: asymptotic_limit_slope_route(blaschke),
        "psi": lambda: psi(blaschke, -3.0),
    }
    counts = {}
    for name, run in runs.items():
        sizes.clear()
        run()
        assert sizes and max(sizes) <= _BLOCK, name
        counts[name] = len(sizes)
    assert counts["final step"] >= 2
    assert counts["psi"] == 1


@pytest.mark.parametrize(
    "phase", [build_sine(), build_blaschke([0.3, 0.7])], ids=lambda p: p.label
)
def test_inverse_slope_noise_floor_of_analytic_phases(phase):
    """Measured table noise stays below 8 ulps of max|g'| here, so the
    floor, and every root that hinges on it, is the rounding floor."""
    _, table, _, noise = _slope_table(require_valid(phase))
    assert noise == 8.0 * np.spacing(np.max(np.abs(table)))


@pytest.mark.parametrize("phase", _INVERSE_PHASES, ids=lambda p: p.label)
def test_inverse_slope_inside_the_end_intervals(phase):
    """Targets inside the first and the last table interval.

    g'' vanishes at 0 and pi for odd phases, so the cubic seed falls
    back to the linear one there, and a noise floor over a vanishing
    g'' must not end Newton early.  The roots meet the residual bound
    of test_inverse_slope_matches_bisection (twice the bisection's, over
    the same 50,000 targets) and stay in their interval.
    """
    norm = require_valid(phase)
    lo_val, hi_val = _slope_ends(norm)
    u = np.linspace(lo_val, hi_val, 50_002)[1:-1]
    bound = 2.0 * np.max(np.abs(norm.d1(_bisect_slope(norm, u)) - u))
    d = np.pi / (_CIRCLE_GRID // 2)
    for ts in (np.linspace(0.0, d, 13)[1:-1], np.linspace(np.pi - d, np.pi, 13)[1:-1]):
        u = norm.d1(ts)
        t = _invert_increasing_slope(norm, u)
        assert np.max(np.abs(norm.d1(t) - u)) <= bound
        assert np.all(ts[0] - d <= t) and np.all(t <= ts[-1] + d)

def test_modulus_bounds_for_sine():
    phase = build_sine()
    # |sin' | <= 1 makes omega(delta) <= delta; a window containing a
    # full arch from 0 reaches at least sin(delta)
    for delta in (0.01, 0.1, 0.5):
        om = modulus_of_continuity(phase, delta)
        assert math.sin(delta) - 1e-6 <= om <= delta + 1e-9


@given(d1=st.floats(0.02, 3.0), d2=st.floats(0.02, 3.0))
@settings(max_examples=40)
def test_modulus_monotone(d1, d2):
    phase = build_blaschke([0.5])
    lo, hi = sorted((d1, d2))
    assert modulus_of_continuity(phase, lo) <= modulus_of_continuity(phase, hi) + 1e-12


@pytest.mark.parametrize("delta", [0.0, 4.0])
def test_modulus_rejects_delta_outside_zero_pi(delta):
    with pytest.raises(DomainError, match="delta must lie in"):
        modulus_of_continuity(build_sine(), delta)


def test_modulus_rejects_unresolvable_delta(monkeypatch):
    monkeypatch.setattr(wnl.phase, "_CIRCLE_GRID", 2 * 128 + 1)
    with pytest.raises(DomainError):
        modulus_of_continuity(build_sine(), 1e-6)


def test_choose_phi_frozen_value(monkeypatch):
    monkeypatch.setattr(wnl.phase, "_CIRCLE_GRID", 2**17 + 1)
    phi = choose_phi(build_sine(), 1e6)
    assert phi == pytest.approx(PHI_SINE_1E6, abs=1e-6)


def test_partition_reaches_past_the_unit_floor(monkeypatch):
    """Above n = 1.70e6 the bisection starts at four grid spacings of delta,
    so sine at 4e6 partitions, with the Phi of a 65537-point half circle."""
    part = partition_terms(build_sine(), 4e6)
    monkeypatch.setattr(wnl.phase, "_CIRCLE_GRID", 2**17 + 1)
    assert part.phi == pytest.approx(choose_phi(build_sine(), 4e6), abs=1e-6)
    assert part.delta >= 4.0 * math.pi / 16384


def _window_extrema(f, length, maximum):
    """Rolling max (or min) over every length-``length`` window, in O(n).

    Block prefix/suffix scans: any window of that exact length spans at
    most two consecutive blocks, so its extreme is the suffix scan of
    the first block joined with the prefix scan of the second.
    """
    ufunc = np.maximum if maximum else np.minimum
    fill = -np.inf if maximum else np.inf
    n = f.size
    pad = (-n) % length
    fp = np.concatenate([f, np.full(pad, fill)]) if pad else f
    blocks = fp.reshape(-1, length)
    pref = ufunc.accumulate(blocks, axis=1).ravel()
    suff = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return ufunc(suff[: n - length + 1], pref[length - 1 : n])


def _block_scan_range(f, width):
    """max over i of (max - min) of f[i : i + width + 1], by block scans."""
    length = min(width, f.size - 1) + 1
    hi = _window_extrema(f, length, maximum=True)
    lo = _window_extrema(f, length, maximum=False)
    return float(np.max(hi - lo))


def _block_scan_omega(samples, spacing, delta):
    """omega(delta) interpolated between the block-scan ranges at the two
    integer widths around delta / spacing."""
    w = delta / spacing
    w0 = int(math.floor(w))
    frac = w - w0
    lo = _block_scan_range(samples, max(w0, 1))
    if frac == 0.0 or w0 + 1 >= samples.size:
        return lo
    hi = _block_scan_range(samples, w0 + 1)
    return lo + frac * (hi - lo)


@pytest.mark.parametrize("size", [256, 300])
def test_doubling_table_range_matches_block_scan(size):
    """Every window width, 2^k +- 1 and widths of n - 1 and above included."""
    samples = np.random.default_rng(size).standard_normal(size)
    curvature = _Curvature(samples, {})
    for width in range(1, size + 6):
        assert curvature.window_range(width) == _block_scan_range(samples, width)


def _plain_choose_phi(phase, n, grid_size=16385):
    """The 80-step bisection with every omega scanned afresh."""
    spacing = np.pi / (grid_size - 1)
    samples = phase.d2(np.linspace(0.0, np.pi, grid_size))

    def product(p):
        return _block_scan_omega(samples, spacing, p / math.sqrt(n)) * p**4

    upper = n**0.25
    if product(upper) <= 1.0:
        return upper
    if product(1.0) >= 1.0:
        return 1.0
    lo, hi = 1.0, upper
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if product(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("phase", [build_sine(), build_blaschke([0.3, 0.7])])
@pytest.mark.parametrize("n", [2.0, 1000.0, 1e6])
def test_choose_phi_memo_is_bit_identical(phase, n):
    assert choose_phi(phase, n) == _plain_choose_phi(phase, n)


@pytest.mark.parametrize(
    "phase, bisected",
    [(build_sine(), 60), (build_blaschke([0.3, 0.7]), 23), (build_blaschke([0.5]), 41)],
    ids=lambda v: getattr(v, "label", str(v)),
)
def test_phi_bisection_stops_at_neighbouring_floats(phase, bisected):
    """choose_phi bisects until its bracket ends are neighbouring floats.
    A fixed 80 midpoints, the reference here, gives the same Phi bit for
    bit: past that point a midpoint is one of the ends, so neither moves.
    Checked at every n of the ladder whose root lies inside [1, n^(1/4)]."""
    norm = require_valid(phase)
    curvature = _curvature(norm)
    count = 0
    for n in np.geomspace(2.0, 1.6e6, 60).tolist():
        sqrt_n = math.sqrt(n)

        def product(p):
            return curvature.omega(p / sqrt_n) * p**4

        lo, hi = 1.0, n**0.25
        if product(hi) <= 1.0 or product(lo) >= 1.0:
            continue  # a clamp, not a bisection
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if product(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert choose_phi(norm, n) == 0.5 * (lo + hi)
        count += 1
    assert count == bisected


def test_partition_samples_curvature_once():
    """Past validation, which samples h'' on grids of its own, a partition
    samples h'' once: the circle table, in its two half calls, whose
    [0, pi] half is the curvature profile that Phi and omega share."""
    norm = require_valid(build_sine())
    sizes = []

    def d2(t):
        sizes.append(np.size(t))
        return norm.d2(t)

    counting = dataclasses.replace(norm, d2=d2)
    require_valid(counting)
    sizes.clear()
    partition_terms(counting, 1000.0)
    assert sizes == [16385, 16384]


@pytest.mark.parametrize(
    "run, partitions",
    [
        (lambda: convergence_study(build_sine(), [128, 256, 512]), 3),
        (lambda: stationary_comparison(build_sine(), 300.0), 1),
        (lambda: final_step_report(build_blaschke([0.3, 0.7]), 1000), 1),
    ],
    ids=["convergence_study", "stationary_comparison", "final_step_report"],
)
def test_callers_reach_phi_and_omega_through_the_public_functions(monkeypatch, run, partitions):
    """Each partition a study, a comparison or a final-step split builds
    takes Phi from wnl.phase.choose_phi and omega from
    modulus_of_continuity, one call each."""
    calls = []
    for name in ("choose_phi", "modulus_of_continuity"):

        def counted(*args, name=name, f=getattr(wnl.phase, name)):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(wnl.phase, name, counted)
    run()
    assert sorted(calls) == ["choose_phi"] * partitions + ["modulus_of_continuity"] * partitions


def test_choose_phi_clamps_for_flat_curvature():
    """The clamp's warning points at the line that called choose_phi."""
    with pytest.warns(UserWarning, match="clamping Phi") as record:
        phi = choose_phi(build_linear(1), 256.0)
    assert phi == pytest.approx(256.0**0.25)
    assert [w.filename for w in record] == [__file__]


def test_choose_phi_rejects_tiny_n():
    with pytest.raises(DomainError):
        choose_phi(build_sine(), 1.5)


@pytest.mark.parametrize("route", [choose_phi, partition_terms])
def test_infinite_n_is_not_a_resolution_error(route):
    """An infinite scale is named as such, not as a grid too coarse for it."""
    with pytest.raises(DomainError, match="n must be finite"):
        route(build_sine(), math.inf)


# ---------------------------------------------------------------------------
# Index partition
# ---------------------------------------------------------------------------


def test_partition_seams_ordered():
    part = partition_terms(build_sine(), 1000.0)
    assert -1000.0 <= part.a1 < part.a2 < part.b2 < part.b1 <= 1000.0
    assert part.delta == pytest.approx(
        min(part.phi / math.sqrt(1000.0), math.pi / 8.0)
    )


def test_partition_carries_omega_at_delta():
    phase = build_blaschke([0.3, 0.7])
    part = partition_terms(phase, 1000.0)
    assert part.omega == modulus_of_continuity(phase, part.delta)


def test_partition_accepts_real_scale():
    part = partition_terms(build_sine(), 350.5)
    assert isinstance(part, TermPartition)
    assert part.n == 350.5


def test_partition_rejects_small_n():
    with pytest.raises(DomainError):
        partition_terms(build_sine(), 1.0)


def _masks(part, nu):
    """Boolean masks over an integer index array, one per class, read off
    the partition's cuts."""
    cls = np.searchsorted(part.cuts, np.asarray(nu), side="right")
    return {
        "external": (cls == 0) | (cls == 4),
        "periphery_left": cls == 1,
        "central": cls == 2,
        "periphery_right": cls == 3,
    }


@given(n=st.one_of(st.integers(64, 4096), st.floats(64.0, 4096.0)))
@settings(max_examples=30, deadline=None)
def test_partition_masks_are_a_partition(n):
    """Every index lands in exactly one of the five mask classes."""
    part = partition_terms(build_sine(), float(n))
    nu = np.arange(-int(float(n)) - 80, int(float(n)) + 81)
    masks = _masks(part, nu)
    stack = np.stack(list(masks.values()))
    counts = np.sum(stack, axis=0)
    assert np.all(counts == 1)


_CLASS_ORDER = ["external", "periphery_left", "central", "periphery_right", "external"]


def _assert_classes_in_order(part):
    """Along consecutive nu the classes run external, periphery_left,
    central, periphery_right, external, each a contiguous run (the
    periphery and central runs may be empty), and the central run is
    exactly central_range()."""
    nu = np.arange(math.floor(part.a1) - 5, math.ceil(part.b1) + 6)
    masks = _masks(part, nu)
    names = [next(k for k, m in masks.items() if m[i]) for i in range(nu.size)]
    runs = [k for i, k in enumerate(names) if i == 0 or names[i - 1] != k]
    assert names[0] == names[-1] == "external"
    it = iter(_CLASS_ORDER)
    assert all(k in it for k in runs), runs  # runs are a subsequence of the order
    assert nu[masks["central"]].tolist() == list(part.central_range())
    external = (nu <= part.a1) | (nu >= part.b1)
    assert np.array_equal(masks["external"], external)
    central = ~external & (part.a2 <= nu) & (nu <= part.b2)
    assert np.array_equal(masks["central"], central)


@given(n=st.integers(64, 4096))
@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize(
    "phase", [build_sine(), build_blaschke([0.5])], ids=lambda p: p.label
)
def test_partition_classes_come_in_order(phase, n):
    part = partition_terms(phase, float(n))
    assert len(part.central_range()) > 0
    _assert_classes_in_order(part)


@pytest.mark.filterwarnings("ignore:omega.*clamping Phi")
@pytest.mark.parametrize(
    "phase, left, right",
    [(build_blaschke([0.9]), 35, 0), (build_blaschke_general([-0.05]), 0, 0)],
    ids=["split-periphery", "crossed-seams"],
)
def test_partition_classes_come_in_order_with_empty_central_window(phase, left, right):
    """At n = 2 the central window can hold no integer; the periphery is
    then split at the midpoint of [a2, b2].  For a phase with a narrow
    slope range the two external seams can even cross, in which case
    every index is external."""
    part = partition_terms(phase, 2.0)
    assert len(part.central_range()) == 0
    _assert_classes_in_order(part)
    masks = _masks(part, np.arange(-40, 41))
    assert masks["periphery_left"].sum() == left
    assert masks["periphery_right"].sum() == right


def test_build_from_callable_detects_structure():
    phase = build_from_callable(lambda t: np.sin(t), label="resampled")
    assert phase.odd
    assert phase.sign == -1
    t = np.linspace(0.4, 2.7, 7)
    assert np.max(np.abs(phase.d1(t) - np.cos(t))) < 1e-8
