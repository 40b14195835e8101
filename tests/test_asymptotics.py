"""Limit integrals, convergence studies, and the closing Riemann-sum pieces."""

import dataclasses
import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import wnl.asymptotics
from wnl.asymptotics import (
    asymptotic_limit,
    asymptotic_limit_slope_route,
    convergence_study,
    final_step_report,
    full_circle_reference,
    truncated_riemann,
)
from wnl.errors import DomainError, PeriodicityError, QuadratureBudgetError, WnlError
from wnl.phase import (
    PhaseFunction,
    _invert_increasing_slope,
    build_blaschke,
    build_blaschke_general,
    build_from_callable,
    build_linear,
    build_sine,
    require_valid,
)
from wnl.specfun import girard_value
from wnl.spectrum import coefficient_quadrature, compute_spectrum, scaled_norm
from wnl.stationary import stationary_comparison

L_SINE = 1.2171884777994833275  # 16 / Gamma(1/4)^2
L_HALF = 1.25133889276404441  # one zero at 0.5
L_PAIR = 1.87867627073246121  # zeros at 0.3 and 0.7
SQRT_8_OVER_PI = 1.5957691216057308  # limit value for constant curvature 1

# final_step_report(phase, n, eps=0.2) pieces (edge_left, middle,
# edge_right, limit_piece) from the 60-step bisection inverse; the
# bracketed Newton inverse must reproduce them to rounding.
FINAL_STEP_PIECES = {
    "sine": (
        6400,
        (
            0.03967937035221762,
            1.1552415583765687,
            0.03967937035221749,
            1.15669853388257,
        ),
    ),
    "blaschke[0.3,0.7]": (
        4096,
        (
            0.3748409548937269,
            1.6072961575704356,
            0.022709158332639312,
            1.6063923335197283,
        ),
    ),
}


@pytest.mark.parametrize(
    "phase,want",
    [
        (build_sine(), L_SINE),
        (build_blaschke([0.5]), L_HALF),
        (build_blaschke([0.3, 0.7]), L_PAIR),
    ],
    ids=lambda v: v.label if hasattr(v, "label") else str(v),
)
def test_limit_frozen_values(phase, want):
    assert asymptotic_limit(phase, tol=1e-11) == pytest.approx(want, abs=1e-10)


def test_two_quadrature_routes_agree():
    for phase in (build_sine(), build_blaschke([0.5]), build_blaschke([0.3, 0.7])):
        t_route = asymptotic_limit(phase, tol=1e-11)
        u_route = asymptotic_limit_slope_route(phase)
        assert t_route == pytest.approx(u_route, abs=1e-8)


def test_limit_on_synthetic_curvature():
    """h = t^2/2 is no phase at all, but h'' = 1 makes the integral pi.

    The wrapped callable differentiates by central differences, whose
    rounding floor on d2 is ~1e-6; the tolerance reflects that, not the
    quadrature."""
    fake = build_from_callable(lambda t: 0.5 * t * t, label="parabola")
    got = asymptotic_limit(fake, tol=1e-9)
    assert got == pytest.approx(SQRT_8_OVER_PI, abs=1e-5)


def test_limit_vanishes_for_linear_phase():
    assert asymptotic_limit(build_linear(5), tol=1e-9) == pytest.approx(0.0, abs=1e-12)


def test_full_circle_matches_half_for_odd_phases():
    for phase in (build_sine(), build_blaschke([0.5])):
        assert full_circle_reference(phase) == pytest.approx(
            asymptotic_limit(phase, tol=1e-10), abs=1e-9
        )


def test_full_circle_is_rotation_invariant():
    """Rotating a Blaschke zero must not move the conjectured limit."""
    base = full_circle_reference(build_blaschke([0.5]))
    for angle in (0.3, 1.2, 2.0):
        z = 0.5 * complex(math.cos(angle), math.sin(angle))
        rotated = full_circle_reference(build_blaschke_general([z]))
        assert rotated == pytest.approx(base, abs=1e-8)


def test_limit_splits_at_a_zero_of_curvature_inside_the_half_circle():
    """The zero 0.4+0.3j = 0.5 e^{i theta} shifts the phase of the real
    zero 0.5 by theta along the circle, so h'' vanishes at t = theta,
    inside (0, pi).  The route puts a panel edge there and meets scipy's
    quad split at the same theta.  Without the edge, successive levels
    agree while the total misses the kink by 4.8e-4."""
    from scipy.integrate import quad

    theta = math.atan2(0.3, 0.4)
    phase = build_blaschke_general([0.4 + 0.3j])

    def root_curvature(t):
        return math.sqrt(abs(float(phase.d2(np.asarray(t)))))

    pieces = [(0.0, theta), (theta, math.pi)]
    ref = sum(quad(root_curvature, a, b, epsabs=1e-12, epsrel=1e-12)[0] for a, b in pieces)
    assert asymptotic_limit(phase) == pytest.approx((2.0 / math.pi) ** 1.5 * ref, abs=1e-10)


@pytest.mark.parametrize("route", [asymptotic_limit, full_circle_reference])
def test_unresolved_interior_is_refused(route):
    """h'' = 1 + sin(200 t)/2 oscillates inside panels a quarter of [0, pi]
    wide, which the geometric levels never split: successive levels
    agree to any tol while the total is 3.3e-3 off.  Halving the interior
    panels of the settled level shows it, and the route refuses."""
    phase = dataclasses.replace(build_sine(), d2=lambda t: 1.0 + 0.5 * np.sin(200.0 * t))
    with pytest.raises(QuadratureBudgetError, match="finer mesh"):
        route(phase)


@pytest.mark.parametrize(
    "route", [asymptotic_limit, full_circle_reference, asymptotic_limit_slope_route]
)
def test_central_difference_curvature_is_within_its_noise(route):
    """build_from_callable differentiates by central differences, whose
    rounding noise on h'' moves a total by up to ~1e-6 under any change
    of mesh.  Halving the interior panels of sine's settled level moves
    it by less than the noise the route measures, so the route returns,
    close to the analytic sine's value."""
    got = route(build_from_callable(np.sin, label="sin"))
    assert got == pytest.approx(L_SINE, abs=1e-6)


def test_full_circle_reference_refines_a_narrow_end_piece():
    """Central-difference noise in h'' of the callable [0.9] puts a sign
    change just short of 2 pi, and the piece it cuts off is too narrow
    for the deepest geometric levels: their edges would fall below the
    float spacing at 2 pi.  Each piece stops refining where its end
    panels still span 8 floats, so the route ends in a value near the
    analytic one, or a WnlError, never a bare ValueError."""
    phase = build_from_callable(build_blaschke([0.9]).h)
    try:
        got = full_circle_reference(phase)
    except WnlError:
        return
    assert got == pytest.approx(full_circle_reference(build_blaschke([0.9])), abs=1e-6)


def test_study_takes_a_central_difference_phase():
    """The study asks the limit to 1e-10, below the noise of a
    central-difference h''; it completes with that noise in its limit."""
    report = convergence_study(build_from_callable(np.sin, label="sin"), [50.0, 100.0])
    assert report.limit == pytest.approx(L_SINE, abs=1e-6)
    assert len(report.rows) == 2


@pytest.mark.parametrize("route", [asymptotic_limit, full_circle_reference])
def test_nan_curvature_is_a_domain_error(monkeypatch, route):
    """h'' = nan is refused where the zeros of h'' are sought, before the
    first level: the limit routes name the phase and integrate nothing."""
    phase = dataclasses.replace(build_sine(), d2=lambda t: np.full(np.shape(t), np.nan))
    levels = []
    integrate_panels = wnl.asymptotics.integrate_panels

    def counted(*args):
        levels.append(args[1].size - 1)
        return integrate_panels(*args)

    monkeypatch.setattr(wnl.asymptotics, "integrate_panels", counted)
    with pytest.raises(DomainError, match="of 'sine' is not finite"):
        route(phase)
    assert len(levels) == 0


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------


def test_study_errors_decrease():
    report = convergence_study(build_sine(), [50.0, 100.0, 200.0])
    errs = report.errors()
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert report.limit == pytest.approx(L_SINE, abs=1e-9)
    assert report.phase_label == "-(sine)"
    for row in report.rows:
        assert row.parseval_defect < 1e-9
        assert math.isfinite(row.tail_bound)
        total = row.external_sum + row.periphery_sum + row.central_sum
        assert total == pytest.approx(row.scaled_norm * math.sqrt(row.param), rel=1e-12)


def test_study_accepts_real_ladder_for_winding_zero():
    report = convergence_study(build_sine(), [50.5, 120.25])
    assert report.rows[0].param == 50.5


@pytest.mark.parametrize(
    "params",
    [[], [100.0, 50.0], [1.0, 50.0], [100.0, 100.0]],
    ids=["empty", "decreasing", "below-two", "stalled"],
)
def test_study_rejects_bad_ladders(params):
    with pytest.raises(DomainError):
        convergence_study(build_sine(), params)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_study_rejects_non_finite_scales(bad):
    """Checked before the ladder tests, which a nan slips through."""
    with pytest.raises(DomainError, match="finite"):
        convergence_study(build_blaschke([0.5]), [bad])
    with pytest.raises(DomainError, match="finite"):
        convergence_study(build_sine(), [100.0, bad])


@pytest.mark.parametrize(
    "route", [final_step_report, stationary_comparison], ids=["final_step", "stationary"]
)
def test_infinite_scale_is_a_clean_error(route):
    with pytest.raises(DomainError, match="n must be finite"):
        route(build_sine(), math.inf)


def test_study_completes_for_a_zero_near_the_circle():
    """At alpha = 0.9 every scale 2^7..2^12 needs a widened window; the
    ladder completes, its limit is Girard's value, the scaled norm
    approaches it, and seeded coefficients match the quadrature twin."""
    phase = build_blaschke([0.9])
    params = [2.0**k for k in range(7, 13)]
    report = convergence_study(phase, params)
    assert report.limit == pytest.approx(girard_value(0.9).value, abs=1e-11)
    gaps = [abs(r.scaled_norm - report.limit) for r in report.rows]
    assert gaps[-1] < 0.5 * gaps[0]
    norm = phase.normalized()
    rng = np.random.default_rng(14)
    for n in params:
        spec = compute_spectrum(norm, n)
        for nu in rng.integers(spec.nu_min, spec.nu_max + 1, 2).tolist():
            assert abs(spec.coeff(nu) - coefficient_quadrature(norm, n, nu)) < 1e-9


def test_study_rejects_real_ladder_for_nonzero_winding():
    with pytest.raises(DomainError, match="winding"):
        convergence_study(build_blaschke([0.5]), [50.5, 100.0])


def test_study_accepts_half_integer_scales_for_even_winding():
    """[0.3, 0.7] has winding -2, so x * winding_k is an integer at every
    half-integer x: e^{ixh} is 2 pi periodic there, as compute_spectrum
    already accepts, and the study measures the same S(x)."""
    phase = build_blaschke([0.3, 0.7])
    params = [128.5, 256.0, 1024.5]
    report = convergence_study(phase, params)
    assert [r.param for r in report.rows] == params
    for row, x, frozen in zip(report.rows, params, (1.9371, 1.9251, 1.9038)):
        assert row.scaled_norm == scaled_norm(compute_spectrum(phase.normalized(), x))
        assert row.scaled_norm == pytest.approx(frozen, abs=5e-5)


def test_study_rejects_invalid_phase():
    with pytest.raises(WnlError, match="validation"):
        convergence_study(build_linear(2), [50.0, 100.0])


def test_study_refuses_a_phase_that_is_not_odd():
    """-sin t - 0.025 cos 2t passes every check but oddness.  The theorem
    does not cover it: its scaled norms head away from the [0, pi] limit
    a study would print (S(16384) = 1.2296 against L = 1.2438), so the
    study refuses it."""
    phase = build_from_callable(lambda t: -np.sin(t) - 0.025 * np.cos(2.0 * t))
    with pytest.raises(DomainError, match="h is not odd"):
        convergence_study(phase, [64.0, 128.0])


def test_report_csv_and_json(tmp_path):
    report = convergence_study(build_sine(), [50.0, 100.0])
    csv_path = tmp_path / "study.csv"
    json_path = tmp_path / "study.json"
    csv_path.write_text(report.table().csv_text())
    json_path.write_text(report.table().json_text())
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# phase_label=-(sine) limit=")
    assert lines[1] == "param,scaled_norm,abs_err,external_sum,periphery_sum,central_sum"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert float(first[0]) == 50.0
    assert float(first[1]) == report.rows[0].scaled_norm
    payload = json.loads(json_path.read_text())
    assert payload["phase_label"] == "-(sine)"
    assert payload["limit"] == report.limit
    assert len(payload["rows"]) == 2
    assert payload["rows"][1]["param"] == 100.0
    assert set(payload["rows"][0]) == {
        "param",
        "scaled_norm",
        "abs_err",
        "external_sum",
        "periphery_sum",
        "central_sum",
    }


# ---------------------------------------------------------------------------
# Riemann-sum closing pieces
# ---------------------------------------------------------------------------


def test_truncated_riemann_converges():
    """Dropping j = 0, 1 leaves a sum converging to the full integral of
    1/sqrt(u) on [0, 1], which is 2."""
    f = lambda u: 1.0 / np.sqrt(u)
    vals = [truncated_riemann(f, 0.0, 1.0, n) for n in (100, 10_000, 1_000_000)]
    errs = [abs(v - 2.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 3e-3


def test_truncated_riemann_guards():
    f = lambda u: np.asarray(u)
    with pytest.raises(DomainError):
        truncated_riemann(f, 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        truncated_riemann(f, 1.0, 1.0, 10)
    with pytest.raises(DomainError, match="integer"):
        truncated_riemann(f, 0.0, 1.0, 2.5)  # would sample f at 1.2
    assert truncated_riemann(f, 0.0, 1.0, 10.0) == truncated_riemann(f, 0.0, 1.0, 10)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(DomainError):
            truncated_riemann(lambda u: 1.0 / np.sqrt(u - 0.5), 0.0, 1.0, 10)


def test_final_step_report_tracks_limit():
    report = final_step_report(build_sine(), 6400, eps=0.1)
    assert report.edge_left >= 0.0 and report.edge_right >= 0.0
    assert report.middle > 0.0
    assert 0.0 < report.limit_piece < L_SINE
    # middle tracks its limit piece to a few percent at this scale
    assert report.middle == pytest.approx(report.limit_piece, rel=0.08)


@pytest.mark.parametrize(
    "phase", [build_sine(), build_blaschke([0.3, 0.7])], ids=lambda p: p.label
)
def test_final_step_report_frozen_pieces(phase):
    n, pieces = FINAL_STEP_PIECES[phase.label]
    r = final_step_report(phase, n, eps=0.2)
    got = (r.edge_left, r.middle, r.edge_right, r.limit_piece)
    assert got == pytest.approx(pieces, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eps", [0.1, 0.2])
@pytest.mark.parametrize(
    "phase, n",
    [(build_sine(), 6400), (build_blaschke([0.3, 0.7]), 65536)],
    ids=["sine", "blaschke[0.3,0.7]"],
)
def test_final_step_limit_piece_is_the_curvature_integral(phase, n, eps):
    """limit_piece is (2/pi)^(3/2) times the integral of sqrt(g'') over
    [eps, pi - eps], within 1e-10 of scipy's adaptive quad."""
    from scipy.integrate import quad

    norm = require_valid(phase)
    root = lambda t: math.sqrt(float(norm.d2(np.array([t]))[0]))
    ref, _ = quad(root, eps, math.pi - eps, epsabs=1e-13, epsrel=1e-13)
    got = final_step_report(phase, n, eps=eps).limit_piece
    assert abs(got - (2.0 / math.pi) ** 1.5 * ref) <= 1e-10



@pytest.mark.parametrize(
    "phase,n,eps",
    [
        (build_sine(), 6400, 0.2),
        (build_blaschke([0.3, 0.7]), 4096, 0.2),
        (build_blaschke([0.3, 0.7]), 65536, 0.1),
    ],
    ids=["sine-6400", "blaschke-4096", "blaschke-65536"],
)
def test_final_step_strips_cover_the_central_range(monkeypatch, phase, n, eps):
    """Each central index k counts in exactly one strip: the left one when
    k/n <= h'(eps), the middle when k/n <= h'(pi - eps), else the right.

    Each case has a seam with frac(n h'(seam)) > 1/2, where splitting at
    ceil(n h'(seam) + 1/2) would drop an index.
    """
    invert = wnl.stationary._invert_increasing_slope
    calls = []

    def recording(norm, targets):
        t = invert(norm, targets)
        calls.append((targets, t))
        return t

    monkeypatch.setattr(wnl.stationary, "_invert_increasing_slope", recording)
    report = final_step_report(phase, n, eps=eps)
    norm = require_valid(phase)
    central = wnl.partition_terms(norm, float(n)).central_range()
    ks = np.arange(central.start, central.stop)
    assert np.array_equal(np.concatenate([c[0] for c in calls]), ks / n)

    t = np.concatenate([c[1] for c in calls])
    left = ks / n <= float(norm.d1(np.asarray(eps)))
    right = ks / n > float(norm.d1(np.asarray(math.pi - eps)))
    middle = ~left & ~right
    vals = math.sqrt(2.0 / math.pi) / np.sqrt(norm.d2(t)) / n
    weight = np.abs(np.cos(n * norm.h(t) - ks * t + math.pi / 4.0))
    assert report.edge_left == pytest.approx(np.sum(vals[left]), rel=1e-13)
    assert report.middle == pytest.approx(np.sum((vals * weight)[middle]), rel=1e-13)
    assert report.edge_right == pytest.approx(np.sum(vals[right]), rel=1e-13)

@pytest.mark.parametrize(
    "phase, n",
    [(build_sine(), 6400), (build_blaschke([0.3, 0.7]), 4096)],
    ids=["sine-6400", "blaschke[0.3,0.7]-4096"],
)
def test_final_step_blocks_equal_whole_range_expressions(monkeypatch, phase, n):
    """In blocks of 777 indices, which divide neither the central range nor
    its strips, the four floats equal bit for bit the split computed over
    whole arrays: one slope inversion, g'' and rho over the whole range,
    and strips cut by a search over the index column."""
    monkeypatch.setattr(wnl.stationary, "_BLOCK", 777)
    eps = 0.2
    report = final_step_report(phase, n, eps=eps)

    norm = require_valid(phase)
    central = wnl.partition_terms(norm, float(n)).central_range()
    ks = np.arange(central.start, central.stop)
    t = _invert_increasing_slope(norm, ks / float(n))
    rho = float(n) * norm.h(t) - ks * t
    vals = 1.0 / np.sqrt(norm.d2(t))
    seams = [math.floor(float(norm.d1(np.asarray(e))) * n) for e in (eps, math.pi - eps)]
    cut_lo, cut_hi = np.searchsorted(ks, seams, side="right")
    assert all(c % 777 for c in (cut_lo, cut_hi, ks.size))
    mid = slice(cut_lo, cut_hi)
    vals[mid] *= np.abs(np.cos(rho[mid] + math.pi / 4.0))
    pref = math.sqrt(2.0 / math.pi)
    limit_piece = wnl.asymptotics._root_curvature_integral(
        norm, eps, math.pi - eps, 1e-10, (2.0 / math.pi) ** 1.5, "final-step limit piece"
    )
    expect = (
        float(pref * np.sum(vals[:cut_lo]) / n),
        float(pref * np.sum(vals[mid]) / n),
        float(pref * np.sum(vals[cut_hi:]) / n),
        limit_piece,
    )
    assert (report.edge_left, report.middle, report.edge_right, report.limit_piece) == expect


def test_final_step_memory_is_one_column():
    """The split keeps one 8-byte weight per central index and at most
    8 MB besides: no column of t*, g'' or rho, and no array of the slope
    inversion, spans the central range (892,137 indices here)."""
    phase = build_blaschke([0.3, 0.7])
    n = 2**17
    tracemalloc.start()
    try:
        final_step_report(phase, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    central = wnl.partition_terms(phase, float(n)).central_range()
    assert peak <= 8 * len(central) + 8_000_000


def test_final_step_report_needs_a_periodic_phase():
    """The split stands for the coefficients of e^{i n h}, which exist only
    where that is periodic: n * winding_k an integer, as for the spectrum."""
    blaschke = build_blaschke([0.5])  # winding -1
    with pytest.raises(PeriodicityError):
        final_step_report(blaschke, 1000.5, eps=0.2)
    with pytest.raises(PeriodicityError):
        stationary_comparison(blaschke, 1000.5)
    assert final_step_report(blaschke, 1000, eps=0.2).middle > 0.0
    assert final_step_report(build_sine(), 1000.5, eps=0.2).middle > 0.0  # winding 0


def test_final_step_report_eps_too_small():
    with pytest.raises(DomainError, match="eps"):
        final_step_report(build_sine(), 400, eps=0.1)


@pytest.mark.parametrize(
    "n,eps,match",
    [
        (1, 0.1, "n must be at least 2"),
        (6400, 0.0, "eps must lie"),
        (6400, math.pi / 2, "eps must lie"),
    ],
    ids=["n-1", "eps-0", "eps-half-pi"],
)
def test_final_step_report_refuses_bad_arguments(n, eps, match):
    with pytest.raises(DomainError, match=match):
        final_step_report(build_sine(), n, eps=eps)


# ---------------------------------------------------------------------------
# Phase facts are derived once per phase object
# ---------------------------------------------------------------------------

SINE_LADDER = [float(2**k) for k in range(7, 17)] + [float(2**18)]


def _counting_phase(phase: PhaseFunction) -> tuple[PhaseFunction, list[int]]:
    """A new phase with the callables of phase, recording the size of every
    h'' evaluation."""
    sizes = []

    def d2(t):
        sizes.append(np.size(t))
        return phase.d2(t)

    return PhaseFunction(phase.h, phase.d1, d2, phase.label), sizes


def test_study_samples_each_curvature_table_once():
    """Over the 11 scales of the sine ladder, the 32769-point circle table
    behind Phi, omega, the tail bounds and L is sampled once, in its two
    half calls of 16385 and 16384 points.  The phase is -sin, whose
    normalization is itself, so the limit and the spectra read one object."""
    phase, sizes = _counting_phase(require_valid(build_sine()))
    assert phase.normalized() is phase
    convergence_study(phase, SINE_LADDER)
    assert sizes.count(16385) == 1
    assert sizes.count(16384) == 1


def test_two_comparisons_build_one_slope_table():
    """sine normalizes to a new phase, built once, so both comparisons at
    x = 1000 read one inverse-slope table, the [0, pi] half of one circle
    table sampled in two half calls of 16385 and 16384 points."""
    phase, sizes = _counting_phase(build_sine())
    first = stationary_comparison(phase, 1000.0)
    second = stationary_comparison(phase, 1000.0)
    assert sizes.count(16385) == 1
    assert sizes.count(16384) == 1
    assert first.rho.tobytes() == second.rho.tobytes()


def _rows(report):
    return [tuple(float(v).hex() for v in dataclasses.astuple(r)) for r in report.rows]


@pytest.mark.parametrize("build", [build_sine, lambda: build_blaschke([0.3, 0.7])])
def test_cached_study_equals_a_fresh_one(build):
    """A study run twice on one phase object reads its kept facts the second
    time; both equal, bit for bit, a study on a fresh copy of the phase."""
    phase = build()
    ladder = [128.0, 512.0, 4096.0, 65536.0]
    first = convergence_study(phase, ladder)
    again = convergence_study(phase, ladder)
    fresh = convergence_study(dataclasses.replace(phase), ladder)
    for report in (again, fresh):
        assert report.limit.hex() == first.limit.hex()
        assert _rows(report) == _rows(first)


@pytest.mark.parametrize("build", [build_sine, lambda: build_blaschke([0.3, 0.7])])
def test_studied_phase_is_freed_by_reference_counting(build):
    """A phase keeps its derived facts, but none of them holds the phase:
    with the garbage collector off, dropping the last reference frees it.
    Blaschke [0.3, 0.7] has sign +1, so it is its own normalization; sine's
    normalization closes over sine's callables, not over sine."""
    phase = build()
    gc.collect()
    gc.disable()
    try:
        convergence_study(phase, [128.0, 256.0])
        stationary_comparison(phase, 1000.0)
        ref = weakref.ref(phase)
        del phase
        assert ref() is None
    finally:
        gc.enable()
