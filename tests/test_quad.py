"""Panel quadrature basics: exactness, the stopping rule, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wnl import _quad
from wnl._quad import _rule, integrate_panels, refine
from wnl.errors import DomainError, QuadratureBudgetError


def test_weights_sum_to_length():
    nodes, weights = _rule(np.array([0.0, 0.3, 1.7, 2.0]), 8)
    assert nodes.size == 24
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)


def test_gl_exact_on_polynomials():
    # order-n GL integrates degree 2n-1 exactly
    f = lambda t: 7.0 * t**9 - 3.0 * t**4 + t
    val = integrate_panels(f, [-1.0, 1.0], order=5)
    assert val.real == pytest.approx(-6.0 / 5.0, abs=1e-13)
    assert val.imag == 0.0


def test_sin_integral():
    val = integrate_panels(np.sin, np.linspace(0.0, math.pi, 9), order=16)
    assert val.real == pytest.approx(2.0, abs=1e-14)


def doubling(f, panels0, doublings, tol):
    """refine over uniform panels panels0 * 2^k on [0, pi], k = 0..doublings,
    returning the answer and the last difference between levels."""
    values = []

    def level(panels):
        values.append(integrate_panels(f, np.linspace(0.0, math.pi, panels + 1), 16))
        return values[-1]

    levels = (panels0 << k for k in range(doublings + 1))
    val = refine(level, levels, tol, "f", "cap reached", lambda v: v)
    return val, abs(values[-1] - values[-2])


def test_oscillatory_adaptive():
    f = lambda t: np.exp(1j * 51.0 * t)
    val, err = doubling(f, 4, 12, 1e-12)
    exact = 2j / 51.0
    assert abs(val - exact) < 1e-12
    assert err < 1e-12


def test_adaptive_budget_error_carries_estimate():
    f = lambda t: np.exp(1j * 4000.0 * t)
    with pytest.raises(QuadratureBudgetError) as info:
        doubling(f, 1, 3, 1e-15)
    assert info.value.estimate is not None


def test_refine_stops_at_the_first_settled_level():
    """The answer is taken at the first level within tol of the previous
    one, and no later level is evaluated."""
    values = {1: 1.0, 2: 0.5, 3: 0.25, 4: 0.2, 5: 0.0}
    seen = []

    def value_at(level):
        seen.append(level)
        return values[level]

    assert refine(value_at, range(1, 6), 0.1, "v", "cap", lambda v: 10.0 * v) == 2.0
    assert seen == [1, 2, 3, 4]


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
def test_refine_refuses_a_non_finite_level_at_once(bad):
    seen = []

    def value_at(level):
        seen.append(level)
        return bad if level == 2 else 1.0

    with pytest.raises(DomainError, match="the integrand is not finite at refinement level 2"):
        refine(value_at, range(1, 10), 1e-3, "the integrand", "cap", lambda v: v)
    assert seen == [1, 2]


def test_refine_budget_estimate_is_the_last_level_in_answer_units():
    """A sequence that never settles spends every level; the error carries
    the failure message and answer(last value)."""
    with pytest.raises(QuadratureBudgetError, match="^never settled$") as info:
        refine(lambda k: float(k), [1, 3, 7, 15], 1.0, "v", "never settled", lambda v: v / 2.0)
    assert info.value.estimate == 7.5


@pytest.mark.parametrize(
    "check, noise, settled",
    [(0.5, 0.0, True), (0.6, 0.0, False), (0.6, 0.2, True), (math.nan, 0.0, False)],
    ids=["near", "far", "noisy", "nan"],
)
def test_refine_confirms_the_settled_level(check, noise, settled):
    """confirm is asked about the settled level only; a check value more
    than tol and its noise away, nan included, refuses that level with
    its answer as the estimate, and one within either lets the settled
    answer through."""
    values = {1: 1.0, 2: 0.5, 3: 0.48}
    asked = []

    def confirm(level):
        asked.append(level)
        return check, noise

    args = (values.get, range(1, 4), 0.1, "v", "cap", lambda v: 10.0 * v, confirm)
    if settled:
        assert refine(*args) == 4.8
    else:
        with pytest.raises(QuadratureBudgetError, match="^cap: a finer mesh moves level 3") as info:
            refine(*args)
        assert info.value.estimate == 4.8
    assert asked == [3]


@pytest.mark.parametrize("bad", [[0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
def test_breakpoints_must_increase(bad):
    with pytest.raises(ValueError):
        integrate_panels(np.sin, bad, order=4)


@given(
    a=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    panels=st.integers(1, 7),
)
def test_constant_integrates_to_width(a, width, panels):
    val = integrate_panels(lambda t: np.ones_like(t), np.linspace(a, a + width, panels + 1))
    assert val.real == pytest.approx(width, rel=1e-12)


def test_panel_nodes_keep_their_expression():
    """nodes = half * x + mid in place is mid + half * x, bit for bit."""
    bp = np.linspace(-1.0, 2.5, 1001)
    x, w = np.polynomial.legendre.leggauss(16)
    a, b = bp[:-1][:, None], bp[1:][:, None]
    half = 0.5 * (b - a)
    nodes, weights = _rule(bp, 16)
    assert nodes.tobytes() == (0.5 * (a + b) + half * x[None, :]).ravel().tobytes()
    assert weights.tobytes() == (half * w[None, :]).ravel().tobytes()


@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize(
    "f", [lambda t: np.cos(900.0 * np.sin(t) - 7.0 * t), lambda t: np.exp(1j * 900.0 * np.sin(t))]
)
def test_blocked_sum_is_the_one_call_sum(f, order):
    """Several blocks of the integrand give the one-call sum bit for bit,
    also when the last block is partial."""
    bp = np.linspace(0.0, np.pi, 5001)
    assert (bp.size - 1) * order > 2 * _quad._BLOCK_NODES
    nodes, weights = _rule(bp, order)
    assert integrate_panels(f, bp, order) == complex(np.sum(weights * f(nodes)))
