"""Panel quadrature basics: exactness, adaptivity, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wnl import _quad
from wnl._quad import _rule, integrate_adaptive, integrate_panels
from wnl.errors import QuadratureBudgetError


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


def test_oscillatory_adaptive():
    f = lambda t: np.exp(1j * 51.0 * t)
    val, err = integrate_adaptive(f, 0.0, math.pi, panels0=4, tol=1e-12)
    exact = 2j / 51.0
    assert abs(val - exact) < 1e-12
    assert err < 1e-12


def test_adaptive_budget_error_carries_estimate():
    f = lambda t: np.exp(1j * 4000.0 * t)
    with pytest.raises(QuadratureBudgetError) as info:
        integrate_adaptive(f, 0.0, math.pi, panels0=1, tol=1e-15, max_doublings=3)
    assert info.value.estimate is not None


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
