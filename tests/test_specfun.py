"""Special functions against frozen references and scipy cross-checks.

scipy.special serves as an independent oracle here and nowhere else in
the package; the library code computes these functions itself.
"""

import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

import wnl.specfun
from wnl.errors import ConvergenceError, DomainError, QuadratureBudgetError
from wnl.specfun import (
    _ascending_series,
    bessel_j,
    bessel_j_sequence,
    corollary2_integral,
    gamma_fn,
    girard_value,
    hyp2f1,
    lngamma_fn,
)

# Reference values, frozen from 50-digit arbitrary-precision runs.
GAMMA_QUARTER = 3.6256099082219083119
GAMMA_HALF = 1.7724538509055160273
GAMMA_TINY = 999.42377248459546611  # Gamma(1e-3)
GAMMA_50 = 6.0828186403426756087e62
J0_2 = 0.22389077914123566805
J0_10_5 = -0.23664819446234712622
J5_10_5 = -0.26105250194504920749
J30_10_5 = 6.1576504742210592905e-12
J0_100 = 0.019985850304223122424
J150_100 = 2.7229021718820480749e-16
J0_400 = -0.038825181530783955714
F_HALF = 1.1750646978475688821  # 2F1(1/2, 3/4; 3/2; 0.5)
F_NEAR_ONE = 1.9989869640697406308  # same at z = 0.99
GIRARD = {
    0.2: 0.772949394815895863,
    0.5: 1.25133889276404441,
    0.8: 1.68225813256560138,
}
GIRARD_NEAR_CIRCLE = {
    0.98: 2.08375293201510031,
    0.99: 2.13473373526428151,
    0.999: 2.21825782758209951,
}
L_PAIR = 1.87867627073246121  # two zeros at 0.3, 0.7
EQ_INT_HYPER = 2.46351243386823428  # both routes at alpha = 0.5


class TestGamma:
    def test_frozen_values(self):
        assert gamma_fn(0.25) == pytest.approx(GAMMA_QUARTER, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(GAMMA_HALF, rel=1e-14)
        assert gamma_fn(1e-3) == pytest.approx(GAMMA_TINY, rel=1e-13)
        assert gamma_fn(50.0) == pytest.approx(GAMMA_50, rel=1e-13)

    def test_integers(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(6.0) == pytest.approx(120.0, rel=1e-14)

    @given(x=st.floats(0.05, 60.0))
    @settings(max_examples=80)
    def test_functional_equation(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_against_scipy(self):
        xs = np.linspace(0.05, 40.0, 37)
        ours = np.array([lngamma_fn(x) for x in xs])
        assert np.max(np.abs(ours - sps.gammaln(xs))) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lngamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)

    @pytest.mark.parametrize(
        ("inside", "outside"), [(171.62, 171.7), (1e-308, 5e-324)], ids=["large", "tiny"]
    )
    def test_overflow_is_a_domain_error(self, inside, outside):
        """Gamma stays finite up to the double range and raises past it, at both ends."""
        assert gamma_fn(inside) == pytest.approx(sps.gamma(inside), rel=1e-12)
        with pytest.raises(DomainError, match="overflows"):
            gamma_fn(outside)


class TestHyp2f1:
    def test_frozen_values(self):
        assert hyp2f1(0.5, 0.75, 1.5, 0.5) == pytest.approx(F_HALF, rel=1e-13)
        assert hyp2f1(0.5, 0.75, 1.5, 0.99) == pytest.approx(F_NEAR_ONE, rel=1e-12)

    def test_at_zero(self):
        assert hyp2f1(0.5, 0.75, 1.5, 0.0) == 1.0

    def test_against_scipy_grid(self):
        zs = np.linspace(0.0, 0.98, 50)
        ours = np.array([hyp2f1(0.5, 0.75, 1.5, z) for z in zs])
        ref = sps.hyp2f1(0.5, 0.75, 1.5, zs)
        assert np.max(np.abs(ours / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "a, b, c", [(0.5, 0.75, 1.5), (1.3, -0.4, 0.6), (-0.5, 0.75, 1.1), (2.5, 1.5, 1.2)]
    )
    def test_connection_near_one(self, a, b, c):
        """Past z = 0.9 the series in 1 - z carry 2F1 to z = 0.999999, where
        the Euler-transformed series needs ~1e6 terms; c - a = -0.7 and
        c - b = -0.3 exercise Gamma below 0.  Against 30-digit mpmath."""
        mp = pytest.importorskip("mpmath")
        for z in (0.90001, 0.95, 0.99, 0.9999, 0.999999):
            with mp.workdps(30):
                ref = mp.hyp2f1(a, b, c, z)
            assert abs(hyp2f1(a, b, c, z) / float(ref) - 1) < 2e-14

    @pytest.mark.parametrize("c, z", [(100.3, 0.95), (200.3, 0.95), (100.3, 0.9999)])
    def test_large_c_near_one(self, c, z):
        """Gamma(100.3) Gamma(99.3) and Gamma(99.8)^2 each overflow a double,
        and Gamma(200.3) does alone, though their quotient is near 1: the
        connection formula takes its Gammas in quotients, and past a double
        it leaves z to the Euler series.  Against 30-digit mpmath."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ref = mp.hyp2f1(0.5, 0.5, c, z)
        assert abs(hyp2f1(0.5, 0.5, c, z) / float(ref) - 1) < 1e-13

    def test_series_past_a_double_raises(self):
        """At c = 200.3 and z = 0.9999 the Euler series' terms overflow and
        the connection formula's Gamma(200.3) does too: an error, not nan."""
        with pytest.raises(ConvergenceError, match="did not converge to a double"):
            hyp2f1(0.5, 0.5, 200.3, 0.9999)

    @pytest.mark.parametrize("c", [1.0000001, 1.05, 2.01])
    def test_near_integer_exponent_keeps_the_euler_series(self, c):
        """With s = c - 1 within 0.1 of an integer the connection formula's
        two terms cancel (1e-8 relative at s = 1e-7), so past z = 0.9 the
        Euler-transformed series still answers.  Against 30-digit mpmath."""
        mp = pytest.importorskip("mpmath")
        for z in (0.95, 0.99, 0.999):
            with mp.workdps(30):
                ref = mp.hyp2f1(0.5, 0.5, c, z)
            assert abs(hyp2f1(0.5, 0.5, c, z) / float(ref) - 1) < 1e-13

    @pytest.mark.parametrize("bad", [1.0, -0.5, 2.0])
    def test_rejects_z_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.75, 1.5, bad)

    @pytest.mark.parametrize("c", [0.0, -2.0])
    def test_rejects_non_positive_integer_c(self, c):
        with pytest.raises(DomainError, match="non-positive integer"):
            hyp2f1(0.5, 0.75, c, 0.3)


class TestBesselJ:
    @pytest.mark.parametrize(
        "nu,x,want",
        [
            (0, 2.0, J0_2),
            (0, 10.5, J0_10_5),
            (5, 10.5, J5_10_5),
            (30, 10.5, J30_10_5),
            (0, 100.0, J0_100),
            (150, 100.0, J150_100),
            (0, 400.0, J0_400),
        ],
    )
    def test_frozen_values(self, nu, x, want):
        assert bessel_j(nu, x) == pytest.approx(want, rel=1e-12)

    def test_at_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_negative_order_parity(self):
        assert bessel_j(-3, 7.7) == pytest.approx(-bessel_j(3, 7.7), rel=1e-14)
        assert bessel_j(-4, 7.7) == pytest.approx(bessel_j(4, 7.7), rel=1e-14)

    def test_sequence_consistency(self):
        seq = bessel_j_sequence(40, 17.25)
        for nu in (0, 7, 23, 40):
            assert seq[nu] == pytest.approx(bessel_j(nu, 17.25), rel=1e-13)

    def test_even_order_sum_identity(self):
        # J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1
        seq = bessel_j_sequence(120, 10.5)
        total = seq[0] + 2.0 * np.sum(seq[2::2])
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_small_argument_sequence_is_the_series_entry_by_entry(self):
        """Below x = 2 each entry is the ascending series, the underflowed tail included."""
        for x in (0.0, 1e-3, 1.0, 2.0):
            seq = bessel_j_sequence(400, x)
            assert seq.tolist() == [_ascending_series(n, x) for n in range(401)]
            assert seq[-1] == 0.0

    def test_against_scipy_grid(self):
        xs = np.array([0.3, 1.7, 2.0, 2.3, 9.0, 31.4, 250.0])
        for x in xs:
            seq = bessel_j_sequence(60, float(x))
            ref = sps.jv(np.arange(61), x)
            assert np.max(np.abs(seq - ref)) < 1e-13

    @given(n=st.integers(1, 20), x=st.floats(0.5, 500.0))
    @settings(max_examples=60)
    def test_three_term_recurrence(self, n, x):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = 2.0 * n / x * bessel_j(n, x)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_unsettled_sweeps_raise_with_the_last_one(self, monkeypatch):
        """Sweeps that never agree spend every margin (20 + ceil(x)) 2^k up
        to 2^24; the error carries the last sweep as its estimate."""
        starts = []

        def unsettled(nmax, x, start):
            starts.append(start)
            return np.full(nmax + 1, float(start))

        monkeypatch.setattr(wnl.specfun, "_miller_pass", unsettled)
        with pytest.raises(QuadratureBudgetError, match="failed to stabilize") as info:
            bessel_j_sequence(5, 100.0)
        assert starts == [5 + 120 * 2**k for k in range(18)]  # 120 * 2^17 <= 2^24 < 120 * 2^18
        assert info.value.estimate.tolist() == [float(starts[-1])] * 6

    def test_caps(self):
        with pytest.raises(DomainError):
            bessel_j(10_001, 5.0)
        with pytest.raises(DomainError):
            bessel_j(2, 2e6)
        with pytest.raises(DomainError):
            bessel_j(1, -1.0)


class TestGirard:
    @pytest.mark.parametrize("alpha", sorted(GIRARD))
    def test_frozen_values(self, alpha):
        gv = girard_value(alpha)
        assert gv.value == pytest.approx(GIRARD[alpha], rel=1e-13)

    @pytest.mark.parametrize(
        "alpha, rel", [(0.98, 1e-13), (0.99, 1e-13), (0.999, 1e-11)], ids=str
    )
    def test_near_the_circle(self, alpha, rel):
        """z = 4 alpha / (1 + alpha)^2 reaches 0.9999 at alpha = 0.98, where
        the Euler-transformed series ran out of its 200,000 terms.  At 0.999
        the rounding of z, 1e-16 against 1 - z = 2.5e-7, leaves 3e-12."""
        assert girard_value(alpha).value == pytest.approx(GIRARD_NEAR_CIRCLE[alpha], rel=rel)

    @given(alpha=st.floats(0.05, 0.95))
    @settings(max_examples=60)
    def test_two_forms_agree(self, alpha):
        """The introduction-style and beta-substituted forms are one number."""
        gv = girard_value(alpha)
        assert gv.intro_form == pytest.approx(gv.abstract_form, rel=1e-12)
        assert gv.beta_param == pytest.approx((1.0 - alpha) / (1.0 + alpha), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
    def test_rejects_degenerate_zero(self, bad):
        with pytest.raises(DomainError):
            girard_value(bad)


class TestCorollary2Integral:
    def test_single_zero_matches_girard(self):
        got = corollary2_integral([0.5])
        assert got == pytest.approx(GIRARD[0.5], rel=1e-10)

    def test_pair_frozen(self):
        assert corollary2_integral([0.3, 0.7]) == pytest.approx(L_PAIR, rel=1e-10)

    def test_budget_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(wnl.specfun, "_JACOBI_NODES", 4)
        with pytest.raises(QuadratureBudgetError) as info:
            corollary2_integral([0.5])
        assert info.value.estimate == pytest.approx(GIRARD[0.5], rel=1e-3)


def test_integral_to_hypergeometric_identity():
    """Dual route at alpha = 0.5: singular integral vs 2F1 closed form.

    Left side: Gauss-Jacobi quadrature with weight (1-s)^(-1/4) s^(-1/4)
    after mapping [0, 1] to [-1, 1] (which costs a factor 2^(-1/2)).
    Right side: the hypergeometric expression.  Both must hit the frozen
    value independently.
    """
    alpha = 0.5
    z = 4.0 * alpha / (1.0 + alpha) ** 2
    nodes, weights = sps.roots_jacobi(80, -0.25, -0.25)
    s = 0.5 * (1.0 + nodes)
    quad = 2.0**-0.5 * np.sum(weights / (1.0 - z * s))
    lhs = 2.0 * math.sqrt(alpha * (1.0 - alpha**2)) / (1.0 + alpha) ** 2 * quad
    rhs = (
        8.0
        * math.pi**1.5
        / gamma_fn(0.25) ** 2
        * (math.sqrt(alpha) / (1.0 + alpha))
        * hyp2f1(0.5, 0.75, 1.5, z)
    )
    assert lhs == pytest.approx(EQ_INT_HYPER, rel=1e-12)
    assert rhs == pytest.approx(EQ_INT_HYPER, rel=1e-12)
    # and the prefactor (2/pi)^(3/2) sends it to the norm limit
    assert (2.0 / math.pi) ** 1.5 * lhs == pytest.approx(GIRARD[0.5], rel=1e-12)
