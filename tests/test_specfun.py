"""Tests for log_Phi, the zeta ladder, and the smoothed xi evaluators.

Frozen reference values were computed with a 50-digit mpmath erfc oracle
(log_Phi, zeta_1) and with scipy.integrate.quad applied directly to
zeta_d(x) * normal_pdf(x; mu, sigma2) (xi). The quad oracle is reproduced
in-test so the comparison stays independent of the series/trapezoid path
under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import log_ndtr

from momprop import specfun
from momprop.exceptions import DomainError, NumericError
from momprop.specfun import (_recip_mills_cf, _zeta1, _zeta_orders, log_Phi,
                             xi, xi_quad, xi_taylor, zeta)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def xi_oracle(d: int, mu: float, sigma2: float) -> float:
    """Adaptive quadrature of the defining integral, independent of xi()."""
    sd = np.sqrt(sigma2)

    def integrand(x):
        return float(_zeta_orders(d, np.atleast_1d(x))[d][0]) * \
            stats.norm.pdf(x, mu, sd)

    lo = mu - 14 * sd - 14
    hi = mu + 14 * sd + 14
    val, err = integrate.quad(integrand, lo, hi, limit=400)
    assert err < 1e-8
    return val


class TestLogPhi:
    def test_symmetry_at_zero(self):
        assert log_Phi(0.0) == pytest.approx(np.log(0.5), rel=1e-15)

    def test_right_tail(self):
        # mpmath: log Phi(10) = -7.6198530241605261e-24
        assert log_Phi(10.0) == pytest.approx(-7.6198530241605261e-24,
                                              rel=1e-10)

    def test_left_tail(self):
        # mpmath: log Phi(-10) = -53.231285150512470578
        assert log_Phi(-10.0) == pytest.approx(-53.23128515051247, rel=1e-14)

    def test_deep_left_tail_finite(self):
        # mpmath: log Phi(-40) = -804.60844201375378817
        assert log_Phi(-40.0) == pytest.approx(-804.6084420137538, rel=1e-14)

    def test_monotone(self):
        t = np.linspace(-40, 10, 400)
        assert np.all(np.diff(log_Phi(t)) > 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            log_Phi(np.nan)
        with pytest.raises(DomainError):
            log_Phi(np.inf)


class TestZeta:
    def test_order_one_at_zero(self):
        assert zeta(1, 0.0) == pytest.approx(SQRT_2_OVER_PI, rel=1e-14)

    def test_order_two_at_zero(self):
        assert zeta(2, 0.0) == pytest.approx(-2.0 / np.pi, rel=1e-14)

    def test_inverse_mills_far_left(self):
        # mpmath: zeta_1(-30) = 30.033259667433677037
        assert zeta(1, -30.0) == pytest.approx(30.033259667433677, rel=1e-13)
        # leading asymptote -t - 1/t
        assert zeta(1, -30.0) == pytest.approx(30.0 + 1.0 / 30.0, rel=1e-4)

    def test_order_three_at_zero_vs_fd(self):
        h = 1e-4
        fd = (zeta(2, h) - zeta(2, -h)) / (2 * h)
        assert zeta(3, 0.0) == pytest.approx(fd, abs=1e-7)
        assert zeta(3, 0.0) == pytest.approx(0.21801361414499016, rel=1e-12)

    def test_rejects_bad_order(self):
        for k in (0, -1, 1.5):
            with pytest.raises(DomainError):
                zeta(k, 0.0)

    def test_branch_seam_agreement(self):
        # direct-ratio and continued-fraction branches agree to 1e-12
        # around the crossover
        for t in np.linspace(-28.0, -24.0, 17):
            direct = float(np.exp(stats.norm.logpdf(t)
                                  - stats.norm.logcdf(t)))
            cf = float(_recip_mills_cf(np.array([-t]))[0])
            assert abs(direct - cf) <= 1e-12 * cf

    def test_vectorized_matches_scalar(self):
        t = np.array([-3.0, 0.0, 2.5])
        vec = zeta(4, t)
        for i, ti in enumerate(t):
            assert vec[i] == pytest.approx(zeta(4, float(ti)), rel=1e-14)

    @pytest.mark.parametrize("t", [
        np.linspace(-40.0, 10.0, 201),  # both branches, -25 itself included
        np.linspace(-24.0, 10.0, 35),   # direct ratio only
        np.array([-30.0, -26.0]),       # continued fraction only
    ], ids=["both-branches", "direct", "continued-fraction"])
    def test_precomputed_log_phi_is_bit_identical(self, t):
        # _zeta_orders hands zeta_1 the log Phi it already computed; the
        # cases sit on both sides of specfun._CF_CROSSOVER = -25
        assert specfun._CF_CROSSOVER == -25.0
        assert np.array_equal(_zeta1(t, log_ndtr(t)), _zeta1(t))
        assert np.array_equal(_zeta_orders(1, t)[1], _zeta1(t))

    # recursion-vs-derivative consistency; the constants grow with the
    # magnitude of the (k+3)rd derivative (truncation) and with the
    # cancellation noise of the recursion near t = -30 (roundoff / h).
    FD_CONSTANTS = {1: 8.0, 2: 2e2, 3: 5e3, 4: 1.2e5, 5: 3e6, 6: 8e7,
                    7: 2e9, 8: 5e10, 9: 1.5e12}

    @pytest.mark.parametrize("k", range(1, 10))
    def test_fd_consistency(self, k):
        h = 1e-4
        t = np.linspace(-30, 30, 121)
        zp = _zeta_orders(k, t + h)[k]
        zm = _zeta_orders(k, t - h)[k]
        zk1 = _zeta_orders(k + 1, t)[k + 1]
        err = np.max(np.abs(zk1 - (zp - zm) / (2 * h)))
        assert err <= self.FD_CONSTANTS[k] * h**2

    # phi(t) underflows for t > ~38.6, where zeta_2 becomes -0.0; strict
    # negativity is only representable below that.
    @given(st.floats(min_value=-200.0, max_value=38.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_zeta2_in_open_unit_interval(self, t):
        z2 = zeta(2, t)
        assert -1.0 < z2 < 0.0


class TestXiTaylor:
    def test_zero_variance_collapses(self):
        assert xi_taylor(1, 0.3, 0.0) == pytest.approx(zeta(1, 0.3),
                                                       rel=1e-15)

    def test_matches_oracle_d1(self):
        # oracle: 0.8250268110830096
        assert abs(xi_taylor(1, 0.0, 0.25) - 0.8250268110830096) <= 1e-6

    def test_matches_oracle_d2(self):
        # oracle: -0.7969360712318604
        assert abs(xi_taylor(2, -1.0, 0.1) - (-0.7969360712318604)) <= 1e-6

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            xi_taylor(1, 0.0, -0.1)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            xi_taylor(3, 0.0, 0.1)


class TestXiQuad:
    def test_matches_oracle_d1(self):
        # oracle: 0.9979764393692782
        assert abs(xi_quad(1, 0.0, 2.0) - 0.9979764393692782) <= 1e-4

    def test_matches_oracle_d2(self):
        # oracle: -0.15922947429822276
        assert abs(xi_quad(2, 3.0, 5.0) - (-0.15922947429822276)) <= 1e-4

    def test_d0_standard_normal(self):
        # E[log Phi(X)] = E[log U] = -1 exactly for X ~ N(0,1), U uniform
        assert abs(xi_quad(0, 0.0, 1.0) - (-1.0)) <= 1e-4

    def test_rejects_zero_variance(self):
        with pytest.raises(DomainError):
            xi_quad(1, 0.0, 0.0)

    def test_newton_cap_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MODE_TOL", 1e-300)
        monkeypatch.setattr(specfun, "_NEWTON_MAX_STEPS", 3)
        with pytest.raises(NumericError) as exc:
            xi_quad(1, 0.0, 2.0)
        assert exc.value.last_iterate is not None

    def test_matches_oracle_grid(self):
        for d in (1, 2):
            for mu in (-4.0, 0.0, 3.0):
                for s2 in (0.7, 2.0, 8.0):
                    assert abs(xi_quad(d, mu, s2)
                               - xi_oracle(d, mu, s2)) <= 1e-5

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_batch_equals_elementwise(self, d):
        # the mix varies the Newton step counts and the domain widths; each
        # element's arithmetic does not depend on the rest of the batch
        rng = np.random.default_rng(11)
        mu = rng.uniform(-8.0, 8.0, 300)
        s2 = rng.uniform(0.5, 10.0, 300)
        batch = xi_quad(d, mu, s2)
        one = np.array([xi_quad(d, m, v) for m, v in zip(mu, s2)])
        assert np.array_equal(batch, one)

    def test_walk_block_does_not_change_result(self, monkeypatch):
        # every domain here is found in the first round of 8 steps; a block
        # of one step walks the same k one round at a time
        mu = np.linspace(-8.0, 8.0, 41)
        s2 = np.linspace(0.5, 10.0, 41)
        ref = xi_quad((0, 1, 2), mu, s2)
        monkeypatch.setattr(specfun, "_WALK_BLOCK", 1)
        assert np.array_equal(xi_quad((0, 1, 2), mu, s2), ref)

    def test_walk_cap_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(specfun, "_WALK_MAX_STEPS", 2)
        with pytest.raises(NumericError) as exc:
            xi_quad(1, np.array([0.0, 3.0]), np.array([2.0, 5.0]))
        assert exc.value.last_iterate is not None


class TestXiDispatch:
    def test_branch_continuity_at_threshold(self):
        # both branches evaluated at matched sigma2 near the cutoff
        for s2 in (0.49, 0.51):
            t_val = xi_taylor(1, 1.0, s2)
            q_val = xi_quad(1, 1.0, s2)
            assert abs(t_val - q_val) <= 1e-4

    def test_zero_variance(self):
        assert xi(1, 0.0, 0.0) == pytest.approx(zeta(1, 0.0), rel=1e-15)

    def test_small_variance_oracle(self):
        # oracle: -0.9667839943124463
        assert abs(xi(2, -5.0, 0.2) - (-0.9667839943124463)) <= 1e-6

    def test_sigma2_to_zero_limit(self):
        for d in (1, 2):
            for mu in (-3.0, 0.0, 2.0):
                for s2 in (1e-10, 1e-8):
                    assert xi(d, mu, s2) == pytest.approx(zeta(d, mu),
                                                          rel=1e-7)

    def test_vectorized_mixed_branches(self):
        mu = np.array([0.0, 1.0, -2.0])
        s2 = np.array([0.1, 2.0, 0.0])
        out = xi(1, mu, s2)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(xi_taylor(1, 0.0, 0.1), rel=1e-14)
        assert out[1] == pytest.approx(xi_quad(1, 1.0, 2.0), rel=1e-14)
        assert out[2] == pytest.approx(zeta(1, -2.0), rel=1e-14)

    @pytest.mark.parametrize("mu,s2", [
        (np.linspace(-8.0, 8.0, 57), np.linspace(0.0, 10.0, 57)),
        (np.array([[0.0, 1.0], [-2.0, 3.0]]), np.array([[0.1, 2.0],
                                                        [0.0, 0.6]])),
        (np.array(1.5), np.array(0.3)),
        (np.array(-1.5), np.array(3.0)),
    ], ids=["mixed", "2-d", "0-d series", "0-d quadrature"])
    def test_order_tuple_stacks_orders(self, mu, s2):
        both = xi((1, 2), mu, s2)
        assert both.shape == (2,) + mu.shape
        assert np.array_equal(both, np.stack([xi(1, mu, s2), xi(2, mu, s2)]))
        for fn in (xi_taylor, xi_quad):
            if fn is xi_quad and np.any(s2 == 0):
                continue
            assert np.array_equal(fn((0, 2), mu, s2),
                                  np.stack([fn(0, mu, s2), fn(2, mu, s2)]))

    @pytest.mark.parametrize("d", [(), (1, 3), [1, 2], 3])
    def test_rejects_bad_orders(self, d):
        with pytest.raises(DomainError):
            xi(d, 0.0, 1.0)

    def test_dispatch_against_oracle_both_sides(self):
        for d, mu, s2 in [(1, 0.5, 0.3), (2, -1.5, 0.45), (1, 2.0, 1.5),
                          (2, -2.0, 4.0)]:
            assert abs(xi(d, mu, s2) - xi_oracle(d, mu, s2)) <= 1e-4

