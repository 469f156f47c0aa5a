"""Tests for log_Phi, the zeta ladder, and the smoothed xi evaluators.

Frozen reference values were computed with a 50-digit mpmath erfc oracle
(log_Phi, zeta_1), with 60-digit mpmath -zeta_1 (t + zeta_1) (zeta_2 in the
far left tail), with scipy.integrate.quad applied directly to
zeta_d(x) * normal_pdf(x; mu, sigma2) (xi), and with a 60-digit mpmath
quadrature of the same integral (xi in the far left tail). The quad and
Simpson oracles are reproduced in-test so the comparison stays independent
of the series, Gauss-Hermite and fixed Gauss-Legendre paths under test.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import log_ndtr

from momprop import specfun
from momprop.exceptions import DomainError
from momprop.specfun import (_direct_ratio, _recip_mills_cf, _xi_hermite,
                             _zeta_orders, log_Phi, xi, xi_quad, xi_taylor,
                             zeta)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def zeta1(t) -> np.ndarray:
    """zeta_1 at 1-d t: _zeta_orders' where t is finite, the direct ratio
    (_zeta_orders' above specfun._CF_CROSSOVER) where it is not, as
    _zeta_orders rejects it."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = _direct_ratio(t, log_ndtr(t))
    finite = np.isfinite(t)
    out[finite] = _zeta_orders(1, t[finite])[1]
    return out


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
            cf = float(_recip_mills_cf(np.array([-t]))[0][0])
            assert abs(direct - cf) <= 1e-12 * cf

    def test_short_continued_fraction_is_bit_identical_to_64_terms(self):
        """From x = 25 on, where _zeta_orders takes the continued fraction, its
        _CF_DEPTH terms give 1/R and d bit for bit as 64 terms do: on the
        first 2,000 doubles above 25 and a dense grid out to 1e300."""
        x = np.concatenate([
            25.0 + np.arange(1, 2001) * np.spacing(25.0),
            np.linspace(25.0, 100.0, 100_001)[1:],
            np.geomspace(100.0, 1e300, 100_000)])
        d = x.copy()
        for j in range(64, 1, -1):
            d = x + j / d
        got = _recip_mills_cf(x)
        assert np.array_equal(got[0], x + 1.0 / d)
        assert np.array_equal(got[1], d)

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
    def test_orders_do_not_depend_on_kmax_or_batch(self, t):
        """Each order of _zeta_orders(kmax, t), kmax 1 to 6, is that of one
        call for order 6 and that of a call on each t alone, bit for bit, as
        mp-dm's walks read the orders at every walk block's t: on both sides
        of specfun._CF_CROSSOVER = -25 and at its two neighbours, far out in
        both tails, without a warning. Order 0 is log Phi."""
        assert specfun._CF_CROSSOVER == -25.0
        t = np.concatenate([t, [-1e300, -1e200, 1e155, 1e300,
                                np.nextafter(-25.0, -np.inf),
                                np.nextafter(-25.0, np.inf)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = _zeta_orders(6, t)
            alone = [_zeta_orders(6, ti) for ti in t]
            for kmax in range(1, 7):
                got = _zeta_orders(kmax, t)
                assert len(got) == kmax + 1
                assert np.array_equal(got[0], log_ndtr(t))
                for k in range(kmax + 1):
                    assert np.array_equal(got[k], full[k])
                    assert np.array_equal(got[k], [z[k][0] for z in alone])

    @pytest.mark.parametrize("t", [1e155, 1e200, np.inf])
    def test_direct_ratio_does_not_overflow(self, t):
        """Far right zeta_1 is 0 without an overflow warning: t * t would
        overflow from t ~ 1.3e154 on."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeta1(np.array([t, -30.0, t]))[[0, 2]].tolist() == [
                0.0, 0.0]
            assert zeta1(t)[0] == 0.0
            if np.isfinite(t):
                assert zeta(1, t) == 0.0

    def test_direct_ratio_is_bit_identical_up_to_the_clamp(self):
        """Clamping t at specfun._DIRECT_MAX changes no bit: below it t is
        unchanged, and from it on the unclamped ratio underflows to 0 too."""
        t = np.concatenate([np.linspace(-25.0, 40.0, 65_001),
                            [38.5, 38.6, 38.7, 39.9, 40.0, 41.0, 1e3, 1e150,
                             np.nan]])
        with np.errstate(over="ignore"):
            want = np.exp(-0.5 * t * t - np.log(np.sqrt(2.0 * np.pi))
                          - log_ndtr(t))
        assert specfun._DIRECT_MAX == 40.0
        assert np.array_equal(zeta1(t), want, equal_nan=True)

    @pytest.mark.parametrize("k, want", [(2, -1.0), (3, 0.0), (4, 0.0)])
    def test_far_left_orders_do_not_overflow(self, k, want):
        """At t = -1e200 the recursion's zeta_2 terms t zeta_1 and
        zeta_1^2 overflow, and 0 zeta_0 is nan; zeta_2 is -zeta_1 / d
        there, so none of them reaches a result, and none warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeta(k, -1e200) == want

    def test_zeta2_is_the_recursion_from_the_crossover_on(self):
        """From _CF_CROSSOVER on, zeta_2 is the recursion's
        -(t zeta_1 + 0 zeta_0) - zeta_1 zeta_1, bit for bit."""
        t = np.concatenate([np.linspace(-25.0, 60.0, 85_001),
                            [-0.0, 38.6, 1e3, 1e155, 1e300]])
        z = _zeta_orders(2, np.concatenate([[-30.0, -1e200], t]))
        z0, z1 = log_ndtr(t), _zeta_orders(1, t)[1]
        want = -(t * z1 + 0 * z0) - 1 * z1 * z1
        assert np.array_equal(z[2][2:].view(np.int64), want.view(np.int64))

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

    ZETA2_FAR_LEFT = {-26.0: -0.99853368043156099019,
                      -100.0: -0.99990005995005173655,
                      -421.0: -0.99999435815556570426,
                      -975.0: -0.99999894806712592426,
                      -1e4: -0.99999999000000059999995}

    @pytest.mark.parametrize("t", sorted(ZETA2_FAR_LEFT))
    def test_zeta2_far_left_tail(self, t):
        """Below the continued-fraction crossover zeta_2 is -zeta_1 / d,
        free of the cancellation in -zeta_1 (t + zeta_1), which left it
        8.3e-14 (t = -26) to 4.9e-9 (t = -1e4) off."""
        want = self.ZETA2_FAR_LEFT[t]
        assert abs(zeta(2, t) - want) <= 1e-14 * abs(want)


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
        with pytest.raises(DomainError, match="xi_quad requires sigma2 > 0"):
            xi_quad(1, 0.0, 0.0)
        # a negative variance fails the check the three kernels share first
        with pytest.raises(DomainError, match="sigma2 must be >= 0"):
            xi_quad(1, 0.0, np.array([2.0, -0.1]))

    def test_matches_oracle_grid(self):
        for d in (1, 2):
            for mu in (-4.0, 0.0, 3.0):
                for s2 in (0.7, 2.0, 8.0):
                    assert abs(xi_quad(d, mu, s2)
                               - xi_oracle(d, mu, s2)) <= 1e-5

    # (mu, sigma2): (xi_0, xi_1, xi_2), from a 55-digit mpmath tanh-sinh
    # quadrature of int zeta_d(x) phi(x; mu, sigma2) dx split at fixed
    # points, at mu + 2k sigma and at x* + k s*/2 (x* = mu/(1 + sigma2),
    # s* = sqrt(sigma2/(1 + sigma2))), with log Phi(x) = log1p(-Phi(-x))
    # for x > 0; a 45-digit run on shifted breakpoints agrees to 29 digits
    # or more. At (100, 10) such runs disagreed from the 14th digit, so that
    # row sums Gauss-Legendre panels 0.2 and 0.13 wide over the integrand's
    # support, at 45 and 55 digits, which agree to 43. Values below the
    # smallest double are stored as 0
    MPMATH = {
        (-50.0, 2.0): (-1255.8309616187824018, 50.019999993582040052,
            -0.99960000064251599103),
        (-10.0, 2.0): (-54.221576056414167214, 10.099978522942454872,
            -0.99001104873591516354),
        (0.0, 2.0): (-1.2919432084809107418, 0.99797643936927762277,
            -0.5741197146861797273),
        (10.0, 2.0): (-3.8987696462054516584e-9, 1.3378214280290579542e-8,
            -4.4648717452644411546e-8),
        (100.0, 2.0): (-0.0, 0.0,
            -0.0),
        (-50.0, 10.0): (-1259.8293538581136251, 50.020064617715819131,
            -0.99959609783112615858),
        (-10.0, 10.0): (-58.174849198757582257, 10.111090676668802458,
            -0.9858814133707633894),
        (0.0, 10.0): (-3.4668429407617050965, 1.5418976247985081367,
            -0.5284973064927923417),
        (10.0, 10.0): (-0.002291641321606025257, 0.0024522223559354623925,
            -0.0024509947884813341657),
        (100.0, 10.0): (-5.1825954312675991747e-200, 4.7166216479921737384e-199,
            -4.2878378618159926493e-198),
        (-50.0, 100.0): (-1304.8100115293255711, 50.020903265435169848,
            -0.99953912503341630209),
        (-10.0, 100.0): (-98.973270399169099885, 10.958148203092620486,
            -0.83664944473007460628),
        (0.0, 100.0): (-26.380328165808251328, 4.1210348013127060373,
            -0.50417189128608631138),
        (10.0, 100.0): (-4.1483957975691010645, 0.89589077833127502491,
            -0.16606551279350790071),
        (100.0, 100.0): (-2.4520050337798109374e-23, 2.4782071085675668234e-23,
            -2.4810865977377762556e-23),
        (-50.0, 1e4): (-5205.3929505956894947, 69.802030120494409927,
            -0.69141891971985709989),
        (-10.0, 1e4): (-2927.2853029707655236, 45.116202150496722201,
            -0.53985824430648448186),
        (0.0, 1e4): (-2502.4535953466976488, 39.916498981651705772,
            -0.50004909175509312637),
        (10.0, 1e4): (-2127.6267888017759983, 35.115223551797640573,
            -0.46023896956742770746),
        (100.0, 1e4): (-377.40192452485094771, 8.3429269828617082979,
            -0.15878438350696698335),
        (-50.0, 1e6): (-270584.17879540797796, 424.44402141553857703,
            -0.51993916650950646546),
        (-10.0, 1e6): (-254018.1174476518725, 403.96537772923844833,
            -0.50398982788305226708),
        (0.0, 1e6): (-250003.59667382722168, 398.94542592810639534,
            -0.50000049908286674468),
        (10.0, 1e6): (-246039.0759499100265, 393.96536774791352333,
            -0.49601117018295958429),
        (100.0, 1e6): (-212542.59987078650106, 350.93841328864967913,
            -0.46017293019144201399),
        (-50.0, 1e8): (-25200101.738796763431, 4014.4730783531217772,
            -0.50199470790644101134),
        (-10.0, 1e8): (-25039923.985894102374, 3994.4252051876353148,
            -0.50039894717633624512),
        (0.0, 1e8): (-25000004.747140549437, 3989.4232104265919895,
            -0.50000000499908196788),
        (10.0, 1e8): (-24960135.508387496407, 3984.4252050876537088,
            -0.49960106282181769339),
        (100.0, 1e8): (-24603555.777118734348, 3939.6226793863328309,
            -0.49601064905045090178),
    }

    @pytest.mark.parametrize("mu,s2", sorted(MPMATH))
    def test_matches_mpmath(self, mu, s2):
        """Within 1e-9 in xi_2 and 1e-9 relative in xi_0 and xi_1 from
        sigma2 = 2 to 1e8; the trapezoid was off by up to 2.0e-4 and 1.3e-3
        (relative, xi_0 and xi_1) and 1.7e-2 (xi_2) on this grid."""
        x0, x1, x2 = xi_quad((0, 1, 2), mu, s2)
        want0, want1, want2 = self.MPMATH[(mu, s2)]
        assert abs(x0 - want0) <= 1e-9 * abs(want0)
        assert abs(x1 - want1) <= 1e-9 * abs(want1)
        assert abs(x2 - want2) <= 1e-9

    def test_vanishing_variance_gives_zeta(self):
        """As sigma2 goes to 0 the left piece spans the Gaussian at x = mu,
        so xi_1(-60, 1e-30) is zeta_1(-60); the mode search gave 170.1
        there, against about 60.02, and at sigma2 = 1e-40 its domain walk
        ran away."""
        assert xi_quad(1, -60.0, 1e-30) == pytest.approx(zeta(1, -60.0),
                                                         rel=1e-12, abs=0.0)
        assert np.isfinite(xi_quad((0, 1, 2), -60.0, 1e-40)).all()

    @given(mu=st.floats(min_value=-50.0, max_value=50.0),
           s2=st.floats(min_value=2.0, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_mu_derivative_gap_falls_as_h_squared(self, mu, s2):
        """xi_0's central difference in mu, less xi_1, falls as h^2 from
        h = 1e-2 to 1e-4 (at (0.3, 3): 2.8e-6, 2.8e-8, 2.8e-10), down to
        the rounding of xi_0 over 2h, as the nodes move smoothly with mu.
        The trapezoid's domain widths, whole numbers of steps, left 2.5e-7
        there at h = 1e-3 and 2.2e-7 at 1e-4."""
        x0, x1 = xi_quad((0, 1), mu, s2)
        gap = {}
        for h in (1e-2, 1e-3, 1e-4):
            up, down = xi_quad(0, np.array([mu + h, mu - h]), s2)
            gap[h] = abs((up - down) / (2 * h) - x1)
        eps = np.finfo(float).eps
        for h in (1e-3, 1e-4):
            assert gap[h] <= (1.05 * gap[1e-2] * (h / 1e-2) ** 2
                              + 8 * eps * (abs(x0) + 1) / h)

    @pytest.mark.parametrize("mu, want", [
        (1e200, [0.0, 0.0]), (-1e200, [9.999999999999905e+199, -1.0])])
    def test_vast_mean_does_not_overflow(self, mu, want):
        """u * u overflows in the Gaussian weight from |u| ~ 1.3e154 on,
        where the weight is 0; the rule neither warns nor loses it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = xi_quad((1, 2), mu, 3.0)
        assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_batch_equals_elementwise(self, d):
        # sigma2 over four decades moves every piece of the rule, the bend's
        # panels included; each element's arithmetic does not depend on the
        # rest of the batch
        rng = np.random.default_rng(11)
        mu = rng.uniform(-8.0, 8.0, 300)
        s2 = 10.0 ** rng.uniform(np.log10(0.5), 4.0, 300)
        batch = xi_quad(d, mu, s2)
        one = np.array([xi_quad(d, m, v) for m, v in zip(mu, s2)])
        assert np.array_equal(batch, one)


class TestXiDispatch:
    def test_branch_continuity_at_threshold(self):
        # the two public outer branches agree near sigma2 = 0.5, where the
        # series is least accurate
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
        # series below sigma2 = 0.01, Gauss-Hermite on [0.01, 2), the fixed
        # Gauss-Legendre rule from 2 up
        mu = np.array([0.0, 0.5, 1.0, -2.0])
        s2 = np.array([0.005, 0.1, 2.0, 0.0])
        out = xi(1, mu, s2)
        assert out.shape == (4,)
        assert out[0] == pytest.approx(xi_taylor(1, 0.0, 0.005), rel=1e-14)
        hermite = _xi_hermite((1,), np.array([0.5]), np.array([0.1]))[0, 0]
        assert out[1] == pytest.approx(hermite, rel=1e-14)
        assert out[2] == pytest.approx(xi_quad(1, 1.0, 2.0), rel=1e-14)
        assert out[3] == pytest.approx(zeta(1, -2.0), rel=1e-14)

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

    @staticmethod
    def _three_branches(n: int) -> tuple[np.ndarray, np.ndarray]:
        """n elements taking the series, the Gauss-Hermite band and the
        fixed Gauss-Legendre rule in turn."""
        rng = np.random.default_rng(11)
        mu = rng.uniform(-6.0, 6.0, n)
        s2 = np.choose(np.arange(n) % 3, [rng.uniform(0.0, 0.009, n),
                                          rng.uniform(0.01, 1.9, n),
                                          rng.uniform(2.0, 8.0, n)])
        return mu, s2

    def test_blocks_give_one_pass_bit_for_bit(self, monkeypatch):
        n = 3 * specfun._XI_BLOCK + 17
        mu, s2 = self._three_branches(n)
        blocked = xi((1, 2), mu, s2)
        monkeypatch.setattr(specfun, "_XI_BLOCK", n)
        assert np.array_equal(blocked, xi((1, 2), mu, s2))

    def test_blocks_match_one_element_calls(self, monkeypatch):
        monkeypatch.setattr(specfun, "_XI_BLOCK", 8)
        mu, s2 = self._three_branches(3 * 8 + 17)
        each = np.stack([xi((1, 2), m, v) for m, v in zip(mu, s2)], axis=1)
        assert np.array_equal(xi((1, 2), mu, s2), each)

    @pytest.mark.parametrize("s2", [0.005, 0.5], ids=["series", "band"])
    def test_scratch_is_one_block(self, s2):
        """On 2e5 elements the traced peak stays within three times the
        output: the series' zeta orders and the band's nodes are one
        block's."""
        mu, sigma2 = np.linspace(-6.0, 6.0, 200_000), np.full(200_000, s2)
        tracemalloc.start()
        try:
            out = xi((1, 2), mu, sigma2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.nbytes

    @pytest.mark.parametrize("s2", [0.5, 0.001])
    def test_vast_negative_mean_does_not_overflow(self, s2):
        """Far left, on the Gauss-Hermite band, xi_1 is -mu and xi_2 is -1,
        with no overflow warning from the zeta recursion."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = xi((1, 2), -1e200, s2)
        assert got.tolist() == pytest.approx([1e200, -1.0], rel=1e-15,
                                             abs=0.0)

    @pytest.mark.parametrize("d", [(), (1, 3), [1, 2], 3])
    def test_rejects_bad_orders(self, d):
        with pytest.raises(DomainError):
            xi(d, 0.0, 1.0)

    def test_dispatch_against_oracle_both_sides(self):
        for d, mu, s2 in [(1, 0.5, 0.3), (2, -1.5, 0.45), (1, 2.0, 1.5),
                          (2, -2.0, 4.0)]:
            assert abs(xi(d, mu, s2) - xi_oracle(d, mu, s2)) <= 1e-4



def xi_simpson(d: int, mu: float, sigma2: float) -> float:
    """Dense Simpson rule over a wide domain, as criterion 08's oracle."""
    sd = np.sqrt(sigma2)
    x = np.linspace(mu - 12 * sd - 12, mu + 12 * sd + 12, 8001)
    fx = _zeta_orders(d, x)[d] * stats.norm.pdf(x, mu, sd)
    return float(integrate.simpson(fx, x=x))


class TestXiBranches:
    """xi's three branches: the series below sigma2 = 0.01 (_SERIES_MAX),
    Gauss-Hermite on [0.01, 2) and the fixed Gauss-Legendre rule from 2 up
    (_GH_MAX)."""

    def test_cutoffs(self):
        assert (specfun._SERIES_MAX, specfun._GH_MAX) == (0.01, 2.0)

    def test_matches_simpson_oracle(self):
        # a coarser grid than criterion 08's; below sigma2 = 0.5 the series
        # was off by 1.2e-3 there
        mus = np.linspace(-6.0, 6.0, 7)
        worst = {"series+band<0.5": 0.0, "band>=0.5": 0.0, "all": 0.0}
        for s2 in [0.005, 0.02, 0.1, 0.3, 0.49, 0.8, 1.5, 1.999, 2.0, 5.0,
                   10.0]:
            for d in (1, 2):
                for mu in mus:
                    err = abs(xi(d, mu, s2) - xi_simpson(d, mu, s2))
                    worst["all"] = max(worst["all"], err)
                    if s2 < 0.5:
                        key = "series+band<0.5"
                    elif s2 < 2.0:
                        key = "band>=0.5"
                    else:
                        continue
                    worst[key] = max(worst[key], err)
        assert worst["series+band<0.5"] <= 1e-9
        # 24 nodes leave up to 3.1e-7 near sigma2 = 2 on this grid
        assert worst["band>=0.5"] <= 1e-6
        # from sigma2 = 2 up the fixed Gauss-Legendre rule is within 6.8e-14
        # here, so the band's error near 2 is the worst; the bound is the
        # 8.6e-6 that the trapezoid the rule replaced left at sigma2 = 10
        assert worst["all"] <= 1e-5

    def test_seam_at_series_cutoff(self):
        mu = np.linspace(-8.0, 8.0, 161)
        below = np.nextafter(specfun._SERIES_MAX, 0.0)
        for d in (0, 1, 2):
            jump = np.abs(xi(d, mu, below) - xi(d, mu, specfun._SERIES_MAX))
            assert jump.max() <= 1e-10

    def test_seam_at_series_min_mu(self):
        # below sigma2 = 0.01 the series takes mu >= -12 and the band the
        # rest; against mpmath at mu = -12, sigma2 = 0.0099 the series is
        # off by 6.3e-12 in xi_2, the band by 2.7e-12, and the jumps
        # measured on this grid are 4.3e-14, 4.1e-13 and 5.1e-12 (d = 0,
        # 1, 2)
        tau = specfun._SERIES_MIN_MU
        below = np.nextafter(tau, -np.inf)
        s2 = np.nextafter(np.linspace(0.0, specfun._SERIES_MAX, 101), 0.0)
        assert np.array_equal(xi((0, 1, 2), tau, s2),
                              xi_taylor((0, 1, 2), tau, s2))
        assert np.array_equal(xi((0, 1, 2), below, s2),
                              _xi_hermite((0, 1, 2), np.full(101, below), s2))
        for d, bound in ((0, 1e-13), (1, 1e-12), (2, 1e-11)):
            jump = np.abs(xi(d, tau, s2) - xi(d, below, s2))
            assert jump.max() <= bound

    def test_seam_at_quadrature_cutoff_within_band_error(self):
        # just below sigma2 = 2 the 24-node Gauss-Hermite band is off by up
        # to 1.0e-8, 4.5e-8 and 3.2e-7 (d = 0, 1, 2) on this grid, the
        # quadrature at 2 by at most 6.8e-14; so the jump is the band's own
        # error, and the 1% allows for the quadrature's. The trapezoid the
        # quadrature replaced was off by 2.5e-5, 4.4e-6 and 9.9e-7 there
        mu = np.linspace(-8.0, 8.0, 33)
        below = np.nextafter(specfun._GH_MAX, 0.0)
        for d in (0, 1, 2):
            jump = np.abs(xi(d, mu, below) - xi(d, mu, specfun._GH_MAX))
            band_err = np.array([abs(xi(d, m, below)
                                     - xi_simpson(d, m, below)) for m in mu])
            assert jump.max() <= 1.01 * band_err.max()

    # (mu, sigma2): (xi_1, xi_2), from a 60-digit mpmath quadrature of
    # int zeta_d(mu + sqrt(sigma2) u) phi(u) du on [-inf, -10, -5, -2, 0, 2,
    # 5, 10, inf], with zeta_1 = npdf/ncdf and zeta_2 = -zeta_1 (x + zeta_1);
    # an 80-digit run on other breakpoints agrees to 25 digits (to 58 on
    # the rows below sigma2 = 0.01)
    FAR_LEFT = {
        (-20.0, 0.001): (20.049753189892011094, -0.99753672053296054481),
        (-80.0, 0.001): (80.012496098747705407, -0.99984389622093431169),
        (-200.0, 0.001): (200.00499975015620674, -0.99997500374734488914),
        (-995.0, 0.001): (995.00100502309635101, -0.99999898993061525905),
        (-20.0, 0.005): (20.049753675366075997, -0.99753664912078108711),
        (-80.0, 0.005): (80.012496106545607388, -0.99984389592887722824),
        (-200.0, 0.005): (200.00499975065605701, -0.99997500373984863188),
        (-995.0, 0.005): (995.00100502310041157, -0.99999898993060301627),
        (-20.0, 0.0099): (20.049754270109800109, -0.99753656163163561534),
        (-80.0, 0.0099): (80.012496116098077056, -0.99984389557110482188),
        (-200.0, 0.0099): (200.004999751268374, -0.99997500373066570653),
        (-995.0, 0.0099): (995.00100502310538575, -0.99999898993058801886),
        (-12.0, 0.05): (12.082240915101247792, -0.99332292624358383064),
        (-20.0, 0.05): (20.049759138871286305, -0.99753584526699282741),
        (-50.0, 0.05): (50.019984430018904101, -0.99960093300150109203),
        (-80.0, 0.05): (80.012496194274014074, -0.99984389264310968477),
        (-12.0, 0.2): (12.082321433756036955, -0.99330376837609443371),
        (-20.0, 0.2): (20.049777376110711892, -0.99753315954239540751),
        (-50.0, 0.2): (50.019985624643413852, -0.99960086153807455854),
        (-80.0, 0.2): (80.012496486728695754, -0.99984388168888797876),
        (-12.0, 0.49): (12.082478394077000189, -0.99326622822256478809),
        (-20.0, 0.49): (20.049812746896437928, -0.99752793982624063863),
        (-50.0, 0.49): (50.019987935462971523, -0.99960072325474030438),
        (-80.0, 0.49): (80.012497052257423004, -0.99984386050346652648),
    }

    @pytest.mark.parametrize("mu,s2", sorted(FAR_LEFT))
    def test_far_left_band_matches_mpmath(self, mu, s2):
        # the series was off by 6.8e-4 in xi_2 at (-50, 0.49) and by 0.24
        # at (-80, 0.49), and below sigma2 = 0.01 by 4.6e-8 at (-80,
        # 0.0099) and 1.2e3 at (-995, 0.0099): it reads zeta up to order
        # 10, which the recursion loses there; the band reads orders up to
        # 2 only
        x1, x2 = xi((1, 2), mu, s2)
        ref1, ref2 = self.FAR_LEFT[(mu, s2)]
        assert x1 == pytest.approx(ref1, rel=1e-10, abs=0.0)
        assert x2 == pytest.approx(ref2, rel=1e-10, abs=0.0)

    def test_far_left_xi2_in_open_unit_interval(self):
        mu = np.repeat(np.arange(-995.0, -11.0), 6)
        s2 = np.tile([0.001, 0.005, 0.0099, 0.05, 0.2, 0.49], 984)
        x2 = xi(2, mu, s2)
        assert np.all((-1.0 < x2) & (x2 < 0.0))

    def test_batch_equals_elementwise(self):
        # all three branches in one batch, the band the most of it
        rng = np.random.default_rng(17)
        mu = rng.uniform(-60.0, 8.0, 300)
        s2 = np.concatenate([rng.uniform(0.0, 0.01, 20),
                             rng.uniform(0.01, 2.0, 260),
                             rng.uniform(2.0, 3.0, 20)])
        batch = xi((0, 1, 2), mu, s2)
        one = np.stack([xi((0, 1, 2), m, v) for m, v in zip(mu, s2)], axis=1)
        assert np.array_equal(batch, one)

    # inside the band, away from both seams; a central difference with
    # h = 1e-4 is within 5e-10 of the identities in mu. The heat identity
    # holds to 9e-11 below sigma2 = 0.5 and to 1.5e-7 near sigma2 = 1.9,
    # where the 24-node rule is least accurate
    BAND = dict(mu=st.floats(min_value=-8.0, max_value=8.0),
                s2=st.floats(min_value=0.02, max_value=1.9))

    @given(**BAND)
    @settings(max_examples=60, deadline=None)
    def test_mu_derivatives(self, mu, s2):
        h = 1e-4
        x0p, x1p, _ = xi((0, 1, 2), mu + h, s2)
        x0m, x1m, _ = xi((0, 1, 2), mu - h, s2)
        _, x1, x2 = xi((0, 1, 2), mu, s2)
        assert abs((x0p - x0m) / (2 * h) - x1) <= 5e-9
        assert abs((x1p - x1m) / (2 * h) - x2) <= 5e-9

    @given(**BAND)
    @settings(max_examples=60, deadline=None)
    def test_heat_identity(self, mu, s2):
        h = 1e-4
        fd = (xi(0, mu, s2 + h) - xi(0, mu, s2 - h)) / (2 * h)
        assert abs(fd - xi(2, mu, s2) / 2) <= (1e-9 if s2 < 0.5 else 1e-6)
