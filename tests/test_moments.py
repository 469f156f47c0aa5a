"""Tests for the approximation families and quadratic-form moment formulas.

Monte Carlo oracles are run in-test with fixed seeds and 3-4 standard-error
bands; closed-form expectations were hand-evaluated and frozen.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from momprop.exceptions import DomainError, UndefinedMomentError
from momprop.moments import (GaussianApprox, InverseGammaApprox,
                             InverseWishartApprox, StudentTApprox,
                             _gauss_quadform, _ig_mean, _ig_var,
                             _t_quadform, ig_mean_var,
                             ig_moment_match, iw_elementwise_var_diag,
                             iw_mean, iw_moment_match, require_spd)


class TestApproxTypes:
    def test_gaussian_requires_spd(self):
        with pytest.raises(DomainError):
            GaussianApprox(mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_gaussian_symmetrizes_drift(self):
        g = GaussianApprox(mean=[0.0], cov=[[1.0 + 1e-14]])
        assert g.cov[0, 0] > 0

    @pytest.mark.parametrize("i,j,value", [
        (0, 0, np.nan), (1, 0, np.nan), (2, 2, np.nan),
        (0, 0, np.inf), (1, 0, np.inf), (2, 1, -np.inf)])
    def test_non_finite_matrix_is_not_taken(self, i, j, value):
        """numpy's Cholesky returns NaNs for some non-finite matrices and
        raises for others; either way the matrix is named non-finite."""
        m = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 4.0]])
        m[i, j] = value
        with pytest.raises(DomainError, match="^cov must be finite$"):
            GaussianApprox(np.zeros(3), m)
        with pytest.raises(DomainError, match="^scale_matrix must be finite$"):
            InverseWishartApprox(m, 6.0)

    def test_random_non_finite_matrices_are_not_taken(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(1, 6))
            A = rng.standard_normal((p, p))
            m = A @ A.T + p * np.eye(p)
            m[tuple(rng.integers(0, p, 2))] = rng.choice(
                [np.nan, np.inf, -np.inf])
            with pytest.raises(DomainError, match="must be finite"):
                require_spd(m, "m")

    def test_t_cov_needs_dof(self):
        t = StudentTApprox(loc=[0.0], scale=[[1.0]], dof=2.0)
        with pytest.raises(UndefinedMomentError):
            _ = t.cov
        t = StudentTApprox(loc=[0.0], scale=[[1.0]], dof=4.0)
        assert t.cov[0, 0] == pytest.approx(2.0)

    def test_ig_positivity(self):
        with pytest.raises(DomainError):
            InverseGammaApprox(shape=-1.0, scale=1.0)

    @pytest.mark.parametrize("build,match", [
        (lambda: InverseGammaApprox(np.inf, 1.0), "inverse-gamma .* finite"),
        (lambda: InverseGammaApprox(3.0, np.inf), "inverse-gamma .* finite"),
        *((lambda dof=dof: InverseWishartApprox(np.eye(2), dof),
           "inverse-Wishart dof must be finite and exceed p - 1")
          for dof in (np.nan, np.inf, 0.5, -3.0)),
        (lambda: StudentTApprox(np.zeros(2), np.eye(2), np.inf),
         "t dof must be finite"),
    ], ids=["ig-shape-inf", "ig-scale-inf", "iw-dof-nan", "iw-dof-inf",
            "iw-dof-half", "iw-dof-negative", "t-dof-inf"])
    def test_scalars_outside_the_family_are_not_taken(self, build, match):
        """A start no density of the family has is rejected when built,
        before a fitter iterates from it."""
        with pytest.raises(DomainError, match=match):
            build()

    def test_iw_dof_just_above_p_minus_one_is_taken(self):
        assert InverseWishartApprox(np.eye(3), 2.0 + 1e-12).dof > 2.0


class TestInverseGamma:
    def test_mean_var_simple(self):
        assert ig_mean_var(InverseGammaApprox(3.0, 2.0)) == \
            pytest.approx((1.0, 1.0))
        mean, var = ig_mean_var(InverseGammaApprox(4.0, 9.0))
        assert (mean, var) == pytest.approx((3.0, 4.5))

    def test_reference_mean(self):
        mean, _ = ig_mean_var(InverseGammaApprox(2.51, 18.42))
        assert round(mean, 1) == 12.2

    def test_undefined_moments(self):
        with pytest.raises(UndefinedMomentError):
            ig_mean_var(InverseGammaApprox(0.9, 1.0))
        with pytest.raises(UndefinedMomentError):
            ig_mean_var(InverseGammaApprox(1.5, 1.0))

    def test_match_simple(self):
        ig = ig_moment_match(1.0, 1.0)
        assert (ig.shape, ig.scale) == pytest.approx((3.0, 2.0))

    def test_match_reference_values(self):
        # hand evaluation of the closed form at (12.2, 293) and (12.2, 185)
        ig = ig_moment_match(12.2, 293.0)
        assert ig.shape == pytest.approx(2.507986348122867, rel=1e-12)
        assert ig.scale == pytest.approx(18.397433447098972, rel=1e-12)
        ig = ig_moment_match(12.2, 185.0)
        assert ig.shape == pytest.approx(2.8045405405405406, rel=1e-12)
        assert ig.scale == pytest.approx(22.015394594594593, rel=1e-12)

    def test_match_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ig_moment_match(-1.0, 1.0)
        with pytest.raises(DomainError):
            ig_moment_match(1.0, 0.0)

    @given(st.floats(min_value=1e-3, max_value=1e4),
           st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, mean, var):
        # exact algebraically; in floats the conditioning blows up both for
        # huge shape and for shape -> 2 (cancellation in shape - 2)
        ig = ig_moment_match(mean, var)
        got = ig_mean_var(ig)
        eps = np.finfo(float).eps
        tol = 50 * eps * (ig.shape / (ig.shape - 2.0) + ig.shape)
        assert got[0] == pytest.approx(mean, rel=tol)
        assert got[1] == pytest.approx(var, rel=tol)

    def test_round_trip_from_params(self):
        ig = InverseGammaApprox(5.3, 7.1)
        back = ig_moment_match(*ig_mean_var(ig))
        assert back.shape == pytest.approx(ig.shape, rel=1e-12)
        assert back.scale == pytest.approx(ig.scale, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_random_scale_moments(self, excess, scale_mean, scale_var):
        """x = b / G, G ~ Gamma(shape, 1) independent of b, is IG(shape, b):
        E x = E b / (shape - 1), and E x^2 = E b^2 E G^-2 gives Var x =
        (Var b + (E b)^2) / ((shape - 1)(shape - 2)) - (E x)^2, here in
        exact rationals."""
        shape = 2.0 + excess
        a, m, v = (Fraction(x) for x in (shape, scale_mean, scale_var))
        mean = m / (a - 1)
        var = (v + m * m) / ((a - 1) * (a - 2)) - mean * mean
        assert _ig_mean(shape, scale_mean) == pytest.approx(
            float(mean), rel=1e-12, abs=0.0)
        assert _ig_var(shape, scale_mean, scale_var) == pytest.approx(
            float(var), rel=1e-12, abs=0.0)


class TestInverseWishart:
    def test_mean(self):
        w = InverseWishartApprox(6.0 * np.eye(2), 9.0)
        assert iw_mean(w) == pytest.approx(np.eye(2))
        w = InverseWishartApprox(np.eye(2), 7.0)
        assert iw_mean(w) == pytest.approx(np.eye(2) / 4.0)
        with pytest.raises(UndefinedMomentError):
            iw_mean(InverseWishartApprox(np.eye(2), 3.0))

    def test_elementwise_var_diag(self):
        w = InverseWishartApprox(np.eye(2), 9.0)
        assert iw_elementwise_var_diag(w) == pytest.approx(
            np.full(2, 2.0 / (36.0 * 4.0)))
        w = InverseWishartApprox(np.eye(2), 6.0)
        assert iw_elementwise_var_diag(w) == pytest.approx(
            np.full(2, 2.0 / 9.0))
        with pytest.raises(UndefinedMomentError):
            iw_elementwise_var_diag(InverseWishartApprox(np.eye(2), 5.0))

    def test_var_diag_against_monte_carlo(self):
        w = InverseWishartApprox(np.eye(2), 9.0)
        draws = stats.invwishart.rvs(df=9, scale=np.eye(2), size=200_000,
                                     random_state=np.random.default_rng(11))
        diag = draws[:, [0, 1], [0, 1]]
        mc_var = diag.var(axis=0, ddof=1)
        # SE of a sample variance ~ var * sqrt(2/(n-1)) for roughly normal;
        # the IW diagonal is heavy-tailed so take a generous 6x band
        se = mc_var * np.sqrt(2.0 / (len(diag) - 1)) * 6.0
        assert np.all(np.abs(iw_elementwise_var_diag(w) - mc_var) < 6 * se)

    def test_moment_match_simple(self):
        w = iw_moment_match(np.eye(2), 1.0)
        assert w.dof == pytest.approx(9.0)
        assert w.scale_matrix == pytest.approx(6.0 * np.eye(2))

    def test_moment_match_round_trip(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 4):
            a = rng.standard_normal((p, p))
            psi = a @ a.T + p * np.eye(p)
            w = InverseWishartApprox(psi, p + 5.5)
            back = iw_moment_match(iw_mean(w),
                                   float(np.sum(iw_elementwise_var_diag(w))))
            assert back.dof == pytest.approx(w.dof, rel=1e-12)
            assert back.scale_matrix == pytest.approx(w.scale_matrix,
                                                      rel=1e-12)

    def test_moment_match_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            iw_moment_match(np.eye(2), 0.0)


def _traces(Sigma, A):
    """tr(A Sigma) and tr((A Sigma)^2), the arguments of the quadratic-form
    moment helpers."""
    AS = np.atleast_2d(A) @ np.atleast_2d(Sigma)
    return np.trace(AS), np.trace(AS @ AS)


class TestGaussQuadform:
    """Moments of the centred form (x-mu)^T A (x-mu), x ~ N(mu, Sigma)."""

    def test_chi_square(self):
        for p in (1, 3, 5):
            mean, var = _gauss_quadform(*_traces(np.eye(p), np.eye(p)))
            assert mean == pytest.approx(p)
            assert var == pytest.approx(2.0 * p)
        # E chi^4 = 3 in one dimension
        mean, var = _gauss_quadform(*_traces([[1.0]], [[1.0]]))
        assert var + mean**2 == pytest.approx(3.0)

    def test_against_monte_carlo(self):
        mu = np.array([1.0, 0.0])
        Sigma = np.diag([2.0, 3.0])
        A = np.array([[1.0, 0.5], [0.5, 2.0]])
        rng = np.random.default_rng(5)
        x = rng.multivariate_normal(mu, Sigma, size=2_000_000)
        q = np.einsum("ij,jk,ik->i", x - mu, A, x - mu)
        mean, var = _gauss_quadform(*_traces(Sigma, A))
        se_mean = q.std(ddof=1) / np.sqrt(len(q))
        assert abs(mean - q.mean()) < 3 * se_mean
        se_var = q.var(ddof=1) * np.sqrt(2.0 / len(q)) * 3
        assert abs(var - q.var(ddof=1)) < 4 * se_var

    def test_shift(self):
        """Centring at mu = 1 leaves (x-1)^2 a central chi-square."""
        mean, var = _gauss_quadform(*_traces([[1.0]], [[1.0]]))
        assert (mean, var) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_ten_random_instances_against_monte_carlo(self):
        rng = np.random.default_rng(101)
        for i in range(10):
            p = int(rng.integers(1, 5))
            a = rng.standard_normal((p, p))
            Sigma = a @ a.T + p * np.eye(p)
            b = rng.standard_normal((p, p))
            A = 0.5 * (b + b.T)
            mu = rng.standard_normal(p)
            x = rng.multivariate_normal(mu, Sigma, size=300_000)
            q = np.einsum("ij,jk,ik->i", x - mu, A, x - mu)
            mean, var = _gauss_quadform(*_traces(Sigma, A))
            se_mean = q.std(ddof=1) / np.sqrt(len(q))
            assert abs(mean - q.mean()) < 4 * se_mean, f"instance {i}"
            # variance-of-variance band via the fourth central moment
            m4 = np.mean((q - q.mean()) ** 4)
            se_var = np.sqrt(max(m4 - q.var(ddof=1) ** 2, 0) / len(q))
            assert abs(var - q.var(ddof=1)) < 4 * se_var, f"instance {i}"


class TestTQuadform:
    """Moments of the centred form (x-mu)^T A (x-mu), x ~ t(mu, Sigma, dof)."""

    def test_reference_variance(self):
        # dof=10, scalar: 200/48 + 200/384 = 4.6875
        _, var = _t_quadform(*_traces([[1.0]], [[1.0]]), 10.0)
        assert var == pytest.approx(4.6875, rel=1e-13)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(10.0, size=4_000_000)
        q = x * x
        _, var = _t_quadform(*_traces([[1.0]], [[1.0]]), 10.0)
        se = q.var(ddof=1) * np.sqrt(2.0 / len(q))
        assert abs(var - q.var(ddof=1)) < 12 * se  # heavy-tailed q

    def test_mean_two_dim(self):
        mean, _ = _t_quadform(*_traces(np.eye(2), np.eye(2)), 6.0)
        assert mean == pytest.approx(3.0)

    def test_gaussian_limit(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3))
        Sigma = a @ a.T + 3 * np.eye(3)
        b = rng.standard_normal((3, 3))
        A = 0.5 * (b + b.T) + 3 * np.eye(3)
        t_m = _t_quadform(*_traces(Sigma, A), 1e6)
        g_m = _gauss_quadform(*_traces(Sigma, A))
        for tv, gv in zip(t_m, g_m):
            assert tv == pytest.approx(gv, rel=1e-3)

    def test_moment_existence_guards(self):
        with pytest.raises(UndefinedMomentError):
            _t_quadform(*_traces([[1.0]], [[1.0]]), 2.0)
        with pytest.raises(UndefinedMomentError):
            _t_quadform(*_traces([[1.0]], [[1.0]]), 4.0)
