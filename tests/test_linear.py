"""Linear model: exact posterior, mean-field, and both MP fitters.

The five-point intercept-only dataset has known posterior values (3 s.f.):
E(beta) 0.908, V(beta) 2.44, E(s2) 12.2, V(s2) 293; the approximations hit
(1.47, 11.0, 120) for MFVB and (2.44, 12.2, 185) for single-Gaussian MP.
Closed-form fixed-point identities give the tighter checks.
"""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momprop.datagen import fixed_linear_dataset, generate_linear
from momprop.exceptions import DomainError, NumericError
from momprop.linear import (LinearData, LinearPrior, linear_constants,
                            linear_exact_posterior, linear_mfvb_fit,
                            linear_mp1_fit, linear_mp2_fit)
from momprop.moments import InverseGammaApprox, ig_mean_var
from momprop.reports import moment_summary

EPS = 1e-6
# the start's own check, made before a fit sees it
IG_POSITIVE = "inverse-gamma shape and scale must be positive"


@pytest.fixture(scope="module")
def ref():
    y, X = fixed_linear_dataset()
    return LinearData(y, X), LinearPrior(g=1e4, A=0.01, B=0.01)


def _beta_moments(approx):
    if hasattr(approx, "loc"):
        return approx.loc, approx.cov
    return approx.mean, approx.cov


class TestConstants:
    def test_reference_beta_hat(self, ref):
        data, prior = ref
        c = linear_constants(data, prior)
        assert c.beta_hat[0] == pytest.approx(0.908, abs=5e-4)
        assert c.u == pytest.approx(1e4 / (1 + 1e4), rel=1e-15)

    def test_identity_design_zero_response(self):
        data = LinearData(np.zeros(4), np.eye(4))
        c = linear_constants(data, LinearPrior(g=10.0, A=1.0, B=1.0))
        assert c.beta_hat == pytest.approx(np.zeros(4))
        assert c.sigma_hat_u2 == pytest.approx(0.0, abs=1e-15)

    def test_large_g_recovers_ols_residual_variance(self):
        y, X = generate_linear(40, 3, seed=2)
        data = LinearData(y, X)
        c = linear_constants(data, LinearPrior(g=1e12, A=1.0, B=1.0))
        # direct OLS oracle
        bhat = np.linalg.lstsq(X, y, rcond=None)[0]
        mle = np.sum((y - X @ bhat) ** 2) / len(y)
        assert c.sigma_hat_u2 == pytest.approx(mle, rel=1e-9)

    def test_rank_deficient_raises(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(NumericError, match="X is rank deficient"):
            linear_constants(LinearData(np.arange(5.0), X),
                             LinearPrior(g=1.0, A=1.0, B=1.0))

    def test_collinear_designs_are_rank_deficient(self):
        """cholesky factors X'X of a column and its multiple, some of them
        numerically; every such design is rank deficient, not a fit."""
        rng = np.random.default_rng(0)
        prior = LinearPrior(g=1e4, A=0.01, B=0.01)
        for _ in range(200):
            n, p = rng.integers(5, 30), rng.integers(2, 5)
            X = rng.standard_normal((n, p))
            i, j = rng.choice(p, 2, replace=False)
            X[:, j] = rng.choice([1, 3, -0.7, 1 / 3, 0.1, 7]) * X[:, i]
            with pytest.raises(NumericError, match="X is rank deficient"):
                linear_mp2_fit(LinearData(rng.standard_normal(n), X), prior)

    def test_scaled_full_rank_designs_fit(self):
        """The rank test does not depend on column scale."""
        rng = np.random.default_rng(1)
        prior = LinearPrior(g=1e4, A=0.01, B=0.01)
        for _ in range(200):
            n, p = rng.integers(6, 30), rng.integers(2, 6)
            X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8, 8, p)
            c = linear_constants(LinearData(rng.standard_normal(n), X), prior)
            assert np.all(np.isfinite(c.XtX_inv))


class TestData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        y, X = fixed_linear_dataset()
        y[2] = bad
        with pytest.raises(DomainError):
            LinearData(y, X)
        y, X = fixed_linear_dataset()
        X[4, 0] = bad
        with pytest.raises(DomainError):
            LinearData(y, X)


class TestExactPosterior:
    def test_reference_values(self, ref):
        beta, s2 = linear_exact_posterior(*ref)
        assert beta.loc[0] == pytest.approx(0.9079092090790921, rel=1e-12)
        assert beta.cov[0, 0] == pytest.approx(2.443311443079594, rel=1e-12)
        mean, var = ig_mean_var(s2)
        assert mean == pytest.approx(12.217778871119513, rel=1e-12)
        assert var == pytest.approx(292.6943540070087, rel=1e-12)

    def test_ig_shape(self, ref):
        _, s2 = linear_exact_posterior(*ref)
        assert s2.shape == pytest.approx(2.51)

    def test_t_dof(self, ref):
        beta, _ = linear_exact_posterior(*ref)
        assert beta.dof == pytest.approx(2 * 0.01 + 5)


class TestMFVB:
    def test_reference_values(self, ref):
        rep = linear_mfvb_fit(*ref, eps=EPS)
        assert rep.converged
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert beta.mean[0] == pytest.approx(0.908, abs=5e-4)
        assert beta.cov[0, 0] == pytest.approx(1.47, abs=5e-3)
        mean, var = ig_mean_var(s2)
        assert mean == pytest.approx(11.0, abs=5e-2)
        assert var == pytest.approx(120.0, abs=0.5)

    def test_fixed_point_closed_form(self, ref):
        data, prior = ref
        rep = linear_mfvb_fit(data, prior, eps=1e-12, max_iter=2000)
        c = linear_constants(data, prior)
        n, p = data.n, data.p
        B_star = ((prior.A + (n + p) / 2) / (prior.A + n / 2)) \
            * (prior.B + n * c.sigma_hat_u2 / 2)
        assert rep.params["sigma2"].scale == pytest.approx(B_star, rel=1e-8)

    def test_zero_response_degenerate(self):
        data = LinearData(np.zeros(6), np.eye(6))
        prior = LinearPrior(g=100.0, A=2.0, B=3.0)
        rep = linear_mfvb_fit(data, prior, eps=1e-12, max_iter=2000)
        assert rep.params["beta"].mean == pytest.approx(np.zeros(6),
                                                        abs=1e-12)
        n, p = 6, 6
        expect = ((prior.A + (n + p) / 2) / (prior.A + n / 2)) * prior.B
        assert rep.params["sigma2"].scale == pytest.approx(expect, rel=1e-8)

    # each id names the bound its start breaks
    @pytest.mark.parametrize("start,match", [
        # the first sweep divides by the shape
        pytest.param((0.0, 1.0), IG_POSITIVE, id="start0-shape > 0"),
        # a negative-definite first Sigma
        pytest.param((-1.0, 1.0), IG_POSITIVE, id="start1-shape > 0"),
        pytest.param((1.0, 0.0), IG_POSITIVE, id="start2-scale > 0"),
        pytest.param((1.0, -1.0), IG_POSITIVE, id="start3-scale > 0"),
    ])
    def test_start_must_be_positive(self, ref, start, match):
        with pytest.raises(DomainError, match=match):
            linear_mfvb_fit(*ref, init=InverseGammaApprox(*start))

    def test_any_positive_start_reaches_the_fixed_point(self, ref):
        rep = linear_mfvb_fit(*ref, eps=1e-12, max_iter=2000)
        other = linear_mfvb_fit(*ref, eps=1e-12, max_iter=2000,
                                init=InverseGammaApprox(1e-3, 1e-3))
        assert other.params["sigma2"].scale == pytest.approx(
            rep.params["sigma2"].scale, rel=1e-10)

    def test_max_iter_reports_nonconvergence(self, ref):
        rep = linear_mfvb_fit(*ref, eps=1e-12, max_iter=2)
        assert not rep.converged
        assert rep.termination == "max_iter"
        assert rep.iterations == 2


class TestMP1:
    def test_reference_values(self, ref):
        rep = linear_mp1_fit(*ref, eps=EPS)
        assert rep.converged
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert beta.mean[0] == pytest.approx(0.908, abs=5e-4)
        assert beta.cov[0, 0] == pytest.approx(2.44, abs=5e-3)
        mean, var = ig_mean_var(s2)
        assert mean == pytest.approx(12.2, abs=5e-2)
        assert var == pytest.approx(184.6, abs=0.5)

    def test_fixed_point_closed_form(self, ref):
        data, prior = ref
        rep = linear_mp1_fit(data, prior, eps=1e-13, max_iter=2000)
        c = linear_constants(data, prior)
        n, p = data.n, data.p
        e_star = (prior.B + n * c.sigma_hat_u2 / 2) / (prior.A + n / 2 - 1)
        v_star = (1.0 / (prior.A + (n + p) / 2 - 2)
                  * (1 + (p / 2) / (prior.A + (n + p) / 2 - 1)) * e_star**2)
        mean, var = ig_mean_var(rep.params["sigma2"])
        assert mean == pytest.approx(e_star, rel=1e-8)
        assert var == pytest.approx(v_star, rel=1e-8)

    def test_variance_ordering(self, ref):
        data, prior = ref
        v_mfvb = ig_mean_var(linear_mfvb_fit(data, prior).params["sigma2"])[1]
        v_mp1 = ig_mean_var(linear_mp1_fit(data, prior).params["sigma2"])[1]
        v_exact = ig_mean_var(linear_exact_posterior(data, prior)[1])[1]
        assert v_mfvb < v_mp1 < v_exact

    def test_moment_guard(self):
        data = LinearData(np.array([1.0]), np.array([[1.0]]))
        with pytest.raises(DomainError):
            linear_mp1_fit(data, LinearPrior(g=1.0, A=0.5, B=1.0))

    @pytest.mark.parametrize("shape", [1.0, 0.5])
    def test_start_shape_must_exceed_one(self, ref, shape):
        # shape 1 has no q(sigma2) mean, and a shape in (0, 1) would start
        # from a negative-definite Sigma
        with pytest.raises(DomainError, match="shape > 1"):
            linear_mp1_fit(*ref, init=InverseGammaApprox(shape, 1.0))

    def test_start_scale_must_be_positive(self, ref):
        with pytest.raises(DomainError, match=IG_POSITIVE):
            linear_mp1_fit(*ref, init=InverseGammaApprox(3.0, 0.0))


class TestMP2:
    def test_reference_values(self, ref):
        rep = linear_mp2_fit(*ref, eps=EPS)
        assert rep.converged
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert beta.loc[0] == pytest.approx(0.908, abs=5e-4)
        assert beta.cov[0, 0] == pytest.approx(2.44, abs=5e-3)
        mean, var = ig_mean_var(s2)
        assert mean == pytest.approx(12.2, abs=5e-2)
        assert var == pytest.approx(292.7, abs=0.5)

    def test_recovers_exact_posterior(self):
        y, X = generate_linear(50, 3, seed=11)
        data = LinearData(y, X)
        prior = LinearPrior(g=50.0, A=0.5, B=0.5)
        rep = linear_mp2_fit(data, prior, eps=1e-12, max_iter=2000)
        beta_ex, s2_ex = linear_exact_posterior(data, prior)
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert beta.loc == pytest.approx(beta_ex.loc, rel=1e-8)
        assert beta.scale == pytest.approx(beta_ex.scale, rel=1e-8)
        assert beta.dof == pytest.approx(beta_ex.dof, rel=1e-8)
        assert s2.shape == pytest.approx(s2_ex.shape, rel=1e-8)
        assert s2.scale == pytest.approx(s2_ex.scale, rel=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_map_from_the_exact_sigma2_is_exact(self, seed):
        """The paper's exactness claim for one map: averaging beta's full
        conditional over the exact q(sigma2) gives the exact t, and the
        sigma2 update then returns the exact inverse gamma."""
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(8, 41)), int(rng.integers(1, 5))
        data = LinearData(*generate_linear(n, p, seed))
        prior = LinearPrior(g=float(rng.uniform(1.0, 1e4)), A=0.01, B=0.01)
        beta_ex, s2_ex = linear_exact_posterior(data, prior)
        rep = linear_mp2_fit(data, prior, max_iter=1, init=s2_ex)
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert rep.iterations == 1
        for got, want in [(beta.loc, beta_ex.loc), (beta.scale, beta_ex.scale),
                          ([beta.dof, s2.shape, s2.scale],
                           [beta_ex.dof, s2_ex.shape, s2_ex.scale])]:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @given(st.integers(8, 40), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.floats(1.0, 1e4), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_on_random_data(self, n, p, seed, g, A, B):
        """MP2 at its default eps is the closed-form posterior on random
        designs and priors, within 1e-6 relative."""
        data = LinearData(*generate_linear(n, p, seed))
        prior = LinearPrior(g=g, A=A, B=B)
        rep = linear_mp2_fit(data, prior)
        beta_ex, s2_ex = linear_exact_posterior(data, prior)
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        assert rep.converged
        for got, want in [(beta.loc, beta_ex.loc), (beta.scale, beta_ex.scale),
                          ([beta.dof, s2.shape, s2.scale],
                           [beta_ex.dof, s2_ex.shape, s2_ex.scale])]:
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    # each id names the bound its start breaks
    @pytest.mark.parametrize("start,match", [
        pytest.param((0.0, 1.0), IG_POSITIVE, id="start0-shape > 2"),
        ((2.0, 1.0), "shape > 2"),  # the first t quadratic form needs dof > 4
        pytest.param((3.0, 0.0), IG_POSITIVE, id="start2-scale > 0"),
    ])
    def test_start_bounds(self, ref, start, match):
        with pytest.raises(DomainError, match=match):
            linear_mp2_fit(*ref, init=InverseGammaApprox(*start))

    def test_start_just_above_the_shape_bound(self, ref):
        rep = linear_mp2_fit(*ref, eps=1e-12, max_iter=2000)
        other = linear_mp2_fit(*ref, eps=1e-12, max_iter=2000,
                               init=InverseGammaApprox(2.0 + 1e-6, 1.0))
        assert other.converged
        assert other.params["sigma2"].shape == pytest.approx(
            rep.params["sigma2"].shape, rel=1e-10)

    def test_converged_dof(self, ref):
        data, prior = ref
        rep = linear_mp2_fit(data, prior, eps=1e-12, max_iter=2000)
        assert rep.params["beta"].dof == pytest.approx(2 * prior.A + data.n,
                                                       rel=1e-10)


class TestSigmaIdentity:
    @pytest.mark.parametrize("g", [1.0, 1e4])
    def test_sigma_is_s_times_u_inverse_gram(self, g):
        """From the default start as from an init, every map's Sigma is
        s u (X'X)^-1 bit for bit, s read off the q(sigma2) the map starts
        from: B/A for mfvb and mp2, B/(A - 1) for mp1. The maps' sigma2
        updates rely on it to read tr(X'X Sigma) / u as s p."""
        rng = np.random.default_rng(11)
        prior = LinearPrior(g=g, A=0.01, B=0.01)
        fits = ((linear_mfvb_fit, lambda A, B: B / A),
                (linear_mp1_fit, lambda A, B: B / (A - 1.0)),
                (linear_mp2_fit, lambda A, B: B / A))
        for seed in range(20):
            n, p = int(rng.integers(8, 41)), int(rng.integers(1, 5))
            data = LinearData(*generate_linear(n, p, seed=seed))
            c = linear_constants(data, prior)
            init = InverseGammaApprox(rng.uniform(2.5, 10.0),
                                      rng.uniform(0.1, 10.0))
            for start in (None, init):
                for fit, s_of in fits:
                    A, B = ((prior.A + (n + p) / 2.0,
                             prior.B + 0.5 * data.y @ data.y)
                            if start is None else (start.shape, start.scale))
                    for vec in fit(data, prior, init=start).trace:
                        np.testing.assert_array_equal(
                            vec[p:p + p * p],
                            (s_of(A, B) * c.u * c.XtX_inv).ravel())
                        A, B = vec[-2:]


class TestCrossMethod:
    def test_coefficient_mean_identical_across_methods(self, ref):
        data, prior = ref
        c = linear_constants(data, prior)
        target = c.u * c.beta_hat
        for fit in (linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit):
            rep = fit(data, prior, max_iter=3)  # even far from convergence
            approx = rep.params["beta"]
            mean = approx.loc if hasattr(approx, "loc") else approx.mean
            assert mean == pytest.approx(target, rel=1e-14)

    def test_variance_ordering_random_instances(self):
        for seed in range(5):
            y, X = generate_linear(12 + 7 * seed, 1 + seed % 3, seed=seed)
            data = LinearData(y, X)
            prior = LinearPrior(g=20.0, A=0.3, B=0.4)
            v_mfvb = ig_mean_var(
                linear_mfvb_fit(data, prior).params["sigma2"])[1]
            v_mp1 = ig_mean_var(
                linear_mp1_fit(data, prior).params["sigma2"])[1]
            v_exact = ig_mean_var(linear_exact_posterior(data, prior)[1])[1]
            assert v_mfvb < v_mp1 < v_exact

    def test_trace_monotone_after_second_sweep(self, ref):
        data, prior = ref
        for fit in (linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit):
            rep = fit(data, prior, eps=1e-12, max_iter=2000)
            deltas = [np.max(np.abs(b - a))
                      for a, b in zip(rep.trace, rep.trace[1:])]
            for d_prev, d_next in zip(deltas[1:], deltas[2:]):
                assert d_next <= d_prev * (1 + 1e-9)

    def test_moment_summary(self, ref):
        rep = linear_mp2_fit(*ref)
        summ = moment_summary(rep.params)
        assert summ.scalar_mean == pytest.approx(12.2, abs=5e-2)


FITS = {"exact": linear_exact_posterior, "mfvb": linear_mfvb_fit,
        "mp1": linear_mp1_fit, "mp2": linear_mp2_fit}


def _arrays(out):
    """Every number a fit returns: each q-density field, and for an
    iterative fit its trace and iteration count."""
    q = (dict(zip(("beta", "sigma2"), out)) if isinstance(out, tuple)
         else {**out.params, "iterations": out.iterations,
               "trace": out.trace})
    flat = []
    for key, value in q.items():
        if hasattr(value, "__dataclass_fields__"):
            flat += [(f"{key}.{f.name}", getattr(value, f.name))
                     for f in fields(value)]
        else:
            flat.append((key, value))
    return flat


def _assert_same(a, b):
    assert [k for k, _ in a] == [k for k, _ in b]
    for (key, x), (_, y) in zip(a, b):
        np.testing.assert_array_equal(x, y, err_msg=key, strict=True)


class TestSharedStatistics:
    """A LinearData's Gram statistics are computed on its first fit and
    shared by the fits after it."""

    @pytest.mark.parametrize("order", [("exact", "mfvb", "mp1", "mp2"),
                                       ("mp2", "mp1", "mfvb", "exact")])
    def test_fits_on_one_data_set_equal_fresh_fits(self, order):
        rng = np.random.default_rng(5)
        prior = LinearPrior(g=1e4, A=0.01, B=0.01)
        for seed in range(12):
            n, p = int(rng.integers(8, 41)), int(rng.integers(1, 5))
            y, X = generate_linear(n, p, seed=seed)
            shared = LinearData(y, X)
            for name in order:
                _assert_same(_arrays(FITS[name](shared, prior)),
                             _arrays(FITS[name](LinearData(y, X), prior)))

    def test_no_prior_dependent_statistic_is_kept(self):
        y, X = generate_linear(30, 3, seed=4)
        shared = LinearData(y, X)
        for g in (1.0, 1e4):
            prior = LinearPrior(g=g, A=0.01, B=0.01)
            for fit in FITS.values():
                _assert_same(_arrays(fit(shared, prior)),
                             _arrays(fit(LinearData(y, X), prior)))

    def test_collinear_design_raises_on_every_fit(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), 2 * np.arange(6.0)])
        data = LinearData(np.arange(6.0), X)
        prior = LinearPrior(g=1.0, A=1.0, B=1.0)
        for fit in (linear_exact_posterior, linear_mp2_fit):
            with pytest.raises(NumericError, match="X is rank deficient"):
                fit(data, prior)

    def test_statistics_and_fields_are_read_only(self, ref):
        data, prior = ref
        linear_mfvb_fit(data, prior)
        gram = data.gram
        for a in (gram.XtX, gram.XtX_inv, gram.Xty, gram.beta_hat):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            data.X = np.ones((5, 1))
