"""MVN model: exact posterior, mean-field, and moment-propagation fitters.

Reference four-observation bivariate summary: with nu0 = 3, Psi0 = I,
lambda0 = 0.01 the posterior has nu_n = 7, V(mu|X) diag (0.114, 0.186),
MFVB gives dof 8 / Psi (2.08, 0.635, 3.41), and MP recovers the exact
parameters (dof 7, Psi = Psi_n).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momprop.datagen import generate_mvn
from momprop.exceptions import DomainError
from momprop.moments import (InverseWishartApprox, iw_elementwise_var_diag,
                             iw_mean, iw_moment_match)
from momprop.mvn import (MVNData, MVNPrior, iw_diag_marginal, mvn_constants,
                         mvn_exact_posterior, mvn_mfvb_fit, mvn_mp_fit)
from momprop.reports import moment_summary

XBAR = np.array([-0.9724726, 1.3202681])
S = np.array([[0.8144316, 0.5688416], [0.5688416, 1.9682059]])


@pytest.fixture(scope="module")
def ref():
    return (MVNData(n=4, xbar=XBAR, S=S),
            MVNPrior(lambda0=0.01, nu0=3.0, Psi0=np.eye(2)))


class TestConstantsAndExact:
    def test_psi_n(self, ref):
        c = mvn_constants(*ref)
        expect = np.array([[1.82386505, 0.55603437],
                           [0.55603437, 2.98559351]])
        assert c.Psi_n == pytest.approx(expect, abs=1e-7)
        assert c.nu_n == pytest.approx(7.0)
        assert c.lambda_n == pytest.approx(4.01)

    def test_exact_mu_covariance(self, ref):
        mu_t, Sig_iw = mvn_exact_posterior(*ref)
        expect = np.array([[0.1137073, 0.03466548],
                           [0.03466548, 0.18613426]])
        assert mu_t.cov == pytest.approx(expect, abs=1e-7)
        assert Sig_iw.dof == pytest.approx(7.0)

    def test_prior_only_limit(self):
        # no observations: posterior collapses to the prior
        data = MVNData(n=0, xbar=np.zeros(2), S=np.zeros((2, 2)))
        prior = MVNPrior(lambda0=0.5, nu0=4.0, Psi0=2.0 * np.eye(2))
        c = mvn_constants(data, prior)
        assert c.mu_n == pytest.approx(np.zeros(2))
        assert c.Psi_n == pytest.approx(2.0 * np.eye(2))
        assert c.nu_n == pytest.approx(4.0)

    def test_from_raw_matches_summaries(self):
        X = generate_mvn(25, 3, seed=4)
        d = MVNData.from_raw(X)
        assert d.n == 25
        assert d.xbar == pytest.approx(X.mean(axis=0))
        assert d.S == pytest.approx(
            (X - X.mean(axis=0)).T @ (X - X.mean(axis=0)), abs=1e-9)

    def test_from_raw_scatter_survives_a_large_mean(self):
        """S is formed from the centred data, so a mean far from 0 does not
        cancel it (at a shift of 1e8, X^T X - n xbar xbar^T is not even
        positive semidefinite). What is left is the rounding of X + 1e8
        itself; from_raw matches the exact scatter of the shifted data."""
        X = np.random.default_rng(0).standard_normal((100, 2))
        base, shifted = MVNData.from_raw(X).S, X + 1e8
        S = MVNData.from_raw(shifted).S
        assert np.linalg.norm(S - base) <= 1e-9 * np.linalg.norm(base)
        rows = [[Fraction(v) for v in row] for row in shifted]
        mean = [sum(col) / len(rows) for col in zip(*rows)]
        exact = np.array([[float(sum((r[i] - mean[i]) * (r[j] - mean[j])
                                     for r in rows)) for j in range(2)]
                          for i in range(2)])
        assert np.max(np.abs(S - exact)) <= 1e-14 * np.max(np.abs(exact))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_data(self, bad):
        with pytest.raises(DomainError):
            MVNData(n=3, xbar=[0.0, bad], S=np.eye(2))
        with pytest.raises(DomainError):
            MVNData(n=3, xbar=[0.0, 0.0], S=[[1.0, bad], [bad, 1.0]])
        X = generate_mvn(5, 2, seed=1)
        X[3, 1] = bad
        with pytest.raises(DomainError):
            MVNData.from_raw(X)

    @pytest.mark.parametrize("n", [4.7, np.inf, np.nan])
    def test_rejects_fractional_count(self, n):
        with pytest.raises(DomainError, match="n must be a whole number"):
            MVNData(n=n, xbar=XBAR, S=S)
        whole = MVNData(n=4.0, xbar=XBAR, S=S).n
        assert whole == 4 and type(whole) is int

    def test_diag_marginal_consistent_with_iw_moments(self, ref):
        _, Sig_iw = mvn_exact_posterior(*ref)
        for j in range(2):
            ig = iw_diag_marginal(Sig_iw, j)
            assert ig.scale / (ig.shape - 1) == pytest.approx(
                iw_mean(Sig_iw)[j, j], rel=1e-12)
            var = ig.scale**2 / ((ig.shape - 1) ** 2 * (ig.shape - 2))
            assert var == pytest.approx(
                iw_elementwise_var_diag(Sig_iw)[j], rel=1e-12)


class TestMFVB:
    def test_reference_row(self, ref):
        rep = mvn_mfvb_fit(*ref, eps=1e-6)
        assert rep.converged
        Sig = rep.params["mu"].cov
        Psi = rep.params["Sigma"].scale_matrix
        assert rep.params["Sigma"].dof == pytest.approx(8.0)
        assert Sig[0, 0] == pytest.approx(0.065, abs=5e-4)
        assert Sig[0, 1] == pytest.approx(0.0198, abs=5e-5)
        assert Sig[1, 1] == pytest.approx(0.106, abs=5e-4)
        assert Psi[0, 0] == pytest.approx(2.08, abs=5e-3)
        assert Psi[0, 1] == pytest.approx(0.635, abs=5e-4)
        assert Psi[1, 1] == pytest.approx(3.41, abs=5e-3)

    def test_fixed_point_closed_form(self, ref):
        data, prior = ref
        rep = mvn_mfvb_fit(data, prior, eps=1e-13, max_iter=2000)
        c = mvn_constants(data, prior)
        assert rep.params["mu"].cov == pytest.approx(
            c.Psi_n / (c.lambda_n * c.nu_n), rel=1e-10)
        assert rep.params["Sigma"].scale_matrix == pytest.approx(
            (c.nu_n + 1) / c.nu_n * c.Psi_n, rel=1e-10)

    def test_variance_ratio(self, ref):
        data, prior = ref
        rep = mvn_mfvb_fit(data, prior, eps=1e-12, max_iter=2000)
        mu_t, _ = mvn_exact_posterior(data, prior)
        ratio = mu_t.cov / rep.params["mu"].cov
        assert ratio == pytest.approx(np.full((2, 2), 1.75), rel=1e-8)

    def test_mean_always_mu_n(self, ref):
        data, prior = ref
        c = mvn_constants(data, prior)
        rep = mvn_mfvb_fit(data, prior, max_iter=3)
        assert rep.params["mu"].mean == pytest.approx(c.mu_n, rel=1e-15)

    def test_underestimation(self, ref):
        data, prior = ref
        rep = mvn_mfvb_fit(data, prior, eps=1e-12, max_iter=2000)
        mu_t, Sig_iw = mvn_exact_posterior(data, prior)
        assert np.all(np.abs(rep.params["mu"].cov) < np.abs(mu_t.cov))
        e_q = iw_mean(rep.params["Sigma"])
        e_exact = iw_mean(Sig_iw)
        assert np.all(np.abs(e_q) < np.abs(e_exact))
        v_q = iw_elementwise_var_diag(rep.params["Sigma"])
        v_exact = iw_elementwise_var_diag(Sig_iw)
        assert np.all(v_q < v_exact)


class TestMP:
    def test_reference_row(self, ref):
        rep = mvn_mp_fit(*ref, eps=1e-6)
        assert rep.converged and not rep.wrong_basin
        assert rep.params["Sigma"].dof == pytest.approx(7.0, abs=1e-9)
        assert rep.params["mu"].dof == pytest.approx(6.0, abs=1e-9)
        Psi = rep.params["Sigma"].scale_matrix
        assert Psi[0, 0] == pytest.approx(1.82, abs=5e-3)
        assert Psi[0, 1] == pytest.approx(0.556, abs=5e-4)
        assert Psi[1, 1] == pytest.approx(2.99, abs=5e-3)
        cov = rep.params["mu"].cov
        assert cov[0, 0] == pytest.approx(0.114, abs=5e-4)
        assert cov[0, 1] == pytest.approx(0.0347, abs=5e-5)
        assert cov[1, 1] == pytest.approx(0.186, abs=5e-4)

    def test_recovers_exact_posterior_random_instance(self):
        X = generate_mvn(30, 3, seed=21)
        data = MVNData.from_raw(X)
        prior = MVNPrior(lambda0=0.01, nu0=4.0, Psi0=np.eye(3))
        rep = mvn_mp_fit(data, prior, eps=1e-12, max_iter=2000)
        mu_t, Sig_iw = mvn_exact_posterior(data, prior)
        assert rep.params["mu"].loc == pytest.approx(mu_t.loc, rel=1e-8)
        assert rep.params["mu"].scale == pytest.approx(mu_t.scale, rel=1e-8)
        assert rep.params["mu"].dof == pytest.approx(mu_t.dof, rel=1e-8)
        assert rep.params["Sigma"].scale_matrix == pytest.approx(
            Sig_iw.scale_matrix, rel=1e-8)
        assert rep.params["Sigma"].dof == pytest.approx(Sig_iw.dof, rel=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_map_from_the_exact_sigma_is_exact(self, seed):
        """The paper's exactness claim for one map: averaging mu's full
        conditional over the exact q(Sigma) gives the exact t, and the
        Sigma update then returns the exact inverse Wishart."""
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(8, 41)), int(rng.integers(2, 5))
        data = MVNData.from_raw(generate_mvn(n, p, seed))
        prior = MVNPrior(lambda0=float(rng.uniform(0.01, 2.0)))
        mu_ex, Sig_ex = mvn_exact_posterior(data, prior)
        rep = mvn_mp_fit(data, prior, max_iter=1, init=Sig_ex)
        mu, Sig = rep.params["mu"], rep.params["Sigma"]
        assert rep.iterations == 1
        for got, want in [(mu.loc, mu_ex.loc), (mu.scale, mu_ex.scale),
                          (Sig.scale_matrix, Sig_ex.scale_matrix),
                          ([mu.dof, Sig.dof], [mu_ex.dof, Sig_ex.dof])]:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.floats(0.01, 2.0), st.floats(0.0, 5.0), st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_on_random_summaries(self, p, seed, lambda0, nu0_excess,
                                       psi0_scale):
        """MP at its default eps and start is the closed-form posterior on
        random summaries and priors, within 1e-6 relative."""
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((p, p))
        data = MVNData(n=int(rng.integers(5, 60)),
                       xbar=rng.standard_normal(p) * 3.0,
                       S=M @ M.T + 0.1 * np.eye(p))
        prior = MVNPrior(lambda0=lambda0, nu0=p - 1.0 + nu0_excess + 1e-3,
                         Psi0=psi0_scale * np.eye(p))
        rep = mvn_mp_fit(data, prior)
        mu_ex, Sig_ex = mvn_exact_posterior(data, prior)
        mu, Sig = rep.params["mu"], rep.params["Sigma"]
        assert rep.converged and not rep.wrong_basin
        for got, want in [(mu.loc, mu_ex.loc), (mu.scale, mu_ex.scale),
                          (Sig.scale_matrix, Sig_ex.scale_matrix),
                          ([mu.dof, Sig.dof], [mu_ex.dof, Sig_ex.dof])]:
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_spurious_fixed_point_self_reproduces(self, ref):
        data, prior = ref
        c = mvn_constants(data, prior)
        p = data.p
        d_sp = p + 3.0
        Psi_sp = 2.0 * c.Psi_n / (c.nu_n - p - 1.0)
        rep = mvn_mp_fit(data, prior, init=InverseWishartApprox(Psi_sp, d_sp),
                         max_iter=1)
        assert rep.params["Sigma"].dof == pytest.approx(d_sp, abs=1e-10)
        assert rep.params["Sigma"].scale_matrix == pytest.approx(Psi_sp,
                                                                 abs=1e-10)
        assert rep.params["mu"].dof == pytest.approx(4.0, abs=1e-12)

    def test_spurious_seed_converges_there_and_flags(self, ref):
        data, prior = ref
        c = mvn_constants(data, prior)
        p = data.p
        start = InverseWishartApprox(2.0 * c.Psi_n / (c.nu_n - p - 1.0),
                                     p + 3.0)
        rep = mvn_mp_fit(data, prior, init=start)
        assert rep.converged
        assert rep.wrong_basin
        assert rep.params["Sigma"].dof == pytest.approx(p + 3.0, abs=1e-9)

    def test_near_spurious_seed_escapes_to_exact(self, ref):
        # the degenerate solution repels nearby iterates: a perturbed seed
        # drifts back to the exact fixed point
        data, prior = ref
        c = mvn_constants(data, prior)
        p = data.p
        start = InverseWishartApprox(2.0 * c.Psi_n / (c.nu_n - p - 1.0),
                                     p + 3.01)
        rep = mvn_mp_fit(data, prior, init=start, eps=1e-10, max_iter=5000)
        assert rep.converged
        assert not rep.wrong_basin
        assert rep.params["Sigma"].dof == pytest.approx(c.nu_n, abs=1e-6)

    def test_psi0_of_another_dimension_is_domain_error(self):
        with pytest.raises(DomainError, match="^Psi0 has wrong shape$"):
            MVNPrior(Psi0=np.eye(3)).resolved(2)

    def test_moment_guard(self):
        data = MVNData(n=2, xbar=np.zeros(2), S=np.eye(2))
        prior = MVNPrior(lambda0=1.0, nu0=2.0, Psi0=np.eye(2))
        # nu_n = 4 = p + 2: variance matching impossible
        with pytest.raises(DomainError):
            mvn_mp_fit(data, prior)

    def test_matches_iw_moment_match_on_exact_inputs(self, ref):
        # the Sigma update is the generic moment-matching solver applied to
        # the exact posterior moments
        data, prior = ref
        _, Sig_iw = mvn_exact_posterior(data, prior)
        w = iw_moment_match(iw_mean(Sig_iw),
                            float(np.sum(iw_elementwise_var_diag(Sig_iw))))
        assert w.dof == pytest.approx(7.0, rel=1e-12)
        assert w.scale_matrix == pytest.approx(Sig_iw.scale_matrix,
                                               rel=1e-12)


@pytest.mark.parametrize("fit", [mvn_mfvb_fit, mvn_mp_fit],
                         ids=["mfvb", "mp"])
def test_start_of_another_dimension_is_domain_error(ref, fit):
    with pytest.raises(DomainError, match=r"init scale matrix has shape "
                                          r"\(3, 3\); the data needs \(2, 2\)"):
        fit(*ref, init=InverseWishartApprox(np.eye(3), 7.0))


class TestSummary:
    def test_summary_uses_t_cov(self, ref):
        rep = mvn_mp_fit(*ref)
        summ = moment_summary(rep.params)
        assert summ.cov[0, 0] == pytest.approx(0.114, abs=5e-4)


class TestLambda0Sensitivity:
    def test_reference_values_across_diffuse_lambda0(self):
        # the reference table assumes a diffuse lambda0 without stating it;
        # 0.01 matches at 3 s.f., values drift by ~0.5% per decade below
        # and ~2% at 0.05
        data = MVNData(n=4, xbar=XBAR, S=S)
        for lam0, tol in ((1e-4, 0.01), (1e-3, 0.01), (0.01, 0.003),
                          (0.05, 0.025)):
            prior = MVNPrior(lambda0=lam0, nu0=3.0, Psi0=np.eye(2))
            vb = mvn_mfvb_fit(data, prior, eps=1e-10, max_iter=2000)
            assert vb.params["mu"].cov[0, 0] == \
                pytest.approx(0.065, rel=tol)
            mpr = mvn_mp_fit(data, prior, eps=1e-10, max_iter=2000)
            Psi = mpr.params["Sigma"].scale_matrix
            assert Psi[0, 0] == pytest.approx(1.82, rel=tol)
            assert Psi[1, 1] == pytest.approx(2.99, rel=tol)
