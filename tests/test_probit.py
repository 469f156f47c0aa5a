"""Probit fitters: Laplace, MFVB, moment propagation, DMVB, Gibbs.

Scalar oracle for the one-observation problem: the mode solves
zeta_1(b) = b, root 0.5060544689891807 (Brent bracketing, frozen).
"""

import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import ks_2samp

from momprop import probit, reports
from momprop.datagen import generate_linear, generate_mvn, generate_probit
from momprop.exceptions import DomainError, NumericError
from momprop.moments import GaussianApprox
from momprop.probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                            probit_gibbs_oracle, probit_laplace_fit,
                            probit_mfvb_fit, probit_mp_fit)
from momprop.reports import MomentSummary
from momprop.specfun import zeta

SINGLE_OBS_MODE = 0.5060544689891807


def dmvb_objective_grad(data, prior, mu):
    """Profiled delta-method ELBO at mu and its gradient, from the Newton
    evaluation that the dmvb fit steps on."""
    point = probit._newton_point(data.Z, prior.D, mu, True)
    return point[1], probit._newton_gradient(data.Z, prior.D, point)


def _truncnorm_positive(rng, m):
    """Draws from N(m, 1) conditioned on being positive, one per m_i, by
    the sampler's own tail-mass and inverse-CDF kernels."""
    v = probit._tail_mass(rng, np.empty_like(m))
    return probit._truncnorm_into(m, v, np.empty_like(m))


def _truncnorm_ar_positive(rng, m):
    """The same draws by the large-n sampler's accept-reject kernel; m is
    left as it was."""
    return probit._truncnorm_ar(rng, m.copy(), np.empty_like(m))


@pytest.fixture(scope="module")
def single_obs():
    return (ProbitData(y=[1.0], X=[[1.0]]), ProbitPrior(D=[[1.0]]))


@pytest.fixture(scope="module")
def synthetic200():
    y, X = generate_probit(200, 3, seed=7)
    return ProbitData(y, X), ProbitPrior.ridge(0.01, 3)


# every deterministic probit fit as fit(data, prior, **kwargs)
FITS = {"laplace": probit_laplace_fit, "mfvb": probit_mfvb_fit,
        "mp-dm": lambda data, prior, **kw: probit_mp_fit(data, prior, "dm",
                                                         **kw),
        "mp-quad": lambda data, prior, **kw: probit_mp_fit(data, prior,
                                                           "quad", **kw),
        "dmvb": probit_dmvb_fit}


class TestLaplace:
    def test_single_observation_mode(self, single_obs):
        # independent scalar oracle
        root = brentq(lambda b: zeta(1, b) - b, 0.2, 0.9, xtol=1e-14)
        assert root == pytest.approx(SINGLE_OBS_MODE, rel=1e-12)
        rep = probit_laplace_fit(*single_obs, eps=1e-12)
        assert rep.converged
        assert rep.params["beta"].mean[0] == pytest.approx(SINGLE_OBS_MODE,
                                                           rel=1e-9)

    def test_prior_dominated(self):
        y, X = generate_probit(50, 2, seed=3)
        data = ProbitData(y, X)
        prior = ProbitPrior.ridge(1e6, 2)
        rep = probit_laplace_fit(data, prior, eps=1e-12)
        assert np.max(np.abs(rep.params["beta"].mean)) < 1e-3
        gap = np.max(np.abs(rep.params["beta"].cov - np.eye(2) / 1e6))
        assert gap <= 1e-3 * 1e-6

    def test_separable_matches_grid_search(self):
        # all-ones labels with positive 1-D design: prior keeps the mode
        # finite; compare against a brute-force grid maximization
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 2.0, size=20)
        data = ProbitData(y=np.ones(20), X=x[:, None])
        prior = ProbitPrior(D=[[1.0]])
        rep = probit_laplace_fit(data, prior, eps=1e-12)

        from scipy.special import log_ndtr
        grid = np.linspace(0.01, 10.0, 200_001)
        vals = log_ndtr(np.outer(grid, x)).sum(axis=1) - 0.5 * grid**2
        b_grid = grid[np.argmax(vals)]
        assert rep.params["beta"].mean[0] == pytest.approx(b_grid, abs=1e-4)
        # refine with the derivative root for the 1e-6 comparison
        f = lambda b: float(x @ zeta(1, b * x)) - b
        b_star = brentq(f, b_grid - 0.01, b_grid + 0.01, xtol=1e-12)
        assert rep.params["beta"].mean[0] == pytest.approx(b_star, abs=1e-6)


class TestMFVB:
    def test_mode_equivalence(self, synthetic200):
        data, prior = synthetic200
        lap = probit_laplace_fit(data, prior, eps=1e-12)
        vb = probit_mfvb_fit(data, prior, eps=1e-11, max_iter=50_000)
        assert vb.converged
        assert np.max(np.abs(vb.params["beta"].mean
                             - lap.params["beta"].mean)) <= 1e-6

    def test_single_observation(self, single_obs):
        rep = probit_mfvb_fit(*single_obs, eps=1e-12, max_iter=10_000)
        assert rep.params["beta"].mean[0] == pytest.approx(SINGLE_OBS_MODE,
                                                           abs=1e-8)

    def test_covariance_is_workspace_matrix(self, synthetic200):
        data, prior = synthetic200
        rep = probit_mfvb_fit(data, prior, max_iter=7)
        S = np.linalg.inv(data.Z.T @ data.Z + prior.D)
        assert rep.params["beta"].cov == pytest.approx(S, rel=1e-10)


class TestMP:
    def test_prior_dominated(self):
        y, X = generate_probit(50, 2, seed=3)
        data = ProbitData(y, X)
        prior = ProbitPrior.ridge(1e6, 2)
        rep = probit_mp_fit(data, prior, variant="dm", eps=1e-10)
        assert np.max(np.abs(rep.params["beta"].mean)) < 1e-4
        gap = np.max(np.abs(rep.params["beta"].cov - np.eye(2) / 1e6))
        assert gap <= 1e-4 * 1e-6

    def test_dm_quad_agree(self, synthetic200):
        data, prior = synthetic200
        dm = probit_mp_fit(data, prior, variant="dm")
        qd = probit_mp_fit(data, prior, variant="quad")
        assert np.max(np.abs(dm.params["beta"].mean
                             - qd.params["beta"].mean)) <= 1e-3

    def test_dm_vs_quad_xi_agreement_small_variance(self):
        # second-order delta method vs full evaluation of the smoothed
        # functions, small-variance regime
        from momprop.specfun import xi
        from momprop.specfun import _zeta_orders
        mus = np.linspace(-6, 6, 25)
        for d in (1, 2):
            for s2 in (0.01, 0.05, 0.1):
                z = _zeta_orders(d + 2, mus)
                dm = z[d] + 0.5 * z[d + 2] * s2
                full = xi(d, mus, np.full_like(mus, s2))
                assert np.max(np.abs(dm - full)) <= 1e-3

    def test_covariance_dominates_mean_field(self, synthetic200):
        data, prior = synthetic200
        S = np.linalg.inv(data.Z.T @ data.Z + prior.D)
        for it in (1, 3, 10, 200):
            rep = probit_mp_fit(data, prior, variant="dm", max_iter=it)
            gap = rep.params["beta"].cov - S
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-12

    def test_fixed_point_residual(self, synthetic200):
        data, prior = synthetic200
        eps = 1e-8
        rep = probit_mp_fit(data, prior, variant="dm", eps=eps,
                            max_iter=2000)
        assert rep.converged
        more = probit_mp_fit(data, prior, variant="dm", max_iter=1,
                             init=rep.params["beta"])
        delta = max(
            np.max(np.abs(more.params["beta"].mean
                          - rep.params["beta"].mean)),
            np.max(np.abs(more.params["beta"].cov
                          - rep.params["beta"].cov)))
        assert delta < 10 * eps

    def test_unknown_variant_rejected(self, synthetic200):
        with pytest.raises(DomainError):
            probit_mp_fit(*synthetic200, variant="nope")

    @pytest.mark.parametrize("variant", ["DM", "Quad", "nope"])
    def test_variant_checked_before_any_work(self, synthetic200, monkeypatch,
                                             variant):
        monkeypatch.setattr(probit, "_workspace", None)  # not to be reached
        with pytest.raises(DomainError, match="unknown MP variant"):
            probit_mp_fit(*synthetic200, variant=variant)

    def test_update_ordering_reaches_same_fixed_point(self, synthetic200):
        # the library computes both block updates from the pre-update
        # iterate; a sequential variant (covariance update sees the fresh
        # mean) must land on the same fixed point
        from momprop.specfun import _zeta_orders
        data, prior = synthetic200
        Z = data.Z
        S = np.linalg.inv(Z.T @ Z + prior.D)
        SZt = S @ Z.T
        mu = SZt @ np.ones(data.n)
        Sig = S.copy()
        for _ in range(2000):
            m = Z @ mu
            v = np.einsum("ij,jk,ik->i", Z, Sig, Z)
            z = _zeta_orders(4, m)
            x1 = z[1] + 0.5 * z[3] * v
            mu_new = SZt @ (m + x1)
            # sequential: re-evaluate at the fresh mean for the covariance
            m2 = Z @ mu_new
            v2 = np.einsum("ij,jk,ik->i", Z, Sig, Z)
            z2nd = _zeta_orders(4, m2)
            x2 = z2nd[2] + 0.5 * z2nd[4] * v2
            ZS = Z @ S
            term2 = ZS.T @ ((1.0 + x2)[:, None] * ZS)
            G = Z.T @ ((1.0 + z2nd[2])[:, None] * ZS)
            Sig_new = S + term2 + G.T @ Sig @ G
            Sig_new = 0.5 * (Sig_new + Sig_new.T)
            delta = max(np.max(np.abs(mu_new - mu)),
                        np.max(np.abs(Sig_new - Sig)))
            mu, Sig = mu_new, Sig_new
            if delta < 1e-10:
                break
        rep = probit_mp_fit(data, prior, variant="dm", eps=1e-10,
                            max_iter=2000)
        assert np.max(np.abs(rep.params["beta"].mean - mu)) < 1e-6
        assert np.max(np.abs(rep.params["beta"].cov - Sig)) < 1e-6

    def test_aux_moments_shape(self, synthetic200):
        rep = probit_mp_fit(*synthetic200, variant="dm")
        assert rep.params["aux"].mean_a.shape == (200,)


@pytest.fixture(scope="module")
def near_separation():
    """A panel dataset on which the plain MP sweeps contract at about 0.99
    and stop at the default cap of 500 unconverged."""
    y, X = generate_probit(57, 5, seed=14)
    return ProbitData(y, X), ProbitPrior.ridge(0.01, 5)


def _dm_xi(d, m, v):
    """The delta-method xi_d at (m, v): zeta_d(m) + zeta_{d+2}(m) v / 2."""
    return zeta(d, m) + 0.5 * zeta(d + 2, m) * v


def _plain_sweeps(data, prior, eps, max_iter):
    """Probit MP-dm by sweeping its map in dense numpy, as before the
    direct solve: mu' = S Z^T (m + xi_1) and Sigma' = S + S A S
    + S B Sigma B S, with A = Z^T diag(1 + xi_2) Z and
    B = Z^T diag(1 + zeta_2(m)) Z, all at m = Z mu and the current v."""
    Z = data.Z
    S = np.linalg.inv(Z.T @ Z + prior.D)

    def step(state):
        mu, Sig = state
        m = Z @ mu
        v = np.einsum("ij,jk,ik->i", Z, Sig, Z)
        A = (Z.T * (1.0 + _dm_xi(2, m, v))) @ Z
        B = (Z.T * (1.0 + zeta(2, m))) @ Z
        mu_a = m + _dm_xi(1, m, v)
        mu, Sig = S @ (Z.T @ mu_a), S + S @ A @ S + S @ B @ Sig @ B @ S
        return (mu, Sig), np.concatenate([mu, Sig.ravel(), mu_a])
    return reports.fixed_point(
        step, (S @ Z.sum(axis=0), S),
        lambda s: {"beta": GaussianApprox(*s)}, eps, max_iter)


class TestExtrapolation:
    @pytest.mark.parametrize("method", ["mfvb", "mp-dm", "mp-quad"])
    def test_near_separation_converges_within_default_cap(
            self, near_separation, method):
        data, prior = near_separation
        rep = (probit_mfvb_fit(data, prior) if method == "mfvb"
               else probit_mp_fit(data, prior, method[3:]))
        assert rep.converged and rep.iterations <= 150
        assert len(rep.trace) == rep.iterations

    def test_no_farther_from_fixed_point_than_plain_sweeps(
            self, near_separation):
        data, prior = near_separation
        eps = 1e-6
        fast = probit_mp_fit(data, prior, "dm", eps=eps)
        plain = _plain_sweeps(data, prior, eps, max_iter=2000)
        ref = probit_mp_fit(data, prior, "dm", eps=1e-13, max_iter=20000)
        assert fast.converged and plain.converged and ref.converged
        assert plain.iterations > 5 * fast.iterations
        assert _max_gap(fast, ref) <= _max_gap(plain, ref)
        # eps bounds the last change, not the distance to the fixed point,
        # which for the sweeps' contraction of about 0.99 may be 100 eps:
        # the direct solve's mean lies within 10 eps of the reference
        assert np.max(np.abs(fast.params["beta"].mean
                             - ref.params["beta"].mean)) <= 10 * eps


def _dense_stein(Q, G):
    """The solution of Sigma = Q + G^T Sigma G by one dense solve on the
    p^2 x p^2 system (I - G^T kron G^T) vec(Sigma) = vec(Q)."""
    p = len(Q)
    vec = np.linalg.solve(np.eye(p * p) - np.kron(G.T, G.T), Q.ravel())
    return vec.reshape(p, p)


def _separable_150():
    """A separable 40-row set with an intercept, its predictor scaled by
    1e150: Z^T Z stays finite, but a Newton step can overflow Z beta."""
    x = np.random.default_rng(0).standard_normal(40)
    X = np.column_stack([np.ones(40), 1e150 * x])
    return ProbitData((x > 0).astype(float), X), ProbitPrior.ridge(0.01, 2)


def _stein_problem(n, p, seed):
    """S + S A S and G = B S at MP's own fixed point on a probit set."""
    data = ProbitData(*generate_probit(n, p, seed=seed))
    prior = ProbitPrior.ridge(0.01, p)
    rep = probit_mp_fit(data, prior, "dm", max_iter=2000)
    Z, S = data.Z, np.linalg.inv(data.Z.T @ data.Z + prior.D)
    mu, Sig = rep.params["beta"].mean, rep.params["beta"].cov
    m = Z @ mu
    A = (Z.T * (1.0 + _dm_xi(2, m, np.einsum("ij,jk,ik->i", Z, Sig, Z)))) @ Z
    return S + S @ A @ S, (Z.T * (1.0 + zeta(2, m))) @ Z @ S


class TestDirectSolve:
    """Probit MFVB as Newton steps to the mode, and MP's outer iteration:
    a Newton step in mu and the Stein equation in Sigma, solved by
    doubling."""

    @pytest.mark.parametrize("n,p,seed", [(40, 2, 3), (57, 5, 14),
                                          (32, 4, 50), (200, 3, 7)])
    def test_stein_doubling_solves_its_equation(self, n, p, seed):
        Q, G = _stein_problem(n, p, seed)
        Sig = probit._stein(Q, G)
        scale = np.max(np.abs(Sig))
        assert np.max(np.abs(Q + G.T @ Sig @ G - Sig)) <= 1e-12 * scale
        assert np.max(np.abs(Sig - _dense_stein(Q, G))) <= 1e-12 * scale

    def test_stein_without_a_solution_is_numeric_error(self):
        Q = np.eye(3)
        for G in (np.eye(3), 1.5 * np.eye(3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match="covariance equation"):
                    probit._stein(Q, G)

    @pytest.mark.parametrize("method", ["mfvb", "mp-dm", "mp-quad"])
    @pytest.mark.parametrize("n,p,seed", [(57, 5, 14), (20, 5, 8),
                                          (32, 4, 50)])
    def test_near_separation_converges(self, method, n, p, seed):
        data = ProbitData(*generate_probit(n, p, seed=seed))
        rep = FITS[method](data, ProbitPrior.ridge(0.01, p), max_iter=2000)
        # mp-dm on (32, 4, 50) takes 117 outer iterations, linear through v;
        # sweeping with SQUAREM it took 1,396 maps
        cap = 150 if (method, seed) == ("mp-dm", 50) else 50
        assert rep.converged and rep.iterations <= cap

    @pytest.mark.parametrize("method", ["mfvb", "mp-dm"])
    def test_converges_where_predictor_scale_is_extreme(self, method):
        rep = FITS[method](*_separable_150())
        assert rep.converged

    def test_mfvb_mean_a_is_the_auxiliary_mean(self, synthetic200):
        """aux.mean_a is E_q[a_i] = m_i + zeta_1(m_i) at the reported mean,
        m = Z mu, as MP's is E_q[a_i]; the swept fit reported m itself."""
        data, prior = synthetic200
        rep = probit_mfvb_fit(data, prior)
        m = data.Z @ rep.params["beta"].mean
        assert np.max(np.abs(rep.params["aux"].mean_a
                             - (m + zeta(1, m)))) <= 1e-12

    def test_mfvb_mean_is_the_laplace_mode(self, synthetic200):
        mf = probit_mfvb_fit(*synthetic200)
        lap = probit_laplace_fit(*synthetic200)
        assert np.array_equal(mf.params["beta"].mean, lap.params["beta"].mean)
        assert mf.iterations == lap.iterations


@pytest.fixture(scope="module")
def three_blocks_and_five():
    """Three full row blocks and a partial one in every row-block pass."""
    y, X = generate_probit(3 * probit._ROW_BLOCK + 5, 4, seed=11)
    return ProbitData(y, X), ProbitPrior.ridge(0.01, 4)


def _max_gap(a, b) -> float:
    return max(float(np.max(np.abs(a.params["beta"].mean
                                   - b.params["beta"].mean))),
               float(np.max(np.abs(a.params["beta"].cov
                                   - b.params["beta"].cov))))


class TestRowBlocks:
    @pytest.mark.parametrize("variant", ["dm", "quad"])
    def test_row_permutation_leaves_mp_fit_unchanged(
            self, three_blocks_and_five, variant):
        data, prior = three_blocks_and_five
        perm = np.random.default_rng(3).permutation(data.n)
        a = probit_mp_fit(data, prior, variant)
        b = probit_mp_fit(ProbitData(data.y[perm], data.X[perm]), prior,
                          variant)
        assert a.converged and b.iterations == a.iterations
        assert _max_gap(a, b) <= 1e-12
        assert np.max(np.abs(b.params["aux"].mean_a
                             - a.params["aux"].mean_a[perm])) <= 1e-12

    @pytest.mark.parametrize("method", ["laplace", "mp-dm", "mp-quad"])
    def test_block_size_does_not_change_fit(self, three_blocks_and_five,
                                            monkeypatch, method):
        data, prior = three_blocks_and_five
        fit = {"laplace": lambda: probit_laplace_fit(data, prior),
               "mp-dm": lambda: probit_mp_fit(data, prior, "dm"),
               "mp-quad": lambda: probit_mp_fit(data, prior, "quad")}[method]
        a = fit()
        monkeypatch.setattr(probit, "_ROW_BLOCK", 7)
        b = fit()
        assert a.converged and b.iterations == a.iterations
        assert _max_gap(a, b) <= 1e-12

    @pytest.mark.parametrize("variant", ["dm", "quad"])
    def test_walk_block_does_not_change_mp_fit(self, three_blocks_and_five,
                                               monkeypatch, variant):
        """An MP fit walked as one block and as 11 blocks of 280 rows, its
        Gram sums in 7-row blocks both times, is the same bit for bit: dm's
        walk 2 remakes the zeta orders from walk 1's zeta_1 exactly."""
        data, prior = three_blocks_and_five
        monkeypatch.setattr(probit, "_ROW_BLOCK", 7)
        a = probit_mp_fit(data, prior, variant)
        monkeypatch.setattr(probit, "_WALK_BLOCK", 40 * 7)
        b = probit_mp_fit(data, prior, variant)
        assert a.converged and b.iterations == a.iterations
        assert all(np.array_equal(x, y) for x, y in zip(a.trace, b.trace))

    def test_dmvb_objective_and_gradient_ignore_block_size(
            self, three_blocks_and_five, monkeypatch):
        data, prior = three_blocks_and_five
        mus = np.random.default_rng(5).standard_normal((4, 4)) * 0.5
        default = [dmvb_objective_grad(data, prior, mu) for mu in mus]
        monkeypatch.setattr(probit, "_ROW_BLOCK", 7)
        for mu, (val, grad) in zip(mus, default):
            val7, grad7 = dmvb_objective_grad(data, prior, mu)
            assert abs(val7 - val) <= 1e-12 * max(1.0, abs(val))
            assert np.max(np.abs(grad7 - grad)) <= 1e-12 * max(
                1.0, np.max(np.abs(grad)))

    @pytest.mark.parametrize("n", [77, 1024, 3000])
    def test_one_mp_sweep_matches_dense_update(self, n):
        """One sweep, an outer iteration, from (mu, Sigma), with m = Z mu, gives the
        Sigma' that solves Sigma' = S + S A S + G^T Sigma' G, where
        A = Z^T diag(1 + xi_2(m, v)) Z and G = Z^T diag(1 + zeta_2(m)) Z S,
        then the Newton step mu' = mu + (S^-1 - A')^-1 (Z^T xi_1 - D mu),
        with xi_1, xi_2 and A' at Sigma''s variances v', by dense numpy
        below, at and above one row block."""
        data = ProbitData(*generate_probit(n, 5, seed=n))
        prior = ProbitPrior.ridge(0.01, 5)
        Z, D = data.Z, prior.D
        P = Z.T @ Z + D
        S = np.linalg.inv(P)
        mu, Sig = S @ (Z.T @ np.ones(n)), 1.5 * S
        rep = probit_mp_fit(data, prior, "dm", max_iter=1,
                            init=GaussianApprox(mu, Sig))
        m = Z @ mu
        A = (Z.T * (1.0 + _dm_xi(2, m, np.einsum("ij,jk,ik->i", Z, Sig, Z)))
             ) @ Z
        dense_sig = _dense_stein(S + S @ A @ S,
                                 (Z.T * (1.0 + zeta(2, m))) @ Z @ S)
        v = np.einsum("ij,jk,ik->i", Z, dense_sig, Z)
        A = (Z.T * (1.0 + _dm_xi(2, m, v))) @ Z
        assert np.min(np.linalg.eigvalsh(P - A)) > 0  # the Newton branch
        dense_mu = mu + np.linalg.solve(P - A, Z.T @ _dm_xi(1, m, v) - D @ mu)
        for got, want in ((rep.params["beta"].mean, dense_mu),
                          (rep.params["beta"].cov, dense_sig)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("variant", ["dm", "quad"])
    def test_mp_fit_holds_few_n_vectors(self, variant):
        """Beside its data and its trace, a 20,000 x 10 MP fit peaks at six
        n-vectors at most: an iteration holds m = Z mu, v and xi_1 (this in
        its trace entry), and evaluates the rest block by block."""
        n, p = 20_000, 10
        data = ProbitData(*generate_probit(n, p, seed=2))
        prior = ProbitPrior.ridge(0.01, p)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = probit_mp_fit(data, prior, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak - start - sum(t.nbytes for t in rep.trace) <= 6 * n * 8

    @pytest.mark.parametrize("method", ["mfvb", "mp-dm", "mp-quad"])
    def test_fit_holds_no_n_by_p_matrix_beyond_the_data(self, method,
                                                        monkeypatch):
        """Besides the data's Z and X, a sweep holds no n x p matrix: no
        block of that size is alive when a sweep evaluates zeta or sums a
        Gram matrix."""
        n, p = 20_000, 10
        data = ProbitData(*generate_probit(n, p, seed=2))
        live = []

        def counting(fn):
            def wrapped(*args):
                live.append(sum(t.size >= n * p * 8 for t in
                                tracemalloc.take_snapshot().traces))
                return fn(*args)
            return wrapped

        for name in ("_gram", "_zeta_orders"):
            monkeypatch.setattr(probit, name, counting(getattr(probit, name)))
        tracemalloc.start()
        try:
            FITS[method](data, ProbitPrior.ridge(0.01, p), max_iter=2)
        finally:
            tracemalloc.stop()
        assert live and max(live) == 0


class TestDMVB:
    def test_gradient_matches_finite_differences(self, synthetic200):
        data, prior = synthetic200
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(10):
            mu = rng.standard_normal(3) * 0.5
            _, grad = dmvb_objective_grad(data, prior, mu)
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                vp, _ = dmvb_objective_grad(data, prior, mu + e)
                vm, _ = dmvb_objective_grad(data, prior, mu - e)
                fd[j] = (vp - vm) / (2 * h)
            assert np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))) \
                <= 1e-5

    def test_prior_dominated(self):
        y, X = generate_probit(50, 2, seed=3)
        rep = probit_dmvb_fit(ProbitData(y, X), ProbitPrior.ridge(1e6, 2))
        assert np.max(np.abs(rep.params["beta"].mean)) < 1e-3

    def test_near_laplace_mode(self, synthetic200):
        data, prior = synthetic200
        lap = probit_laplace_fit(data, prior, eps=1e-12)
        dv = probit_dmvb_fit(data, prior)
        assert dv.converged
        assert np.linalg.norm(dv.params["beta"].mean
                              - lap.params["beta"].mean) < 0.05


NEWTON_FITS = {"laplace": probit_laplace_fit, "dmvb": probit_dmvb_fit}


class TestNewtonFits:
    """Laplace and dmvb: damped Newton steps on the fixed-point driver. The
    last tests check invariances of every probit fit."""

    def test_dmvb_converges_where_bfgs_stopped_short(self):
        # BFGS stopped here on precision loss after 31 iterations with
        # max |grad| = 1.4e-5
        y, X = generate_probit(50_000, 20, seed=1840210241)
        data, prior = ProbitData(y, X), ProbitPrior.ridge(0.01, 20)
        rep = probit_dmvb_fit(data, prior, eps=1e-6)
        assert rep.converged and rep.iterations <= 10
        _, grad = dmvb_objective_grad(data, prior, rep.params["beta"].mean)
        assert np.max(np.abs(grad)) < 1e-6

    @pytest.mark.parametrize("n,p,seed", [(20, 2, 1), (30, 3, 8)])
    def test_dmvb_stops_at_its_optimum(self, n, p, seed):
        # neither set is separable; a full step M^-1 g overshoots near the
        # optimum, as M is Laplace's curvature and not the objective's, and
        # a fit that accepted any step short of a rounding-level fall swung
        # about the optimum until max_iter
        data = ProbitData(*generate_probit(n, p, seed=seed))
        prior = ProbitPrior.ridge(0.01, p)
        rep = probit_dmvb_fit(data, prior, max_iter=50)
        assert rep.converged
        _, grad = dmvb_objective_grad(data, prior, rep.params["beta"].mean)
        assert np.max(np.abs(grad)) < 1e-6

    def test_dmvb_factor_rejected_by_cholesky_is_numeric_error(
            self, synthetic200, monkeypatch):
        data, prior = synthetic200
        # every Gram matrix -2 D makes M = -D, which is not positive definite
        monkeypatch.setattr(probit, "_gram", lambda Z, w: -2.0 * prior.D)
        with pytest.raises(NumericError, match="lost positive definiteness"):
            probit_dmvb_fit(data, prior)

    @pytest.mark.parametrize("method", NEWTON_FITS)
    def test_one_matrix_per_evaluated_point(self, synthetic200, monkeypatch,
                                            method):
        """Each evaluated point builds M once; the step from it and the
        reported covariance reuse its factor."""
        calls = {"_gram": 0, "_newton_point": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(probit, name)):
                calls[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(probit, name, counted)
        rep = NEWTON_FITS[method](*synthetic200)
        assert rep.converged
        # the start and each step's accepted point: no step is halved here
        assert calls["_newton_point"] == rep.iterations + 1
        assert calls["_gram"] == calls["_newton_point"]

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    @pytest.mark.parametrize("method", NEWTON_FITS)
    def test_non_finite_candidate_fails_the_armijo_test(
            self, synthetic200, monkeypatch, method, bad):
        """A candidate whose objective is not finite fails the Armijo test:
        the first step's full candidate, given objective -inf or nan here,
        is halved, and the half step is taken, with no RuntimeWarning."""
        point, xs = probit._newton_point, []

        def spoiled(Z, D, x, profiled):
            xs.append(x)
            out = point(Z, D, x, profiled)
            return (x, bad, *out[2:]) if len(xs) == 2 else out
        monkeypatch.setattr(probit, "_newton_point", spoiled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = NEWTON_FITS[method](*synthetic200, max_iter=1)
        assert len(xs) == 3
        assert np.allclose(xs[2] - xs[0], 0.5 * (xs[1] - xs[0]),
                           rtol=1e-12, atol=0.0)
        assert np.array_equal(rep.params["beta"].mean, xs[2])

    @pytest.mark.parametrize("method", NEWTON_FITS)
    def test_trace_has_one_iterate_per_step(self, synthetic200, method):
        rep = NEWTON_FITS[method](*synthetic200)
        assert rep.converged and rep.termination == "converged"
        assert len(rep.trace) == rep.iterations >= 2
        assert np.array_equal(rep.trace[-1], rep.params["beta"].mean)

    @pytest.mark.parametrize("method", NEWTON_FITS)
    def test_restart_from_optimum_takes_two_steps(self, synthetic200,
                                                  method):
        """The driver never tests the first step, so a fit started at its
        own optimum stops after the second."""
        first = NEWTON_FITS[method](*synthetic200)
        again = NEWTON_FITS[method](*synthetic200,
                                    init=first.params["beta"])
        assert again.converged and again.iterations == 2
        assert np.max(np.abs(again.params["beta"].mean
                             - first.params["beta"].mean)) <= 1e-6

    # MP's own row-permutation test is in TestRowBlocks
    @pytest.mark.parametrize("method", [*NEWTON_FITS, "mfvb"])
    def test_row_permutation_leaves_fit_unchanged(self, three_blocks_and_five,
                                                  method):
        data, prior = three_blocks_and_five
        perm = np.random.default_rng(3).permutation(data.n)
        a = FITS[method](data, prior)
        b = FITS[method](ProbitData(data.y[perm], data.X[perm]), prior)
        assert a.converged and b.iterations == a.iterations
        assert _max_gap(a, b) <= 1e-12

    @pytest.mark.parametrize("method", FITS)
    def test_column_sign_flip_flips_coefficient(self, synthetic200, method):
        data, prior = synthetic200
        X = data.X.copy()
        X[:, 1] *= -1.0
        a = FITS[method](data, prior)
        b = FITS[method](ProbitData(data.y, X), prior)
        sign = np.array([1.0, -1.0, 1.0])
        assert a.converged and b.iterations == a.iterations
        assert np.max(np.abs(b.params["beta"].mean
                             - sign * a.params["beta"].mean)) <= 1e-12
        assert np.max(np.abs(b.params["beta"].cov - np.outer(sign, sign)
                             * a.params["beta"].cov)) <= 1e-12

    @pytest.mark.parametrize("method", [*FITS, "gibbs"])
    def test_column_scaling_scales_coefficient(self, method):
        """Column j times c, with D_jj times c^2, is the same model in
        beta_j / c: coefficient j's mean and its covariance row and column
        scale by 1/c. The iterative fits agree within 10 eps of their
        fixed points, and Gibbs, whose draws of a stay the same, within
        rounding."""
        eps = 1e-10
        fit = FITS.get(method) or (
            lambda data, prior, eps: probit_gibbs_oracle(
                data, prior, n_samples=1000, n_warmup=100, seed=3))
        for n, p, seed, j, c in [(57, 3, 1, 1, 3.7), (90, 4, 2, 3, 0.23),
                                 (40, 2, 3, 0, 2.5), (119, 4, 4, 2, 1.9)]:
            y, X = generate_probit(n, p, seed=seed)
            s = np.ones(p)
            s[j] = c
            prior = ProbitPrior.ridge(0.5, p)
            a = fit(ProbitData(y, X), prior, eps=eps)
            b = fit(ProbitData(y, X * s),
                    ProbitPrior(prior.D * np.outer(s, s)), eps=eps)
            if method != "gibbs":
                assert a.converged and b.converged
                a, b = a.params["beta"], b.params["beta"]
            tol = 1e-12 if method == "gibbs" else 10 * eps
            assert np.max(np.abs(s * b.mean - a.mean)) <= tol
            assert np.max(np.abs(np.outer(s, s) * b.cov - a.cov)) <= tol


def _gibbs_reference(data, prior, n_samples, n_warmup, seed):
    """Gibbs draws one at a time with plain numpy expressions, reading the
    two spawned streams in the order the sampler reads them."""
    Z = data.Z
    S = np.linalg.inv(Z.T @ Z + prior.D)
    L = np.linalg.cholesky(S)
    rng_u, rng_e = (np.random.default_rng(s)
                    for s in np.random.SeedSequence(seed).spawn(2))
    beta, draws = np.zeros(data.p), []
    for _ in range(n_warmup + n_samples):
        m = Z @ beta
        v = (1.0 - rng_u.random(data.n)) * (1.0 - 2.0 ** -53)
        a = m - ndtri(v * ndtr(m))
        beta = S @ (Z.T @ a) + L @ rng_e.standard_normal(data.p)
        draws.append(beta)
    return np.array(draws[n_warmup:])


class TestGibbs:
    def test_truncated_normal_mean(self):
        # closed-form mean of the positive-truncated normal: m + zeta_1(m)
        rng = np.random.default_rng(23)
        m = np.full(400_000, -2.0)
        draws = _truncnorm_positive(rng, m)
        assert np.all(draws > 0)
        expect = -2.0 + zeta(1, -2.0)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - expect) < 3 * se

    @pytest.mark.parametrize("m", [-38.0, -40.0, -60.0, -1e3])
    def test_far_tail_draws_are_positive(self, m):
        # Phi(m) V leaves the normal doubles here; the log-space rows must
        # still land above 0 with the closed-form mean m + zeta_1(m)
        draws = _truncnorm_positive(np.random.default_rng(29),
                                    np.full(100_000, m))
        assert np.all(draws > 0)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - (m + zeta(1, m))) < 3 * se

    @pytest.mark.parametrize("m", [-40.0, -3.0, -0.5, 0.0, 2.0, 8.0])
    def test_accept_reject_kernel_matches_inverse_cdf(self, m):
        """The accept-reject kernel, its inverse-CDF fallback included (all
        of it at m = -40, in log space), draws what the inverse-CDF kernel
        draws: a two-sample KS test, and the closed-form mean m + zeta_1(m)
        within 3 standard errors."""
        ms = np.full(50_000, m)
        draws = _truncnorm_ar_positive(np.random.default_rng(31), ms)
        assert np.all(draws > 0)
        reference = _truncnorm_positive(np.random.default_rng(37), ms)
        assert ks_2samp(draws, reference).pvalue > 1e-3
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - (m + zeta(1, m))) < 3 * se

    def test_accept_reject_kernel_reads_its_stream_in_row_order(self):
        """The kernel's draws, bit for bit, by hand from a second generator
        with the same seed: one standard_normal over every row, then the
        next k uniforms to the k rejected rows in row order. Where no row
        is rejected (m = +40) it reads nothing past the normals."""
        m = np.random.default_rng(41).normal(0.3, 2.0, 10_000)
        draws = _truncnorm_ar_positive(np.random.default_rng(43), m)
        rng = np.random.default_rng(43)
        want = m + rng.standard_normal(len(m))
        rows = np.flatnonzero(want <= 0.0)
        assert 0 < len(rows) < len(m)
        v = (1.0 - rng.random(len(rows))) * probit._BELOW_ONE
        want[rows] = m[rows] - ndtri(ndtr(m[rows]) * v)
        assert np.array_equal(draws, want)

        rng, ref = np.random.default_rng(47), np.random.default_rng(47)
        draws = probit._truncnorm_ar(rng, np.full(1_000, 40.0),
                                     np.empty(1_000))
        assert np.array_equal(draws, 40.0 + ref.standard_normal(1_000))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_single_observation_posterior(self, single_obs):
        # y = 1, x = 1, D = 1: the posterior is proportional to
        # Phi(b) N(b; 0, 1), a skew normal with mean 1/sqrt(pi) and
        # variance 1 - 1/pi
        summ = probit_gibbs_oracle(*single_obs, n_samples=50_000,
                                   n_warmup=1000, seed=4)
        assert abs(summ.mean[0] - 1 / np.sqrt(np.pi)) < 4 * summ.mc_se[0]
        assert summ.cov[0, 0] == pytest.approx(1 - 1 / np.pi, rel=0.03)

    def test_block_size_does_not_change_chain(self, synthetic200,
                                              monkeypatch):
        # 2,100 draws: the default block of 163 and a block of 11 both
        # leave a partial last block
        a = probit_gibbs_oracle(*synthetic200, n_samples=2000, n_warmup=100,
                                seed=6)
        monkeypatch.setattr(probit, "_GIBBS_CELLS", 11 * 200)
        b = probit_gibbs_oracle(*synthetic200, n_samples=2000, n_warmup=100,
                                seed=6)
        for x, y in [(a.mean, b.mean), (a.cov, b.cov), (a.mc_se, b.mc_se)]:
            assert np.array_equal(x, y)

    def test_matches_per_draw_reference(self, synthetic200):
        # same streams, same formulas; only the summation order differs
        summ = probit_gibbs_oracle(*synthetic200, n_samples=2000,
                                   n_warmup=100, seed=8)
        ref = _gibbs_reference(*synthetic200, 2000, 100, 8)
        assert np.allclose(summ.mean, ref.mean(axis=0), rtol=1e-9, atol=0)
        assert np.allclose(summ.cov, np.cov(ref.T), rtol=1e-9, atol=0)

    def test_warmup_floor(self, single_obs):
        with pytest.raises(DomainError, match="n_warmup"):
            probit_gibbs_oracle(*single_obs, n_samples=1000, n_warmup=-5)
        assert probit_gibbs_oracle(*single_obs, n_samples=1000,
                                   n_warmup=0).mean.shape == (1,)

    def test_prior_dominated_mean_near_zero(self):
        y, X = generate_probit(50, 2, seed=3)
        data = ProbitData(y, X)
        summ = probit_gibbs_oracle(data, ProbitPrior.ridge(1e6, 2),
                                   n_samples=4000, n_warmup=500, seed=2)
        assert np.all(np.abs(summ.mean) <= 3 * summ.mc_se + 1e-4)

    def test_seed_stability(self, synthetic200):
        data, prior = synthetic200
        a = probit_gibbs_oracle(data, prior, n_samples=8000, n_warmup=1000,
                                seed=1)
        b = probit_gibbs_oracle(data, prior, n_samples=8000, n_warmup=1000,
                                seed=2)
        combined = np.sqrt(a.mc_se**2 + b.mc_se**2)
        assert np.all(np.abs(a.mean - b.mean) < 4 * combined)

    def test_determinism(self, single_obs):
        a = probit_gibbs_oracle(*single_obs, n_samples=2000, n_warmup=100,
                                seed=9)
        b = probit_gibbs_oracle(*single_obs, n_samples=2000, n_warmup=100,
                                seed=9)
        assert a.mean == pytest.approx(b.mean, rel=0, abs=0)

    def test_sample_floor(self, single_obs):
        with pytest.raises(DomainError):
            probit_gibbs_oracle(*single_obs, n_samples=10)

    def test_chain_holds_no_n_by_p_array(self):
        """Beside Z, a chain at n = 20,000, p = 20 holds n-vectors and its
        draws only: its traced peak stays below a quarter of Z, where
        S Z^T alone would take all of it."""
        n, p = 20_000, 20
        data = ProbitData(*generate_probit(n, p, seed=5))
        prior = ProbitPrior.ridge(0.01, p)
        tracemalloc.start()
        try:
            probit_gibbs_oracle(data, prior, n_samples=1000, n_warmup=0,
                                seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.Z.nbytes / 4


class TestGibbsHalves:
    """The sampler's path from probit._GIBBS_SPLIT rows on, taken here at
    n = 200 by lowering the split."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        monkeypatch.setattr(probit, "_GIBBS_SPLIT", 100)

    @staticmethod
    def chain(data, prior, seed=5):
        return probit._gibbs_chain(data.Z, probit._workspace(data, prior)[1],
                                   1_000, seed)

    def test_concurrent_chains_under_fast_switching(self, synthetic200):
        """Two chains at once, each with its worker (four threads on two
        CPUs), switching threads every microsecond: each equals the same
        chain run alone, so no half reads or writes another's buffers."""
        want = [self.chain(*synthetic200, seed=s) for s in (5, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                got = list(pool.map(lambda s: self.chain(*synthetic200,
                                                         seed=s),
                                    (5, 6), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_seed_gives_the_chain(self, synthetic200):
        a, b = self.chain(*synthetic200), self.chain(*synthetic200)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, self.chain(*synthetic200, seed=6))

    @pytest.mark.parametrize("fails", [None, "worker", "caller"])
    def test_worker_thread_ends_with_the_chain(self, synthetic200,
                                               monkeypatch, fails):
        """The worker is joined when the chain returns, and when a half
        raises, on either thread."""
        kernel = probit._truncnorm_ar

        def failing(*args):
            worker = threading.current_thread() is not threading.main_thread()
            if fails == ("worker" if worker else "caller"):
                raise RuntimeError("half failed")
            return kernel(*args)

        monkeypatch.setattr(probit, "_truncnorm_ar", failing)
        baseline = threading.active_count()
        if fails is None:
            self.chain(*synthetic200)
        else:
            with pytest.raises(RuntimeError, match="half failed"):
                self.chain(*synthetic200)
        assert threading.active_count() == baseline

    def test_moments_agree_with_the_default_path(self, synthetic200,
                                                 monkeypatch):
        """At criterion 07's data the split chain's mean lies within 4
        combined Monte Carlo SEs of the default chain's."""
        kw = dict(n_samples=5_000, n_warmup=200, seed=1)
        split = probit_gibbs_oracle(*synthetic200, **kw)
        monkeypatch.setattr(probit, "_GIBBS_SPLIT", 10**9)
        default = probit_gibbs_oracle(*synthetic200, **kw)
        combined = np.sqrt(split.mc_se**2 + default.mc_se**2)
        assert np.all(np.abs(split.mean - default.mean) < 4 * combined)
        assert np.allclose(split.cov, default.cov, rtol=0.1)


@pytest.mark.parametrize("draw", [
    lambda seed: generate_linear(10, 2, seed),
    lambda seed: generate_probit(10, 2, seed),
    lambda seed: generate_mvn(10, 2, seed),
    lambda seed: probit_gibbs_oracle(ProbitData([1.0, 0.0], [[1.0], [0.5]]),
                                     ProbitPrior.ridge(1.0, 1),
                                     n_samples=1000, n_warmup=0, seed=seed),
], ids=["linear", "probit", "mvn", "gibbs"])
def test_negative_seed_is_domain_error(draw):
    with pytest.raises(DomainError, match="seed must be non-negative"):
        draw(-1)
    draw(0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("draw,match", [
    (lambda: generate_linear(10, 3, 0, beta=[1.0, 2.0]),
     r"beta has shape \(2,\); p = 3"),
    (lambda: generate_probit(10, 3, 0, beta=[1.0, 2.0]),
     r"beta has shape \(2,\); p = 3"),
    (lambda: generate_linear(10, 2, 0, beta=[np.nan, 1.0]),
     "beta must be finite"),
    (lambda: generate_probit(10, 2, 0, beta=[1.0, np.inf]),
     "beta must be finite"),
    (lambda: generate_linear(10, 2, 0, sigma=np.nan),
     "generated y must be finite"),
    (lambda: generate_linear(10, 2, 0, beta=[1e308, 1e308]),
     "generated y must be finite"),
    (lambda: generate_probit(10, 2, 0, beta=[1e308, 1e308]),
     "generated X beta must be finite"),
], ids=["linear-short-beta", "probit-short-beta", "linear-nan-beta",
        "probit-inf-beta", "linear-nan-sigma", "linear-overflow",
        "probit-overflow"])
def test_generators_reject_what_they_cannot_draw(draw, match):
    """A beta of another length or with a non-finite entry, and data that
    come out non-finite, are domain errors, not tracebacks or NaN rows."""
    with pytest.raises(DomainError, match=match):
        draw()


STARTED_FITS = {"laplace": probit_laplace_fit, "mfvb": probit_mfvb_fit,
                "mp": probit_mp_fit, "dmvb": probit_dmvb_fit}


class TestStarts:
    @pytest.mark.parametrize("method", STARTED_FITS)
    def test_start_of_another_dimension_is_domain_error(self, synthetic200,
                                                        method):
        start = GaussianApprox(np.zeros(2), np.eye(2))
        with pytest.raises(DomainError, match=r"init mean has shape \(2,\); "
                                              r"the data needs \(3,\)"):
            STARTED_FITS[method](*synthetic200, init=start)

    def test_mp_start_cov_of_another_dimension_is_domain_error(
            self, synthetic200):
        start = MomentSummary(np.zeros(3), np.eye(2))
        with pytest.raises(DomainError, match=r"init cov has shape \(2, 2\); "
                                              r"the data needs \(3, 3\)"):
            probit_mp_fit(*synthetic200, init=start)

    def test_mp_start_cov_must_be_positive_definite(self, synthetic200):
        start = MomentSummary(np.zeros(3), -np.eye(3))
        with pytest.raises(DomainError,
                           match="init cov is not positive definite"):
            probit_mp_fit(*synthetic200, init=start)

    @pytest.mark.parametrize("method", STARTED_FITS)
    def test_gibbs_summary_starts_as_its_gaussian(self, synthetic200,
                                                  method):
        """A Gibbs moment summary starts a fit exactly as the Gaussian
        with its mean and covariance does."""
        cov = np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.05], [0.0, 0.05, 0.3]])
        mean = np.array([0.2, 0.7, -0.1])
        a = STARTED_FITS[method](*synthetic200,
                                 init=MomentSummary(mean, cov))
        b = STARTED_FITS[method](*synthetic200,
                                 init=GaussianApprox(mean, cov))
        assert a.iterations == b.iterations
        assert np.array_equal(a.params["beta"].mean, b.params["beta"].mean)
        assert np.array_equal(a.params["beta"].cov, b.params["beta"].cov)


class TestData:
    def test_signed_design(self):
        d = ProbitData(y=[1.0, 0.0], X=[[2.0], [3.0]])
        assert d.Z == pytest.approx(np.array([[2.0], [-3.0]]))

    def test_keeps_no_view_of_the_callers_table(self):
        """y may be a column of a table, as the CLI passes it; the data owns
        a copy, so the table is freed once the caller drops it."""
        table = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
        gone = weakref.ref(table)
        data = ProbitData(table[:, 0], table[:, 1:].copy())
        del table
        assert gone() is None
        assert np.array_equal(data.y, [1.0, 0.0, 1.0])

    def test_reads_back_the_design_bit_for_bit(self):
        """X, read back from Z, is the X given, signed zeros included; the
        caller's y and X are left as they were, and Z is the data's only
        2-d array."""
        rng = np.random.default_rng(4)
        y = (rng.random(30) < 0.5).astype(float)
        X = rng.standard_normal((30, 4))
        X[::3, 1], X[1::3, 2] = 0.0, -0.0
        y0, X0 = y.tobytes(), X.tobytes()
        data = ProbitData(y, X)
        assert data.X.tobytes() == X0 and data.X.shape == X.shape
        assert y.tobytes() == y0 and X.tobytes() == X0
        assert (data.n, data.p) == (30, 4)
        assert [k for k, v in vars(data).items()
                if isinstance(v, np.ndarray) and v.ndim == 2] == ["Z"]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_design_is_column_major(self, order):
        """Z is Fortran-ordered whatever the layout of the X given, and X
        reads back the input bits."""
        rng = np.random.default_rng(6)
        y = (rng.random(9) < 0.5).astype(float)
        X = np.asarray(rng.standard_normal((9, 3)), order=order)
        data = ProbitData(y, X)
        assert data.Z.flags.f_contiguous
        assert data.X.tobytes() == X.tobytes()

    def test_rejects_nonbinary(self):
        with pytest.raises(DomainError):
            ProbitData(y=[0.5], X=[[1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_design(self, bad):
        with pytest.raises(DomainError):
            ProbitData(y=[1.0, 0.0], X=[[1.0, 0.5], [1.0, bad]])
