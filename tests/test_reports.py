"""The shared fixed-point driver, the iteration arguments of every
iterative fitter, and the moment summary of every q."""

from functools import cache, partial

import numpy as np
import pytest
from scipy.linalg import block_diag

from momprop import probit
from momprop.datagen import (fixed_linear_dataset, generate_linear,
                             generate_mvn, generate_probit)
from momprop.diagnostics import ToyGaussianSpec, toy_gaussian_mp
from momprop.exceptions import DomainError, NumericError
from momprop.linear import (LinearData, LinearPrior, linear_exact_posterior,
                            linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit)
from momprop.moments import GaussianApprox, ig_mean_var
from momprop.mvn import MVNData, MVNPrior, mvn_mfvb_fit, mvn_mp_fit
from momprop.probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                            probit_gibbs_oracle, probit_laplace_fit,
                            probit_mfvb_fit, probit_mp_fit)
from momprop.reports import MomentSummary, fixed_point, moment_summary
from momprop.specfun import zeta


def _linear():
    return LinearData(*fixed_linear_dataset()), LinearPrior(1e4, 0.01, 0.01)


def _mvn():
    data = MVNData(n=4, xbar=[-0.9724726, 1.3202681],
                   S=[[0.8144316, 0.5688416], [0.5688416, 1.9682059]])
    return data, MVNPrior()


def _probit():
    y, X = generate_probit(40, 2, seed=3)
    return ProbitData(y, X), ProbitPrior.ridge(1.0, 2)


ITERATIVE_FITTERS = {
    "linear-mfvb": (linear_mfvb_fit, _linear),
    "linear-mp1": (linear_mp1_fit, _linear),
    "linear-mp2": (linear_mp2_fit, _linear),
    "mvn-mfvb": (mvn_mfvb_fit, _mvn),
    "mvn-mp": (mvn_mp_fit, _mvn),
    "probit-laplace": (probit_laplace_fit, _probit),
    "probit-mfvb": (probit_mfvb_fit, _probit),
    "probit-mp": (probit_mp_fit, _probit),
    "probit-dmvb": (probit_dmvb_fit, _probit),
}


@pytest.mark.parametrize("max_iter", [0, -1])
@pytest.mark.parametrize("name", sorted(ITERATIVE_FITTERS))
def test_max_iter_below_one_is_domain_error(name, max_iter):
    fit, problem = ITERATIVE_FITTERS[name]
    with pytest.raises(DomainError, match="max_iter"):
        fit(*problem(), max_iter=max_iter)


class TestFixedPoint:
    @staticmethod
    def halving(state):
        state = state / 2.0
        return state, np.array([state])

    def test_stops_when_successive_vectors_agree(self):
        rep = fixed_point(self.halving, 1.0,
                          lambda s: {"x": s}, eps=0.1, max_iter=50)
        # vectors 0.5, 0.25, 0.125, 0.0625: the change 0.0625 is the first
        # below 0.1
        assert rep.converged and rep.termination == "converged"
        assert rep.iterations == 4
        assert rep.params == {"x": 0.0625}
        assert [float(t[0]) for t in rep.trace] == [0.5, 0.25, 0.125, 0.0625]

    def test_cap_reports_last_state(self):
        rep = fixed_point(self.halving, 1.0,
                          lambda s: {"x": s}, eps=1e-9, max_iter=3)
        assert not rep.converged and rep.termination == "max_iter"
        assert rep.iterations == 3 and rep.params == {"x": 0.125}

    def test_first_sweep_never_converges(self):
        rep = fixed_point(lambda s: (s, np.zeros(1)), 0.0,
                          lambda s: {}, eps=1.0, max_iter=1)
        assert not rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("tail", [
        [0.0, np.nan], [np.nan, 0.0],  # a constant entry beside a NaN
        [np.inf, 0.0], [0.0, -np.inf]])  # a jump to inf that stays there
    def test_non_finite_vector_never_converges(self, tail):
        """Every entry but the non-finite one is constant, so only the
        non-finite change can keep the map from stopping."""
        def step(k):
            return k + 1, np.array([1.0, 2.0] if k == 0 else tail)

        rep = fixed_point(step, 0, lambda k: {"k": k}, eps=1.0, max_iter=6)
        assert not rep.converged and rep.termination == "max_iter"
        assert rep.iterations == 6 and rep.params == {"k": 6}

    @pytest.mark.parametrize("square,message", [
        (np.float64, "overflow encountered in scalar multiply"),
        (float, "(34, 'Numerical result out of range')")],
        ids=["numpy-scalar", "python-float"])
    def test_overflowing_map_is_numeric_error_naming_it(self, square,
                                                        message):
        """x -> x^2 from 1e20 overflows a double at the fourth map, a numpy
        scalar's product and a Python float's power alike: one
        NumericError naming that map, with no warning."""
        def step(x):
            x = x * x if square is np.float64 else x ** 2
            return x, np.array([x])

        with pytest.raises(NumericError) as info:
            fixed_point(step, square(1e20), lambda x: {"x": x}, eps=1e-9,
                        max_iter=50)
        assert str(info.value) == f"map 4 is not representable: {message}"

    def test_error_state_is_the_callers_after_a_fit(self):
        """The policy holds inside the driver only: numpy's error settings
        read the same after a converged fit, a fit cut at max_iter and a
        fit that overflows."""
        def overflow(x):
            x = x * np.float64(1e300)
            return x, np.array([x])

        with np.errstate(all="warn", under="ignore"):
            before = np.geterr()
            for max_iter in (50, 2):
                fixed_point(self.halving, 1.0, lambda s: {}, 0.1, max_iter)
                assert np.geterr() == before
            with pytest.raises(NumericError):
                fixed_point(overflow, np.float64(1.0), lambda s: {}, 0.1, 5)
            assert np.geterr() == before

    def test_domain_error_in_a_map_keeps_its_type(self):
        """Only a DomainError raised building the report is the fit's own
        failure; one a map raises is about the input, and stays one."""
        def step(x):
            raise DomainError("the map needs x > 2")

        with pytest.raises(DomainError, match="^the map needs x > 2$"):
            fixed_point(step, 1.0, lambda x: {}, eps=0.1, max_iter=5)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan")])
    def test_non_positive_eps(self, eps):
        with pytest.raises(DomainError, match="eps"):
            fixed_point(self.halving, 1.0, lambda s: {}, eps, 10)


def _contraction():
    """x -> A x + b with spectral radius 0.99."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    A = Q @ np.diag([0.99, 0.9, 0.5, 0.1]) @ Q.T
    return A, np.array([1.0, -2.0, 0.5, 3.0])


def _plain_loop(step, state, eps, max_iter):
    """The driver's loop written out plainly, kept as a reference:
    (trace, iterations, converged)."""
    trace, prev, converged = [], None, False
    for it in range(1, max_iter + 1):
        state, vec = step(state)
        trace.append(vec)
        if prev is not None and np.max(np.abs(vec - prev)) < eps:
            converged = True
            break
        prev = vec
    return trace, it, converged


class TestSquarem:
    """The driver once SQUAREM extrapolation was taken out of it: each
    trace entry is one map of the plain loop, and max_iter caps the maps.
    Probit MP's Newton step in the mean took over SQUAREM's work; where
    that step is rejected, the mean takes the plain map."""
    EPS = 1e-10

    @staticmethod
    def affine_step(A, b):
        def step(x):
            x = A @ x + b
            return x, x
        return step

    def assert_reference_loop(self, step, x0, eps, max_iter):
        rep = fixed_point(step, x0, lambda x: {}, eps, max_iter)
        trace, iterations, converged = _plain_loop(step, x0, eps, max_iter)
        assert (rep.iterations, rep.converged) == (iterations, converged)
        assert len(rep.trace) == len(trace)
        assert all(np.array_equal(u, w) for u, w in zip(rep.trace, trace))
        return rep

    def test_max_iter_caps_map_evaluations(self):
        A, b = _contraction()
        for cap in range(1, 8):
            rep = fixed_point(self.affine_step(A, b), np.zeros(4),
                              lambda x: {"x": x}, self.EPS, cap)
            assert rep.iterations == len(rep.trace) == cap
            assert not rep.converged and rep.termination == "max_iter"
            assert np.array_equal(rep.params["x"], rep.trace[-1])

    @pytest.mark.parametrize("step,converges", [
        (lambda x: (-x / 2.0, -x / 2.0), True),  # step length -2/3, above -1
        (lambda x: (x + 1.0, x + 1.0), False),  # v = 0
    ], ids=["step-length-above-minus-one", "zero-second-difference"])
    def test_no_squarem_point_leaves_the_plain_trace(self, step, converges):
        """The two maps on which SQUAREM declined to extrapolate: the
        driver's trace is the plain loop's, converging on the first and
        stopping at the cap on the second."""
        rep = self.assert_reference_loop(step, np.ones(4), self.EPS, 60)
        assert rep.converged == converges

    @pytest.mark.parametrize("eps,max_iter", [(1e-10, 5000), (1e-3, 5000),
                                              (1e-10, 7)])
    def test_plain_trace_is_the_reference_loop(self, eps, max_iter):
        A, b = _contraction()
        self.assert_reference_loop(self.affine_step(A, b), np.zeros(4), eps,
                                   max_iter)

    def test_rejected_point_falls_back_to_plain_maps(self, monkeypatch):
        """Where S^-1 - A is not positive definite, probit MP's mean takes
        the plain map mu + S (Z^T xi_1 - D mu), as the sweep did."""
        data, prior = _probit200()
        Z, D = data.Z, prior.D
        S = np.linalg.inv(Z.T @ Z + D)
        smoothed = probit._smoothed

        def positive_xi2(variant, d, z, m, v):
            out = smoothed(variant, d, z, m, v)
            out[-1] = np.abs(out[-1]) + 1.0  # A = Z^T diag(> 2) Z
            return out
        monkeypatch.setattr(probit, "_smoothed", positive_xi2)
        mu = np.array([0.3, -0.2, 0.5])
        rep = probit_mp_fit(data, prior, "dm", max_iter=1,
                            init=GaussianApprox(mu, S))
        m = Z @ mu
        v = np.einsum("ij,jk,ik->i", Z, rep.params["beta"].cov, Z)
        x1 = zeta(1, m) + 0.5 * zeta(3, m) * v
        want = mu + S @ (Z.T @ x1 - D @ mu)
        assert np.max(np.abs(rep.params["beta"].mean - want)) <= 1e-12

    def test_numeric_error_on_extrapolated_point_falls_back(self,
                                                            monkeypatch):
        """A NumericError from the factorisation of probit MP's Newton step
        leaves every iteration on the plain map, which reaches the same
        fixed point in more iterations."""
        data, prior = _probit200()
        newton = {v: probit_mp_fit(data, prior, v, eps=self.EPS)
                  for v in ("dm", "quad")}
        factor, raised = probit._cholesky_inverse, []

        def refuse_newton(M, message):
            if message.startswith("S^-1 - A"):
                raised.append(message)
                raise NumericError(message)
            return factor(M, message)
        monkeypatch.setattr(probit, "_cholesky_inverse", refuse_newton)
        for variant, fast in newton.items():
            raised.clear()
            plain = probit_mp_fit(data, prior, variant, eps=self.EPS)
            assert fast.converged and plain.converged
            assert len(raised) == plain.iterations > 3 * fast.iterations
            for got, want in ((plain.params["beta"].mean,
                               fast.params["beta"].mean),
                              (plain.params["beta"].cov,
                               fast.params["beta"].cov),
                              (plain.params["aux"].mean_a,
                               fast.params["aux"].mean_a)):
                assert np.max(np.abs(got - want)) <= 1e-9


def _probit200():
    y, X = generate_probit(200, 3, seed=7)
    return ProbitData(y, X), ProbitPrior.ridge(0.01, 3)


@cache
def _linear_sets():
    """40 seeded linear problems, n 5-59, p 1-4, g 1, 50 or 1e4."""
    sets = []
    for s in range(40):
        rng = np.random.default_rng(1000 + s)
        n, p = int(rng.integers(5, 60)), int(rng.integers(1, 5))
        g = float(rng.choice([1.0, 50.0, 1e4]))
        sets.append((LinearData(*generate_linear(n, p, seed=s)),
                     LinearPrior(g, 0.5, 0.5)))
    return sets


@cache
def _mvn_sets():
    """40 seeded MVN samples, n 6-59, p 1-3, under the default prior."""
    sets = []
    for s in range(40):
        rng = np.random.default_rng(2000 + s)
        n, p = int(rng.integers(6, 60)), int(rng.integers(1, 4))
        sets.append((MVNData.from_raw(generate_mvn(n, p, seed=s)),
                     MVNPrior()))
    return sets


@cache
def _probit_panel():
    """The 60 small-study panel sets: generate_probit(n_j, p_j, seed=j)
    with n_j in [50, 100] and p_j in {4, 5} drawn from default_rng(j)."""
    sets = []
    for j in range(60):
        rng = np.random.default_rng(j)
        n, p = int(rng.integers(50, 101)), int(rng.integers(4, 6))
        sets.append((ProbitData(*generate_probit(n, p, seed=j)),
                     ProbitPrior.ridge(0.01, p)))
    return sets


# method -> (fitter, problems, the q block the fitter starts from)
RESTARTS = {
    "linear-mfvb": (linear_mfvb_fit, _linear_sets, "sigma2"),
    "linear-mp1": (linear_mp1_fit, _linear_sets, "sigma2"),
    "linear-mp2": (linear_mp2_fit, _linear_sets, "sigma2"),
    "mvn-mfvb": (mvn_mfvb_fit, _mvn_sets, "Sigma"),
    "mvn-mp": (mvn_mp_fit, _mvn_sets, "Sigma"),
    "probit-laplace": (probit_laplace_fit, _probit_panel, "beta"),
    "probit-mfvb": (probit_mfvb_fit, _probit_panel, "beta"),
    "probit-mp-dm": (partial(probit_mp_fit, variant="dm"), _probit_panel,
                     "beta"),
    "probit-mp-quad": (partial(probit_mp_fit, variant="quad"),
                       _probit_panel, "beta"),
    "probit-dmvb": (probit_dmvb_fit, _probit_panel, "beta"),
}


@pytest.mark.parametrize("name", RESTARTS)
def test_restart_from_its_own_fit_takes_two_maps(name):
    """A fit started from the q-density it reported for its starting block
    stops at the second map (the driver never tests the first), within
    10 eps of where it stopped."""
    fit, problems, block = RESTARTS[name]
    eps = 1e-6
    for data, prior in problems():
        rep = fit(data, prior, eps=eps, max_iter=2000)
        again = fit(data, prior, eps=eps, max_iter=2000,
                    init=rep.params[block])
        assert rep.converged and again.converged
        assert again.iterations == 2
        assert np.max(np.abs(again.trace[-1] - rep.trace[-1])) <= 10 * eps


def _toy_q():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((3, 3))
    spec = ToyGaussianSpec(mu=rng.standard_normal(3),
                           Sigma=a @ a.T + 3 * np.eye(3), split=1)
    q1, q2, _, _ = toy_gaussian_mp(spec)
    return {"block1": q1, "block2": q2}


# each q shape with the summary the per-model code built for it
SUMMARY_CASES = {
    "linear-exact": (
        lambda: dict(zip(("beta", "sigma2"),
                         linear_exact_posterior(*_linear()))),
        lambda q: MomentSummary(q["beta"].mean, q["beta"].cov,
                                *ig_mean_var(q["sigma2"]))),
    "linear-mp2": (
        lambda: linear_mp2_fit(*_linear()).params,
        lambda q: MomentSummary(q["beta"].mean, q["beta"].cov,
                                *ig_mean_var(q["sigma2"]))),
    "mvn-mp": (
        lambda: mvn_mp_fit(*_mvn()).params,
        lambda q: MomentSummary(q["mu"].mean, q["mu"].cov)),
    "probit-mp": (
        lambda: probit_mp_fit(*_probit()).params,
        lambda q: MomentSummary(q["beta"].mean, q["beta"].cov)),
    "probit-gibbs": (
        lambda: {"beta": probit_gibbs_oracle(*_probit(), n_samples=1000,
                                             n_warmup=100, seed=5)},
        lambda q: q["beta"]),
    "toy": (
        _toy_q,
        lambda q: MomentSummary(
            np.concatenate([q["block1"].mean, q["block2"].mean]),
            block_diag(q["block1"].cov, q["block2"].cov))),
}


@pytest.mark.parametrize("case", SUMMARY_CASES)
def test_moment_summary_is_the_per_model_summary(case):
    """Bit for bit: vector blocks stacked, an inverse-gamma block's mean and
    variance, an empirical block's Monte Carlo errors; inverse-Wishart and
    auxiliary blocks left out."""
    build_q, expected = SUMMARY_CASES[case]
    q = build_q()
    got, want = moment_summary(q), expected(q)
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if value is None:
            assert getattr(got, name) == value, name
        else:
            assert np.array_equal(getattr(got, name), value), name
