"""The shared fixed-point driver, the iteration arguments of every
iterative fitter, and the moment summary of every q."""

from functools import cache, partial

import numpy as np
import pytest
from scipy.linalg import block_diag

from momprop.datagen import (fixed_linear_dataset, generate_linear,
                             generate_mvn, generate_probit)
from momprop.diagnostics import ToyGaussianSpec, toy_gaussian_mp
from momprop.exceptions import DomainError, NumericError
from momprop.linear import (LinearData, LinearPrior, linear_exact_posterior,
                            linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit)
from momprop.moments import ig_mean_var
from momprop.mvn import MVNData, MVNPrior, mvn_mfvb_fit, mvn_mp_fit
from momprop.probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                            probit_gibbs_oracle, probit_laplace_fit,
                            probit_mfvb_fit, probit_mp_fit)
from momprop.reports import (MomentSummary, _squarem_point, fixed_point,
                             moment_summary)


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

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan")])
    def test_non_positive_eps(self, eps):
        with pytest.raises(DomainError, match="eps"):
            fixed_point(self.halving, 1.0, lambda s: {}, eps, 10)


def _contraction():
    """x -> A x + b with spectral radius 0.99, and its fixed point."""
    Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    A = Q @ np.diag([0.99, 0.9, 0.5, 0.1]) @ Q.T
    b = np.array([1.0, -2.0, 0.5, 3.0])
    return A, b, np.linalg.solve(np.eye(4) - A, b)


def _plain_loop(step, state, eps, max_iter):
    """The driver's loop before extrapolation existed, kept as a reference:
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
    EPS, MAX_ITER = 1e-10, 5000

    @staticmethod
    def affine_step(A, b):
        def step(x):
            x = A @ x + b
            return x, x
        return step

    def run(self, step, extrapolate=None, max_iter=MAX_ITER):
        return fixed_point(step, np.zeros(4), lambda x: {"x": x},
                           self.EPS, max_iter, extrapolate=extrapolate)

    def test_fewer_maps_to_the_same_fixed_point(self):
        A, b, x_star = _contraction()
        step = self.affine_step(A, b)
        plain = self.run(step)
        fast = self.run(step, extrapolate=(lambda x: x, lambda x: x))
        assert plain.converged and fast.converged
        assert fast.iterations == len(fast.trace)
        assert 10 * fast.iterations < plain.iterations
        # the plain loop stops up to eps * rho / (1 - rho) = 1e-8 away
        assert np.max(np.abs(plain.params["x"] - x_star)) < 1e-7
        assert np.max(np.abs(fast.params["x"] - x_star)) < 1e-9

    def test_extrapolated_map_output_is_not_tested(self):
        A, b, x_star = _contraction()
        packed = []

        def pack(x):
            packed.append(x)
            return x
        # unpack hands back x1, so the extrapolated map repeats F(x1) = x2:
        # a zero change between two outputs whose inputs differ
        rep = self.run(self.affine_step(A, b),
                       extrapolate=(pack, lambda x: packed[-2]))
        assert rep.converged and rep.iterations > 3
        assert np.array_equal(rep.trace[-1], A @ rep.trace[-2] + b)
        assert np.max(np.abs(rep.params["x"] - x_star)) < 1e-7

    def test_max_iter_caps_map_evaluations(self):
        A, b, _ = _contraction()
        for cap in range(1, 8):
            rep = self.run(self.affine_step(A, b),
                           extrapolate=(lambda x: x, lambda x: x),
                           max_iter=cap)
            assert rep.iterations == len(rep.trace) == cap
            assert not rep.converged and rep.termination == "max_iter"

    def test_rejected_point_falls_back_to_plain_maps(self):
        A, b, x_star = _contraction()
        step = self.affine_step(A, b)
        rejected = []
        rep = self.run(step, extrapolate=(
            lambda x: x, lambda x: rejected.append(x)))
        plain = self.run(step)
        assert rejected and rep.converged
        assert rep.iterations == plain.iterations
        assert all(np.array_equal(u, w)
                   for u, w in zip(rep.trace, plain.trace))
        assert np.max(np.abs(rep.params["x"] - x_star)) < 1e-7

    def test_numeric_error_on_extrapolated_point_falls_back(self):
        A, b, x_star = _contraction()
        affine = self.affine_step(A, b)
        raised = []

        def step(state):
            x, leap = state
            if leap:
                raised.append(x)
                raise NumericError("extrapolated point", last_iterate=x)
            x, vec = affine(x)
            return (x, False), vec

        rep = fixed_point(step, (np.zeros(4), False),
                          lambda s: {"x": s[0]}, self.EPS, self.MAX_ITER,
                          extrapolate=(lambda s: s[0], lambda x: (x, True)))
        plain = self.run(affine)
        assert raised and rep.converged
        assert rep.iterations == len(rep.trace) == plain.iterations
        assert all(np.array_equal(u, w)
                   for u, w in zip(rep.trace, plain.trace))
        assert np.max(np.abs(rep.params["x"] - x_star)) < 1e-7

    @pytest.mark.parametrize("step", [
        lambda x: (-x / 2.0, -x / 2.0),  # step length -2/3, above -1
        lambda x: (x + 1.0, x + 1.0),  # v = 0
    ], ids=["step-length-above-minus-one", "zero-second-difference"])
    def test_no_squarem_point_leaves_the_plain_trace(self, step):
        x0 = np.ones(4)
        x1 = step(x0)[0]
        assert _squarem_point(x0, x1, step(x1)[0]) is None
        plain = fixed_point(step, x0, lambda x: {}, self.EPS, 60)
        rep = fixed_point(step, x0, lambda x: {}, self.EPS, 60,
                          extrapolate=(lambda x: x, lambda x: x))
        assert (rep.iterations, rep.converged) == (plain.iterations,
                                                   plain.converged)
        assert len(rep.trace) == len(plain.trace)
        assert all(np.array_equal(u, w)
                   for u, w in zip(rep.trace, plain.trace))

    @pytest.mark.parametrize("eps,max_iter", [(1e-10, 5000), (1e-3, 5000),
                                              (1e-10, 7)])
    def test_plain_trace_is_the_reference_loop(self, eps, max_iter):
        A, b, _ = _contraction()
        step = self.affine_step(A, b)
        rep = fixed_point(step, np.zeros(4), lambda x: {},
                          eps, max_iter)
        trace, iterations, converged = _plain_loop(step, np.zeros(4), eps,
                                                   max_iter)
        assert (rep.iterations, rep.converged) == (iterations, converged)
        assert len(rep.trace) == len(trace)
        assert all(np.array_equal(u, w) for u, w in zip(rep.trace, trace))


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
