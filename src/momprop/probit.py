"""Probit regression: Laplace, mean-field VB, moment propagation, delta-method
VB, and a data-augmentation Gibbs oracle.

The likelihood is prod_i Phi(z_i^T beta) with z_i = (2 y_i - 1) x_i and
prior beta ~ N(0, D^-1). With auxiliary variables a_i | beta ~ N(z_i^T
beta, 1) truncated to a_i > 0, the full conditionals are Gaussian, which
drives both the Gibbs sampler and the MFVB/MP updates. These start from
S = (Z^T Z + D)^-1, which, like the Newton fits' M^-1 below, is L^-T L^-1
from the Cholesky factor L (_cholesky_inverse); a factor that fails or is
not finite, as when Z^T Z overflows, is a NumericError.

Moment propagation keeps q(beta) Gaussian but never commits q(a) to a
parametric family: only E_q(a) and (implicitly) V_q(a) enter. Within each
sweep every zeta/xi evaluation uses the pre-update (mu_beta, Sigma_beta)
and the two new values are written together, so the n x n V_q(a) is never
materialized.

A moment-propagation sweep makes three O(n p^2) passes over the rows: the
predictor variances v_i = z_i^T Sigma_beta z_i and the two weighted Gram
matrices (Z S)^T diag(1 + xi_2) (Z S) and Z^T diag(1 + zeta_2) (Z S). Each
pass walks the rows in blocks of _ROW_BLOCK, so its scratch memory is
O(block p) rather than O(n p); the Laplace Hessian and the delta-method
ELBO use the same two row-block helpers.

Laplace and delta-method VB (dmvb) take damped Newton steps on the same
driver along M^-1 g, M = Z^T diag(-zeta_2(Z x)) Z + D: one evaluation of
a point gives its objective, its zeta orders and M^-1, and the state
carries M^-1 to the next step and to the reported covariance. A step is
halved until the objective rises enough (Armijo's rule). A fit stops once
a step moves its mean by less than eps in the max norm; the first step is
never tested, so a fit started at its own optimum takes two.

The Gibbs sampler reads two streams spawned from SeedSequence(seed): one
of uniforms for the a_i draws and one of standard normals for the beta
draws. It takes them a block of draws at a time (about _GIBBS_CELLS
uniforms) and writes each draw into a preallocated chain with in-place
ufuncs, so no draw makes its own RNG call at small n. Gibbs output for a
given seed therefore differs from versions that drew from one generator
one draw at a time; its distribution does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .datagen import seed_sequence
from .exceptions import DomainError, NumericError
from .moments import (GaussianApprox, RegressionData, require_shape,
                      require_spd, symmetrize)
from .reports import FitReport, MomentSummary, fixed_point
from .specfun import _xi_series, _zeta_orders, xi


# rows per block in the O(n p^2) passes; a block's temporaries stay in cache
_ROW_BLOCK = 1024


def _row_quadform(Z: np.ndarray, Sig: np.ndarray) -> np.ndarray:
    """z_i^T Sig z_i for every row z_i of Z, one block of rows at a time."""
    out = np.empty(Z.shape[0])
    for s in range(0, Z.shape[0], _ROW_BLOCK):
        Zb = Z[s:s + _ROW_BLOCK]
        out[s:s + _ROW_BLOCK] = np.einsum("ij,ij->i", Zb @ Sig, Zb)
    return out


def _gram(A: np.ndarray, w: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T diag(w) B, summed over blocks of rows."""
    out = np.zeros((A.shape[1], B.shape[1]))
    for s in range(0, A.shape[0], _ROW_BLOCK):
        e = s + _ROW_BLOCK
        out += A[s:e].T @ (w[s:e, None] * B[s:e])
    return out


class ProbitData(RegressionData):
    """Binary response y and design X; Z has rows z_i = (2 y_i - 1) x_i."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isin(self.y, (0.0, 1.0))):
            raise DomainError("y must be binary 0/1")
        self.Z = (2.0 * self.y - 1.0)[:, None] * self.X


@dataclass
class ProbitPrior:
    D: np.ndarray

    def __post_init__(self):
        self.D = require_spd(np.atleast_2d(self.D), "D")

    @classmethod
    def ridge(cls, lam: float, p: int) -> "ProbitPrior":
        if not lam > 0:
            raise DomainError("lambda must be positive")
        return cls(D=lam * np.eye(p))


@dataclass
class AuxiliaryMoments:
    mean_a: np.ndarray


def _cholesky_inverse(M: np.ndarray, message: str, last_iterate=None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(L, symmetrize(L^-T L^-1)), L the lower Cholesky factor of
    symmetrize(M); NumericError(message) where it fails or is not finite
    (a non-finite entry that numpy lets through reaches L's diagonal)."""
    try:
        L = np.linalg.cholesky(symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise NumericError(message, last_iterate=last_iterate) from exc
    if not isfinite(L.trace()):
        raise NumericError(message, last_iterate=last_iterate)
    Li = np.linalg.inv(L)
    return L, symmetrize(Li.T @ Li)


def _workspace(data: ProbitData, prior: ProbitPrior
               ) -> tuple[np.ndarray, np.ndarray]:
    """S = (Z^T Z + D)^-1, the covariance of beta given a, from the shared
    Cholesky inverse, and S Z^T."""
    _, S = _cholesky_inverse(data.Z.T @ data.Z + prior.D,
                             "Z^T Z + D is not finite and positive definite")
    return S, S @ data.Z.T


def _newton_point(Z: np.ndarray, D: np.ndarray, x: np.ndarray,
                  profiled: bool) -> tuple:
    """(x, f, zeta orders at Z x, M^-1) at a point x of a Newton fit,
    M = Z^T diag(-zeta_2(Z x)) Z + D. f is log p(y, x), less 1/2 log det M
    for the profiled delta-method ELBO, whose gradient also needs zeta_3.
    M^-1 = L^-T L^-1 and log det M come from the lower Cholesky factor L."""
    z = _zeta_orders(3 if profiled else 2, Z @ x)
    L, Minv = _cholesky_inverse(_gram(Z, -z[2], Z) + D,
                                "Newton matrix M lost positive definiteness",
                                last_iterate=x)
    f = np.sum(z[0]) - 0.5 * x @ D @ x
    if profiled:
        f -= np.sum(np.log(np.diag(L)))
    return x, float(f), z, Minv


def _newton_gradient(Z: np.ndarray, D: np.ndarray, point: tuple) -> np.ndarray:
    """Gradient of f at a _newton_point; the profiled term is
    1/2 Z^T (h * zeta_3) with h_i = z_i^T M^-1 z_i."""
    x, _, z, Minv = point
    grad = Z.T @ z[1] - D @ x
    if len(z) > 3:
        h = _row_quadform(Z, Minv)
        grad = grad + 0.5 * Z.T @ (h * z[3])
    return grad


def _start_mean(init: GaussianApprox | MomentSummary, p: int) -> np.ndarray:
    """A copy of the mean of a starting q(beta), which must be p long."""
    return require_shape(init.mean, (p,), "init mean").copy()


def _damped_newton(data: ProbitData, prior: ProbitPrior, profiled: bool,
                   init: GaussianApprox | MomentSummary | None, eps: float,
                   max_iter: int) -> FitReport:
    """Damped Newton ascent of f from init's mean (zero by default) along
    d = M^-1 g, with M^-1 from the state: s d, from s = 1, is halved up to
    30 times until f rises by 1e-4 s g^T d less 8 machine epsilons of |f|
    (Armijo). q(beta) is N(x, M^-1) at the last point."""
    Z, D = data.Z, prior.D

    def step(point):
        x, f, _, Minv = point
        g = _newton_gradient(Z, D, point)
        d = Minv @ g
        rise, slack = 1e-4 * (g @ d), 8.0 * np.finfo(float).eps * abs(f)
        scale = 1.0
        for _ in range(30):
            cand = _newton_point(Z, D, x + scale * d, profiled)
            if cand[1] - f >= scale * rise - slack:
                break
            scale *= 0.5
        return cand, cand[0]

    def params(point):
        return {"beta": GaussianApprox(point[0], point[3])}

    x = np.zeros(data.p) if init is None else _start_mean(init, data.p)
    return fixed_point(step, _newton_point(Z, D, x, profiled), params, eps,
                       max_iter)


def probit_laplace_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                       max_iter: int = 500,
                       init: GaussianApprox | MomentSummary | None = None
                       ) -> FitReport:
    """Damped Newton ascent of log p(y, beta) from init's mean; returns the
    mode and inverse negative Hessian [Z^T diag(-zeta_2(Z beta)) Z + D]^-1."""
    return _damped_newton(data, prior, False, init, eps, max_iter)


def probit_mfvb_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: GaussianApprox | MomentSummary | None = None
                    ) -> FitReport:
    """Mean-field fit; the coefficient covariance is S at every iteration and
    the converged mean coincides with the posterior mode."""
    Z = data.Z
    S, SZt = _workspace(data, prior)
    mu = SZt @ np.ones(data.n) if init is None else _start_mean(init, data.p)

    def step(state):
        mu_a = Z @ state[0]
        mu = SZt @ (mu_a + _zeta_orders(1, mu_a)[1])
        return (mu, mu_a), np.concatenate([mu, mu_a])

    return fixed_point(
        step, (mu, None),
        lambda s: {"beta": GaussianApprox(s[0], S),
                   "aux": AuxiliaryMoments(mean_a=s[1])},
        eps, max_iter, extrapolate=(lambda s: s[0], lambda x: (x, None)))


def _xi12(variant: str, m: np.ndarray, v: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smoothed zeta_1 / zeta_2 at (m_i, v_i), by second-order delta method
    (xi's series to two terms) or by xi itself, and zeta_2(m_i)."""
    if variant == "dm":
        z = _zeta_orders(4, m)
        x1, x2 = _xi_series(z, (1, 2), v, 2)
        return x1, x2, z[2]
    x1, x2 = xi((1, 2), m, v)
    return x1, x2, _zeta_orders(2, m)[2]


def probit_mp_fit(data: ProbitData, prior: ProbitPrior, variant: str = "dm",
                  eps: float = 1e-6, max_iter: int = 500,
                  init: GaussianApprox | MomentSummary | None = None
                  ) -> FitReport:
    """Moment-propagation fit with q(beta) Gaussian and nonparametric q(a),
    started from init's mean and covariance.

    variant selects how the Gaussian-smoothed xi_1, xi_2 are evaluated:
    "dm" (second-order delta method, needs zeta up to order 4) or "quad"
    (series/trapezoid evaluator).
    """
    if variant not in ("dm", "quad"):
        raise DomainError(f"unknown MP variant {variant!r}; use 'dm' or 'quad'")
    Z, p = data.Z, data.p
    S, SZt = _workspace(data, prior)
    ZS = Z @ S
    if init is None:
        mu, Sig = SZt @ np.ones(data.n), S.copy()
    else:
        mu = _start_mean(init, p)
        Sig = require_spd(require_shape(init.cov, (p, p), "init cov"),
                          "init cov")

    def step(state):
        mu, Sig, _ = state
        m = Z @ mu
        v = _row_quadform(Z, Sig)
        x1, x2, z2m = _xi12(variant, m, v)
        # zeta_2 lies in (-1, 0); equality with 0 only through underflow at
        # huge positive predictors, which is harmless in the updates below.
        if not (np.all(z2m > -1.0) and np.all(z2m <= 0.0)):
            raise NumericError("zeta_2 left (-1, 0); iteration is invalid",
                               last_iterate=mu)
        mu_a = m + x1
        term2 = _gram(ZS, 1.0 + x2, ZS)
        G = _gram(Z, 1.0 + z2m, ZS)
        term3 = G.T @ Sig @ G
        mu = SZt @ mu_a
        Sig = symmetrize(S + term2 + term3)
        return (mu, Sig, mu_a), np.concatenate([mu, Sig.ravel(), mu_a])

    def pack(state):
        return np.concatenate([state[0], state[1].ravel()])

    def unpack(x):
        Sig = x[p:].reshape(p, p)
        try:
            np.linalg.cholesky(Sig)
        except np.linalg.LinAlgError:
            return None
        return x[:p], Sig, None

    return fixed_point(
        step, (mu, Sig, None),
        lambda s: {"beta": GaussianApprox(s[0], s[1]),
                   "aux": AuxiliaryMoments(mean_a=s[2])},
        eps, max_iter, extrapolate=(pack, unpack))


def probit_dmvb_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: GaussianApprox | MomentSummary | None = None
                    ) -> FitReport:
    """Damped Newton ascent of the profiled delta-method ELBO along M^-1 g
    (g the gradient, M = Z^T diag(-zeta_2(Z mu)) Z + D); stops on a step
    below eps in the max norm, so a restart from the optimum takes two."""
    return _damped_newton(data, prior, True, init, eps, max_iter)


# largest double below 1: scaling 1 - u by it keeps V Phi(m) below 1, so
# ndtri never sees 1 and a draw stays finite for predictors far above 0
_BELOW_ONE = 1.0 - 2.0 ** -53
# below this predictor Phi(m) V, with V as small as 2^-53, can leave the
# normal doubles; those rows are drawn in log space
_LOG_TAIL = -36.0


def _tail_mass(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with V = (1 - u)(1 - 2^-53), u uniform on [0, 1), so V lies
    in (0, 1): the share of the positive mass that a draw leaves above it."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    out *= _BELOW_ONE
    return out


def _truncnorm_into(m: np.ndarray, v: np.ndarray, out: np.ndarray
                    ) -> np.ndarray:
    """out <- m - Phi^-1(V Phi(m)): draws from N(m, 1) conditioned on being
    positive (inverse-CDF form), with V from _tail_mass. Rows with m below
    _LOG_TAIL use m - ndtri_exp(log V + log Phi(m))."""
    ndtr(m, out=out)
    np.multiply(out, v, out=out)
    ndtri(out, out=out)
    if m[m.argmin()] < _LOG_TAIL:
        tail = m < _LOG_TAIL
        out[tail] = ndtri_exp(np.log(v[tail]) + log_ndtr(m[tail]))
    return np.subtract(m, out, out=out)


# batches of the Gibbs draws behind the batch-means Monte Carlo error
_MC_BATCHES = 50
# Gibbs draws are generated in blocks of max(1, _GIBBS_CELLS // n), so a
# block's uniforms take about _GIBBS_CELLS doubles
_GIBBS_CELLS = 1 << 15


def probit_gibbs_oracle(data: ProbitData, prior: ProbitPrior,
                        n_samples: int = 50_000, n_warmup: int = 5_000,
                        seed: int = 0) -> MomentSummary:
    """Albert-Chib data-augmentation Gibbs sampler.

    a_i | beta ~ N(z_i^T beta, 1) truncated to (0, inf); beta | a ~
    N(S Z^T a, S). Returns the empirical posterior mean and covariance of
    beta with batch-means Monte Carlo standard errors for the mean.

    The a draws and the beta draws read two streams spawned from
    SeedSequence(seed), in order and a block of draws at a time, so the
    chain does not depend on the block size.
    """
    if n_samples < 1000:
        raise DomainError("need at least 1000 samples")
    if n_warmup < 0:
        raise DomainError("n_warmup must be non-negative")
    Z = data.Z
    n, p = Z.shape
    S, SZt = _workspace(data, prior)
    Lt = np.linalg.cholesky(S).T
    rng_u, rng_e = (np.random.default_rng(s)
                    for s in seed_sequence(seed).spawn(2))
    total = n_warmup + n_samples
    chain = np.empty((total, p))
    block = max(1, _GIBBS_CELLS // n)
    V, N, E = np.empty((block, n)), np.empty((block, p)), np.empty((block, p))
    m, a = np.zeros(n), np.empty(n)  # m = Z beta, starting from beta = 0
    for s in range(0, total, block):
        b = min(block, total - s)
        Vb, Nb, Eb = _tail_mass(rng_u, V[:b]), N[:b], E[:b]
        rng_e.standard_normal(out=Nb)
        # E = N L^T column by column, so a row's sums do not depend on b
        np.multiply(Nb[:, :1], Lt[0], out=Eb)
        for k in range(1, p):
            Eb += Nb[:, k:k + 1] * Lt[k]
        for v, e, beta in zip(Vb, Eb, chain[s:s + b]):
            _truncnorm_into(m, v, a)
            np.dot(SZt, a, out=beta)
            np.add(beta, e, out=beta)
            np.dot(Z, beta, out=m)
    draws = chain[n_warmup:]
    mean = draws.mean(axis=0)
    cov = np.cov(draws.T, ddof=1).reshape(p, p)
    batch_means = draws[: n_samples - n_samples % _MC_BATCHES].reshape(
        _MC_BATCHES, -1, p).mean(axis=1)
    mc_se = batch_means.std(axis=0, ddof=1) / np.sqrt(_MC_BATCHES)
    return MomentSummary(mean=mean, cov=cov, mc_se=mc_se)
