"""Bayesian linear regression with a g-prior on coefficients.

Model: y | beta, sigma2 ~ N(X beta, sigma2 I), beta | sigma2 ~ N(0,
g sigma2 (X^T X)^-1), sigma2 ~ IG(A, B). The posterior is available in
closed form (t for beta, inverse-gamma for sigma2), which makes this model
a testbed for approximate fitters:

* mean-field coordinate ascent (Gaussian x inverse-gamma factors),
* moment propagation with a Gaussian coefficient density ("approach 1"),
* moment propagation with a t coefficient density ("approach 2"),
  whose fixed point recovers the exact posterior.

All fitters monitor convergence as the max-norm change of the flattened
q-parameter vector between sweeps, stopping below eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .moments import (GaussianApprox, InverseGammaApprox, RegressionData,
                      StudentTApprox, _gauss_quadform, _t_quadform,
                      ig_moment_match, symmetrize)
from .reports import FitReport, fixed_point


class LinearData(RegressionData):
    """Response y and design X of a linear regression."""


@dataclass
class LinearPrior:
    g: float
    A: float
    B: float

    def __post_init__(self):
        for name in ("g", "A", "B"):
            if not getattr(self, name) > 0:
                raise DomainError(f"prior hyperparameter {name} must be > 0")


@dataclass
class LinearConstants:
    beta_hat: np.ndarray
    u: float
    sigma_hat_u2: float
    XtX: np.ndarray
    XtX_inv: np.ndarray


def linear_constants(data: LinearData, prior: LinearPrior) -> LinearConstants:
    """OLS estimate, shrinkage factor u = g/(1+g), and shrunk residual variance."""
    XtX = symmetrize(data.X.T @ data.X)
    try:
        pivots = np.diag(np.linalg.cholesky(XtX)) ** 2
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("X is rank deficient") from exc
    # cholesky factors numerically singular X'X too. pivot_j / (X'X)_jj is
    # 1 - R^2 of column j on the columns before it, free of column scale: a
    # few eps when columns are exactly collinear, orders above 64 p eps else
    if np.any(pivots <= 64 * data.p * np.finfo(float).eps * np.diag(XtX)):
        raise np.linalg.LinAlgError("X is rank deficient")
    XtX_inv = symmetrize(np.linalg.inv(XtX))
    Xty = data.X.T @ data.y
    beta_hat = XtX_inv @ Xty
    u = prior.g / (1.0 + prior.g)
    sigma_hat_u2 = (data.y @ data.y - u * Xty @ XtX_inv @ Xty) / data.n
    sigma_hat_u2 = max(sigma_hat_u2, 0.0)
    return LinearConstants(beta_hat=beta_hat, u=u, sigma_hat_u2=sigma_hat_u2,
                           XtX=XtX, XtX_inv=XtX_inv)


def linear_exact_posterior(data: LinearData, prior: LinearPrior
                           ) -> tuple[StudentTApprox, InverseGammaApprox]:
    """Closed-form posterior: beta | y is t, sigma2 | y is inverse-gamma."""
    c = linear_constants(data, prior)
    n = data.n
    shape = prior.A + n / 2.0
    scale = prior.B + n * c.sigma_hat_u2 / 2.0
    beta = StudentTApprox(loc=c.u * c.beta_hat,
                          scale=(scale / shape) * c.u * c.XtX_inv,
                          dof=2.0 * prior.A + n)
    sigma2 = InverseGammaApprox(shape=shape, scale=scale)
    return beta, sigma2


def _sweep_setup(data: LinearData, prior: LinearPrior,
                 init: InverseGammaApprox | None, method: str,
                 min_shape: float):
    """Loop invariants of every sweep and the starting q(sigma2).

    q(beta) is centred at u beta_hat in every fitter, so B(beta) = B +
    ||y - X beta||^2 / 2 + beta' X'X beta / (2 g) equals its value at that
    centre plus Q / 2, with Q = (beta - u beta_hat)' (X'X / u) (beta - u
    beta_hat). Returns the constants, the centre, B at the centre, c1 = A +
    (n + p)/2 and the starting (shape, scale) of q(sigma2), init's if
    given, whose shape must exceed min_shape, the bound the method's
    first sweep needs.
    """
    c = linear_constants(data, prior)
    mu = c.u * c.beta_hat
    resid = data.y - data.X @ mu
    b_mu = (prior.B + 0.5 * resid @ resid
            + mu @ c.XtX @ mu / (2.0 * prior.g))
    c1 = prior.A + (data.n + data.p) / 2.0
    shape, scale = ((c1, prior.B + 0.5 * data.y @ data.y) if init is None
                    else (init.shape, init.scale))
    if not shape > min_shape:
        raise DomainError(f"{method} needs a starting q(sigma2) shape > "
                          f"{min_shape:g}, got {shape}")
    return c, mu, b_mu, c1, (shape, scale)


def _match_sigma2(EqB: float, VqB: float, c1: float) -> tuple[float, float]:
    """q(sigma2) = IG matching the mean and variance of sigma2 obtained by
    averaging its IG(c1, B(beta)) full conditional over q(beta)."""
    Es2 = EqB / (c1 - 1.0)
    Vs2 = (EqB**2 / ((c1 - 1.0) ** 2 * (c1 - 2.0))
           + VqB / ((c1 - 1.0) * (c1 - 2.0)))
    ig = ig_moment_match(Es2, Vs2)
    return ig.shape, ig.scale


def _check_sigma2_matching_exists(data: LinearData, prior: LinearPrior):
    if not prior.A + (data.n + data.p) / 2.0 > 2.0:
        raise DomainError(
            "sigma2 moment matching needs A + (n + p)/2 > 2; "
            f"got A={prior.A}, n={data.n}, p={data.p}")


def linear_mfvb_fit(data: LinearData, prior: LinearPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: InverseGammaApprox | None = None) -> FitReport:
    """Coordinate-ascent mean-field fit with q(beta) Gaussian, q(sigma2) IG."""
    # the first sweep scales Sigma by Bt / At
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mfvb", 0.0)

    def step(state):
        At, Bt, _ = state
        Sig = symmetrize((Bt / At) * c.u * c.XtX_inv)
        Bt = b_mu + np.trace(c.XtX @ Sig) / (2.0 * c.u)
        return (c1, Bt, Sig), np.concatenate([mu, Sig.ravel(), [c1, Bt]])

    return fixed_point(
        step, (*start, None),
        lambda s: {"beta": GaussianApprox(mu, s[2]),
                   "sigma2": InverseGammaApprox(s[0], s[1])},
        eps, max_iter)


def linear_mp1_fit(data: LinearData, prior: LinearPrior, eps: float = 1e-6,
                   max_iter: int = 500,
                   init: InverseGammaApprox | None = None) -> FitReport:
    """Moment propagation with a Gaussian coefficient density.

    Per sweep: q(beta) matches the first two moments of beta obtained by
    averaging its full conditional over q(sigma2); q(sigma2) then matches
    the mean/variance of sigma2 obtained by averaging its inverse-gamma
    full conditional over q(beta) (laws of total expectation/variance).
    """
    _check_sigma2_matching_exists(data, prior)
    # the first sweep scales Sigma by the q(sigma2) mean Bt / (At - 1)
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mp1", 1.0)

    def step(state):
        At, Bt, _ = state
        Sig = symmetrize((Bt / (At - 1.0)) * c.u * c.XtX_inv)
        XS = c.XtX @ Sig
        EQ, VQ = _gauss_quadform(np.trace(XS) / c.u,
                                 np.trace(XS @ XS) / c.u**2)
        At, Bt = _match_sigma2(b_mu + EQ / 2.0, VQ / 4.0, c1)
        return (At, Bt, Sig), np.concatenate([mu, Sig.ravel(), [At, Bt]])

    return fixed_point(
        step, (*start, None),
        lambda s: {"beta": GaussianApprox(mu, s[2]),
                   "sigma2": InverseGammaApprox(s[0], s[1])},
        eps, max_iter)


def linear_mp2_fit(data: LinearData, prior: LinearPrior, eps: float = 1e-6,
                   max_iter: int = 500,
                   init: InverseGammaApprox | None = None) -> FitReport:
    """Moment propagation with a t coefficient density.

    Additionally matches the second moment of the centered quadratic form
    (beta - u beta_hat)^T (X^T X / u) (beta - u beta_hat), which pins the
    degrees of freedom; at the fixed point the q-densities coincide with
    the exact posterior.
    """
    _check_sigma2_matching_exists(data, prior)
    # the first sweep's t quadratic form needs its dof 2 At above 4
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mp2", 2.0)

    def step(state):
        At, Bt, _, _ = state
        Sig = symmetrize((Bt / At) * c.u * c.XtX_inv)
        nu = 2.0 * At
        XS = c.XtX @ Sig
        EQ, VQ = _t_quadform(np.trace(XS) / c.u, np.trace(XS @ XS) / c.u**2,
                             1.0, nu)
        At, Bt = _match_sigma2(b_mu + EQ / 2.0, VQ / 4.0, c1)
        return (At, Bt, Sig, nu), np.concatenate([mu, Sig.ravel(),
                                                  [nu, At, Bt]])

    return fixed_point(
        step, (*start, None, None),
        lambda s: {"beta": StudentTApprox(mu, s[2], s[3]),
                   "sigma2": InverseGammaApprox(s[0], s[1])},
        eps, max_iter)
