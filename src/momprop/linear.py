"""Bayesian linear regression with a g-prior on coefficients.

Model: y | beta, sigma2 ~ N(X beta, sigma2 I), beta | sigma2 ~ N(0,
g sigma2 (X^T X)^-1), sigma2 ~ IG(A, B). The posterior is available in
closed form (t for beta, inverse-gamma for sigma2), which makes this model
a testbed for approximate fitters:

* mean-field coordinate ascent (Gaussian x inverse-gamma factors),
* moment propagation with a Gaussian coefficient density ("approach 1"),
* moment propagation with a t coefficient density ("approach 2"),
  whose fixed point recovers the exact posterior.

In every fitter q(beta)'s covariance (t scale for mp2) is s u (X^T X)^-1,
s = B/A (B/(A - 1) for mp1) of the IG(A, B) a sweep starts from, so its
sigma2 update reads tr(X^T X Sigma)/u = s p, tr((X^T X Sigma)^2)/u^2 = s^2 p.

All fitters monitor convergence as the max-norm change of the flattened
q-parameter vector between sweeps, stopping below eps.

A LinearData computes its Gram statistics (X'X with its rank check,
(X'X)^-1, X'y, the OLS estimate and y'y) on its first fit and keeps them
read-only, so the fits of one data set share them. Its y and X must not be
written after it is built (no fitter writes them), and its fields cannot
be reassigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, NumericError
from .moments import (GaussianApprox, InverseGammaApprox, StudentTApprox,
                      _gauss_quadform, _ig_mean, _ig_var, _t_quadform,
                      ig_moment_match, require_matchable,
                      require_regression, symmetrize)
from .reports import FitReport, fixed_point


class GramStats(NamedTuple):
    """Data-only statistics of a linear regression, each read-only."""

    XtX: np.ndarray
    XtX_inv: np.ndarray
    Xty: np.ndarray
    beta_hat: np.ndarray
    yty: float


@dataclass(frozen=True)
class LinearData:
    """Response y and design X of a linear regression, with matching,
    non-zero row counts and finite entries.

    gram holds the data's Gram statistics, computed on the first fit and
    kept read-only; a rank-deficient X raises NumericError on every fit.
    y and X must not be written after the data is built, as gram would
    then be stale; the fields cannot be reassigned."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y, X = require_regression(self.y, self.X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram(self) -> GramStats:
        """X'X, (X'X)^-1, X'y, the OLS estimate (X'X)^-1 X'y and y'y; one
        of X'X, X'y and y'y that overflows is a NumericError naming it."""
        with np.errstate(over="ignore", invalid="ignore"):
            XtX, Xty = self.X.T @ self.X, self.X.T @ self.y
            yty = self.y @ self.y
        for name, value in (("X'X", XtX), ("X'y", Xty), ("y'y", yty)):
            if not np.isfinite(value).all():
                raise NumericError(f"{name} is not finite")
        XtX = symmetrize(XtX)
        try:
            pivots = np.diag(np.linalg.cholesky(XtX)) ** 2
        except np.linalg.LinAlgError as exc:
            raise NumericError("X is rank deficient") from exc
        # cholesky factors numerically singular X'X too. pivot_j / (X'X)_jj
        # is 1 - R^2 of column j on the columns before it, free of column
        # scale: a few eps when columns are exactly collinear, orders above
        # 64 p eps else
        if np.any(pivots <= 64 * self.p * np.finfo(float).eps * np.diag(XtX)):
            raise NumericError("X is rank deficient")
        XtX_inv = symmetrize(np.linalg.inv(XtX))
        stats = GramStats(XtX, XtX_inv, Xty, XtX_inv @ Xty, yty)
        for a in stats[:4]:
            a.flags.writeable = False
        return stats


@dataclass
class LinearPrior:
    g: float
    A: float
    B: float

    def __post_init__(self):
        for name in ("g", "A", "B"):
            value = getattr(self, name)
            if not isfinite(value):
                raise DomainError(f"prior hyperparameter {name} must be finite")
            if not value > 0:
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
    gram = data.gram
    u = prior.g / (1.0 + prior.g)
    sigma_hat_u2 = (gram.yty - u * gram.Xty @ gram.XtX_inv @ gram.Xty) / data.n
    sigma_hat_u2 = max(sigma_hat_u2, 0.0)
    return LinearConstants(beta_hat=gram.beta_hat, u=u,
                           sigma_hat_u2=sigma_hat_u2, XtX=gram.XtX,
                           XtX_inv=gram.XtX_inv)


def linear_exact_posterior(data: LinearData, prior: LinearPrior
                           ) -> tuple[StudentTApprox, InverseGammaApprox]:
    """Closed-form posterior: beta | y is t, sigma2 | y is inverse-gamma."""
    c = linear_constants(data, prior)
    shape = prior.A + data.n / 2.0
    scale = prior.B + data.n * c.sigma_hat_u2 / 2.0
    return (StudentTApprox(c.u * c.beta_hat, *_beta_t(c, shape, scale)),
            InverseGammaApprox(shape=shape, scale=scale))


def _beta_t(c: LinearConstants, shape: float, scale: float):
    """Scale matrix and dof of the t that N(u beta_hat, sigma2 u (X'X)^-1)
    is when sigma2 ~ IG(shape, scale)."""
    return (scale / shape) * c.u * c.XtX_inv, 2.0 * shape


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
    first sweep needs. MP's _ig_var(c1, ...) needs c1 > 2, and its moment
    matching a c1 and a starting shape that are not too large; the shapes
    of later sweeps stay below c1.
    """
    c1 = prior.A + (data.n + data.p) / 2.0
    if method != "mfvb" and not c1 > 2.0:
        raise DomainError("sigma2 moment matching needs A + (n + p)/2 > 2; "
                          f"got A={prior.A}, n={data.n}, p={data.p}")
    c = linear_constants(data, prior)
    mu = c.u * c.beta_hat
    resid = data.y - data.X @ mu
    b_mu = (prior.B + 0.5 * resid @ resid
            + mu @ c.XtX @ mu / (2.0 * prior.g))
    # numpy scalars, as a Python float's product overflows to inf unseen
    shape, scale = map(np.float64, (c1, prior.B + 0.5 * data.gram.yty)
                       if init is None else (init.shape, init.scale))
    if not shape > min_shape:
        raise DomainError(f"{method} needs a starting q(sigma2) shape > "
                          f"{min_shape:g}, got {shape}")
    if method != "mfvb":
        require_matchable(max(c1, shape), "q(sigma2) shape")
    return c, mu, b_mu, c1, (shape, scale)


def _match_sigma2(EqB: float, VqB: float, c1: float) -> tuple[float, float]:
    """q(sigma2) = IG matching the mean and variance of sigma2 obtained by
    averaging its IG(c1, B(beta)) full conditional over q(beta)."""
    ig = ig_moment_match(_ig_mean(c1, EqB), _ig_var(c1, EqB, VqB))
    return ig.shape, ig.scale


def linear_mfvb_fit(data: LinearData, prior: LinearPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: InverseGammaApprox | None = None) -> FitReport:
    """Coordinate-ascent mean-field fit with q(beta) Gaussian, q(sigma2) IG."""
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mfvb", 0.0)

    def step(state):
        At, Bt, _ = state
        Sig = _beta_t(c, At, Bt)[0]  # E[1/sigma2]^-1 u (X'X)^-1
        Bt = b_mu + (Bt / At) * data.p / 2.0
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
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mp1", 1.0)

    def step(state):
        At, Bt, _ = state
        s = _ig_mean(At, Bt)
        Sig = s * c.u * c.XtX_inv
        EQ, VQ = _gauss_quadform(s * data.p, s**2 * data.p)
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
    # the first sweep's t quadratic form needs its dof 2 At above 4
    c, mu, b_mu, c1, start = _sweep_setup(data, prior, init, "mp2", 2.0)

    def step(state):
        At, Bt, _, _ = state
        Sig, nu = _beta_t(c, At, Bt)
        s = Bt / At
        EQ, VQ = _t_quadform(s * data.p, s**2 * data.p, nu)
        At, Bt = _match_sigma2(b_mu + EQ / 2.0, VQ / 4.0, c1)
        return (At, Bt, Sig, nu), np.concatenate([mu, Sig.ravel(),
                                                  [nu, At, Bt]])

    return fixed_point(
        step, (*start, None, None),
        lambda s: {"beta": StudentTApprox(mu, s[2], s[3]),
                   "sigma2": InverseGammaApprox(s[0], s[1])},
        eps, max_iter)
