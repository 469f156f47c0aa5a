"""Multivariate normal model with a normal / inverse-Wishart prior.

Model: x_i ~ N(mu, Sigma) iid, mu | Sigma ~ N(0, Sigma/lambda0),
Sigma ~ IW(Psi0, nu0). The exact posterior factors as Sigma | X ~
IW(Psi_n, nu_n) and mu | X ~ t(mu_n, Psi_n/(lambda_n (nu_n - p + 1)),
nu_n - p + 1).

The moment-propagation fitter uses q(mu) = t and q(Sigma) = IW, matching
mean/covariance of mu plus the second moment of ||mu - mu_n||^2, and mean
plus summed diagonal variance of Sigma. The moment equations admit two
solutions; initializing q(Sigma) at (Psi_n, nu_n) selects the exact one,
and convergence near dof = p + 3 is flagged as the wrong basin.

Data may be supplied as raw observations or as sufficient statistics
(n, xbar, S): the fitters consume nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .exceptions import DomainError, NumericError
from .moments import (GaussianApprox, InverseWishartApprox, StudentTApprox,
                      _ig_mean, _ig_var, _iw_diag_ig, _iw_match, _t_cov,
                      _t_quadform, iw_diag_marginal, require_finite,
                      require_matchable, require_shape, require_spd,
                      require_whole, symmetrize)
from .reports import FitReport, fixed_point


@dataclass
class MVNData:
    n: int
    xbar: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.n = require_whole(self.n, "n")
        # n = 0 is allowed (posterior collapses to the prior)
        if self.n < 0:
            raise DomainError("negative sample count")
        self.xbar = np.atleast_1d(require_finite(self.xbar, "xbar"))
        self.S = symmetrize(np.atleast_2d(require_finite(self.S, "S")))
        p = self.xbar.shape[0]
        if self.S.shape != (p, p):
            raise DomainError("S must be p x p with p = len(xbar)")
        if np.any(np.linalg.eigvalsh(self.S) < -1e-10 * max(1.0, np.trace(self.S))):
            raise DomainError("S must be positive semidefinite")

    @classmethod
    def from_raw(cls, X) -> "MVNData":
        X = np.atleast_2d(require_finite(X, "observations"))
        n = X.shape[0]
        xbar = X.mean(axis=0)
        R = X - xbar  # centred, so that S does not cancel when |xbar| is large
        with np.errstate(over="ignore", invalid="ignore"):  # cls checks S
            S = R.T @ R
        return cls(n=n, xbar=xbar, S=S)

    @property
    def p(self) -> int:
        return self.xbar.shape[0]


@dataclass
class MVNPrior:
    lambda0: float = 0.01
    nu0: float | None = None
    Psi0: np.ndarray | None = None

    def resolved(self, p: int) -> tuple[float, float, np.ndarray]:
        """Fill diffuse defaults (nu0 = p + 1, Psi0 = I) and validate."""
        nu0 = float(self.nu0) if self.nu0 is not None else p + 1.0
        Psi0 = (require_spd(self.Psi0, "Psi0") if self.Psi0 is not None
                else np.eye(p))
        for name, value in (("lambda0", self.lambda0), ("nu0", nu0)):
            if not isfinite(value):
                raise DomainError(f"{name} must be finite")
        if not self.lambda0 > 0:
            raise DomainError("lambda0 must be > 0")
        if not nu0 > p - 1:
            raise DomainError("nu0 must exceed p - 1")
        if Psi0.shape != (p, p):
            raise DomainError("Psi0 has wrong shape")
        return float(self.lambda0), nu0, Psi0


@dataclass
class MVNConstants:
    lambda_n: float
    nu_n: float
    mu_n: np.ndarray
    Psi_n: np.ndarray


def mvn_constants(data: MVNData, prior: MVNPrior) -> MVNConstants:
    lam0, nu0, Psi0 = prior.resolved(data.p)
    lam_n = lam0 + data.n
    nu_n = nu0 + data.n
    # a finite xbar's outer product can overflow; n xbar overflows only
    # where it does, so one test of Psi_n covers mu_n too
    with np.errstate(over="ignore", invalid="ignore"):
        mu_n = data.n * data.xbar / lam_n
        Psi_n = symmetrize(Psi0 + data.S + (data.n * lam0 / lam_n)
                           * np.outer(data.xbar, data.xbar))
    if not np.isfinite(Psi_n).all():
        raise NumericError("Psi_n is not finite")
    return MVNConstants(lambda_n=lam_n, nu_n=nu_n, mu_n=mu_n, Psi_n=Psi_n)


def mvn_exact_posterior(data: MVNData, prior: MVNPrior
                        ) -> tuple[StudentTApprox, InverseWishartApprox]:
    c = mvn_constants(data, prior)
    return (StudentTApprox(c.mu_n, *_mu_t(c, c.nu_n, c.Psi_n)),
            InverseWishartApprox(scale_matrix=c.Psi_n, dof=c.nu_n))


def _mu_t(c: MVNConstants, dof: float, scale_matrix: np.ndarray):
    """Scale matrix and dof of the t that N(mu_n, Sigma / lambda_n) is when
    Sigma ~ IW(scale_matrix, dof)."""
    nu = dof - c.mu_n.shape[0] + 1.0
    return scale_matrix / (c.lambda_n * nu), nu


def _start(default_dof: float, c: MVNConstants,
           init: InverseWishartApprox | None) -> tuple[float, np.ndarray]:
    """Starting (dof, scale matrix) of q(Sigma), init's if given."""
    # the maps' sums, multiples and _iw_match keep this exactly symmetric
    if init is None:
        return default_dof, c.Psi_n
    p = c.mu_n.shape[0]
    return init.dof, require_shape(init.scale_matrix, (p, p),
                                   "init scale matrix")


def mvn_mfvb_fit(data: MVNData, prior: MVNPrior, eps: float = 1e-6,
                 max_iter: int = 500,
                 init: InverseWishartApprox | None = None) -> FitReport:
    """Coordinate-ascent mean-field fit with q(mu) Gaussian, q(Sigma) IW."""
    c = mvn_constants(data, prior)
    mu = c.mu_n
    dof = c.nu_n + 1.0

    def step(state):
        dt, Psit, _ = state
        Sig = Psit / (c.lambda_n * dt)
        Psit = c.Psi_n + c.lambda_n * Sig
        return (dof, Psit, Sig), np.concatenate([mu, Sig.ravel(),
                                                 Psit.ravel(), [dof]])

    rep = fixed_point(
        step, (*_start(dof, c, init), None),
        lambda s: {"mu": GaussianApprox(mu, s[2]),
                   "Sigma": InverseWishartApprox(s[1], s[0])},
        eps, max_iter)
    rep.wrong_basin = False  # the mean-field fixed point is unique
    return rep


def mvn_mp_fit(data: MVNData, prior: MVNPrior, eps: float = 1e-6,
               max_iter: int = 500,
               init: InverseWishartApprox | None = None) -> FitReport:
    """Moment-propagation fit with q(mu) = t and q(Sigma) = IW.

    Default initialization (dof = nu_n, scale = Psi_n) starts at the exact
    solution of the moment equations; other starts may land on the second,
    inexact solution near dof = p + 3, which is reported via wrong_basin.
    """
    c = mvn_constants(data, prior)
    p = data.p
    if not c.nu_n - p - 2.0 > 0:
        raise DomainError("Sigma variance matching needs nu_n > p + 2")
    start = _start(c.nu_n, c, init)
    # q(mu)'s dof is dof - p + 1 at start's dof, then at most nu_n - p + 2,
    # twice the shape of the IGs whose variances a sweep sums
    require_matchable(max(c.nu_n + 1.0, start[0]) - p + 1.0, "q(mu) dof")
    mu = c.mu_n

    def step(state):
        dt, Psit, _, _ = state
        Sig, nut = _mu_t(c, dt, Psit)
        if nut < 4.0:
            raise DomainError(
                "fourth-moment matching needs q(mu) dof >= 4; "
                f"reached dof {nut}")
        # Sigma | mu ~ IW(Psi_n + lambda_n d d', nu_n + 1), d = mu - mu_n
        Amat = c.Psi_n + c.lambda_n * _t_cov(Sig, nut)
        shape, half_B = _iw_diag_ig(c.nu_n + 1.0, p, Amat)
        EmpS = _ig_mean(shape, half_B)
        # At dof 4 the fourth moment of q(mu) diverges: with an infinite
        # summed variance the matched dof collapses to the degenerate p + 3.
        lam_dg = c.lambda_n * np.diag(Sig)
        var_B = (np.inf if nut == 4.0
                 else _t_quadform(lam_dg, lam_dg**2, nut)[1])
        var_sum = np.sum(_ig_var(shape, np.diag(half_B), var_B / 4.0))
        dt, Psit = _iw_match(EmpS, var_sum)
        return (dt, Psit, Sig, nut), np.concatenate(
            [mu, Sig.ravel(), [nut], Psit.ravel(), [dt]])

    rep = fixed_point(
        step, (*start, None, None),
        lambda s: {"mu": StudentTApprox(mu, s[2], s[3]),
                   "Sigma": InverseWishartApprox(s[1], s[0])},
        eps, max_iter)
    dof = rep.params["Sigma"].dof
    rep.wrong_basin = abs(dof - (p + 3.0)) < 0.5 and abs(dof - c.nu_n) > 1.0
    return rep
