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

import numpy as np

from .exceptions import DomainError
from .moments import (GaussianApprox, InverseGammaApprox,
                      InverseWishartApprox, StudentTApprox, _iw_match,
                      require_finite, require_shape, require_spd,
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
        S = X.T @ X - n * np.outer(xbar, xbar)
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
    mu_n = data.n * data.xbar / lam_n
    Psi_n = symmetrize(Psi0 + data.S
                       + (data.n * lam0 / lam_n) * np.outer(data.xbar, data.xbar))
    return MVNConstants(lambda_n=lam_n, nu_n=nu_n, mu_n=mu_n, Psi_n=Psi_n)


def mvn_exact_posterior(data: MVNData, prior: MVNPrior
                        ) -> tuple[StudentTApprox, InverseWishartApprox]:
    c = mvn_constants(data, prior)
    p = data.p
    if not c.nu_n > p - 1:
        raise DomainError("posterior dof must exceed p - 1")
    mu = StudentTApprox(loc=c.mu_n,
                        scale=c.Psi_n / (c.lambda_n * (c.nu_n - p + 1.0)),
                        dof=c.nu_n - p + 1.0)
    Sigma = InverseWishartApprox(scale_matrix=c.Psi_n, dof=c.nu_n)
    return mu, Sigma


def _start(default_dof: float, c: MVNConstants,
           init: InverseWishartApprox | None) -> tuple[float, np.ndarray]:
    """Starting (dof, scale matrix) of q(Sigma), init's if given."""
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
        Psit = symmetrize(c.Psi_n + c.lambda_n * Sig)
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
    mu = c.mu_n

    def step(state):
        dt, Psit, _, _ = state
        if not dt > p - 1.0:
            raise DomainError("q(Sigma) dof fell below p - 1")
        Sig = symmetrize(Psit / (c.lambda_n * (dt - p + 1.0)))
        nut = dt - p + 1.0
        if nut < 4.0:
            raise DomainError(
                "fourth-moment matching needs q(mu) dof >= 4; "
                f"reached dof {nut}")
        Amat = symmetrize(c.Psi_n
                          + c.lambda_n * nut * Sig / (nut - 2.0))
        EmpS = Amat / (c.nu_n - p)
        if nut == 4.0:
            # Fourth moment of q(mu) diverges: with an infinite summed
            # variance the matched dof collapses to the degenerate p + 3.
            var_sum = np.inf
        else:
            dgB = (2.0 * c.lambda_n**2 * nut**2 * (nut - 1.0)
                   / ((nut - 2.0) ** 2 * (nut - 4.0))) * np.diag(Sig) ** 2
            var_sum = np.sum((2.0 * np.diag(Amat) ** 2 + (c.nu_n - p) * dgB)
                             / ((c.nu_n - p) ** 2 * (c.nu_n - p - 2.0)))
        # EmpS is exactly symmetric, and so is the matched scale matrix
        dt, Psit = _iw_match(EmpS, var_sum)
        return (dt, Psit, Sig, nut), np.concatenate(
            [mu, Sig.ravel(), [nut], Psit.ravel(), [dt]])

    rep = fixed_point(
        step, (*_start(c.nu_n, c, init), None, None),
        lambda s: {"mu": StudentTApprox(mu, s[2], s[3]),
                   "Sigma": InverseWishartApprox(s[1], s[0])},
        eps, max_iter)
    dof = rep.params["Sigma"].dof
    rep.wrong_basin = abs(dof - (p + 3.0)) < 0.5 and abs(dof - c.nu_n) > 1.0
    return rep


def iw_diag_marginal(w: InverseWishartApprox, j: int) -> InverseGammaApprox:
    """Marginal of the (j, j) entry of an IW matrix: IG((d-p+1)/2, psi_jj/2)."""
    p = w.dim
    if not 0 <= j < p:
        raise DomainError("diagonal index out of range")
    return InverseGammaApprox(shape=(w.dof - p + 1.0) / 2.0,
                              scale=w.scale_matrix[j, j] / 2.0)
